"""Shared signal builders for the tests and the benchmark.

The benchmark executes this module for its builders, so it imports neither
pytest nor hypothesis at module level; the fixtures built from these
builders live in shared_fixtures.py.
"""

import numpy as np

from revspeech import (
    AudioBuffer,
    EnhanceConfig,
    FeatureConfig,
    FeatureMatrix,
    Vocabulary,
    estimate_and_denoise,
    extract,
    train,
)

SR = 16000

pytest_plugins = ["shared_fixtures"]


def pytest_configure(config):
    """Property tests draw the same examples on every run.

    No seed from the clock, no replay database, and no per-example deadline
    to trip on a loaded machine.
    """
    from hypothesis import settings

    settings.register_profile(
        "deterministic", derandomize=True, database=None, deadline=None
    )
    settings.load_profile("deterministic")


def tone(freq_hz, duration_s, sr=SR, amplitude=0.3, phase=0.0):
    t = np.arange(int(duration_s * sr)) / sr
    return amplitude * np.sin(2 * np.pi * freq_hz * t + phase)


def white_noise(rng, duration_s, sr=SR, sigma=0.1):
    return sigma * rng.standard_normal(int(duration_s * sr))


def band_noise(rng, low_hz, high_hz, duration_s, sr=SR, rms=0.1):
    """Gaussian noise restricted to [low_hz, high_hz] by spectral masking."""
    n = int(duration_s * sr)
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1 / sr)
    spectrum[(freqs < low_hz) | (freqs > high_hz)] = 0
    x = np.fft.irfft(spectrum, n)
    return x * (rms / np.sqrt(np.mean(x**2)))


def sweep(f0, f1, duration_s, sr=SR, amplitude=0.3):
    """Linear chirp from f0 to f1."""
    t = np.arange(int(duration_s * sr)) / sr
    phase = 2 * np.pi * (f0 * t + (f1 - f0) * t**2 / (2 * duration_s))
    return amplitude * np.sin(phase)


def segmental_snr(clean, test, frame_len=400):
    """Mean framewise SNR in dB, each frame clamped to [-10, 35] dB."""
    clean = np.asarray(clean)
    test = np.asarray(test)
    values = []
    for start in range(0, len(clean) - frame_len + 1, frame_len):
        c = clean[start : start + frame_len]
        e = c - test[start : start + frame_len]
        num = np.sum(c**2)
        if num < 1e-12:
            continue
        den = max(np.sum(e**2), 1e-300)
        values.append(np.clip(10 * np.log10(num / den), -10.0, 35.0))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# Synthetic vocabulary: two steady band-noise words plus a direction-sensitive
# sweep pair. Steady profiles survive time reversal unchanged; the sweeps flip
# direction, which is what lets a reversed pass disagree with the forward one.

WORD_BANDS = {"update": (2200, 2900), "login": (3300, 3900)}
WORD_SWEEPS = {"accept": (500, 1500), "reject": (1500, 500)}


NOISE_FLOOR_SIGMA = 1e-3


def word_signal(word, rng, duration_s=0.5, sr=SR):
    jitter = 1.0 + 0.1 * rng.uniform(-1, 1)
    if word in WORD_BANDS:
        low, high = WORD_BANDS[word]
        return band_noise(rng, low, high, duration_s, sr, rms=0.12 * jitter)
    f0, f1 = WORD_SWEEPS[word]
    return sweep(f0, f1, duration_s, sr, amplitude=0.25 * jitter)


def utterance(word, rng, pad_s=0.15, sr=SR) -> AudioBuffer:
    """One word with silence padding over a faint noise floor, like a take."""
    signal = word_signal(word, rng, sr=sr)
    pad = np.zeros(int(pad_s * sr))
    samples = np.concatenate([pad, signal, pad])
    samples += NOISE_FLOOR_SIGMA * rng.standard_normal(len(samples))
    return AudioBuffer(samples, sr)


def word_features(buf, enhance_cfg, feature_cfg) -> FeatureMatrix:
    """Enhance, endpoint, and extract the loudest region: transcribe's front end."""
    from revspeech import segment_utterances

    cleaned, _ = estimate_and_denoise(buf, enhance_cfg)
    start_s, end_s = segment_utterances(buf)[0]
    sr = cleaned.sample_rate_hz
    piece = AudioBuffer(cleaned.samples[int(start_s * sr) : int(end_s * sr)], sr)
    return extract(piece, feature_cfg)


def train_vocabulary(words, seed=11, utterances=12, components=2):
    enhance_cfg = EnhanceConfig()
    feature_cfg = FeatureConfig()
    rng = np.random.default_rng(seed)
    models = []
    for word in words:
        rows = [
            word_features(utterance(word, rng), enhance_cfg, feature_cfg).rows
            for _ in range(utterances)
        ]
        stacked = np.vstack(rows)
        matrix = FeatureMatrix(
            stacked, len(stacked), feature_cfg.fingerprint(SR)
        )
        model, _ = train(matrix, components, seed=seed, label=word)
        models.append(model)
    return Vocabulary.from_models(models)


def build_session(rng, words=("accept", "update", "login"), gap_s=0.4, sr=SR):
    """Silence-separated word sequence over a faint noise floor."""
    pieces = [np.zeros(int(gap_s * sr))]
    spans = []
    cursor = gap_s
    for word in words:
        signal = word_signal(word, rng)
        spans.append((word, cursor, cursor + len(signal) / sr))
        pieces.append(signal)
        cursor += len(signal) / sr
        pieces.append(np.zeros(int(gap_s * sr)))
        cursor += gap_s
    samples = np.concatenate(pieces)
    samples += NOISE_FLOOR_SIGMA * rng.standard_normal(len(samples))
    return AudioBuffer(samples, sr), spans
