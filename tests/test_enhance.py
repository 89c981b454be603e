"""Noise estimation and enhancement contracts on synthetic signals."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import SR, segmental_snr, tone, white_noise
from oracles import padded_frames, subtract_magnitudes, subtraction_shaped, wiener_shaped
from revspeech import (
    AudioBuffer,
    EnhanceConfig,
    NoiseProfile,
    denoise,
    estimate_and_denoise,
    estimate_noise,
)
from revspeech import audio
from revspeech.audio import frame_energies
from revspeech.enhance import (
    DD_SMOOTHING,
    POSTERIOR_SNR_CAP,
    PRIOR_SNR_FLOOR,
    _subtracted,
    _wiener,
    denoise_spans,
)
from revspeech.errors import ConfigError
from revspeech.features import hamming_coefficients


def rms(x):
    return float(np.sqrt(np.mean(np.asarray(x) ** 2)))


def expected_noise_magnitude(rng, sigma, cfg, sample_rate=SR, trials=3000):
    """Mean windowed half-spectrum magnitude over independent noise frames."""
    frame_len, _, fft_size = cfg.frame.resolve(sample_rate)
    window = hamming_coefficients(frame_len, cfg.window_a)
    frames = sigma * rng.standard_normal((trials, frame_len)) * window
    return np.abs(np.fft.rfft(frames, n=fft_size, axis=1)).mean(axis=0)


class TestEstimateNoise:
    def test_white_noise_profile_is_flat(self):
        rng = np.random.default_rng(42)
        cfg = EnhanceConfig()
        profile = estimate_noise(AudioBuffer(white_noise(rng, 2.0), SR), cfg)
        assert profile.frames_used >= 100
        global_mean = profile.mean_magnitude.mean()
        deviation = np.abs(profile.mean_magnitude - global_mean) / global_mean
        assert np.max(deviation) < 0.20

    def test_digital_silence_gives_zero_profile(self):
        profile = estimate_noise(AudioBuffer(np.zeros(SR), SR), EnhanceConfig())
        np.testing.assert_array_equal(profile.mean_magnitude, np.zeros(257))
        assert profile.frames_used >= 1

    def test_silence_leadin_recovers_noise_spectrum(self):
        rng = np.random.default_rng(1234)
        cfg = EnhanceConfig()
        sigma = 0.05
        noise = sigma * rng.standard_normal(SR * 5)
        mix = noise.copy()
        for k, start_s in enumerate((2.2, 3.6)):
            start = int(start_s * SR)
            burst = tone(600 + 300 * k, 1.0, amplitude=0.4)
            mix[start : start + len(burst)] += burst

        profile = estimate_noise(AudioBuffer(mix, SR), cfg)

        lead = AudioBuffer(noise[: SR * 2], SR)
        frames = cfg.frame.segment(lead)
        window = hamming_coefficients(frames.frame_len, cfg.window_a)
        every = padded_frames(lead.samples, frames.frame_len, frames.hop)
        oracle = np.abs(np.fft.rfft(every * window, n=512, axis=1)).mean(axis=0)

        deviation = np.abs(profile.mean_magnitude - oracle) / oracle
        assert np.max(deviation) < 0.10

    def test_profile_length_matches_fft_size(self):
        # the half spectrum: fft_size // 2 + 1 bins
        rng = np.random.default_rng(2)
        profile = estimate_noise(
            AudioBuffer(white_noise(rng, 0.5), SR), EnhanceConfig(fft_size=1024)
        )
        assert len(profile.mean_magnitude) == 513


class TestSpectralSubtract:
    def test_zero_profile_is_identity(self):
        rng = np.random.default_rng(3)
        samples = tone(440, 2.0) + white_noise(rng, 2.0, sigma=0.05)
        buf = AudioBuffer(samples, SR)
        cfg = EnhanceConfig(method="spectral_subtraction")
        out = denoise(buf, NoiseProfile(np.zeros(257), 1), cfg)
        rel = np.linalg.norm(out.samples - samples) / np.linalg.norm(samples)
        assert rel < 1e-6

    def test_noise_only_suppression(self):
        cfg = EnhanceConfig(method="spectral_subtraction")
        rng = np.random.default_rng(4)
        sigma = 0.1
        profile = NoiseProfile(expected_noise_magnitude(rng, sigma, cfg), 3000)
        noise = sigma * rng.standard_normal(SR * 3)
        out = denoise(AudioBuffer(noise, SR), profile, cfg)
        assert rms(out.samples) < 0.15 * rms(noise)

    def test_sine_at_0db_improves_5db(self):
        cfg = EnhanceConfig(method="spectral_subtraction")
        rng = np.random.default_rng(1234)
        clean = tone(440, 3.0)
        noise = white_noise(rng, 3.0, sigma=0.3 / np.sqrt(2))
        noisy = clean + noise
        profile = estimate_noise(AudioBuffer(noise, SR), cfg)
        out = denoise(AudioBuffer(noisy, SR), profile, cfg)
        improvement = segmental_snr(clean, out.samples) - segmental_snr(clean, noisy)
        assert improvement >= 5.0

    def test_output_length_equals_input(self):
        rng = np.random.default_rng(5)
        cfg = EnhanceConfig(method="spectral_subtraction")
        for n in (100, 399, 400, 401, 7777):
            buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=n), SR)
            profile = estimate_noise(buf, cfg)
            assert len(denoise(buf, profile, cfg).samples) == n

    def test_fft_size_mismatch_rejected(self):
        buf = AudioBuffer(np.zeros(SR), SR)
        with pytest.raises(ConfigError):
            denoise(
                buf, NoiseProfile(np.zeros(256), 1), EnhanceConfig(method="spectral_subtraction")
            )

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        buf = AudioBuffer(white_noise(rng, 1.0), SR)
        cfg = EnhanceConfig(method="spectral_subtraction")
        profile = estimate_noise(buf, cfg)
        first = denoise(buf, profile, cfg)
        second = denoise(buf, profile, cfg)
        np.testing.assert_array_equal(first.samples, second.samples)


class TestSubtractMagnitudes:
    def test_floor_holds_per_bin(self):
        rng = np.random.default_rng(7)
        mags = rng.uniform(0, 2, size=512)
        noise = rng.uniform(0, 2, size=512)
        out = subtract_magnitudes(mags, noise, alpha=2.0, beta=0.01)
        assert np.all(out >= 0.01 * mags - 1e-15)
        assert np.all(out >= 0)

    def test_untouched_when_noise_zero(self):
        mags = np.array([0.5, 1.0, 2.0])
        np.testing.assert_array_equal(
            subtract_magnitudes(mags, np.zeros(3), 2.0, 0.01), mags
        )


class TestShapers:
    """The block shapers equal the per-frame reference with masked divisions, bit for bit."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_frames=st.integers(1, 40),
        num_bins=st.integers(1, 17),
        sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        zero_fraction=st.floats(0.0, 1.0),
        method=st.sampled_from(["spectral_subtraction", "wiener"]),
        alpha=st.floats(1.0, 4.0),
        beta=st.floats(0.0, 0.99),
    )
    @example(seed=0, num_frames=12, num_bins=9, sizes=[1], zero_fraction=0.3,
             method="wiener", alpha=2.0, beta=0.01)
    @example(seed=1, num_frames=5, num_bins=4, sizes=[2], zero_fraction=1.0,
             method="wiener", alpha=2.0, beta=0.01)
    def test_matches_the_masked_reference(
        self, seed, num_frames, num_bins, sizes, zero_fraction, method, alpha, beta
    ):
        rng = np.random.default_rng(seed)
        shape = (num_frames, num_bins)
        spectra = 10.0 ** rng.uniform(-6, 2, shape) * (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        )
        spectra[rng.random(shape) < zero_fraction] = 0.0  # zero-magnitude bins
        noise = 10.0 ** rng.uniform(-8, 1, num_bins)
        noise[rng.random(num_bins) < zero_fraction] = 0.0  # zero-noise bins
        cfg = EnhanceConfig(method=method, alpha=alpha, beta=beta)
        if method == "wiener":
            expected = wiener_shaped(
                spectra, noise, DD_SMOOTHING, PRIOR_SNR_FLOOR, POSTERIOR_SNR_CAP
            )
            shaper = _wiener
        else:
            expected = subtraction_shaped(spectra, noise, alpha, beta)
            shaper = _subtracted
        # blocks of the drawn sizes, repeated until every frame is in one
        stops = np.cumsum(np.resize(sizes, num_frames))
        blocks = np.split(spectra.copy(), stops[stops < num_frames])
        shaped = np.concatenate(list(shaper(iter(blocks), noise, cfg)))
        assert shaped.tobytes() == expected.tobytes()


class TestWienerFilter:
    def test_zero_profile_is_near_identity(self):
        rng = np.random.default_rng(8)
        samples = tone(440, 2.0) + white_noise(rng, 2.0, sigma=0.05)
        buf = AudioBuffer(samples, SR)
        out = denoise(buf, NoiseProfile(np.zeros(257), 1), EnhanceConfig(method="wiener"))
        rel = np.linalg.norm(out.samples - samples) / np.linalg.norm(samples)
        assert rel < 1e-6

    def test_sine_at_0db_improves_5db(self):
        cfg = EnhanceConfig(method="wiener")
        rng = np.random.default_rng(1234)
        clean = tone(440, 3.0)
        noise = white_noise(rng, 3.0, sigma=0.3 / np.sqrt(2))
        noisy = clean + noise
        profile = estimate_noise(AudioBuffer(noise, SR), cfg)
        out = denoise(AudioBuffer(noisy, SR), profile, cfg)
        improvement = segmental_snr(clean, out.samples) - segmental_snr(clean, noisy)
        assert improvement >= 5.0

    def test_noise_only_suppression(self):
        cfg = EnhanceConfig(method="wiener")
        rng = np.random.default_rng(9)
        sigma = 0.1
        profile = NoiseProfile(expected_noise_magnitude(rng, sigma, cfg), 3000)
        noise = sigma * rng.standard_normal(SR * 3)
        out = denoise(AudioBuffer(noise, SR), profile, cfg)
        assert rms(out.samples) < 0.25 * rms(noise)

    def test_output_length_equals_input(self):
        rng = np.random.default_rng(10)
        cfg = EnhanceConfig(method="wiener")
        for n in (250, 400, 12345):
            buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=n), SR)
            profile = estimate_noise(buf, cfg)
            assert len(denoise(buf, profile, cfg).samples) == n

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        buf = AudioBuffer(white_noise(rng, 1.0), SR)
        cfg = EnhanceConfig(method="wiener")
        profile = estimate_noise(buf, cfg)
        np.testing.assert_array_equal(
            denoise(buf, profile, cfg).samples,
            denoise(buf, profile, cfg).samples,
        )


class TestAnalysisChain:
    def test_windowed_spectra_conjugate_symmetric(self):
        # real frames have conjugate-symmetric DFTs, so spectra keeps only the
        # first fft_size // 2 + 1 bins and loses nothing
        rng = np.random.default_rng(12)
        buf = AudioBuffer(white_noise(rng, 0.5), SR)
        frames = EnhanceConfig().frame.segment(buf)
        spectra = frames.spectra()
        every = padded_frames(buf.samples, frames.frame_len, frames.hop)
        full = np.fft.fft(every * hamming_coefficients(frames.frame_len, 0.46), n=512)
        flipped = np.conj(full[:, (512 - np.arange(512)) % 512])
        np.testing.assert_allclose(full, flipped, atol=1e-9)
        assert spectra.shape == (len(frames), 257)
        np.testing.assert_allclose(spectra, full[:, :257], rtol=0, atol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            EnhanceConfig(alpha=0.5)
        with pytest.raises(ConfigError):
            EnhanceConfig(beta=1.0)
        with pytest.raises(ConfigError):
            EnhanceConfig(method="magic")
        with pytest.raises(ConfigError):
            EnhanceConfig(fft_size=500)
        with pytest.raises(ConfigError):
            EnhanceConfig(vad_energy_ratio=1.0)


class TestSharedStft:
    @pytest.mark.parametrize("method", ["spectral_subtraction", "wiener"])
    def test_single_stft_entry_point_equals_separate_calls(self, method, transform_counts):
        # each path transforms every frame once to denoise and the noise
        # frames once more for the profile; estimate_and_denoise frames once
        rng = np.random.default_rng(17)
        samples = white_noise(rng, 1.0, sigma=0.02)
        samples[4000:9000] += tone(700.0, 5000 / SR)
        buf = AudioBuffer(samples, SR)
        cfg = EnhanceConfig(method=method)
        num_frames = len(cfg.frame.segment(buf))
        transform_counts.clear()
        cleaned, profile = estimate_and_denoise(buf, cfg)
        shared = dict(transform_counts.pop(SR))
        separate_profile = estimate_noise(buf, cfg)
        separate = denoise(buf, separate_profile, cfg)
        np.testing.assert_array_equal(profile.mean_magnitude, separate_profile.mean_magnitude)
        assert profile.frames_used == separate_profile.frames_used
        np.testing.assert_array_equal(cleaned.samples, separate.samples)
        analyzed = num_frames + profile.frames_used
        assert shared == {
            "framings": 1, "resolved": 1, "analyzed": analyzed, "synthesized": num_frames
        }
        assert dict(transform_counts) == {SR: {
            "framings": 2, "resolved": 2, "analyzed": analyzed, "synthesized": num_frames
        }}

    def test_cli_enhance_computes_one_stft(self, tmp_path, transform_counts):
        from revspeech import write_wav
        from revspeech.cli import run

        rng = np.random.default_rng(18)
        source = tmp_path / "noisy.wav"
        write_wav(AudioBuffer(white_noise(rng, 0.5, sigma=0.05), SR), source)
        argv = ["enhance", "--in", str(source), "--out", str(tmp_path / "clean.wav"),
                "--noise-out", str(tmp_path / "noise.txt")]
        assert run(argv) == 0
        frames_used = int((tmp_path / "noise.txt").read_text().splitlines()[1].split(":")[1])
        num_frames = 39  # 8000 samples in 400-sample frames at a 200-sample hop
        assert dict(transform_counts) == {
            SR // 2: {"framings": 1, "resolved": 1, "analyzed": num_frames + frames_used,
                      "synthesized": num_frames}
        }


class TestBlocks:
    """Enhancement takes BLOCK_FRAMES frames at a time; the result must not care."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_samples=st.integers(1, 4000),
        block=st.integers(1, 7),
        method=st.sampled_from(["spectral_subtraction", "wiener"]),
        overlap=st.floats(0.0, 0.9),
    )
    @example(seed=0, num_samples=4000, block=1, method="wiener", overlap=0.75)
    def test_blocked_enhancement_matches_one_block(
        self, seed, num_samples, block, method, overlap
    ):
        rng = np.random.default_rng(seed)
        samples = 0.01 * rng.standard_normal(num_samples)
        burst = samples[int(rng.integers(0, num_samples)) :][:1500]
        burst += 0.3 * rng.standard_normal(len(burst))
        buf = AudioBuffer(samples, 8000)
        cfg = EnhanceConfig(method=method, overlap_fraction=overlap)

        def run():
            frames = cfg.frame.segment(buf)
            return frame_energies(frames), *estimate_and_denoise(buf, cfg)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(audio, "BLOCK_FRAMES", 10**9)
            whole_energies, whole, whole_profile = run()
            patch.setattr(audio, "BLOCK_FRAMES", block)
            energies, cleaned, profile = run()
        np.testing.assert_array_equal(energies, whole_energies)
        assert profile.frames_used == whole_profile.frames_used
        peak = np.max(np.abs(samples))
        np.testing.assert_allclose(cleaned.samples, whole.samples, rtol=0, atol=1e-12 * peak)

    @staticmethod
    def traced_growth(cfg, short_s, long_s):
        """Extra traced peak of estimate_and_denoise per extra input byte."""

        def traced_peak(duration_s):
            rng = np.random.default_rng(20)
            buf = AudioBuffer(white_noise(rng, duration_s, sigma=0.01), SR)
            buf.samples[SR : 2 * SR] += tone(500.0, 1.0)
            tracemalloc.start()
            try:
                estimate_and_denoise(buf, cfg)
                return tracemalloc.get_traced_memory()[1], buf.samples.nbytes
            finally:
                tracemalloc.stop()

        short_peak, short_bytes = traced_peak(short_s)
        long_peak, long_bytes = traced_peak(long_s)
        return (long_peak - short_peak) / (long_bytes - short_bytes)

    def test_memory_grows_by_a_few_bytes_per_input_byte(self):
        # beyond a fixed cost per block, enhancement keeps only the output:
        # about 1 byte per input byte, since the frames are a view of the
        # input; holding the whole recording's spectra would cost about 19
        assert self.traced_growth(EnhanceConfig(), 60.0, 180.0) < 1.5

    def test_wiener_keeps_no_walked_blocks(self):
        # the Wiener walk drops each block once resynthesized; keeping them
        # would hold the whole recording's spectra
        cfg = EnhanceConfig(method="wiener")
        assert self.traced_growth(cfg, 60.0, 180.0) < 1.5


class TestSpans:
    """denoise_spans gives each span's slice of the whole buffer's enhancement."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        num_samples=st.integers(1, 4000),
        block=st.integers(1, 7),
        method=st.sampled_from(["spectral_subtraction", "wiener"]),
        overlap=st.floats(0.0, 0.9),
        spans=st.lists(st.tuples(st.integers(0, 4000), st.integers(0, 4000)), max_size=6),
    )
    @example(seed=0, num_samples=4000, block=1, method="wiener", overlap=0.75,
             spans=[(3000, 900), (100, 50), (120, 3000), (2000, 0), (4000, 1)])
    @example(seed=1, num_samples=4000, block=2, method="spectral_subtraction", overlap=0.5,
             spans=[(0, 800), (790, 800), (1600, 2400)])
    def test_each_span_equals_the_whole_buffer_slice(
        self, seed, num_samples, block, method, overlap, spans
    ):
        # any spans: unsorted, overlapping, empty, or sharing frames
        rng = np.random.default_rng(seed)
        samples = 0.01 * rng.standard_normal(num_samples)
        burst = samples[int(rng.integers(0, num_samples)) :][:1500]
        burst += 0.3 * rng.standard_normal(len(burst))
        buf = AudioBuffer(samples, 8000)
        cfg = EnhanceConfig(method=method, overlap_fraction=overlap)
        bounds = []
        for start, length in spans:
            lo = start % (num_samples + 1)
            bounds.append((lo, lo + length % (num_samples - lo + 1)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(audio, "BLOCK_FRAMES", block)
            whole, _ = estimate_and_denoise(buf, cfg)
            pieces = list(denoise_spans(cfg.frame.segment(buf), cfg, bounds))
        assert len(pieces) == len(bounds)
        for (lo, hi), piece in zip(bounds, pieces):
            np.testing.assert_array_equal(piece, whole.samples[lo:hi])

    @pytest.mark.parametrize("method", ["spectral_subtraction", "wiener"])
    def test_a_full_first_block_and_a_short_last_block(self, method):
        # at the real BLOCK_FRAMES the walk makes its window, magnitude, floor
        # and gain buffers at its first, full block and reuses them for the
        # short last one, so a row left over from the first would show
        rng = np.random.default_rng(27)
        buf = AudioBuffer(white_noise(rng, 4.0, sigma=0.02), SR)
        buf.samples[SR : 2 * SR] += tone(700.0, 1.0)
        cfg = EnhanceConfig(method=method)
        frames = cfg.frame.segment(buf)
        spans = [(44_000, 60_000), (0, 40_000)]
        covering = [frames.covering(lo, hi) for lo, hi in spans]
        walked = (max(r.stop for r in covering) if method == "wiener"
                  else sum(len(range(len(frames))[r]) for r in covering))
        assert audio.BLOCK_FRAMES < walked < 2 * audio.BLOCK_FRAMES
        whole, _ = estimate_and_denoise(buf, cfg)
        for energies in (None, frame_energies(frames)):
            for (lo, hi), piece in zip(spans, denoise_spans(frames, cfg, spans, energies)):
                assert piece.tobytes() == whole.samples[lo:hi].tobytes()

    @pytest.mark.parametrize("method", ["spectral_subtraction", "wiener"])
    def test_walks_each_frame_once(self, transform_counts, method):
        # each frame a span covers is analyzed and synthesized once, even when
        # spans share frames or come out of order; the Wiener recursion
        # analyzes every frame up to the last span once; the framing resolves
        # its FFT size and window once, and the walk never again
        rng = np.random.default_rng(21)
        buf = AudioBuffer(white_noise(rng, 1.0, sigma=0.05), SR)
        cfg = EnhanceConfig(method=method)
        frames = cfg.frame.segment(buf)
        spans = [(5000, 6000), (1000, 2000), (1900, 2100), (7000, 7001)]
        frames_used = estimate_noise(buf, cfg).frames_used
        transform_counts.clear()
        list(denoise_spans(cfg.frame.segment(buf), cfg, spans))
        covering = [frames.covering(lo, hi) for lo, hi in spans]
        union = len(set().union(*(range(r.start, r.stop) for r in covering)))
        walked = max(r.stop for r in covering) if method == "wiener" else union
        assert dict(transform_counts) == {SR: {
            "framings": 1, "resolved": 1, "analyzed": frames_used + walked,
            "synthesized": union,
        }}
