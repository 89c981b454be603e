"""Additive-noise removal over an STFT: spectral subtraction and Wiener filtering.

Both methods estimate a noise magnitude spectrum from low-energy frames,
attenuate per-bin magnitudes, keep the noisy phase, and reconstruct through
FrameSpec.synthesize and FrameSpec.overlap_add. Every pass over the recording
takes BLOCK_FRAMES frames at a time, so its transient memory is one block's,
whatever the recording's length. Denoising works on sample spans: overlap-add
is local, so a span's cleaned samples need only the frames that cover it (and,
for the Wiener recursion, the frames before them), and the covering frames of
many short spans share a block. The whole buffer is the one-span case.
estimate_and_denoise and denoise_spans estimate and denoise from one framing.
"""

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .audio import AudioBuffer, FrameSequence, frame_blocks, frame_energies
from .errors import ConfigError
from .features import FrameSpec

METHODS = ("spectral_subtraction", "wiener")

# decision-directed smoothing for the Wiener a-priori SNR
DD_SMOOTHING = 0.98
PRIOR_SNR_FLOOR = 0.003
POSTERIOR_SNR_CAP = 1e6


@dataclass
class EnhanceConfig:
    method: str = "spectral_subtraction"
    alpha: float = 2.0
    beta: float = 0.01
    fft_size: int | None = None
    frame_ms: float = 25.0
    overlap_fraction: float = 0.5
    window_a: float = 0.46
    vad_energy_ratio: float = 2.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.alpha < 1:
            raise ConfigError("alpha must be >= 1")
        if not 0 <= self.beta < 1:
            raise ConfigError("beta must be in [0, 1)")
        if self.vad_energy_ratio <= 1:
            raise ConfigError("vad_energy_ratio must be > 1")
        self.frame  # validates the framing fields

    @property
    def frame(self) -> FrameSpec:
        return FrameSpec(self.frame_ms, self.overlap_fraction, self.window_a, self.fft_size)


@dataclass
class NoiseProfile:
    """Per-bin mean magnitude of the noise spectrum (full fft_size bins).

    Real frames have conjugate-symmetric spectra, so bins above fft_size // 2
    mirror those below; the shapers read the first fft_size // 2 + 1.
    """

    mean_magnitude: np.ndarray
    frames_used: int

    def __post_init__(self):
        self.mean_magnitude = np.asarray(self.mean_magnitude, dtype=np.float64)
        if np.any(self.mean_magnitude < 0):
            raise ValueError("noise magnitudes must be nonnegative")
        if self.frames_used < 1:
            raise ValueError("frames_used must be >= 1")


def _noise_profile(frames: FrameSequence, cfg: EnhanceConfig) -> NoiseProfile:
    energies = frame_energies(frames)
    threshold = cfg.vad_energy_ratio * np.percentile(energies, 10)
    selected = np.flatnonzero(energies < threshold)
    if len(selected) == 0:
        selected = np.array([np.argmin(energies)])
    half = sum(
        np.abs(cfg.frame.spectra(frames, selected[part])).sum(axis=0)
        for part in frame_blocks(0, len(selected))
    ) / len(selected)
    return NoiseProfile(np.concatenate([half, half[-2:0:-1]]), len(selected))


def estimate_noise(buf: AudioBuffer, cfg: EnhanceConfig) -> NoiseProfile:
    """Average the spectra of the quietest frames.

    Frames with energy below vad_energy_ratio times the 10th-percentile
    frame energy count as silence; if none qualify the single quietest
    frame is used, so the estimate is always defined.
    """
    return _noise_profile(cfg.frame.segment(buf), cfg)


def subtract_magnitudes(
    magnitudes: np.ndarray, noise: np.ndarray, alpha: float, beta: float
) -> np.ndarray:
    """Oversubtraction with a spectral floor: max(|Y| - alpha*n, beta*|Y|)."""
    return np.maximum(magnitudes - alpha * noise, beta * magnitudes)


def _subtracted(blocks: Iterator[np.ndarray], noise: np.ndarray, cfg: EnhanceConfig):
    for spectra in blocks:
        magnitudes = np.abs(spectra)
        enhanced = subtract_magnitudes(magnitudes, noise, cfg.alpha, cfg.beta)
        positive = magnitudes > 0
        spectra *= np.where(positive, enhanced / np.where(positive, magnitudes, 1.0), 0.0)
        yield spectra


def _wiener(blocks: Iterator[np.ndarray], noise: np.ndarray, cfg: EnhanceConfig):
    noise_power = noise**2

    def snr(power: np.ndarray) -> np.ndarray:
        out = np.full_like(power, POSTERIOR_SNR_CAP)
        np.divide(power, noise_power, out=out, where=noise_power > 0)
        return np.minimum(out, POSTERIOR_SNR_CAP)

    previous_enhanced = None  # carried across blocks, so splits do not matter
    for spectra in blocks:
        magnitudes = np.abs(spectra)
        if previous_enhanced is None:
            previous_enhanced = magnitudes[0]
        for t in range(spectra.shape[0]):
            posterior = snr(magnitudes[t] ** 2)
            prior = DD_SMOOTHING * snr(previous_enhanced**2) + (1 - DD_SMOOTHING) * np.maximum(
                posterior - 1.0, 0.0
            )
            prior = np.maximum(prior, PRIOR_SNR_FLOOR)
            gain = prior / (1.0 + prior)
            spectra[t] *= gain
            previous_enhanced = gain * magnitudes[t]
        yield spectra


def _synthesized_ranges(frames: FrameSequence, noise: np.ndarray, cfg: EnhanceConfig, ranges):
    """For each range of frames in turn, an iterator of its synthesized frames.

    One walk takes frames BLOCK_FRAMES at a time, and each block gets one
    rfft, one shaping and one irfft. Spectral subtraction shapes each frame
    on its own, so its walk takes just the frames each range covers, range
    after range. The Wiener recursion carries state from frame to frame, so
    its walk takes every frame up to the last one a range needs, once and in
    order, and synthesizes only the frames some range covers. A walked block
    is kept only while a later range still needs some of its frames, so
    sorted, disjoint ranges keep a block or two.
    """
    spec = cfg.frame
    if cfg.method == "wiener":
        order = np.arange(max((r.stop for r in ranges), default=0))
        wanted = np.zeros(len(order), dtype=bool)
        for r in ranges:
            wanted[r] = True
        places = [(r.start, r.stop) for r in ranges]
        shape = _wiener
    else:
        order = np.concatenate([np.arange(r.start, r.stop) for r in ranges] + [np.arange(0)])
        wanted = np.ones(len(order), dtype=bool)
        ends = list(accumulate(r.stop - r.start for r in ranges))
        places = [(end - (r.stop - r.start), end) for r, end in zip(ranges, ends)]
        shape = _subtracted
    # where each walked frame lands among the synthesized ones
    synthesized_before = np.concatenate(([0], np.cumsum(wanted)))
    parts = frame_blocks(0, len(order))
    shaped = shape((spec.spectra(frames, order[part]) for part in parts), noise, cfg)
    walk = (
        spec.synthesize(block if wanted[part].all() else block[wanted[part]], frames)
        for part, block in zip(parts, shaped)
    )
    kept = []  # (first synthesized frame, synthesized block) of walked blocks, in order
    walked = 0

    def pieces(lo: int, hi: int, needed: int):
        """Blocks of synthesized frames lo .. hi - 1; frames from needed on stay kept."""
        nonlocal walked
        i = 0
        while lo < hi:
            if i == len(kept):
                kept.append((walked, next(walk)))
                walked += len(kept[-1][1])
            first, block = kept[i]
            if first + len(block) > needed:
                i += 1
            else:
                del kept[i]
            if max(lo - first, 0) < min(hi - first, len(block)):
                yield block[max(lo - first, 0) : hi - first]
            if first + len(block) >= hi:
                return

    bounds = [(synthesized_before[a], synthesized_before[b]) for a, b in places]
    # the first synthesized frame any later range needs, for each range
    stop = synthesized_before[-1]
    starts = [lo if lo < hi else stop for lo, hi in bounds[1:]] + [stop]
    needed = list(accumulate(reversed(starts), min))[::-1]
    for (lo, hi), keep_from in zip(bounds, needed):
        yield pieces(lo, hi, keep_from)


def _denoise(
    frames: FrameSequence, noise: NoiseProfile, cfg: EnhanceConfig, spans
) -> Iterator[np.ndarray]:
    """Cleaned samples lo .. hi - 1 of each span, one span at a time.

    Only the frames that cover a span are synthesized (_synthesized_ranges);
    overlap-add and window-power normalization run per span.
    """
    half = noise.mean_magnitude[: len(noise.mean_magnitude) // 2 + 1]
    num_samples = len(frames.samples)
    spans = [(max(lo, 0), min(hi, num_samples)) for lo, hi in spans]
    ranges = [frames.covering(lo, hi) for lo, hi in spans]
    for (lo, hi), pieces in zip(spans, _synthesized_ranges(frames, half, cfg, ranges)):
        yield cfg.frame.overlap_add(pieces, frames, lo, hi)


def denoise(buf: AudioBuffer, noise: NoiseProfile, cfg: EnhanceConfig) -> AudioBuffer:
    """Dispatch on cfg.method."""
    fft_size = cfg.frame.resolve_fft_size(buf.sample_rate_hz)
    if len(noise.mean_magnitude) != fft_size:
        raise ConfigError(
            f"noise profile has {len(noise.mean_magnitude)} bins, config expects {fft_size}"
        )
    (cleaned,) = _denoise(cfg.frame.segment(buf), noise, cfg, [(0, len(buf.samples))])
    return AudioBuffer(cleaned, buf.sample_rate_hz)


def spectral_subtract(
    buf: AudioBuffer, noise: NoiseProfile, cfg: EnhanceConfig
) -> AudioBuffer:
    """Subtract the noise magnitude per frame, keeping the noisy phase."""
    return denoise(buf, noise, replace(cfg, method="spectral_subtraction"))


def wiener_filter(
    buf: AudioBuffer, noise: NoiseProfile, cfg: EnhanceConfig
) -> AudioBuffer:
    """Per-bin gain xi/(1+xi) with decision-directed a-priori SNR tracking.

    Zero-noise bins take a capped a-posteriori SNR instead of dividing by
    zero. The first frame seeds the recursion with the noisy magnitude.
    """
    return denoise(buf, noise, replace(cfg, method="wiener"))


def estimate_and_denoise(
    buf: AudioBuffer, cfg: EnhanceConfig
) -> tuple[AudioBuffer, NoiseProfile]:
    """estimate_noise then denoise, from one framing; returns (cleaned, profile)."""
    frames = cfg.frame.segment(buf)
    profile = _noise_profile(frames, cfg)
    (cleaned,) = _denoise(frames, profile, cfg, [(0, len(buf.samples))])
    return AudioBuffer(cleaned, buf.sample_rate_hz), profile


def denoise_spans(
    buf: AudioBuffer, cfg: EnhanceConfig, spans: Sequence[tuple[int, int]]
) -> Iterator[np.ndarray]:
    """The cleaned samples lo .. hi - 1 of each span, one span at a time.

    The noise profile comes from the whole buffer at the call; each span's
    samples then equal estimate_and_denoise(buf, cfg)[0].samples[lo:hi]
    exactly, but the silence between spans is never resynthesized and no
    full-length output is held.
    """
    frames = cfg.frame.segment(buf)
    return _denoise(frames, _noise_profile(frames, cfg), cfg, spans)
