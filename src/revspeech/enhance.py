"""Additive-noise removal over an STFT: spectral subtraction and Wiener filtering.

Both methods estimate a noise magnitude spectrum from low-energy frames,
attenuate per-bin magnitudes, keep the noisy phase, and reconstruct through
FrameSpec.istft. Every pass over the recording takes BLOCK_FRAMES frames at a
time, so its transient memory is one block's, whatever the recording's length.
Denoising works on sample spans: overlap-add is local, so a span's cleaned
samples need only the frames that cover it (and, for the Wiener recursion,
the frames before them). The whole buffer is the one-span case.
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


def _wiener_ranges(frames: FrameSequence, noise: np.ndarray, cfg: EnhanceConfig, ranges):
    """For each range of frames in turn, an iterator of its Wiener-shaped spectra.

    One walk analyzes every frame from the first to the last that a range
    needs, once and in order, since the recursion carries state from frame
    to frame. A walked block is kept only while a later range still needs
    some of its frames, so sorted, disjoint ranges keep a block or two.
    """
    stop = max((r.stop for r in ranges), default=0)
    walk = _wiener(
        (cfg.frame.spectra(frames, part) for part in frame_blocks(0, stop)), noise, cfg
    )
    kept = []  # (first frame, shaped spectra) of walked blocks, in frame order
    walked = 0

    def shaped(rows: slice, needed: int):
        """Blocks of the spectra of rows; frames from needed on stay kept."""
        nonlocal walked
        i = 0
        while rows.start < rows.stop:
            if i == len(kept):
                kept.append((walked, next(walk)))
                walked += len(kept[-1][1])
            first, block = kept[i]
            if first + len(block) > needed:
                i += 1
            else:
                del kept[i]
            lo, hi = max(rows.start - first, 0), min(rows.stop - first, len(block))
            if lo < hi:
                yield block[lo:hi]
            if first + len(block) >= rows.stop:
                return

    # the first frame any later range needs, for each range
    starts = [r.start if r.start < r.stop else stop for r in ranges[1:]] + [stop]
    needed = list(accumulate(reversed(starts), min))[::-1]
    for rows, keep_from in zip(ranges, needed):
        yield shaped(rows, keep_from)


def _denoise(
    frames: FrameSequence, noise: NoiseProfile, cfg: EnhanceConfig, spans
) -> Iterator[np.ndarray]:
    """Cleaned samples lo .. hi - 1 of each span, one span at a time.

    Only the frames that cover a span are resynthesized. Spectral
    subtraction shapes each frame on its own, so it analyzes just those
    frames, once per span; Wiener shapes them from one walk over the frames
    up to the last span (_wiener_ranges).
    """
    spec = cfg.frame
    half = noise.mean_magnitude[: len(noise.mean_magnitude) // 2 + 1]
    num_samples = len(frames.samples)
    spans = [(max(lo, 0), min(hi, num_samples)) for lo, hi in spans]
    ranges = [frames.covering(lo, hi) for lo, hi in spans]
    if cfg.method == "wiener":
        sources = _wiener_ranges(frames, half, cfg, ranges)
    else:
        sources = (
            _subtracted(
                (spec.spectra(frames, part) for part in frame_blocks(rows.start, rows.stop)),
                half,
                cfg,
            )
            for rows in ranges
        )
    for (lo, hi), shaped in zip(spans, sources):
        yield spec.istft(shaped, frames, lo, hi)


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
