"""Additive-noise removal over an STFT: spectral subtraction and Wiener filtering.

Both methods estimate a noise magnitude spectrum from low-energy frames,
attenuate per-bin magnitudes, keep the noisy phase, and reconstruct through
FrameSpec.synthesize and OverlapAdd. Every pass over the recording takes
BLOCK_FRAMES frames at a time, so its transient memory is one block's,
whatever the recording's length. Denoising works on sample spans: overlap-add
is local, so a span's cleaned samples need only the frames that cover it (and,
for the Wiener recursion, the frames before them), and one walk in frame order
serves every span, so the covered frames of many short spans share a block.
The whole buffer is the one-span case.
estimate_and_denoise and denoise_spans estimate and denoise from one framing.
"""

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer, FrameSequence, frame_blocks, frame_energies
from .errors import ConfigError
from .features import FrameSpec, OverlapAdd

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
    """Per-bin mean magnitude of the noise's half spectrum (fft_size // 2 + 1 bins).

    Real frames have conjugate-symmetric spectra, so these bins describe the
    whole spectrum (Allen 1977); they are what the shapers read.
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
    return NoiseProfile(half, len(selected))


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
    """Per-bin gain subtract_magnitudes(|Y|) / |Y|; a zero-magnitude bin gets gain 0."""
    for spectra in blocks:
        magnitudes = np.abs(spectra)
        enhanced = subtract_magnitudes(magnitudes, noise, cfg.alpha, cfg.beta)
        gain = np.zeros_like(magnitudes)
        spectra *= np.divide(enhanced, magnitudes, out=gain, where=magnitudes > 0)
        yield spectra


def _wiener(blocks: Iterator[np.ndarray], noise: np.ndarray, cfg: EnhanceConfig):
    """Per-bin gain xi/(1+xi) with decision-directed a-priori SNR tracking.

    A zero-noise bin divides to inf or nan, and fmin turns both into the
    a-posteriori SNR cap. The posterior term is elementwise, so each block
    computes it at once; only the prior, the gain and the enhanced magnitude
    run frame by frame. The first frame seeds the recursion with the noisy
    magnitude.
    """
    noise_power = noise**2

    def snr(power: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.fmin(power / noise_power, POSTERIOR_SNR_CAP)

    previous_enhanced = None  # carried across blocks, so splits do not matter
    for spectra in blocks:
        magnitudes = np.abs(spectra)
        if previous_enhanced is None:
            previous_enhanced = magnitudes[0]
        shares = (1 - DD_SMOOTHING) * np.maximum(snr(magnitudes**2) - 1.0, 0.0)
        for t, share in enumerate(shares):
            prior = np.maximum(DD_SMOOTHING * snr(previous_enhanced**2) + share, PRIOR_SNR_FLOOR)
            gain = prior / (1.0 + prior)
            spectra[t] *= gain
            previous_enhanced = gain * magnitudes[t]
        yield spectra


def _denoise(
    frames: FrameSequence, noise: NoiseProfile, cfg: EnhanceConfig, spans
) -> Iterator[np.ndarray]:
    """Cleaned samples lo .. hi - 1 of each span, one span at a time.

    One walk takes frames in frame order, BLOCK_FRAMES at a time, and each
    block gets one rfft, one shaping and one irfft of the frames some span
    covers. Spectral subtraction shapes each frame on its own, so its walk
    takes just the covered frames. The Wiener recursion carries state from
    frame to frame, so its walk takes every frame up to the last covered one.
    Each synthesized frame is added straight into the overlap-add of every
    span it covers. A span's overlap-add starts when the walk reaches the
    span, and is yielded, in the caller's order, once the walk has passed
    it, so sorted spans hold only the overlap-adds one block reaches.
    """
    spec = cfg.frame
    num_samples = len(frames.samples)
    spans = [(max(lo, 0), min(hi, num_samples)) for lo, hi in spans]
    ranges = [frames.covering(lo, hi) for lo, hi in spans]
    wanted = np.zeros(max((r.stop for r in ranges), default=0), dtype=bool)
    for r in ranges:
        wanted[r] = True
    if cfg.method == "wiener":
        order, shape = np.arange(len(wanted)), _wiener
    else:
        order, shape = np.flatnonzero(wanted), _subtracted
    parts = frame_blocks(0, len(order))
    spectra = (spec.spectra(frames, order[p]) for p in parts)
    blocks = zip(parts, shape(spectra, noise.mean_magnitude, cfg))
    unreached = sorted(range(len(spans)), key=lambda k: ranges[k].start, reverse=True)
    sums = {}  # overlap-adds of the spans the walk has reached, by position in spans
    walked = 0  # the walk has passed every frame before this one
    for k, r in enumerate(ranges):
        while walked < r.stop:
            part, block = next(blocks)
            keep = wanted[order[part]]
            rows = order[part][keep]
            synthesized = spec.synthesize(block if keep.all() else block[keep], frames)
            walked = order[part.stop - 1] + 1
            while unreached and ranges[unreached[-1]].start < walked:
                j = unreached.pop()
                sums[j] = OverlapAdd(spec, frames, *spans[j])
            for j, acc in sums.items():
                a, b = np.searchsorted(rows, (ranges[j].start, ranges[j].stop))
                if a < b:
                    acc.add(rows[a], synthesized[a:b])
        # a span that covers no frame can come before the walk starts
        yield (sums.pop(k) if k in sums else OverlapAdd(spec, frames, *spans[k])).samples()


def denoise(buf: AudioBuffer, noise: NoiseProfile, cfg: EnhanceConfig) -> AudioBuffer:
    """Check the profile's bin count, then denoise the one whole-buffer span."""
    bins = cfg.frame.resolve_fft_size(buf.sample_rate_hz) // 2 + 1
    if len(noise.mean_magnitude) != bins:
        raise ConfigError(
            f"noise profile has {len(noise.mean_magnitude)} bins, config expects {bins}"
        )
    (cleaned,) = _denoise(cfg.frame.segment(buf), noise, cfg, [(0, len(buf.samples))])
    return AudioBuffer(cleaned, buf.sample_rate_hz)


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
