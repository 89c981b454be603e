"""Additive-noise removal over an STFT: spectral subtraction and Wiener filtering.

Both methods estimate a noise magnitude spectrum from low-energy frames,
attenuate per-bin magnitudes, keep the noisy phase, and reconstruct through
FrameSequence.synthesize and OverlapAdd. Every pass over the recording takes
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

from .audio import (
    AudioBuffer,
    FrameSequence,
    FrameSpec,
    OverlapAdd,
    frame_blocks,
    frame_energies,
    framing,
)
from .errors import ConfigError, check_ranges, ranged

METHODS = ("spectral_subtraction", "wiener")

# decision-directed smoothing for the Wiener a-priori SNR
DD_SMOOTHING = 0.98
PRIOR_SNR_FLOOR = 0.003
POSTERIOR_SNR_CAP = 1e6


@dataclass
class EnhanceConfig:
    method: str = ranged("spectral_subtraction", METHODS)
    alpha: float = ranged(2.0, "[1, inf)")
    beta: float = ranged(0.01, "[0, 1)")
    fft_size: int | None = framing("fft_size")
    frame_ms: float = framing("frame_ms")
    overlap_fraction: float = framing("overlap_fraction")
    window_a: float = framing("window_a")
    vad_energy_ratio: float = ranged(2.0, "(1, inf)")

    def __post_init__(self):
        check_ranges(self, "enhance")
        self.frame  # built for its check: FrameSpec refuses an fft_size not a power of two

    @property
    def frame(self) -> FrameSpec:
        return FrameSpec(self.frame_ms, self.overlap_fraction, self.window_a, self.fft_size,
                         section="enhance")


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


def _noise_profile(frames: FrameSequence, cfg: EnhanceConfig, energies=None) -> NoiseProfile:
    """estimate_noise of the framed buffer; energies, if given, are frame_energies(frames)."""
    if energies is None:
        energies = frame_energies(frames)
    threshold = cfg.vad_energy_ratio * np.percentile(energies, 10)
    selected = np.flatnonzero(energies < threshold)
    if len(selected) == 0:
        selected = np.array([np.argmin(energies)])
    parts = frame_blocks(0, len(selected))
    windowed = np.zeros((parts[0].stop, frames.fft_size))  # the longest block
    half = sum(
        np.abs(frames.spectra(selected[p], windowed[: p.stop - p.start])).sum(axis=0)
        for p in parts
    ) / len(selected)
    return NoiseProfile(half, len(selected))


def estimate_noise(buf: AudioBuffer, cfg: EnhanceConfig) -> NoiseProfile:
    """Average the spectra of the quietest frames.

    Frames with energy below vad_energy_ratio times the 10th-percentile
    frame energy count as silence; if none qualify the single quietest
    frame is used, so the estimate is always defined.
    """
    return _noise_profile(cfg.frame.segment(buf), cfg)


def _subtracted(blocks: Iterator[np.ndarray], noise: np.ndarray, cfg: EnhanceConfig):
    """Per-bin gain max(|Y| - alpha*n, beta*|Y|) / |Y|; a zero-magnitude bin gets gain 0.

    The walk shapes each block in place: alpha*n is scaled once, and |Y|,
    the floor beta*|Y| (then the subtracted magnitude) and the gain go into
    buffers of the walk's own, made anew only for a block longer than any
    before it (a denoising walk's first block is its longest).
    """
    scaled_noise = cfg.alpha * noise
    buffers = np.empty((3, 0, len(noise)))
    for spectra in blocks:
        if buffers.shape[1] < len(spectra):
            buffers = np.empty((3,) + spectra.shape)
        magnitudes, enhanced, gain = buffers[:, : len(spectra)]
        np.abs(spectra, out=magnitudes)
        np.multiply(magnitudes, cfg.beta, out=enhanced)
        np.subtract(magnitudes, scaled_noise, out=gain)
        np.maximum(gain, enhanced, out=enhanced)
        gain.fill(0.0)
        np.divide(enhanced, magnitudes, out=gain, where=magnitudes > 0)
        spectra *= gain
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
    spans = [(max(lo, 0), min(hi, frames.num_samples)) for lo, hi in spans]
    ranges = [frames.covering(lo, hi) for lo, hi in spans]
    wanted = np.zeros(max((r.stop for r in ranges), default=0), dtype=bool)
    for r in ranges:
        wanted[r] = True
    if cfg.method == "wiener":
        order, shape = np.arange(len(wanted)), _wiener
    else:
        order, shape = np.flatnonzero(wanted), _subtracted
    parts = frame_blocks(0, len(order))
    windowed = np.zeros((parts[0].stop if parts else 0, frames.fft_size))  # the longest block
    spectra = (frames.spectra(order[p], windowed[: p.stop - p.start]) for p in parts)
    blocks = zip(parts, shape(spectra, noise.mean_magnitude, cfg))
    unreached = sorted(range(len(spans)), key=lambda k: ranges[k].start, reverse=True)
    sums = {}  # overlap-adds of the spans the walk has reached, by position in spans
    walked = 0  # the walk has passed every frame before this one
    for k, r in enumerate(ranges):
        while walked < r.stop:
            part, block = next(blocks)
            keep = wanted[order[part]]
            rows = order[part][keep]
            synthesized = frames.synthesize(block if keep.all() else block[keep])
            walked = order[part.stop - 1] + 1
            while unreached and ranges[unreached[-1]].start < walked:
                j = unreached.pop()
                sums[j] = OverlapAdd(frames, *spans[j])
            for j, acc in sums.items():
                a, b = np.searchsorted(rows, (ranges[j].start, ranges[j].stop))
                if a < b:
                    acc.add(rows[a], synthesized[a:b])
        # a span that covers no frame can come before the walk starts
        yield (sums.pop(k) if k in sums else OverlapAdd(frames, *spans[k])).samples()


def denoise(buf: AudioBuffer, noise: NoiseProfile, cfg: EnhanceConfig) -> AudioBuffer:
    """Check the profile's bin count, then denoise the one whole-buffer span."""
    frames = cfg.frame.segment(buf)
    bins = frames.fft_size // 2 + 1
    if len(noise.mean_magnitude) != bins:
        raise ConfigError(
            f"noise profile has {len(noise.mean_magnitude)} bins, config expects {bins}"
        )
    (cleaned,) = _denoise(frames, noise, cfg, [(0, len(buf.samples))])
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
    frames: FrameSequence,
    cfg: EnhanceConfig,
    spans: Sequence[tuple[int, int]],
    energies: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """The cleaned samples lo .. hi - 1 of each span, one span at a time.

    frames is cfg.frame.segment(buf) of the buffer to clean; energies, if
    given, are frame_energies(frames), as a caller that has already taken
    them passes them on. The noise profile comes from the whole buffer at
    the call; each span's samples then equal
    estimate_and_denoise(buf, cfg)[0].samples[lo:hi] exactly, but the
    silence between spans is never resynthesized and no full-length output
    is held.
    """
    return _denoise(frames, _noise_profile(frames, cfg, energies), cfg, spans)
