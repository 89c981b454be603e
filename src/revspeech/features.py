"""MFCC front end: pre-emphasis, windowing, spectrum, mel filterbank, cepstra, deltas.

Per-frame functions act on the last axis; extract_all runs them on blocks of
frames gathered from many pieces, with each matrix product on one piece's
rows (per_piece_product).
"""

import functools
import hashlib
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from .audio import (
    BLOCK_SAMPLES,
    AudioBuffer,
    FrameSequence,
    frame_blocks,
    frame_count,
    frame_geometry,
    frame_groups,
)
from .errors import ConfigError

ENERGY_FLOOR = 1e-10


@dataclass(frozen=True)
class FrameSpec:
    """Framing, window and FFT-size rule, shared by endpointing, enhance and features."""

    frame_ms: float = 25.0
    overlap_fraction: float = 0.5
    window_a: float = 0.46
    fft_size: int | None = None

    def __post_init__(self):
        if self.frame_ms <= 0:
            raise ConfigError("frame_ms must be positive")
        if not 0 <= self.overlap_fraction < 1:
            raise ConfigError("overlap_fraction must be in [0, 1)")
        size = self.fft_size
        if size is not None and (size < 1 or size & (size - 1)):
            raise ConfigError("fft_size must be a power of two")

    def resolve_fft_size(self, sample_rate_hz: int) -> int:
        frame_len, _ = frame_geometry(self.frame_ms, self.overlap_fraction, sample_rate_hz)
        if self.fft_size is None:
            return 1 << (frame_len - 1).bit_length()
        if self.fft_size < frame_len:
            raise ConfigError(
                f"fft_size {self.fft_size} smaller than frame length {frame_len}"
            )
        return self.fft_size

    def segment(self, buf: AudioBuffer) -> FrameSequence:
        """Cut a buffer into fixed-length frames with fractional overlap.

        frame_len = round(frame_ms * rate / 1000) and
        hop = frame_len - round(overlap_fraction * frame_len). The trailing
        partial frame is zero-padded; a buffer shorter than one frame yields a
        single zero-padded frame. The frames are a read-only strided view of the
        buffer's own samples, plus that one padded frame (see FrameSequence).
        """
        frame_len, hop = frame_geometry(self.frame_ms, self.overlap_fraction, buf.sample_rate_hz)
        return FrameSequence(buf.samples, frame_len, hop, buf.sample_rate_hz)

    def spectra(self, frames: FrameSequence, rows=slice(None)) -> np.ndarray:
        """Windowed half spectra (fft_size // 2 + 1 bins) of frames[rows].

        This is the one analysis transform; rows picks a block of frames.
        """
        fft_size = self.resolve_fft_size(frames.sample_rate_hz)
        windowed = hamming_window(frames[rows], self.window_a)
        return np.fft.rfft(windowed, n=fft_size, axis=-1)

    def synthesize(self, spectra: np.ndarray, frames: FrameSequence) -> np.ndarray:
        """Frames back from a block of (modified) half spectra, windowed again.

        This is the one synthesis transform: each inverse DFT is cut to one
        frame and multiplied by the analysis window.
        """
        fft_size = self.resolve_fft_size(frames.sample_rate_hz)
        window = hamming_coefficients(frames.frame_len, self.window_a)
        return np.fft.irfft(spectra, n=fft_size, axis=-1)[:, : frames.frame_len] * window


class OverlapAdd:
    """Samples lo .. hi - 1 summed from synthesized frames (FrameSpec.synthesize).

    Each frame that covers the range (frames.covering(lo, hi)) is added once,
    in frame order, in blocks of any size; the whole buffer is the range
    (0, len(frames.samples)). So each sample sums its frames in frame order,
    and a range's samples equal the same samples of the whole buffer's.
    samples() divides them by the summed window power wherever that is >= 1e-8.
    """

    def __init__(self, spec: FrameSpec, frames: FrameSequence, lo: int, hi: int):
        self.frames, self.lo, self.hi = frames, lo, hi
        self.window = hamming_coefficients(frames.frame_len, spec.window_a)
        # row j holds samples j*hop onward; frame i adds to rows i .. i + pieces - 1
        self.row_lo = lo // frames.hop
        self.rows = np.zeros((max(-(-hi // frames.hop), self.row_lo) - self.row_lo, frames.hop))

    def add(self, first: int, synthesized: np.ndarray) -> None:
        """Overlap-add synthesized frames first, first + 1, ... into the range."""
        _overlap_add(self.rows, synthesized, self.frames.hop, first - self.row_lo)

    def samples(self) -> np.ndarray:
        """The normalized samples, once every covering frame has been added."""
        frame_len, hop, num_frames = self.frames.frame_len, self.frames.hop, len(self.frames)
        pieces = -(-frame_len // hop)
        row_lo = self.row_lo
        # the window power is the overlap-add of the squared window over the
        # frames that reach each block of rows, added in frame order as above
        squared = self.window * self.window
        for part in frame_blocks(row_lo, row_lo + len(self.rows)):
            first = max(part.start - pieces + 1, 0)
            n = min(part.stop, num_frames) - first
            power = np.zeros((part.stop - part.start, hop))
            _overlap_add(power, np.broadcast_to(squared, (n, frame_len)), hop, first - part.start)
            rows = self.rows[part.start - row_lo : part.stop - row_lo]
            np.divide(rows, power, out=rows, where=power >= 1e-8)
        return self.rows.reshape(-1)[self.lo - row_lo * hop : self.hi - row_lo * hop]


def _overlap_add(acc: np.ndarray, rows: np.ndarray, hop: int, offset: int) -> None:
    """Add rows placed hop samples apart into acc, a matrix of hop-long rows.

    Piece c (samples c*hop onward) of row i lands in acc row offset + i + c;
    pieces that land outside acc are dropped. Each piece offset is one
    slice-add over all rows, latest offset first, so every acc row adds its
    pieces in row order, as a row-by-row loop would.
    """
    num_rows, row_len = rows.shape
    for c in reversed(range(-(-row_len // hop))):
        width = min(hop, row_len - c * hop)
        first, stop = max(-offset - c, 0), min(len(acc) - offset - c, num_rows)
        if first < stop:
            target = acc[offset + c + first : offset + c + stop, :width]
            target += rows[first:stop, c * hop : c * hop + width]


@dataclass
class FeatureConfig:
    """Knobs for the cepstral front end.

    fft_size=None and high_freq_hz=None resolve at use time to the next
    power of two covering one frame and to half the sample rate.
    """

    preemphasis_a: float = 0.97
    frame_ms: float = 25.0
    overlap_fraction: float = 0.5
    window_a: float = 0.46
    fft_size: int | None = None
    num_filters: int = 26
    num_ceps: int = 13
    delta_window: int = 2
    low_freq_hz: float = 0.0
    high_freq_hz: float | None = None

    def __post_init__(self):
        if not 0 <= self.preemphasis_a < 1:
            raise ConfigError("preemphasis_a must be in [0, 1)")
        self.frame  # validates the framing fields
        if not 0 < self.num_ceps <= self.num_filters:
            raise ConfigError("need 0 < num_ceps <= num_filters")
        if self.delta_window < 1:
            raise ConfigError("delta_window must be >= 1")
        if self.low_freq_hz < 0:
            raise ConfigError("low_freq_hz must be >= 0")
        if self.high_freq_hz is not None and self.low_freq_hz >= self.high_freq_hz:
            raise ConfigError("low_freq_hz must be below high_freq_hz")

    @property
    def frame(self) -> FrameSpec:
        return FrameSpec(self.frame_ms, self.overlap_fraction, self.window_a, self.fft_size)

    def resolve_high_freq(self, sample_rate_hz: int) -> float:
        high = self.high_freq_hz if self.high_freq_hz is not None else sample_rate_hz / 2
        if high > sample_rate_hz / 2:
            raise ConfigError(
                f"high_freq_hz {high} exceeds Nyquist for rate {sample_rate_hz}"
            )
        if self.low_freq_hz >= high:
            raise ConfigError("low_freq_hz must be below high_freq_hz")
        return high

    def fingerprint(self, sample_rate_hz: int) -> str:
        """Short hash of every field, in declaration order, and the sample rate.

        Features and models carry it, binding them to this config and rate.
        """
        values = [getattr(self, f.name) for f in fields(self)] + [sample_rate_hz]
        text = "|".join(repr(v) for v in values)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class FeatureMatrix:
    """Per-frame feature vectors of length 3 * num_ceps."""

    rows: np.ndarray
    num_frames: int
    config_fingerprint: str

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ValueError("feature rows must form a 2-D matrix")
        if self.num_frames != self.rows.shape[0]:
            raise ValueError("num_frames disagrees with row count")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("feature rows contain non-finite values")

    @property
    def dim(self) -> int:
        return self.rows.shape[1]


def _preemphasize_in_place(y: np.ndarray, a: float) -> None:
    """y(n) -= a*y(n-1) for n >= 1, BLOCK_SAMPLES at a time from the end back.

    Each block reads samples before it that no block has changed yet, so
    the result is the one-pass filter's, with one block's transient memory.
    """
    for hi in range(len(y), 1, -BLOCK_SAMPLES):
        lo = max(hi - BLOCK_SAMPLES, 1)
        y[lo:hi] -= a * y[lo - 1 : hi - 1]


@functools.lru_cache(maxsize=32)
def hamming_coefficients(n: int, a: float) -> np.ndarray:
    """Window weights w(k) = (1-a) - a*cos(2*pi*k/(n-1)) for k = 0..n-1.

    Built once per argument pair; the shared result is read-only.
    """
    if n < 1:
        raise ValueError("window length must be at least 1")
    if n == 1:
        weights = np.array([1.0 - 2.0 * a])
    else:
        weights = (1.0 - a) - a * np.cos(2.0 * np.pi * np.arange(n) / (n - 1))
    weights.flags.writeable = False
    return weights


def hamming_window(frame: np.ndarray, a: float) -> np.ndarray:
    """Apply the tapered window elementwise to each frame (last axis)."""
    frame = np.asarray(frame, dtype=np.float64)
    return frame * hamming_coefficients(frame.shape[-1], a)


def hz_to_mel(f: float) -> float:
    """Perceptual frequency warp 2595 * log10(1 + f/700)."""
    if np.any(np.asarray(f) < 0):
        raise ValueError("frequency must be nonnegative")
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: float) -> float:
    """Inverse of hz_to_mel, used to place filter edges."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def per_piece_product(rows: np.ndarray, matrix: np.ndarray, bounds=None) -> np.ndarray:
    """rows @ matrix.T, one matrix product per piece of rows.

    bounds are the row offsets where stacked pieces meet, from 0 to
    len(rows); None makes all rows one piece. Products are never run across
    pieces: OpenBLAS rounds the same rows differently in matrices of other
    heights, so a piece's rows come out bit-identical to its rows processed
    alone only when each product runs on exactly the rows it would have
    alone. Elementwise and row-wise steps, and the FFT, do not depend on
    the row count and run on all pieces at once.
    """
    if bounds is None:
        return rows @ matrix.T
    out = np.empty((len(rows), len(matrix)))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        out[lo:hi] = rows[lo:hi] @ matrix.T
    return out


@functools.lru_cache(maxsize=32)
def mel_filter_weights(
    num_filters: int, fft_size: int, sample_rate_hz: int, low_hz: float, high_hz: float
) -> np.ndarray:
    """Triangular filter matrix of shape (num_filters, fft_size // 2 + 1).

    Centers sit at equal mel spacing between the band edges; each filter
    rises from the previous center and falls to the next, with unit peak.
    Built once per argument tuple; the shared result is read-only.
    """
    edges_mel = np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), num_filters + 2)
    edges_hz = mel_to_hz(edges_mel)
    bin_freqs = np.arange(fft_size // 2 + 1) * sample_rate_hz / fft_size

    weights = np.zeros((num_filters, fft_size // 2 + 1))
    for m in range(num_filters):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    weights.flags.writeable = False
    return weights


def mel_filterbank(
    magnitudes: np.ndarray, cfg: FeatureConfig, sample_rate_hz: int, bounds=None
) -> np.ndarray:
    """Per-filter energies s(m) = sum_k w_m(k) * |X(k)|^2 over the half spectrum.

    bounds splits stacked pieces' rows for the product (per_piece_product).
    """
    magnitudes = np.asarray(magnitudes, dtype=np.float64)
    fft_size = cfg.frame.resolve_fft_size(sample_rate_hz)
    needed = fft_size // 2 + 1
    if magnitudes.shape[-1] < needed:
        raise ConfigError(
            f"spectrum has {magnitudes.shape[-1]} bins, filterbank needs {needed}"
        )
    high = cfg.resolve_high_freq(sample_rate_hz)
    weights = mel_filter_weights(
        cfg.num_filters, fft_size, sample_rate_hz, cfg.low_freq_hz, high
    )
    return per_piece_product(magnitudes[..., :needed] ** 2, weights, bounds)


@functools.lru_cache(maxsize=32)
def _dct_basis(num_ceps: int, num_filters: int) -> np.ndarray:
    """DCT-II rows cos(pi*n*(m+0.5)/M); built once per pair, read-only."""
    n = np.arange(num_ceps)[:, None]
    m = np.arange(num_filters)[None, :]
    basis = np.cos(np.pi * n * (m + 0.5) / num_filters)
    basis.flags.writeable = False
    return basis


def mfcc(energies: np.ndarray, num_ceps: int, bounds=None) -> np.ndarray:
    """Cepstra c(n) = sum_m log10(max(s(m), eps)) * cos(pi*n*(m+0.5)/M).

    bounds splits stacked pieces' rows for the product (per_piece_product).
    """
    energies = np.asarray(energies, dtype=np.float64)
    if np.any(energies < 0):
        raise ValueError("filterbank energies must be nonnegative")
    logs = np.log10(np.maximum(energies, ENERGY_FLOOR))
    return per_piece_product(logs, _dct_basis(num_ceps, energies.shape[-1]), bounds)


def delta_features(ceps: np.ndarray, window: int, bounds=None) -> np.ndarray:
    """Temporal regression slope over +/-window frames, edges clamped.

    bounds (row offsets from 0 to len(ceps)) stacks several pieces; each
    row's context is then clamped at its own piece's edges.
    """
    if window < 1:
        raise ValueError("delta window must be >= 1")
    ceps = np.asarray(ceps, dtype=np.float64)
    num_frames = ceps.shape[0]
    bounds = np.asarray([0, num_frames] if bounds is None else bounds)
    lengths = np.diff(bounds)
    first, last = np.repeat(bounds[:-1], lengths), np.repeat(bounds[1:] - 1, lengths)
    idx = np.arange(num_frames)
    numerator = np.zeros_like(ceps)
    for i in range(1, window + 1):
        ahead = np.minimum(idx + i, last)
        behind = np.maximum(idx - i, first)
        numerator += i * (ceps[ahead] - ceps[behind])
    denominator = 2 * sum(i * i for i in range(1, window + 1))
    return numerator / denominator


def extract(buf: AudioBuffer, cfg: FeatureConfig) -> FeatureMatrix:
    """Full pipeline: pre-emphasis, framing, window, spectrum, mel, DCT, deltas.

    Rows are frames; columns are num_ceps cepstra followed by their deltas
    and delta-deltas (39 at defaults). This is extract_all of one buffer:
    spectra, mel energies and cepstra are computed BLOCK_FRAMES frames at a
    time, so besides the pre-emphasized copy only the cepstra and the rows
    grow with the input.
    """
    (matrix,) = extract_all([buf], cfg)
    return matrix


def extract_all(bufs: Iterable[AudioBuffer], cfg: FeatureConfig) -> Iterator[FeatureMatrix]:
    """extract of each buffer in turn, computed a batch of buffers at a time.

    One call serves one sample rate: a buffer at another rate than the first
    is a ConfigError. Consecutive buffers with at most BLOCK_FRAMES frames
    in all make a batch (audio.frame_groups); a longer buffer is a batch of
    its own, run BLOCK_FRAMES frames at a time. Each piece of a batch is
    pre-emphasized in its own slot of one zero-padded buffer, at a
    hop-aligned offset far enough from the next that no frame holds samples
    of two, so one framing gives every piece's frames. Each block of frames
    then takes one window and rfft and one log10, and the batch one delta
    computation clamped at each piece's edges. Matrix products run per piece
    (per_piece_product), so every piece's rows equal extract of that piece
    alone, bit for bit.
    """
    rate = None

    def frames_of(buf: AudioBuffer) -> int:
        nonlocal rate
        if rate not in (None, buf.sample_rate_hz):
            raise ConfigError(
                f"inputs disagree on sample rate: {rate} Hz, then {buf.sample_rate_hz} Hz"
            )
        rate = buf.sample_rate_hz
        frame_len, hop = frame_geometry(cfg.frame_ms, cfg.overlap_fraction, rate)
        return frame_count(len(buf.samples), frame_len, hop)

    for batch in frame_groups(bufs, frames_of):
        yield from _extract_batch(batch, cfg)


def _extract_batch(bufs: list[AudioBuffer], cfg: FeatureConfig) -> list[FeatureMatrix]:
    sr = bufs[0].sample_rate_hz
    frame_len, hop = frame_geometry(cfg.frame_ms, cfg.overlap_fraction, sr)
    counts = np.array([frame_count(len(buf.samples), frame_len, hop) for buf in bufs])
    # piece p's frames are rows starts[p] onward of the padded buffer's framing;
    # each piece is followed by at least one zero past its last frame's end
    gap = -(-(frame_len + 1) // hop) - 1
    starts = np.concatenate(([0], np.cumsum(counts + gap)))
    padded = np.zeros(starts[-1] * hop)
    for buf, offset in zip(bufs, starts * hop):
        slot = padded[offset : offset + len(buf.samples)]
        slot[:] = buf.samples
        _preemphasize_in_place(slot, cfg.preemphasis_a)
    frames = cfg.frame.segment(AudioBuffer(padded, sr))

    bounds = np.concatenate(([0], np.cumsum(counts)))  # piece edges among the rows
    rows = np.arange(bounds[-1]) + np.repeat(starts[:-1] - bounds[:-1], counts)
    ceps = np.empty((bounds[-1], cfg.num_ceps))
    for part in frame_blocks(0, bounds[-1]):
        local = np.unique(np.clip(bounds, part.start, part.stop)) - part.start
        magnitudes = np.abs(cfg.frame.spectra(frames, rows[part]))
        ceps[part] = mfcc(mel_filterbank(magnitudes, cfg, sr, local), cfg.num_ceps, local)
    velocity = delta_features(ceps, cfg.delta_window, bounds)
    acceleration = delta_features(velocity, cfg.delta_window, bounds)

    stacked = np.hstack([ceps, velocity, acceleration])
    fingerprint = cfg.fingerprint(sr)
    edges = bounds.tolist()
    return [FeatureMatrix(stacked[lo:hi], hi - lo, fingerprint) for lo, hi in zip(edges, edges[1:])]
