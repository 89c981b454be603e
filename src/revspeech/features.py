"""MFCC front end: pre-emphasis, windowing, spectrum, mel filterbank, cepstra, deltas.

Per-frame functions act on the last axis; extract_all runs them on blocks of
frames gathered from many pieces, one matrix product per block. OpenBLAS may
round rows differently in products of other heights, so every product runs on
BLOCK_FRAMES rows, zero-padded: a piece's rows then equal the piece processed
alone within 1e-12 of their largest value, and bit for bit wherever the BLAS
computes the rows of one product shape alike (OpenBLAS at the default sizes).
"""

import functools
import hashlib
import itertools
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from . import audio
from .audio import (
    BLOCK_SAMPLES,
    SCORE_BLOCKS,
    AudioBuffer,
    FrameSequence,
    frame_blocks,
    frame_count,
    frame_groups,
)
from .errors import ConfigError, check_ranges, ranged

ENERGY_FLOOR = 1e-10
# the longest utterance the recognizer is built to score (longer segments are
# worth splitting upstream); windows that follow the signal within one
# utterance, the endpoint smoothing and the delta regression, fit in it
MAX_UTTERANCE_S = 30.0
# the largest FFT size, set or auto: a block of BLOCK_FRAMES frames then holds
# 64 MB of windowed frames and 64 MB of half spectra; it covers a 2,048 ms
# frame at 16 kHz (683 ms at 48 kHz), and zero-padding further only
# interpolates the spectrum
MAX_FFT_SIZE = 1 << 15


def check_fft_size(fft_size: int | None, key: str) -> None:
    """ConfigError unless fft_size, set under key, is auto (None) or a power of two."""
    if fft_size is not None and fft_size & (fft_size - 1):
        raise ConfigError(f"{key} must be a power of two, got {fft_size}")


@dataclass(frozen=True)
class FrameSpec:
    """Framing, window and FFT-size rule, shared by endpointing, enhance and features.

    Its fields declare every config section's framing fields (framing).
    section names the config section the fields come from (each section's
    frame property sets it), so errors at a rate name the key, such as
    enhance.fft_size; it is not a config key and takes no part in equality.
    """

    frame_ms: float = ranged(25.0, f"(0, {MAX_UTTERANCE_S * 1000:g}]")  # fits in an utterance
    overlap_fraction: float = ranged(0.5, "[0, 1)")
    window_a: float = ranged(0.46, "[0, 0.5]")  # keeps (1 - a) - a*cos(...) nonnegative
    fft_size: int | None = ranged(None, "[1, inf)")
    section: str = field(default="", compare=False)

    def __post_init__(self):
        check_ranges(self, self.section)
        check_fft_size(self.fft_size, self._key("fft_size"))

    def _key(self, name: str) -> str:
        return f"{self.section}.{name}" if self.section else name

    def resolve(self, sample_rate_hz: int) -> tuple[int, int, int]:
        """(frame_len, hop, fft_size) at the rate, by the rule segment documents.

        fft_size is the field, or by default the next power of two covering
        a frame. ConfigError, naming the key, if a frame is shorter than one
        sample, fft_size is shorter than a frame, or the FFT size, set or
        auto, exceeds MAX_FFT_SIZE.
        """
        frame_len = int(self.frame_ms * sample_rate_hz / 1000 + 0.5)
        frame = f"{self._key('frame_ms')} {self.frame_ms}"
        if frame_len < 1:
            raise ConfigError(f"{frame} is shorter than one sample at {sample_rate_hz} Hz")
        # extreme overlap on tiny frames can round the hop to zero; keep it total
        hop = max(frame_len - int(self.overlap_fraction * frame_len + 0.5), 1)
        frame += f" ({frame_len} samples at {sample_rate_hz} Hz)"
        fft_size = self.fft_size or 1 << (frame_len - 1).bit_length()
        if fft_size < frame_len:
            raise ConfigError(f"{self._key('fft_size')} {fft_size} is shorter than the frame "
                              f"of {frame}")
        if fft_size > MAX_FFT_SIZE:
            cause = (f"{frame} needs a {fft_size}-point FFT, which" if self.fft_size is None
                     else f"{self._key('fft_size')} {fft_size}")
            raise ConfigError(f"{cause} exceeds MAX_FFT_SIZE ({MAX_FFT_SIZE})")
        return frame_len, hop, fft_size

    def frames_within(self, seconds: float, sample_rate_hz: int | None = None) -> int:
        """Frames whose starts fall within seconds, frame_ms * (1 - overlap_fraction) apart.

        That grows without limit as overlap_fraction nears 1; a hop that
        underflows to zero, or a count past sys.maxsize, counts sys.maxsize.
        At a rate the hop is resolve's, at least one sample, so the count is
        at most seconds * rate + 1.
        """
        if sample_rate_hz is None:
            hop_ms = self.frame_ms * (1.0 - self.overlap_fraction)
            count = seconds * 1000.0 / hop_ms if hop_ms else sys.maxsize
            return int(min(count, sys.maxsize)) + 1
        _, hop, _ = self.resolve(sample_rate_hz)
        return int(seconds * sample_rate_hz / hop) + 1

    def segment(self, buf: AudioBuffer) -> FrameSequence:
        """Cut a buffer into fixed-length frames with fractional overlap.

        frame_len = round(frame_ms * rate / 1000) and
        hop = frame_len - round(overlap_fraction * frame_len). The trailing
        partial frame is zero-padded; a buffer shorter than one frame yields a
        single zero-padded frame. The frames are a read-only strided view of the
        buffer's own samples, plus that one padded frame (see FrameSequence).
        This is where a framing meets the buffer's rate: it is resolved and
        checked once (resolve), and the frames carry their FFT size and window.
        """
        frame_len, hop, fft_size = self.resolve(buf.sample_rate_hz)
        window = hamming_coefficients(frame_len, self.window_a)
        return FrameSequence(buf.samples, frame_len, hop, buf.sample_rate_hz, fft_size, window)


def framing(name: str):
    """A config section's framing field name, declared as FrameSpec declares it."""
    spec = FrameSpec.__dataclass_fields__[name]
    return ranged(spec.default, spec.metadata["range"])


@dataclass
class FeatureConfig:
    """Knobs for the cepstral front end.

    fft_size=None and high_freq_hz=None resolve at use time to the next
    power of two covering one frame and to half the sample rate.
    """

    preemphasis_a: float = ranged(0.97, "[0, 1)")
    frame_ms: float = framing("frame_ms")
    overlap_fraction: float = framing("overlap_fraction")
    window_a: float = framing("window_a")
    fft_size: int | None = framing("fft_size")
    num_filters: int = ranged(26, "[1, inf)")
    num_ceps: int = ranged(13, "[1, inf)")
    delta_window: int = ranged(2, "[1, inf)")
    low_freq_hz: float = ranged(0.0, "[0, inf)")
    high_freq_hz: float | None = ranged(None, "(0, inf)")

    def __post_init__(self):
        check_ranges(self, "features")
        check_fft_size(self.fft_size, "features.fft_size")
        if self.num_ceps > self.num_filters:
            raise ConfigError("features.num_ceps must be <= features.num_filters")
        if self.high_freq_hz is not None and self.low_freq_hz >= self.high_freq_hz:
            raise ConfigError("features.low_freq_hz must be below features.high_freq_hz")
        self.check()

    @property
    def frame(self) -> FrameSpec:
        return FrameSpec(self.frame_ms, self.overlap_fraction, self.window_a, self.fft_size,
                         section="features")

    def check(self, sample_rate_hz: int | None = None) -> None:
        """ConfigError unless the regression's 2 * delta_window + 1 frames fit in one utterance.

        Given a rate, the framing must resolve at it (FrameSpec.resolve), the
        frames are counted at its hop, and every mel filter must cover an FFT
        bin (filterbank).
        """
        spec = self.frame
        widest = (spec.frames_within(MAX_UTTERANCE_S, sample_rate_hz) - 1) // 2
        if self.delta_window > widest:
            at = "" if sample_rate_hz is None else f" at {sample_rate_hz} Hz"
            raise ConfigError(
                f"features.delta_window must be <= {widest}{at}: its 2 * delta_window + 1 "
                f"frames must fit in {MAX_UTTERANCE_S:g} s, the longest utterance (MAX_UTTERANCE_S)"
            )
        if sample_rate_hz is not None:
            frame_len, _, fft_size = spec.resolve(sample_rate_hz)
            self.filterbank(sample_rate_hz, frame_len, fft_size)

    def filterbank(self, sample_rate_hz: int, frame_len: int, fft_size: int) -> np.ndarray:
        """mel_filter_weights for the framing resolved at the rate.

        ConfigError if a filter covers no FFT bin, naming features.fft_size
        and features.frame_ms with their values at the rate.
        """
        high = self.resolve_high_freq(sample_rate_hz)
        framing = (f"features.fft_size {fft_size} and features.frame_ms {self.frame_ms} "
                   f"({frame_len} samples)")
        return mel_filter_weights(
            self.num_filters, fft_size, sample_rate_hz, self.low_freq_hz, high, framing
        )

    def resolve_high_freq(self, sample_rate_hz: int) -> float:
        high = self.high_freq_hz if self.high_freq_hz is not None else sample_rate_hz / 2
        if high > sample_rate_hz / 2:
            raise ConfigError(
                f"features.high_freq_hz {high} exceeds Nyquist for rate {sample_rate_hz}"
            )
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


def hz_to_mel(f: float) -> float:
    """Perceptual frequency warp 2595 * log10(1 + f/700)."""
    if np.any(np.asarray(f) < 0):
        raise ValueError("frequency must be nonnegative")
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m: float) -> float:
    """Inverse of hz_to_mel, used to place filter edges."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=32)
def mel_filter_weights(
    num_filters: int, fft_size: int, sample_rate_hz: int, low_hz: float, high_hz: float,
    framing: str | None = None,
) -> np.ndarray:
    """Triangular filter matrix of shape (num_filters, fft_size // 2 + 1).

    Centers sit at equal mel spacing between the band edges; each filter
    rises from the previous center and falls to the next, with unit peak.
    Built once per argument tuple; the shared result is read-only.

    ConfigError when a filter covers no bin; each bin lies inside at most two
    triangles, so more than 2 * (fft_size // 2 + 1) filters are refused unbuilt,
    as are edges that do not strictly increase (a filter would divide 0 by 0).
    The bin messages name the FFT as framing does (by default its size).
    """
    bins = fft_size // 2 + 1
    framing = framing or f"fft_size {fft_size}"
    if num_filters > 2 * bins:
        raise ConfigError(f"features.num_filters {num_filters} exceeds 2 * {bins}, twice the "
                          f"FFT bins of {framing} at {sample_rate_hz} Hz")
    edges_mel = np.linspace(hz_to_mel(low_hz), hz_to_mel(high_hz), num_filters + 2)
    edges_hz = mel_to_hz(edges_mel)
    if not np.all(np.diff(edges_hz) > 0):
        raise ConfigError(f"mel filter edges from features.low_freq_hz {low_hz} to "
                          f"features.high_freq_hz {high_hz} do not strictly increase")
    bin_freqs = np.arange(bins) * sample_rate_hz / fft_size

    weights = np.zeros((num_filters, bins))
    for m in range(num_filters):
        left, center, right = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    empty = np.count_nonzero(~weights.any(axis=1))
    if empty:
        raise ConfigError(f"{empty} of features.num_filters {num_filters} mel filters cover no "
                          f"FFT bin at {sample_rate_hz} Hz with {framing}")
    weights.flags.writeable = False
    return weights


def mel_filterbank(magnitudes: np.ndarray, cfg: FeatureConfig, sample_rate_hz: int) -> np.ndarray:
    """Per-filter energies s(m) = sum_k w_m(k) * |X(k)|^2 over the half spectrum.

    magnitudes holds exactly fft_size // 2 + 1 bins per frame.
    """
    frame_len, _, fft_size = cfg.frame.resolve(sample_rate_hz)
    weights = cfg.filterbank(sample_rate_hz, frame_len, fft_size)
    power = np.asarray(magnitudes, dtype=np.float64) ** 2
    if power.shape[-1] != len(weights.T):
        raise ConfigError(f"spectrum has {power.shape[-1]} bins, filterbank needs {len(weights.T)}")
    return power @ weights.T


@functools.lru_cache(maxsize=32)
def _dct_basis(num_ceps: int, num_filters: int) -> np.ndarray:
    """DCT-II rows cos(pi*n*(m+0.5)/M); built once per pair, read-only."""
    n = np.arange(num_ceps)[:, None]
    m = np.arange(num_filters)[None, :]
    basis = np.cos(np.pi * n * (m + 0.5) / num_filters)
    basis.flags.writeable = False
    return basis


def mfcc(energies: np.ndarray, num_ceps: int) -> np.ndarray:
    """Cepstra c(n) = sum_m log10(max(s(m), eps)) * cos(pi*n*(m+0.5)/M)."""
    energies = np.asarray(energies, dtype=np.float64)
    if np.any(energies < 0):
        raise ValueError("filterbank energies must be nonnegative")
    logs = np.log10(np.maximum(energies, ENERGY_FLOOR))
    return logs @ _dct_basis(num_ceps, energies.shape[-1]).T


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
    """extract of each buffer in turn: each extract_batches batch cut into its pieces."""
    for batch, bounds in extract_batches(bufs, cfg):
        for lo, hi in zip(bounds, bounds[1:]):
            yield FeatureMatrix(batch.rows[lo:hi], hi - lo, batch.config_fingerprint)


def extract_batches(
    bufs: Iterable[AudioBuffer], cfg: FeatureConfig
) -> Iterator[tuple[FeatureMatrix, list[int]]]:
    """Each batch of buffers as one FeatureMatrix of their stacked rows, and its bounds.

    bounds are the row offsets where the buffers' rows meet, from 0 to the
    batch's row count, so rows bounds[p] .. bounds[p + 1] - 1 are extract of
    the batch's buffer p (within rounding, see the module docstring). A batch
    holds at most SCORE_BLOCKS * BLOCK_FRAMES frames, or one longer buffer
    (stack_batches). extract_all cuts the batches into one matrix per buffer,
    and transcribe scores each as it comes.

    One call serves one sample rate: a buffer at another rate than the first
    is a ConfigError. Cepstra are computed per extraction batch: consecutive
    buffers with at most BLOCK_FRAMES frames in all (audio.frame_groups), or
    one longer buffer, run BLOCK_FRAMES frames at a time. Each piece of an
    extraction batch is copied into its own slot of one zero-padded buffer,
    at a hop-aligned offset far enough from the next that no frame holds
    samples of two, and the whole buffer is pre-emphasized in one pass; the
    first zero after each piece, the one sample the filter carries a piece
    into, is then set back to zero. So one framing gives every piece's
    frames, each as if pre-emphasized alone. Each block of frames then takes
    one window and rfft, one mel product, one log10 and one DCT product,
    writing the padded buffer, windowed frames (fft_size columns, the ones
    past the frame zero, as FrameSequence.spectra takes them) and power spectra
    into arrays of the call's own, made once, zeroed, and reused. The cepstra
    of a batch then take one delta computation clamped at each piece's
    edges, one finite-value check and one fingerprint.
    """
    spec = cfg.frame
    rate = geometry = None  # the first buffer's rate, and (frame_len, hop) at it

    def frames_of(buf: AudioBuffer) -> int:
        nonlocal rate, geometry
        if rate not in (None, buf.sample_rate_hz):
            raise ConfigError(
                f"inputs disagree on sample rate: {rate} Hz, then {buf.sample_rate_hz} Hz"
            )
        if rate is None:
            cfg.check(buf.sample_rate_hz)
            rate = buf.sample_rate_hz
            geometry = spec.resolve(rate)[:2]
        return frame_count(len(buf.samples), *geometry)

    def with_deltas(ceps: np.ndarray, bounds: list[int]) -> tuple[FeatureMatrix, list[int]]:
        velocity = delta_features(ceps, cfg.delta_window, bounds)
        acceleration = delta_features(velocity, cfg.delta_window, bounds)
        rows = np.hstack([ceps, velocity, acceleration])
        return FeatureMatrix(rows, len(rows), cfg.fingerprint(rate)), bounds

    scratch = {}  # this call's block buffers, so concurrent calls share none
    # each batch is drawn, and so its rate and geometry known, before it is framed
    cepstra = (
        _cepstra(batch, cfg, spec, geometry, scratch) for batch in frame_groups(bufs, frames_of)
    )
    return itertools.starmap(with_deltas, stack_batches(cepstra))


def stack_batches(
    batches: Iterable[tuple[np.ndarray, list[int]]],
) -> Iterator[tuple[np.ndarray, list[int]]]:
    """Runs of consecutive (rows, bounds) batches, each stacked into one (rows, bounds).

    bounds are the offsets where a batch's pieces meet, from 0 to its row
    count. A run holds at most SCORE_BLOCKS * BLOCK_FRAMES rows, or one
    longer batch, and is drawn only as it fills (audio.frame_groups).
    """
    return map(_stacked, frame_groups(batches, lambda batch: len(batch[0]), SCORE_BLOCKS))


def _stacked(group: list) -> tuple[np.ndarray, list[int]]:
    """stack_batches of one run; the run is emptied, so only the stacked copy stays held."""
    rows = group[0][0] if len(group) == 1 else np.concatenate([part for part, _ in group])
    bounds, offset = [0], 0
    for part, edges in group:
        bounds += [offset + edge for edge in edges[1:]]
        offset += len(part)
    group.clear()
    return rows, bounds


def _reused(scratch: dict, name: str, shape: tuple) -> np.ndarray:
    """The first shape[0] rows of scratch[name], made anew, zeroed, only when it has fewer."""
    if len(scratch.get(name, ())) < shape[0]:
        scratch[name] = np.zeros(shape)
    return scratch[name][: shape[0]]


def _cepstra(
    bufs: list[AudioBuffer], cfg: FeatureConfig, spec: FrameSpec, geometry: tuple, scratch: dict
) -> tuple[np.ndarray, list[int]]:
    """The stacked cepstra of one extraction batch, and its piece bounds.

    spec is cfg.frame, and geometry its (frame_len, hop) at the batch's rate.
    """
    sr = bufs[0].sample_rate_hz
    frame_len, hop = geometry
    counts = np.array([frame_count(len(buf.samples), frame_len, hop) for buf in bufs])
    # piece p's frames are rows starts[p] onward of the padded buffer's framing;
    # each piece is followed by at least one zero past its last frame's end
    gap = -(-(frame_len + 1) // hop) - 1
    starts = np.concatenate(([0], np.cumsum(counts + gap)))
    padded = _reused(scratch, "padded", (starts[-1] * hop,))
    padded.fill(0.0)
    ends = starts[:-1] * hop + [len(buf.samples) for buf in bufs]
    for buf, end in zip(bufs, ends):
        padded[end - len(buf.samples) : end] = buf.samples
    # one pass filters every piece: a piece's first sample reads a zero of
    # the gap before it, so it stays as it was, and of each gap only the
    # first sample, which reads the piece's last, is set back to zero
    _preemphasize_in_place(padded, cfg.preemphasis_a)
    padded[ends] = 0.0
    frames = spec.segment(AudioBuffer(padded, sr))
    weights = cfg.filterbank(sr, frames.frame_len, frames.fft_size)

    bounds = np.concatenate(([0], np.cumsum(counts)))  # piece edges among the rows
    rows = np.arange(bounds[-1]) + np.repeat(starts[:-1] - bounds[:-1], counts)
    ceps = np.empty((bounds[-1], cfg.num_ceps))
    # the mel and DCT products run on all BLOCK_FRAMES rows of the power
    # buffer, the rows past a short block zeroed, so every product has one shape
    power = _reused(scratch, "power", (audio.BLOCK_FRAMES, frames.fft_size // 2 + 1))
    for part in frame_blocks(0, bounds[-1]):
        n = part.stop - part.start
        windowed = _reused(scratch, "windowed", (n, frames.fft_size))
        spectra = frames.spectra(rows[part], windowed)
        np.abs(spectra, out=power[:n])
        np.square(power[:n], out=power[:n])  # as ** 2, bit for bit
        power[n:] = 0.0
        ceps[part] = mfcc(power @ weights.T, cfg.num_ceps)[:n]
    return ceps, bounds.tolist()
