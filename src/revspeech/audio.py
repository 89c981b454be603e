"""WAV ingestion/emission, mono conversion, time reversal, frame sequences and their STFT."""

import functools
import struct
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import UnsupportedWavError, WavFormatError

INT16_FULL_SCALE = 32768
# frames per block for every pass over frames: about 2.6 s at 16 kHz with the
# default 25 ms frames at 50% overlap, and 1 MB of 512-point half spectra, so
# a block's working arrays stay in cache; bounds each pass's transient memory
BLOCK_FRAMES = 256
# feature blocks per scoring batch: 4,096 rows (1.3 MB of features) at the
# default BLOCK_FRAMES, so each batch's delta pass and each model's scoring
# calls run on thousands of rows at once
SCORE_BLOCKS = 16
# samples per block when writing: 512 KB of float64
BLOCK_SAMPLES = 1 << 16


@dataclass
class AudioBuffer:
    """Mono audio: float64 samples plus their sample rate.

    Samples read from disk land in [-1.0, 1.0]. Buffers produced by
    processing stages may exceed that range transiently; write_wav clamps.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioBuffer samples must be one-dimensional")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


class FrameSequence:
    """Fixed-length windows cut from samples; frame i starts at sample i*hop.

    FrameSpec.segment builds these, with the framing resolved at the rate:
    frame_len, hop, fft_size and the analysis window (frame_len weights).
    num_samples is the length of the samples cut. run(lo, hi) reads frames
    lo .. hi - 1 as rows of frame_len samples. The frames that fit inside
    the samples are a read-only strided view of them, so overlapping frames
    share memory and a run of them is not copied. The one frame that may run
    past the last sample (or the only frame, when there are fewer samples
    than one frame) comes from a zero-padded copy of the tail, so a run that
    reaches it is a new array.
    """

    def __init__(self, samples: np.ndarray, frame_len: int, hop: int, sample_rate_hz: int,
                 fft_size: int, window: np.ndarray):
        self.num_samples = n = len(samples)
        self.frame_len = frame_len
        self.hop = hop
        self.sample_rate_hz = sample_rate_hz
        self.fft_size = fft_size
        self.window = window
        self._count = frame_count(n, frame_len, hop)
        inside = max((n - frame_len) // hop + 1, 0)
        if inside:
            self._inside = sliding_window_view(samples, frame_len)[::hop]
        else:
            self._inside = np.broadcast_to(0.0, (0, frame_len))  # read-only, as the view is
        # count - inside is 0 or 1: only the last frame can run past the end
        self._tail = np.zeros((self._count - inside, frame_len))
        if self._count > inside:
            rest = samples[inside * hop :]
            self._tail[0, : len(rest)] = rest

    def __len__(self) -> int:
        return self._count

    def run(self, lo: int, hi: int) -> np.ndarray:
        """Frames lo .. hi - 1, read-only; a view unless they include the padded frame."""
        if not 0 <= lo <= hi <= self._count:
            raise IndexError(f"frames {lo} .. {hi} are out of range for {self._count} frames")
        inside = len(self._inside)
        if hi <= inside:
            return self._inside[lo:hi]
        rows = np.concatenate((self._inside[lo:], self._tail[max(lo - inside, 0) :]))
        rows.flags.writeable = False
        return rows

    def covering(self, lo: int, hi: int) -> slice:
        """The frames that hold at least one of the samples lo .. hi - 1."""
        if hi <= lo:
            return slice(0, 0)
        first = max((lo - self.frame_len) // self.hop + 1, 0)
        return slice(first, min((hi - 1) // self.hop + 1, self._count))

    def spectra(self, rows=slice(None), windowed=None) -> np.ndarray:
        """Windowed half spectra (fft_size // 2 + 1 bins) of the frames rows picks.

        The one analysis transform; rows (a slice or an index array of frame
        numbers) picks a block of frames. windowed is a (rows picked,
        fft_size) buffer whose columns from frame_len on are zero: each
        picked frame is windowed into the first frame_len columns of its
        row, and the rest are never written, so rfft takes the buffer as it
        stands instead of copying every block into a zero-padded array of
        its own. A caller that walks many blocks makes the buffer once and
        passes a slice of it per block; without one, a buffer is made for
        the call. Each run of consecutive picked frames is read with run and
        windowed into it, so none is gathered.
        """
        picked = np.asarray(range(self._count)[rows] if isinstance(rows, slice) else rows)
        if windowed is None:
            windowed = np.zeros((len(picked), self.fft_size))
        head = windowed[:, : self.frame_len]
        firsts = np.flatnonzero(np.diff(picked, prepend=-2) != 1).tolist()
        for lo, hi in zip(firsts, firsts[1:] + [len(picked)]):
            np.multiply(self.run(picked[lo], picked[hi - 1] + 1), self.window, out=head[lo:hi])
        return np.fft.rfft(windowed, axis=-1)

    def synthesize(self, spectra: np.ndarray) -> np.ndarray:
        """Frames back from a block of (modified) half spectra, windowed again.

        This is the one synthesis transform: each inverse DFT is cut to one
        frame and multiplied by the analysis window in place.
        """
        synthesized = np.fft.irfft(spectra, n=self.fft_size, axis=-1)[:, : self.frame_len]
        synthesized *= self.window
        return synthesized

    @functools.cached_property
    def full_window_power(self) -> np.ndarray:
        """Window power (hop values) of an overlap-add row that every piece of a frame reaches.

        Built once per framing, for every OverlapAdd of it; read-only.
        """
        pieces = -(-self.frame_len // self.hop)
        (power,) = _window_power(self.window, self.hop, pieces - 1, pieces, pieces)
        power.flags.writeable = False
        return power


class OverlapAdd:
    """Samples lo .. hi - 1 summed from synthesized frames (FrameSequence.synthesize).

    Each frame that covers the range (frames.covering(lo, hi)) is added once,
    in frame order, in blocks of any size; the whole buffer is the range
    (0, frames.num_samples). So each sample sums its frames in frame order,
    and a range's samples equal the same samples of the whole buffer's.
    samples() divides them by the summed window power wherever that is
    >= 1e-8. Every row that all pieces of a frame reach has the same power,
    which is built once per framing (frames.full_window_power), so all
    those rows take one division; only the rows at the buffer's start and
    past its last frame sum the power of the frames that reach them.
    """

    def __init__(self, frames: FrameSequence, lo: int, hi: int):
        self.frames, self.lo, self.hi = frames, lo, hi
        # row j holds samples j*hop onward; frame i adds to rows i .. i + pieces - 1
        self.row_lo = lo // frames.hop
        self.rows = np.zeros((max(-(-hi // frames.hop), self.row_lo) - self.row_lo, frames.hop))

    def add(self, first: int, synthesized: np.ndarray) -> None:
        """Overlap-add synthesized frames first, first + 1, ... into the range."""
        _overlap_add(self.rows, synthesized, self.frames.hop, first - self.row_lo)

    def samples(self) -> np.ndarray:
        """The normalized samples, once every covering frame has been added."""
        frames = self.frames
        hop, num_frames = frames.hop, len(frames)
        row_lo, row_hi = self.row_lo, self.row_lo + len(self.rows)
        # rows pieces - 1 .. num_frames - 1 hold a piece of every frame
        full_lo = min(max(-(-frames.frame_len // hop) - 1, row_lo), row_hi)
        full_hi = max(min(num_frames, row_hi), full_lo)
        parts = [
            (start, stop, _window_power(frames.window, hop, start, stop, num_frames))
            for start, stop in ((row_lo, full_lo), (full_hi, row_hi))
            if start < stop
        ]
        parts.append((full_lo, full_hi, frames.full_window_power))
        for start, stop, power in parts:
            rows = self.rows[start - row_lo : stop - row_lo]
            np.divide(rows, power, out=rows, where=power >= 1e-8)
        return self.rows.reshape(-1)[self.lo - row_lo * hop : self.hi - row_lo * hop]


def _window_power(
    window: np.ndarray, hop: int, start: int, stop: int, num_frames: int
) -> np.ndarray:
    """Window power of overlap-add rows start .. stop - 1, shape (stop - start, hop).

    The squared window overlap-added over the frames of num_frames that
    reach those rows, in frame order, as OverlapAdd adds the frames.
    """
    pieces = -(-len(window) // hop)
    first = max(start - pieces + 1, 0)
    reaching = np.broadcast_to(window * window, (min(stop, num_frames) - first, len(window)))
    power = np.zeros((stop - start, hop))
    _overlap_add(power, reaching, hop, first - start)
    return power


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


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file containing 16-bit PCM, 1 or 2 channels.

    Stereo is downmixed by per-sample channel average. Integer samples map
    to [-1, 1] by division by 32768.

    Raises:
        WavFormatError: malformed container or inconsistent declared sizes.
        UnsupportedWavError: non-PCM encoding, bit depth other than 16,
            or more than two channels.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())

    if len(blob) < 12 or blob[0:4] != b"RIFF":
        raise WavFormatError(f"{path}: not a RIFF file")
    (riff_size,) = struct.unpack_from("<I", blob, 4)
    if riff_size != len(blob) - 8:
        raise WavFormatError(
            f"{path}: declared RIFF size {riff_size} does not match file length"
        )
    if blob[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a WAVE form")

    fmt = None
    data = None
    offset = 12
    while offset + 8 <= len(blob):
        chunk_id = bytes(blob[offset : offset + 4])
        (chunk_size,) = struct.unpack_from("<I", blob, offset + 4)
        body = blob[offset + 8 : offset + 8 + chunk_size]
        if len(body) != chunk_size:
            raise WavFormatError(
                f"{path}: chunk {chunk_id!r} declares {chunk_size} bytes "
                f"but only {len(body)} remain"
            )
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        # chunks are word-aligned; odd sizes carry a pad byte
        offset += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")
    if len(fmt) < 16:
        raise WavFormatError(f"{path}: fmt chunk too short")

    audio_format, channels, sample_rate, byte_rate, block_align, bits = (
        struct.unpack_from("<HHIIHH", fmt, 0)
    )
    if audio_format != 1:
        raise UnsupportedWavError(
            f"{path}: audio format code {audio_format} (only PCM is supported)"
        )
    if bits != 16:
        raise UnsupportedWavError(f"{path}: {bits}-bit PCM is not supported")
    if channels not in (1, 2):
        raise UnsupportedWavError(f"{path}: {channels} channels (expected 1 or 2)")
    if sample_rate <= 0:
        raise WavFormatError(f"{path}: nonpositive sample rate")
    if block_align != channels * 2 or byte_rate != sample_rate * block_align:
        raise WavFormatError(f"{path}: inconsistent fmt chunk fields")
    if len(data) % block_align != 0:
        raise WavFormatError(f"{path}: data length is not a whole number of frames")

    # chunks are memoryview slices of the file, so the only copy is this one
    raw = np.frombuffer(data, dtype="<i2").astype(np.float64)
    raw /= INT16_FULL_SCALE
    if channels == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)
    return AudioBuffer(raw, sample_rate)


def write_wav(buf: AudioBuffer, path) -> None:
    """Write a mono 16-bit PCM little-endian WAV file.

    Quantization rounds half away from zero at full scale 32768 and clamps
    to [-32768, 32767], so buffers already on the 16-bit grid round-trip
    through read_wav exactly.
    """
    if len(buf.samples) == 0:
        raise ValueError("cannot write an empty buffer")
    payload = np.empty(len(buf.samples), dtype="<i2")
    for lo in range(0, len(payload), BLOCK_SAMPLES):
        # scale, round, clip and convert one block in place
        scaled = buf.samples[lo : lo + BLOCK_SAMPLES] * INT16_FULL_SCALE
        scaled += np.copysign(0.5, scaled)
        np.trunc(scaled, out=scaled)
        np.clip(scaled, -32768, 32767, out=scaled)
        payload[lo : lo + len(scaled)] = scaled

    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + payload.nbytes,
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        buf.sample_rate_hz,
        buf.sample_rate_hz * 2,
        2,
        16,
        b"data",
        payload.nbytes,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def reverse(buf: AudioBuffer) -> AudioBuffer:
    """Return the buffer with sample order exactly reversed.

    The samples are a read-only reversed view of buf's, not a copy; buf's
    own samples stay writable.
    """
    view = buf.samples[::-1]
    view.flags.writeable = False
    return AudioBuffer(view, buf.sample_rate_hz)


def frame_count(num_samples: int, frame_len: int, hop: int) -> int:
    """Frames FrameSpec.segment cuts from num_samples samples: at least one."""
    return -(-max(num_samples - frame_len, 0) // hop) + 1


def frame_blocks(start: int, stop: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_FRAMES items covering range(start, stop)."""
    return [slice(lo, min(lo + BLOCK_FRAMES, stop)) for lo in range(start, stop, BLOCK_FRAMES)]


def frame_groups(items: Iterable, frames_of: Callable, blocks: int = 1) -> Iterator[list]:
    """Runs of consecutive items with at most blocks * BLOCK_FRAMES frames in all.

    frames_of(item) counts an item's frames; an item with more frames than
    that makes a run of its own. Items are drawn only as a run fills, and
    each run is a new list that the caller may empty.
    """
    limit = blocks * BLOCK_FRAMES
    group, total = [], 0
    for item in items:
        count = frames_of(item)
        if group and total + count > limit:
            yield group
            group, total = [], 0
        group.append(item)
        total += count
    if group:
        yield group


def frame_energies(frames: FrameSequence) -> np.ndarray:
    """Mean square of each frame, squaring one block of frames at a time.

    Each row's mean is taken on its own, so the result does not depend on
    the block size.
    """
    energies = np.empty(len(frames))
    for part in frame_blocks(0, len(energies)):
        energies[part] = np.mean(frames.run(part.start, part.stop) ** 2, axis=1)
    return energies
