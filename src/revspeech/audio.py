"""WAV ingestion/emission, mono conversion, time reversal, frame sequences."""

import struct
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, UnsupportedWavError, WavFormatError

INT16_FULL_SCALE = 32768
# frames per block for every pass over frames: about 2.6 s at 16 kHz with the
# default 25 ms frames at 50% overlap, and 1 MB of 512-point half spectra, so
# a block's working arrays stay in cache; bounds each pass's transient memory
BLOCK_FRAMES = 256
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

    The frames that fit inside the samples are a read-only strided view of
    them, so overlapping frames share memory and nothing is copied. The one
    frame that may run past the last sample (or the only frame, when there
    are fewer samples than one frame) comes from a zero-padded copy of the
    tail. frames[rows] gives the frames of a slice, an index or an index
    array as rows of frame_len samples; an index array is gathered in time
    proportional to its length.
    """

    def __init__(self, samples: np.ndarray, frame_len: int, hop: int, sample_rate_hz: int):
        if not 0 < hop <= frame_len:
            raise ValueError("hop must satisfy 0 < hop <= frame_len")
        self.samples = samples
        self.frame_len = frame_len
        self.hop = hop
        self.sample_rate_hz = sample_rate_hz
        n = len(samples)
        self._count = frame_count(n, frame_len, hop)
        inside = max((n - frame_len) // hop + 1, 0)
        if inside:
            self._inside = sliding_window_view(samples, frame_len)[::hop]
        else:
            self._inside = np.empty((0, frame_len))
        # count - inside is 0 or 1: only the last frame can run past the end
        self._tail = np.zeros((self._count - inside, frame_len))
        if self._count > inside:
            rest = samples[inside * hop :]
            self._tail[0, : len(rest)] = rest

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, rows) -> np.ndarray:
        inside = len(self._inside)
        if isinstance(rows, slice):
            start, stop, step = rows.indices(self._count)
            if step == 1 and stop <= inside:
                return self._inside[start:stop]
            index = np.arange(start, stop, step)
        else:
            index = np.asarray(rows)
            if index.dtype.kind not in "iu":
                raise IndexError("frames are read by a slice, an integer or an integer array")
            if index.size and not -self._count <= index.min() <= index.max() < self._count:
                raise IndexError(f"frame index out of range for {self._count} frames")
            index = np.where(index < 0, index + self._count, index)
        within = index < inside
        if within.all():
            return self._inside[index]
        out = np.empty(index.shape + (self.frame_len,))
        out[within] = self._inside[index[within]]
        out[~within] = self._tail[index[~within] - inside]
        return out

    def covering(self, lo: int, hi: int) -> slice:
        """The frames that hold at least one of the samples lo .. hi - 1."""
        if hi <= lo:
            return slice(0, 0)
        first = max((lo - self.frame_len) // self.hop + 1, 0)
        return slice(first, min((hi - 1) // self.hop + 1, self._count))


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


def frame_geometry(frame_ms: float, overlap_fraction: float, sample_rate_hz: int) -> tuple[int, int]:
    """(frame_len, hop) in samples, by the rule FrameSpec.segment documents."""
    frame_len = int(frame_ms * sample_rate_hz / 1000 + 0.5)
    if frame_len < 1:
        raise ConfigError(
            f"frame_ms {frame_ms} is shorter than one sample at {sample_rate_hz} Hz"
        )
    # extreme overlap on tiny frames can round the hop to zero; keep it total
    return frame_len, max(frame_len - int(overlap_fraction * frame_len + 0.5), 1)


def frame_count(num_samples: int, frame_len: int, hop: int) -> int:
    """Frames FrameSpec.segment cuts from num_samples samples: at least one."""
    return -(-max(num_samples - frame_len, 0) // hop) + 1


def frame_blocks(start: int, stop: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_FRAMES items covering range(start, stop)."""
    return [slice(lo, min(lo + BLOCK_FRAMES, stop)) for lo in range(start, stop, BLOCK_FRAMES)]


def frame_groups(items: Iterable, frames_of: Callable) -> Iterator[list]:
    """Runs of consecutive items with at most BLOCK_FRAMES frames in all.

    frames_of(item) counts an item's frames; an item with more frames than
    a block makes a run of its own. Items are drawn only as a run fills.
    """
    group, total = [], 0
    for item in items:
        count = frames_of(item)
        if group and total + count > BLOCK_FRAMES:
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
        energies[part] = np.mean(frames[part] ** 2, axis=1)
    return energies
