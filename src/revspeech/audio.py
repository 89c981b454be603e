"""WAV ingestion/emission, mono conversion, time reversal, frame segmentation."""

import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, UnsupportedWavError, WavFormatError

INT16_FULL_SCALE = 32768
# frames per block for whole-recording passes: about 25 s at 16 kHz with the
# default 25 ms frames at 50% overlap; bounds each pass's transient memory
BLOCK_FRAMES = 2048


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


@dataclass
class FrameSequence:
    """Fixed-length windows cut from a buffer; frame i starts at sample i*hop."""

    frames: np.ndarray
    frame_len: int
    hop: int
    sample_rate_hz: int

    def __post_init__(self):
        if not 0 < self.hop <= self.frame_len:
            raise ValueError("hop must satisfy 0 < hop <= frame_len")


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
        blob = fh.read()

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
        chunk_id = blob[offset : offset + 4]
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

    raw = np.frombuffer(data, dtype="<i2").astype(np.float64) / INT16_FULL_SCALE
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
    scaled = buf.samples * INT16_FULL_SCALE
    quantized = np.trunc(scaled + np.copysign(0.5, scaled))
    quantized = np.clip(quantized, -32768, 32767).astype("<i2")

    payload = quantized.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
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
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def reverse(buf: AudioBuffer) -> AudioBuffer:
    """Return the buffer with sample order exactly reversed."""
    return AudioBuffer(buf.samples[::-1].copy(), buf.sample_rate_hz)


def segment(buf: AudioBuffer, frame_ms: float, overlap_fraction: float) -> FrameSequence:
    """Cut a buffer into fixed-length frames with fractional overlap.

    frame_len = round(frame_ms * rate / 1000) and
    hop = frame_len - round(overlap_fraction * frame_len). The trailing
    partial frame is zero-padded; a buffer shorter than one frame yields a
    single zero-padded frame. The frames are a read-only strided view of one
    padded copy of the samples, so overlapping frames share memory.
    """
    if frame_ms <= 0:
        raise ValueError("frame_ms must be positive")
    if not 0 <= overlap_fraction < 1:
        raise ValueError("overlap_fraction must be in [0, 1)")

    frame_len = int(frame_ms * buf.sample_rate_hz / 1000 + 0.5)
    if frame_len < 1:
        raise ConfigError(
            f"frame_ms {frame_ms} is shorter than one sample at {buf.sample_rate_hz} Hz"
        )
    # extreme overlap on tiny frames can round the hop to zero; keep it total
    hop = max(frame_len - int(overlap_fraction * frame_len + 0.5), 1)

    n = len(buf.samples)
    num_frames = int(np.ceil(max(n - frame_len, 0) / hop)) + 1
    padded = np.zeros((num_frames - 1) * hop + frame_len, dtype=np.float64)
    padded[:n] = buf.samples
    frames = sliding_window_view(padded, frame_len)[::hop]
    return FrameSequence(frames, frame_len, hop, buf.sample_rate_hz)


def frame_blocks(count: int) -> list[slice]:
    """Consecutive slices of at most BLOCK_FRAMES items covering range(count)."""
    return [slice(lo, min(lo + BLOCK_FRAMES, count)) for lo in range(0, count, BLOCK_FRAMES)]


def frame_energies(frames: FrameSequence) -> np.ndarray:
    """Mean square of each frame, squaring one block of frames at a time.

    Each row's mean is taken on its own, so the result does not depend on
    the block size.
    """
    energies = np.empty(len(frames.frames))
    for part in frame_blocks(len(energies)):
        energies[part] = np.mean(frames.frames[part] ** 2, axis=1)
    return energies
