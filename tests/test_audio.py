"""WAV round trips, reversal, and segmentation contracts."""

import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import padded_frames
from revspeech import AudioBuffer, FrameSpec, read_wav, reverse, write_wav
from revspeech.errors import ConfigError, UnsupportedWavError, WavFormatError

QUANT_STEP = 1.0 / 32767


def make_wav_bytes(
    ints,
    channels=1,
    sample_rate=16000,
    audio_format=1,
    bits=16,
    riff_size=None,
    data_size=None,
):
    payload = struct.pack(f"<{len(ints)}h", *ints)
    data_size = len(payload) if data_size is None else data_size
    riff_size = 36 + len(payload) if riff_size is None else riff_size
    block_align = channels * bits // 8
    return struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        riff_size,
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        channels,
        sample_rate,
        sample_rate * block_align,
        block_align,
        bits,
        b"data",
        data_size,
    ) + payload


def write_bytes(tmp_path, blob, name="test.wav"):
    path = tmp_path / name
    path.write_bytes(blob)
    return path


class TestReadWav:
    def test_scaling(self, tmp_path):
        path = write_bytes(tmp_path, make_wav_bytes([0, 16384, -32768]))
        buf = read_wav(path)
        assert buf.sample_rate_hz == 16000
        np.testing.assert_array_equal(buf.samples, [0.0, 0.5, -1.0])

    def test_stereo_downmix_average(self, tmp_path):
        left = [6554, -16384]
        right = [13107, 16384]
        interleaved = [v for pair in zip(left, right) for v in pair]
        path = write_bytes(tmp_path, make_wav_bytes(interleaved, channels=2))
        buf = read_wav(path)
        expected = (np.array(left) / 32768 + np.array(right) / 32768) / 2
        np.testing.assert_allclose(buf.samples, expected, rtol=0, atol=0)

    def test_all_samples_in_range(self, tmp_path):
        rng = np.random.default_rng(0)
        ints = rng.integers(-32768, 32768, size=500)
        buf = read_wav(write_bytes(tmp_path, make_wav_bytes(list(ints))))
        assert np.all(buf.samples >= -1.0) and np.all(buf.samples <= 1.0)

    def test_rejects_bad_magic(self, tmp_path):
        blob = bytearray(make_wav_bytes([0]))
        blob[0:4] = b"FFIR"
        with pytest.raises(WavFormatError):
            read_wav(write_bytes(tmp_path, bytes(blob)))

    def test_rejects_riff_size_mismatch(self, tmp_path):
        blob = make_wav_bytes([0, 1, 2], riff_size=999)
        with pytest.raises(WavFormatError):
            read_wav(write_bytes(tmp_path, blob))

    def test_rejects_data_size_mismatch(self, tmp_path):
        # data chunk declares more bytes than the file holds
        blob = make_wav_bytes([0, 1, 2], data_size=100, riff_size=136)
        with pytest.raises(WavFormatError):
            read_wav(write_bytes(tmp_path, blob))

    def test_rejects_truncated_file(self, tmp_path):
        blob = make_wav_bytes([0, 1, 2])[:20]
        with pytest.raises(WavFormatError):
            read_wav(write_bytes(tmp_path, blob))

    def test_rejects_float_encoding(self, tmp_path):
        blob = make_wav_bytes([0, 1], audio_format=3)
        with pytest.raises(UnsupportedWavError):
            read_wav(write_bytes(tmp_path, blob))

    def test_rejects_wrong_bit_depth(self, tmp_path):
        blob = make_wav_bytes([0, 1], bits=24)
        with pytest.raises(UnsupportedWavError):
            read_wav(write_bytes(tmp_path, blob))

    def test_rejects_many_channels(self, tmp_path):
        blob = make_wav_bytes([0, 1, 2, 3], channels=4)
        with pytest.raises(UnsupportedWavError):
            read_wav(write_bytes(tmp_path, blob))


class TestWriteWav:
    def test_zero_payload(self, tmp_path):
        path = tmp_path / "zero.wav"
        write_wav(AudioBuffer([0.0], 8000), path)
        assert path.read_bytes()[-2:] == b"\x00\x00"

    def test_full_scale_clamps(self, tmp_path):
        path = tmp_path / "one.wav"
        write_wav(AudioBuffer([1.0], 8000), path)
        assert path.read_bytes()[-2:] == b"\xff\x7f"

    def test_negative_full_scale(self, tmp_path):
        path = tmp_path / "neg.wav"
        write_wav(AudioBuffer([-1.0], 8000), path)
        assert path.read_bytes()[-2:] == b"\x00\x80"

    def test_empty_buffer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_wav(AudioBuffer([], 8000), tmp_path / "empty.wav")

    def test_round_trip_quantized_is_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(20):
            ints = rng.integers(-32768, 32768, size=200)
            quantized = ints / 32768.0
            path = tmp_path / f"q{trial}.wav"
            write_wav(AudioBuffer(quantized, 16000), path)
            back = read_wav(path)
            np.testing.assert_array_equal(back.samples, quantized)

    def test_round_trip_within_one_step(self, tmp_path):
        rng = np.random.default_rng(8)
        for trial in range(20):
            samples = rng.uniform(-1, 1, size=300)
            path = tmp_path / f"r{trial}.wav"
            write_wav(AudioBuffer(samples, 16000), path)
            back = read_wav(path)
            assert np.max(np.abs(back.samples - samples)) <= QUANT_STEP

    def test_header_fields(self, tmp_path):
        path = tmp_path / "hdr.wav"
        write_wav(AudioBuffer([0.1, -0.1, 0.2], 22050), path)
        blob = path.read_bytes()
        assert blob[0:4] == b"RIFF" and blob[8:12] == b"WAVE"
        buf = read_wav(path)
        assert buf.sample_rate_hz == 22050
        assert len(buf.samples) == 3


class TestReverse:
    def test_definition(self):
        buf = AudioBuffer([1.0, 2.0, 3.0], 100)
        np.testing.assert_array_equal(reverse(buf).samples, [3.0, 2.0, 1.0])

    def test_involution_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            samples = rng.uniform(-1, 1, size=rng.integers(1, 400))
            buf = AudioBuffer(samples, 16000)
            np.testing.assert_array_equal(reverse(reverse(buf)).samples, samples)

    def test_single_sample_fixed_point(self):
        buf = AudioBuffer([0.25], 8000)
        np.testing.assert_array_equal(reverse(buf).samples, [0.25])

    def test_sample_rate_unchanged(self):
        assert reverse(AudioBuffer([0.0, 0.1], 44100)).sample_rate_hz == 44100

    def test_is_a_read_only_view(self):
        buf = AudioBuffer([1.0, 2.0, 3.0], 100)
        backwards = reverse(buf)
        assert np.shares_memory(backwards.samples, buf.samples)
        with pytest.raises(ValueError):
            backwards.samples[0] = 0.0
        assert buf.samples.flags.writeable
        buf.samples[0] = 5.0
        assert backwards.samples[-1] == 5.0


class TestSegment:
    def test_enumerated_half_overlap(self):
        buf = AudioBuffer(np.arange(1000) / 1000.0, 1000)
        frames = FrameSpec(100.0, 0.5).segment(buf)
        assert frames.frame_len == 100
        assert frames.hop == 50
        assert len(frames) == 19
        assert frames.num_samples == 1000
        for i in range(19):
            start = i * 50
            expected = np.zeros(100)
            chunk = buf.samples[start : start + 100]
            expected[: len(chunk)] = chunk
            np.testing.assert_array_equal(frames.run(i, i + 1), [expected])

    def test_zero_overlap_contiguous(self):
        buf = AudioBuffer(np.arange(30) / 30.0, 10)
        frames = FrameSpec(1000.0, 0.0).segment(buf)
        assert frames.hop == frames.frame_len == 10
        np.testing.assert_array_equal(frames.run(0, len(frames)).ravel(), buf.samples)

    def test_frame_len_arithmetic(self):
        buf = AudioBuffer(np.zeros(800), 16000)
        assert FrameSpec(25.0, 0.5).segment(buf).frame_len == 400

    def test_short_buffer_zero_padded(self):
        buf = AudioBuffer([0.5, -0.5], 16000)
        frames = FrameSpec(25.0, 0.5).segment(buf)
        (only,) = frames.run(0, 1)
        assert len(frames) == 1 and only.shape == (400,)
        np.testing.assert_array_equal(only[:2], [0.5, -0.5])
        assert np.all(only[2:] == 0)

    def test_frame_count_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(1, 5000))
            buf = AudioBuffer(np.zeros(n), 8000)
            frame_ms = float(rng.uniform(5, 50))
            overlap = float(rng.uniform(0, 0.9))
            frames = FrameSpec(frame_ms, overlap).segment(buf)
            expected = int(np.ceil(max(n - frames.frame_len, 0) / frames.hop)) + 1
            assert len(frames) == expected

    def test_zero_overlap_concatenation_reproduces_input(self):
        rng = np.random.default_rng(6)
        samples = rng.uniform(-1, 1, size=1234)
        buf = AudioBuffer(samples, 16000)
        frames = FrameSpec(25.0, 0.0).segment(buf)
        rebuilt = frames.run(0, len(frames)).ravel()[: len(samples)]
        np.testing.assert_array_equal(rebuilt, samples)

    def test_frames_are_a_read_only_view(self):
        buf = AudioBuffer(np.arange(1000) / 1000.0, 1000)
        frames = FrameSpec(100.0, 0.5).segment(buf).run(0, 18)  # all but the padded one
        # overlapping frames are windows on the samples, not copies
        assert not frames.flags.owndata
        assert np.shares_memory(frames[0], frames[1])
        assert frames[0, 50] == frames[1, 0] == 0.05
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0] = 1.0
        # the windows lie on the caller's samples, which they cannot change
        assert np.shares_memory(frames, buf.samples)

    @pytest.mark.parametrize("frame_ms, overlap", [(8.0, 0.625), (8.0, 0.5), (8.0, 0.0), (1.0, 0.0)])
    def test_frames_equal_a_padded_copy(self, frame_ms, overlap):
        # the frames that fit are views of the samples and the last one is
        # padded on its own; runs from the start, in the middle and up to
        # the end equal the rows of one zero-padded copy of the whole
        # buffer, from one sample to several frames, exact fits (no padded
        # frame) included
        for n in range(1, 60):
            samples = np.arange(1, n + 1, dtype=np.float64)
            frames = FrameSpec(frame_ms, overlap).segment(AudioBuffer(samples, 1000))
            frame_len, hop, count = frames.frame_len, frames.hop, len(frames)
            old = padded_frames(samples, frame_len, hop)
            assert old.shape == (count, frame_len)
            for lo in range(count + 1):
                # empty, one frame, all but the last, and up to the end
                for hi in {lo, min(lo + 1, count), max(count - 1, lo), count}:
                    np.testing.assert_array_equal(frames.run(lo, hi), old[lo:hi])
        fits = AudioBuffer(np.ones(8 + 3 * 4), 1000)
        exact = FrameSpec(8.0, 0.5).segment(fits)
        assert len(exact) == 4 and np.shares_memory(exact.run(0, 4), fits.samples)

    def test_runs_outside_the_frames_raise_index_error(self):
        frames = FrameSpec(4.0, 0.5).segment(AudioBuffer(np.arange(1.0, 10.0), 1000))  # 4 frames
        for lo, hi in ((-1, 2), (0, 5), (3, 2), (5, 5), (-5, -1)):
            with pytest.raises(IndexError):
                frames.run(lo, hi)
        assert frames.run(4, 4).shape == (0, 4)

    def test_a_run_costs_no_more_than_its_rows(self):
        # the last rows of a long recording, padded frame included, as a
        # block at its end reads them: nothing of the frame count's size is
        # built on the way
        frames = FrameSpec(4.0, 0.75).segment(AudioBuffer(np.zeros(2_000_000), 1000))  # hop 1
        tracemalloc.start()
        try:
            rows = frames.run(len(frames) - 3, len(frames))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (3, 4)
        assert peak < 4096  # a per-frame array would be 16 MB

    def test_invalid_arguments(self):
        buf = AudioBuffer(np.zeros(100), 8000)
        with pytest.raises(ConfigError, match=r"frame_ms must be in \(0, 30000\], got 0.0"):
            FrameSpec(0.0, 0.5).segment(buf)
        with pytest.raises(ConfigError, match="overlap_fraction must be in"):
            FrameSpec(10.0, 1.0).segment(buf)
        with pytest.raises(ConfigError, match="shorter than one sample"):
            FrameSpec(0.01, 0.5).segment(buf)


@given(
    st.lists(st.integers(-32768, 32767), min_size=1, max_size=2000),
    st.integers(1, 192000),
)
def test_wav_round_trip_on_the_16_bit_grid(codes, rate):
    buf = AudioBuffer(np.array(codes) / 32768, rate)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "grid.wav"
        write_wav(buf, path)
        back = read_wav(path)
    assert back.sample_rate_hz == rate
    np.testing.assert_array_equal(back.samples, buf.samples)


@given(
    st.integers(1, 3000),
    st.sampled_from([8000, 16000, 44100]),
    st.floats(0.1, 60.0),
    st.floats(0.0, 0.95),
)
def test_segment_covers_every_sample(n, rate, frame_ms, overlap):
    samples = np.arange(1, n + 1, dtype=np.float64)
    frames = FrameSpec(frame_ms, overlap).segment(AudioBuffer(samples, rate))
    frame_len, hop, count = frames.frame_len, frames.hop, len(frames)
    every = frames.run(0, count)
    assert every.shape == (count, frame_len)
    # frame i starts at sample i*hop, so sample t sits at column t - i*hop of
    # frame i = t // hop, or of the last frame once t // hop runs past it
    t = np.arange(n)
    i = np.minimum(t // hop, count - 1)
    np.testing.assert_array_equal(every[i, t - i * hop], samples)
    # the frames reach the last sample, and none starts past it but the first
    assert (count - 1) * hop + frame_len >= n
    assert count == 1 or (count - 1) * hop < n
    # whatever lies beyond the buffer is zero padding
    np.testing.assert_array_equal(every, padded_frames(samples, frame_len, hop))


@given(
    st.integers(1, 200),
    st.floats(1.0, 40.0),
    st.floats(0.0, 0.95),
    st.data(),
)
def test_runs_equal_the_padded_frames(n, frame_ms, overlap, data):
    samples = np.arange(1, n + 1, dtype=np.float64)
    frames = FrameSpec(frame_ms, overlap).segment(AudioBuffer(samples, 1000))
    frame_len, hop, count = frames.frame_len, frames.hop, len(frames)
    lo = data.draw(st.integers(-2, count + 2), label="lo")
    hi = data.draw(st.integers(-2, count + 2), label="hi")
    if not 0 <= lo <= hi <= count:
        with pytest.raises(IndexError):
            frames.run(lo, hi)
        return
    run = frames.run(lo, hi)
    np.testing.assert_array_equal(run, padded_frames(samples, frame_len, hop)[lo:hi])
    assert not run.flags.writeable
    # a view of the samples unless the run holds the zero-padded last frame
    padded_last = (count - 1) * hop + frame_len > n
    assert np.shares_memory(run, samples) == (lo < hi and not (padded_last and hi == count))
