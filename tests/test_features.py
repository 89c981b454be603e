"""Cepstral front-end contracts, each checked against an independent oracle."""

import math
import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    assert_rows_match_alone,
    dft_magnitude,
    hamming_window,
    overlap_add_normalized,
    padded_frames,
)
from revspeech import AudioBuffer, FeatureConfig, extract, reverse
from revspeech import audio, features
from revspeech.errors import ConfigError
from revspeech.audio import OverlapAdd
from revspeech.features import (
    MAX_FFT_SIZE,
    FrameSpec,
    delta_features,
    hamming_coefficients,
    hz_to_mel,
    mel_filter_weights,
    mel_filterbank,
    mel_to_hz,
    mfcc,
)

# frozen from a 50-digit Decimal evaluation of 2595*log10(1 + f/700)
MEL_700 = 781.17283874803120157965243181
MEL_1000 = 999.98553713962436886353968473


def preemphasize(buf, a):
    """extract's pre-emphasis, run on a copy of the samples."""
    samples = buf.samples.copy()
    features._preemphasize_in_place(samples, a)
    return AudioBuffer(samples, buf.sample_rate_hz)


def brute_force_dft_magnitude(frame, fft_size):
    padded = np.zeros(fft_size, dtype=complex)
    padded[: len(frame)] = frame
    out = np.empty(fft_size)
    for k in range(fft_size):
        total = 0j
        for n in range(fft_size):
            total += padded[n] * np.exp(-2j * np.pi * n * k / fft_size)
        out[k] = abs(total)
    return out


class TestPreemphasize:
    def test_zero_coefficient_is_identity(self):
        buf = AudioBuffer([0.1, -0.4, 0.9], 8000)
        np.testing.assert_array_equal(preemphasize(buf, 0.0).samples, buf.samples)

    def test_difference_equation(self):
        buf = AudioBuffer([1.0, 1.0, 1.0], 8000)
        out = preemphasize(buf, 0.97)
        np.testing.assert_allclose(out.samples, [1.0, 0.03, 0.03], atol=1e-15)

    def test_constant_signal_closed_form(self):
        value = 0.6
        buf = AudioBuffer(np.full(50, value), 8000)
        out = preemphasize(buf, 0.97).samples
        np.testing.assert_allclose(out[1:], np.full(49, 0.03 * value), atol=1e-15)
        assert out[0] == value

    def test_invalid_coefficient(self):
        with pytest.raises(ConfigError):
            FeatureConfig(preemphasis_a=1.0)


class TestHammingWindow:
    def test_endpoint_value(self):
        w = hamming_coefficients(32, 0.46)
        assert w[0] == pytest.approx(0.08, abs=1e-15)

    def test_midpoint_of_odd_window(self):
        w = hamming_coefficients(33, 0.46)
        assert w[16] == pytest.approx(1.0, abs=1e-12)

    def test_against_scalar_formula(self):
        n, a = 400, 0.46
        w = hamming_coefficients(n, a)
        oracle = [(1 - a) - a * math.cos(2 * math.pi * k / (n - 1)) for k in range(n)]
        assert np.max(np.abs(w - np.array(oracle))) < 1e-12

    def test_applies_elementwise(self):
        frame = np.arange(8.0)
        np.testing.assert_array_equal(
            hamming_window(frame, 0.46), frame * hamming_coefficients(8, 0.46)
        )

    def test_length_one_window(self):
        np.testing.assert_allclose(hamming_window([2.0], 0.46), [2.0 * 0.08])

    @pytest.mark.parametrize(
        "build, args",
        [(hamming_coefficients, (400, 0.46)), (hamming_coefficients, (1, 0.46)),
         (features._dct_basis, (13, 26))],
    )
    def test_window_and_dct_basis_built_once_and_read_only(self, build, args):
        # every span and every batch reads these; a caller that could write
        # to the shared array would change them for all later callers
        table = build(*args)
        assert build(*args) is table
        with pytest.raises(ValueError):
            table[0] = 1.0


class TestDftMagnitude:
    def test_constant_frame_is_dc_only(self):
        n, c = 64, 0.37
        mags = dft_magnitude(np.full(n, c), n)
        assert mags[0] == pytest.approx(n * c, rel=1e-12)
        assert np.max(mags[1:]) < 1e-9

    def test_unit_impulse_is_flat(self):
        frame = np.zeros(128)
        frame[0] = 1.0
        np.testing.assert_allclose(dft_magnitude(frame, 128), np.ones(128), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for n in (16, 64):
            frame = rng.uniform(-1, 1, size=n)
            fast = dft_magnitude(frame, n)
            slow = brute_force_dft_magnitude(frame, n)
            scale = np.max(slow)
            assert np.max(np.abs(fast - slow)) / scale < 1e-9

    def test_zero_padding(self):
        rng = np.random.default_rng(2)
        frame = rng.uniform(-1, 1, size=10)
        fast = dft_magnitude(frame, 32)
        slow = brute_force_dft_magnitude(frame, 32)
        assert np.max(np.abs(fast - slow)) / np.max(slow) < 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, size=256)
        mags = dft_magnitude(x, 256)
        time_energy = np.sum(x**2)
        freq_energy = np.sum(mags**2) / 256
        assert abs(time_energy - freq_energy) / time_energy < 1e-9

    def test_frame_longer_than_fft_rejected(self):
        with pytest.raises(ValueError):
            dft_magnitude(np.zeros(64), 32)


class TestMelScale:
    def test_zero_maps_to_zero(self):
        assert hz_to_mel(0.0) == 0.0

    def test_frozen_reference_points(self):
        assert hz_to_mel(700.0) == pytest.approx(MEL_700, abs=1e-9)
        assert hz_to_mel(1000.0) == pytest.approx(MEL_1000, abs=1e-9)

    def test_strictly_increasing(self):
        freqs = np.linspace(0, 8000, 2000)
        mels = hz_to_mel(freqs)
        assert np.all(np.diff(mels) > 0)

    def test_inverse_round_trip(self):
        freqs = np.linspace(0, 8000, 500)
        back = mel_to_hz(hz_to_mel(freqs))
        assert np.max(np.abs(back - freqs)) < 1e-9

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            hz_to_mel(-1.0)


class TestMelFilterbank:
    CFG = FeatureConfig()
    SR = 16000

    def test_zero_spectrum_gives_zero_energies(self):
        energies = mel_filterbank(np.zeros(257), self.CFG, self.SR)
        np.testing.assert_array_equal(energies, np.zeros(self.CFG.num_filters))

    def test_flat_spectrum_gives_weight_sums(self):
        weights = mel_filter_weights(26, 512, self.SR, 0.0, self.SR / 2)
        energies = mel_filterbank(np.ones(257), self.CFG, self.SR)
        np.testing.assert_allclose(energies, weights.sum(axis=1), rtol=1e-12)

    def test_each_bin_in_at_most_two_filters(self):
        weights = mel_filter_weights(26, 512, self.SR, 0.0, self.SR / 2)
        occupancy = np.count_nonzero(weights > 0, axis=0)
        assert np.max(occupancy) <= 2

    def test_adjacent_weights_sum_to_at_most_one(self):
        weights = mel_filter_weights(26, 512, self.SR, 0.0, self.SR / 2)
        assert np.max(weights.sum(axis=0)) <= 1 + 1e-9

    def test_weights_built_once_and_read_only(self):
        weights = mel_filter_weights(26, 512, self.SR, 0.0, self.SR / 2)
        assert mel_filter_weights(26, 512, self.SR, 0.0, self.SR / 2) is weights
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0

    @pytest.mark.parametrize("num_filters, message", [
        # 514 filters, twice the 257 bins, is the most that could all be
        # nonzero; past it nothing is built, so 10**9 allocates nothing
        (515, "exceeds 2 \\* 257"),
        (10**9, "exceeds 2 \\* 257"),
        # below that bound the built matrix shows the empty filters
        (300, "mel filters cover no FFT bin at 16000 Hz"),
    ])
    def test_filters_that_cover_no_bin_rejected(self, num_filters, message):
        with pytest.raises(ConfigError, match=message):
            FeatureConfig(num_filters=num_filters).check(self.SR)
        if num_filters < 1000:  # without the bound, 10**9 filters would take 2 TB
            with pytest.raises(ConfigError, match=message):
                mel_filter_weights(num_filters, 512, self.SR, 0.0, self.SR / 2)

    @pytest.mark.parametrize("fields, message", [
        # a 0.999999999 ms frame is 16 samples at 16 kHz: 9 bins of a 16-point FFT
        (dict(frame_ms=0.999999999), "features.num_filters 26 exceeds 2 * 9, twice the FFT bins "
         "of features.fft_size 16 and features.frame_ms 0.999999999 (16 samples) at 16000 Hz"),
        (dict(num_filters=300), "mel filters cover no FFT bin at 16000 Hz with "
         "features.fft_size 512 and features.frame_ms 25.0 (400 samples)"),
        (dict(num_filters=300, fft_size=1024), "mel filters cover no FFT bin at 16000 Hz with "
         "features.fft_size 1024 and features.frame_ms 25.0 (400 samples)"),
    ])
    def test_bin_messages_name_the_framing(self, fields, message):
        # the FFT's bins come from the framing at the rate, so the message
        # names both framing keys with their values there
        with pytest.raises(ConfigError, match=re.escape(message)):
            FeatureConfig(**fields).check(self.SR)

    def test_band_too_narrow_for_increasing_edges_rejected(self):
        # every mel edge of a 1e-300 Hz band rounds to 0 Hz, where each
        # filter would divide 0 by 0 into rows of NaN
        message = "from features.low_freq_hz 0.0 to features.high_freq_hz 1e-300 do not strictly"
        with pytest.raises(ConfigError, match=message):
            mel_filter_weights(26, 512, self.SR, 0.0, 1e-300)
        with pytest.raises(ConfigError, match=message):
            FeatureConfig(high_freq_hz=1e-300).check(self.SR)

    def test_default_filters_each_cover_a_bin(self):
        for rate in (8000, 16000, 22050, 44100, 48000):
            FeatureConfig().check(rate)

    def test_too_few_bins_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(np.ones(100), self.CFG, self.SR)

    def test_too_many_bins_rejected(self):
        # a whole 512-point spectrum is not a half spectrum; nothing cuts it down
        with pytest.raises(ConfigError, match="512 bins"):
            mel_filterbank(np.ones(512), self.CFG, self.SR)

    def test_uses_power_spectrum(self):
        rng = np.random.default_rng(4)
        mags = rng.uniform(0, 2, size=257)
        weights = mel_filter_weights(26, 512, self.SR, 0.0, self.SR / 2)
        expected = weights @ (mags**2)
        np.testing.assert_allclose(
            mel_filterbank(mags, self.CFG, self.SR), expected, rtol=1e-12
        )


class TestMfcc:
    def test_unit_energies_give_zero_cepstra(self):
        np.testing.assert_array_equal(mfcc(np.ones(26), 13), np.zeros(13))

    def test_constant_log_energies(self):
        out = mfcc(np.full(26, 10.0), 13)
        assert out[0] == pytest.approx(26.0, abs=1e-9)
        assert np.max(np.abs(out[1:])) < 1e-9

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(5)
        energies = rng.uniform(0.01, 5.0, size=26)
        out = mfcc(energies, 13)
        oracle = np.empty(13)
        for n in range(13):
            total = 0.0
            for m in range(26):
                total += math.log10(max(energies[m], 1e-10)) * math.cos(
                    math.pi * n * (m + 0.5) / 26
                )
            oracle[n] = total
        assert np.max(np.abs(out - oracle)) < 1e-9

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            mfcc(np.array([-1.0, 1.0]), 2)


class TestDeltaFeatures:
    def test_constant_sequence_gives_zero(self):
        ceps = np.tile([1.0, -2.0, 3.0], (10, 1))
        np.testing.assert_array_equal(delta_features(ceps, 2), np.zeros((10, 3)))

    def test_linear_ramp_gives_unit_slope(self):
        for window in (1, 2, 3):
            ceps = np.arange(20.0)[:, None] * np.ones((1, 4))
            deltas = delta_features(ceps, window)
            interior = deltas[window:-window]
            np.testing.assert_allclose(interior, np.ones_like(interior), rtol=1e-12)

    def test_reversal_antisymmetry_on_interior(self):
        rng = np.random.default_rng(6)
        ceps = rng.uniform(-5, 5, size=(30, 4))
        window = 2
        fwd = delta_features(ceps, window)
        rev = delta_features(ceps[::-1], window)
        np.testing.assert_allclose(
            fwd[window:-window], -rev[::-1][window:-window], rtol=1e-10, atol=1e-12
        )

    def test_stacked_pieces_clamp_at_their_own_edges(self):
        rng = np.random.default_rng(7)
        pieces = [rng.uniform(-5, 5, size=(n, 3)) for n in (1, 4, 2, 7)]
        bounds = np.cumsum([0] + [len(p) for p in pieces])
        for window in (1, 2, 3):
            stacked = delta_features(np.vstack(pieces), window, bounds)
            alone = np.vstack([delta_features(p, window) for p in pieces])
            np.testing.assert_array_equal(stacked, alone)


@given(
    lengths=st.lists(st.integers(0, 1500), min_size=1, max_size=8),
    rate=st.sampled_from([8000, 16000]),
    block=st.integers(1, 7),
    overlap=st.floats(0.0, 0.9),
    preemphasis=st.floats(0.0, 0.99),
    seed=st.integers(0, 2**32 - 1),
)
# short pieces several to a batch, then a piece longer than a block between them
@example(lengths=[300, 250, 0, 400, 1500, 120], rate=8000, block=7, overlap=0.5,
         preemphasis=0.97, seed=0)
def test_batches_equal_each_piece_alone(lengths, rate, block, overlap, preemphasis, seed):
    # pieces share one padded buffer, framing, rfft, products, log10 and
    # delta pass per batch, so no sample, filter state or delta context may
    # reach from one piece into the next; a piece longer than a block is cut
    # at the same offsets as on its own. Only the products' rounding may
    # differ from the piece alone
    rng = np.random.default_rng(seed)
    bufs = [AudioBuffer(rng.uniform(-0.5, 0.5, n), rate) for n in lengths]
    cfg = FeatureConfig(overlap_fraction=overlap, preemphasis_a=preemphasis)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audio, "BLOCK_FRAMES", block)
        alone = [extract_alone(buf, cfg) for buf in bufs]
        single = [extract(buf, cfg) for buf in bufs]
        batched = list(features.extract_all(iter(bufs), cfg))
    assert len(batched) == len(alone)
    for buf, got, one, want in zip(bufs, batched, single, alone):
        assert got.config_fingerprint == cfg.fingerprint(buf.sample_rate_hz)
        assert got.num_frames == one.num_frames == len(want)
        assert_rows_match_alone(one.rows, want)
        assert_rows_match_alone(got.rows, want)


@pytest.mark.parametrize("rates", [[8000, 8000, 16000], [16000] * 100 + [8000]],
                         ids=["within-a-batch", "past-the-first-batch"])
def test_one_sample_rate_per_call(rates):
    # matrices of one call carry one fingerprint, so a change of rate is an
    # error wherever it comes
    bufs = (AudioBuffer(np.full(800, 0.1), rate) for rate in rates)
    with pytest.raises(ConfigError, match="disagree on sample rate"):
        list(features.extract_all(bufs, FeatureConfig()))


# a take shorter than one frame, word-length takes, and takes of more than
# BLOCK_FRAMES frames at either rate
TAKE_LENGTHS = st.one_of(
    st.integers(0, 199), st.integers(200, 4000), st.integers(52_000, 60_000)
)


@settings(max_examples=30)
@given(
    lengths=st.lists(TAKE_LENGTHS, min_size=1, max_size=10),
    rate=st.sampled_from([8000, 16000]),
    seed=st.integers(0, 2**32 - 1),
)
# pieces that end exactly at a block edge at 16 kHz: 100 + 156 frames fill a
# batch, then 512 and 256 frames are two blocks and one
@example(lengths=[20_200, 31_400, 4_000], rate=16000, seed=0)
@example(lengths=[102_600, 51_400, 20_200, 31_400, 150], rate=16000, seed=1)
def test_reused_block_buffers_leave_no_stale_rows(lengths, rate, seed):
    # extract_all writes every batch into the same padded buffer, windowed
    # frames and power spectra, at the real BLOCK_FRAMES, and stacks up to
    # SCORE_BLOCKS batches' cepstra for the deltas; a row left over from an
    # earlier batch or block, or one out of place, would change a take's
    # features by far more than the products' rounding
    rng = np.random.default_rng(seed)
    bufs = [AudioBuffer(rng.uniform(-0.5, 0.5, n), rate) for n in lengths]
    cfg = FeatureConfig()
    batched = list(features.extract_all(iter(bufs), cfg))
    assert len(batched) == len(bufs)
    for buf, got in zip(bufs, batched):
        np.testing.assert_array_equal(got.rows, extract(buf, cfg).rows)


def test_concurrent_calls_share_no_buffers():
    # analyze extracts both directions at once; each call owns its buffers
    rng = np.random.default_rng(25)
    lengths = rng.integers(100, 20_000, 60).tolist() + [60_000]
    bufs = [AudioBuffer(rng.uniform(-0.5, 0.5, n), 16000) for n in lengths]
    cfg = FeatureConfig()
    alone = [m.rows for m in features.extract_all(bufs, cfg)]
    start = threading.Barrier(2)
    results = [None, None]

    def worker(k):
        start.wait(timeout=60)
        results[k] = [m.rows for m in features.extract_all(bufs[k:] + bufs[:k], cfg)]

    threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    for k, rows in enumerate(results):
        assert len(rows) == len(bufs)
        for got, want in zip(rows, alone[k:] + alone[:k]):
            np.testing.assert_array_equal(got, want)


def extract_alone(buf, cfg):
    """A piece's features from its own framing, a block of frames at a time."""
    frames = cfg.frame.segment(preemphasize(buf, cfg.preemphasis_a))
    ceps = np.empty((len(frames), cfg.num_ceps))
    for lo in range(0, len(frames), audio.BLOCK_FRAMES):
        part = slice(lo, lo + audio.BLOCK_FRAMES)
        magnitudes = np.abs(frames.spectra(part))
        ceps[part] = mfcc(mel_filterbank(magnitudes, cfg, buf.sample_rate_hz), cfg.num_ceps)
    velocity = delta_features(ceps, cfg.delta_window)
    return np.hstack([ceps, velocity, delta_features(velocity, cfg.delta_window)])


class TestExtract:
    def test_default_dimension_is_39(self):
        rng = np.random.default_rng(7)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=16000), 16000)
        matrix = extract(buf, FeatureConfig())
        assert matrix.rows.shape[1] == 39
        assert matrix.num_frames == matrix.rows.shape[0]

    def test_silence_gives_identical_frames_and_zero_deltas(self):
        buf = AudioBuffer(np.zeros(8000), 16000)
        matrix = extract(buf, FeatureConfig())
        np.testing.assert_array_equal(
            matrix.rows, np.tile(matrix.rows[0], (matrix.num_frames, 1))
        )
        assert np.all(matrix.rows[:, 13:] == 0)

    def test_all_entries_finite(self):
        rng = np.random.default_rng(8)
        buf = AudioBuffer(rng.uniform(-1, 1, size=5000), 16000)
        assert np.all(np.isfinite(extract(buf, FeatureConfig()).rows))

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        buf = AudioBuffer(rng.uniform(-1, 1, size=5000), 16000)
        cfg = FeatureConfig()
        np.testing.assert_array_equal(extract(buf, cfg).rows, extract(buf, cfg).rows)

    def test_concatenation_shares_interior_frames(self):
        rng = np.random.default_rng(10)
        cfg = FeatureConfig()
        sr = 16000
        hop = 200  # 25 ms frames at 50% overlap
        samples = rng.uniform(-0.5, 0.5, size=hop * 40)
        single = extract(AudioBuffer(samples, sr), cfg)
        double = extract(AudioBuffer(np.tile(samples, 2), sr), cfg)
        offset = len(samples) // hop
        # pre-emphasis carries one sample across the junction and delta-delta
        # context reaches 2*delta_window frames, so stay 5 frames clear
        margin = 5
        lo, hi = margin, single.num_frames - margin
        np.testing.assert_allclose(
            double.rows[offset + lo : offset + hi],
            single.rows[lo:hi],
            rtol=1e-8,
            atol=1e-8,
        )

    def test_memory_grows_by_a_few_bytes_per_input_byte(self):
        # spectra, mel energies and cepstra are built a block of frames at a
        # time, so what grows is the pre-emphasized copy (1 byte per input
        # byte) and the feature rows (about 0.2); the whole recording's
        # spectra and magnitudes would add about 4
        def traced_peak(duration_s):
            rng = np.random.default_rng(22)
            buf = AudioBuffer(0.1 * rng.standard_normal(int(duration_s * 16000)), 16000)
            tracemalloc.start()
            try:
                extract(buf, FeatureConfig())
                return tracemalloc.get_traced_memory()[1], buf.samples.nbytes
            finally:
                tracemalloc.stop()

        short_peak, short_bytes = traced_peak(60.0)
        long_peak, long_bytes = traced_peak(180.0)
        assert (long_peak - short_peak) / (long_bytes - short_bytes) < 2.0

    def test_blocks_do_not_move_features_of_a_short_take(self):
        # a word-length piece is one block, so blocking leaves its features
        # exactly as one whole-matrix pass computes them
        rng = np.random.default_rng(23)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=16000), 16000)
        cfg = FeatureConfig()
        spectra = cfg.frame.segment(preemphasize(buf, cfg.preemphasis_a)).spectra()
        ceps = mfcc(mel_filterbank(np.abs(spectra), cfg, 16000), cfg.num_ceps)
        np.testing.assert_array_equal(extract(buf, cfg).rows[:, : cfg.num_ceps], ceps)

    @pytest.mark.parametrize("block", [1, 3, 7])
    def test_blocks_move_long_input_by_rounding_only(self, block, monkeypatch):
        # smaller blocks split the matrix products, which may round apart
        rng = np.random.default_rng(24)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=8000), 16000)
        whole = extract(buf, FeatureConfig()).rows
        monkeypatch.setattr(audio, "BLOCK_FRAMES", block)
        blocked = extract(buf, FeatureConfig()).rows
        np.testing.assert_allclose(blocked, whole, rtol=0, atol=1e-12 * np.abs(whole).max())

    def test_low_sample_rate_rejected(self):
        buf = AudioBuffer(np.zeros(4000), 8000)
        with pytest.raises(ConfigError):
            extract(buf, FeatureConfig(high_freq_hz=6000.0))

    def test_fingerprint_depends_on_rate_and_config(self):
        cfg = FeatureConfig()
        assert cfg.fingerprint(16000) != cfg.fingerprint(8000)
        assert cfg.fingerprint(16000) != FeatureConfig(num_ceps=12).fingerprint(16000)

    def test_fingerprint_values_are_stable(self):
        # models on disk carry these hashes; a change here orphans them
        custom = FeatureConfig(
            preemphasis_a=0.5, frame_ms=20.0, overlap_fraction=0.25, window_a=0.5,
            fft_size=1024, num_filters=30, num_ceps=12, delta_window=3,
            low_freq_hz=100.0, high_freq_hz=3000.0,
        )
        assert FeatureConfig().fingerprint(16000) == "a97f12d4eaff640c"
        assert custom.fingerprint(8000) == "0d6b657b907bf67f"


class TestFrameSpec:
    def test_configs_share_one_spec(self):
        from revspeech import EnhanceConfig

        spec = FrameSpec(frame_ms=20.0, overlap_fraction=0.25, window_a=0.5, fft_size=1024)
        fields = dict(frame_ms=20.0, overlap_fraction=0.25, window_a=0.5, fft_size=1024)
        assert FeatureConfig(**fields).frame == spec
        assert EnhanceConfig(**fields).frame == spec

    def test_fft_size_rule(self):
        assert FrameSpec().resolve(16000) == (400, 200, 512)  # 400-sample frame
        assert FrameSpec().resolve(8000) == (200, 100, 256)
        assert FrameSpec(fft_size=1024).resolve(16000)[2] == 1024
        with pytest.raises(ConfigError, match="fft_size 256 is shorter than the frame of "
                                              r"frame_ms 25.0 \(400 samples at 16000 Hz\)"):
            FrameSpec(fft_size=256).resolve(16000)
        # at most MAX_FFT_SIZE, set or auto, at every rate
        assert MAX_FFT_SIZE == 32768
        for rate in (8000, 16000, 48000):
            assert FrameSpec(fft_size=MAX_FFT_SIZE).resolve(rate)[2] == MAX_FFT_SIZE
            with pytest.raises(ConfigError, match=f"fft_size {2 * MAX_FFT_SIZE} exceeds"):
                FrameSpec(fft_size=2 * MAX_FFT_SIZE).resolve(rate)
        assert FrameSpec(fft_size=2**40, section="enhance") == FrameSpec(fft_size=2**40)
        with pytest.raises(ConfigError, match=r"^enhance.fft_size 1099511627776 exceeds "
                                              r"MAX_FFT_SIZE \(32768\)$"):
            FrameSpec(fft_size=2**40, section="enhance").resolve(16000)
        # the largest auto size covers a 2,048 ms frame at 16 kHz
        assert FrameSpec(2048.0).resolve(16000)[2] == MAX_FFT_SIZE
        with pytest.raises(ConfigError, match=r"^features.frame_ms 2048.1 \(32770 samples at "
                                              r"16000 Hz\) needs a 65536-point FFT, which "
                                              r"exceeds MAX_FFT_SIZE \(32768\)$"):
            FrameSpec(2048.1, section="features").resolve(16000)

    @given(frame_ms=st.floats(0.01, 100.0), sample_rate_hz=st.integers(1, 192000))
    @example(frame_ms=0.01, sample_rate_hz=16000)
    def test_fft_size_covers_the_framing_frame(self, frame_ms, sample_rate_hz):
        # one frame-length rule: the FFT covers the frames segment cuts, and a
        # frame under one sample fails here as it fails in framing
        spec = FrameSpec(frame_ms)
        buf = AudioBuffer(np.zeros(10), sample_rate_hz)
        if int(frame_ms * sample_rate_hz / 1000 + 0.5) < 1:
            for resolve in (spec.resolve, lambda rate: spec.segment(buf)):
                with pytest.raises(ConfigError, match="frame_ms .* shorter than one sample"):
                    resolve(sample_rate_hz)
            return
        frame_len, _, fft_size = spec.resolve(sample_rate_hz)
        frames = spec.segment(buf)
        assert (frames.frame_len, frames.fft_size) == (frame_len, fft_size)
        assert fft_size >= frame_len > fft_size // 2

    @pytest.mark.parametrize(
        "fields", [dict(frame_ms=0.0), dict(overlap_fraction=1.0), dict(fft_size=500)]
    )
    def test_validation_applies_to_both_configs(self, fields):
        from revspeech import EnhanceConfig

        for make in (FrameSpec, FeatureConfig, EnhanceConfig):
            with pytest.raises(ConfigError):
                make(**fields)

    def test_stft_rows_are_windowed_frame_dfts(self):
        rng = np.random.default_rng(13)
        buf = AudioBuffer(rng.standard_normal(3000), 16000)
        frames = FrameSpec().segment(buf)
        spectra = frames.spectra()
        assert spectra.shape == (len(frames), 257)
        every = padded_frames(buf.samples, 400, 200)
        for i in (0, 7, len(frames) - 1):
            windowed = hamming_window(every[i], 0.46)
            np.testing.assert_allclose(
                np.abs(spectra[i]), dft_magnitude(windowed, 512)[:257], rtol=1e-12, atol=1e-12
            )

    @pytest.mark.parametrize("num_frames, rows", [
        (15, slice(None)),
        (15, slice(3, 9)),
        (15, [0, 1, 2, 5, 6, 13, 14]),
        (15, [14, 13, 2, 2]),
        (15, [4]),
        (60, slice(None)),
        (60, list(range(2, 22)) + list(range(35, 60))),
        (60, list(range(0, 15)) + list(range(44, 60))),
        (60, list(range(59, 40, -1)) + list(range(5, 25))),
    ], ids=["all", "slice", "runs-to-the-padded-tail", "unordered", "one", "long-all",
            "long-runs-to-the-padded-tail", "runs-of-15-and-16", "long-reversed-run"])
    def test_a_window_buffer_gives_the_gathered_spectra(self, num_frames, rows):
        # windowed run by run into the caller's (rows, fft_size) buffer and
        # transformed as it stands, bit for bit the gathered rows windowed
        # and zero-padded by rfft, for short and long runs alike; stale
        # windowed frames do not leak into the next call, and the columns
        # past the frame are still zero after each call
        rng = np.random.default_rng(26)
        samples = rng.standard_normal((num_frames - 1) * 200 + 250)
        frames = FrameSpec().segment(AudioBuffer(samples, 16000))
        assert len(frames) == num_frames  # the last frame runs past the end
        gathered = padded_frames(samples, 400, 200)[rows]
        expected = np.fft.rfft(hamming_window(gathered, 0.46), n=512, axis=-1)
        buffer = np.zeros((len(expected), 512))
        buffer[:, :400] = np.nan
        for _ in range(2):
            np.testing.assert_array_equal(frames.spectra(rows, buffer), expected)
            assert not buffer[:, 400:].any()
        np.testing.assert_array_equal(frames.spectra(rows), expected)


def per_frame_overlap_add(spectra, frames, window_a, out_len):
    """Reference synthesis: one frame at a time, window-power normalized."""
    frame_len, hop = frames.frame_len, frames.hop
    fft_size = 2 * (spectra.shape[1] - 1)
    window = hamming_coefficients(frame_len, window_a)
    total = (len(spectra) - 1) * hop + frame_len
    acc, power = np.zeros(total), np.zeros(total)
    for i, spectrum in enumerate(spectra):
        start = i * hop
        acc[start : start + frame_len] += np.fft.irfft(spectrum, n=fft_size)[:frame_len] * window
        power[start : start + frame_len] += window * window
    safe = np.where(power >= 1e-8, power, 1.0)
    return np.where(power >= 1e-8, acc / safe, acc)[:out_len]


@given(
    num_samples=st.integers(1, 4000),
    frame_ms=st.floats(0.5, 40.0),
    overlap=st.floats(0.0, 0.95),
    window_a=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**32 - 1),
    block=st.integers(1, 7),
    span=st.tuples(st.integers(0, 4000), st.integers(0, 4000)),
)
# under one frame, then 4 frames per sample
@example(num_samples=150, frame_ms=25.0, overlap=0.75, window_a=0.46, seed=0, block=1,
         span=(20, 7))
@example(num_samples=4000, frame_ms=25.0, overlap=0.75, window_a=0.46, seed=1, block=3,
         span=(1234, 777))
# 5 frames per sample, the window power summed one output row at a time
@example(num_samples=1000, frame_ms=25.0, overlap=0.8, window_a=0.46, seed=2, block=1,
         span=(0, 999))
def test_istft_matches_a_per_frame_overlap_add(
    num_samples, frame_ms, overlap, window_a, seed, block, span
):
    # the sum at each sample adds its frames in frame order, as the loop does,
    # so the two agree bit for bit at every overlap, not only at one or two
    # frames per sample, however the frames and the output rows (block rows
    # at a time for the window power) are split into blocks, and on any
    # range synthesized from only the frames that cover it; a random gain
    # stands in for enhancement's shaping
    rng = np.random.default_rng(seed)
    spec = FrameSpec(frame_ms, overlap, window_a)
    buf = AudioBuffer(rng.uniform(-1.0, 1.0, num_samples), 8000)
    frames = spec.segment(buf)
    spectra = frames.spectra()
    shaped = spectra * rng.uniform(0.0, 1.0, spectra.shape)
    expected = per_frame_overlap_add(shaped, frames, window_a, num_samples)
    def istft(blocks, lo, hi):
        acc = OverlapAdd(frames, lo, hi)
        first = frames.covering(lo, hi).start
        for spectra in blocks:
            acc.add(first, frames.synthesize(spectra))
            first += len(spectra)
        return acc.samples()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audio, "BLOCK_FRAMES", block)
        whole = istft([shaped], 0, num_samples)
        blocks = [shaped[lo : lo + block] for lo in range(0, len(shaped), block)]
        blocked = istft(blocks, 0, num_samples)
    np.testing.assert_array_equal(whole, expected)
    np.testing.assert_array_equal(blocked, expected)

    lo = span[0] % num_samples
    hi = lo + 1 + span[1] % (num_samples - lo)
    rows = frames.covering(lo, hi)
    frame_range = np.arange(len(frames))[rows]
    starts = frame_range * frames.hop
    # exactly the frames that hold a sample of the range
    assert np.all((starts < hi) & (starts + frames.frame_len > lo))
    outside = np.setdiff1d(np.arange(len(frames)), frame_range) * frames.hop
    assert not np.any((outside < hi) & (outside + frames.frame_len > lo))
    covered = shaped[rows]
    blocks = [covered[k : k + block] for k in range(0, len(covered), block)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audio, "BLOCK_FRAMES", block)
        ranged = istft(blocks, lo, hi)
    np.testing.assert_array_equal(ranged, expected[lo:hi])


@given(
    num_samples=st.integers(1, 3000),
    frame_ms=st.floats(0.5, 30.0),
    overlap=st.sampled_from([0.0, 0.3, 0.5, 0.6, 0.75]),
    where=st.sampled_from(["start", "interior", "end", "under-a-hop"]),
    span=st.tuples(st.integers(0, 3000), st.integers(0, 3000)),
    seed=st.integers(0, 2**32 - 1),
)
# frame_len 200, hop 140 at 0.3, 80 at 0.6, 50 at 0.75: no hop divides the frame
@example(num_samples=2950, frame_ms=25.0, overlap=0.3, where="end", span=(1000, 0), seed=0)
@example(num_samples=2950, frame_ms=25.0, overlap=0.6, where="start", span=(0, 1999), seed=1)
@example(num_samples=2950, frame_ms=25.0, overlap=0.75, where="interior", span=(700, 1400),
         seed=2)
@example(num_samples=2950, frame_ms=25.0, overlap=0.75, where="under-a-hop", span=(2910, 3),
         seed=3)
def test_normalizing_with_the_shared_window_power_matches_each_row_alone(
    num_samples, frame_ms, overlap, where, span, seed
):
    # the rows every piece of a frame reaches divide by one cached power; the
    # rows the first frames reach and those past the last frame sum their own
    rng = np.random.default_rng(seed)
    spec = FrameSpec(frame_ms, overlap)
    frames = spec.segment(AudioBuffer(np.zeros(num_samples), 8000))
    hop = frames.hop
    lo, hi = span[0] % num_samples, span[1]
    if where == "start":
        lo, hi = 0, 1 + hi % num_samples
    elif where == "end":
        hi = num_samples
    elif where == "under-a-hop":
        hi = min(lo + 1 + hi % hop, num_samples)
    else:
        hi = lo + 1 + hi % (num_samples - lo)
    acc = OverlapAdd(frames, lo, hi)
    acc.rows[:] = rng.uniform(-1.0, 1.0, acc.rows.shape)
    window = hamming_coefficients(frames.frame_len, spec.window_a)
    expected = overlap_add_normalized(acc.rows, acc.row_lo, window, hop, len(frames))
    offset = acc.row_lo * hop
    got = acc.samples()
    assert got.tobytes() == expected.reshape(-1)[lo - offset : hi - offset].tobytes()


class TestPerFrameFunctionsOnMatrices:
    """Each per-frame function maps a matrix row by row, as extract uses it."""

    def test_rows_match_single_frames(self):
        rng = np.random.default_rng(14)
        frames = rng.standard_normal((5, 400))
        cfg = FeatureConfig()
        windowed = hamming_window(frames, 0.46)
        mags = dft_magnitude(windowed, 512)[:, :257]
        energies = mel_filterbank(mags, cfg, 16000)
        ceps = mfcc(energies, 13)
        assert ceps.shape == (5, 13)
        for i in range(5):
            np.testing.assert_array_equal(windowed[i], hamming_window(frames[i], 0.46))
            np.testing.assert_array_equal(mags[i], dft_magnitude(windowed[i], 512)[:257])
            np.testing.assert_allclose(
                energies[i], mel_filterbank(mags[i], cfg, 16000), rtol=1e-12
            )
            np.testing.assert_allclose(ceps[i], mfcc(energies[i], 13), rtol=1e-12)


class TestExtractComposition:
    def test_extract_runs_through_the_public_per_frame_functions(self, monkeypatch):
        rng = np.random.default_rng(15)
        buf = AudioBuffer(rng.uniform(-0.5, 0.5, size=6000), 16000)
        cfg = FeatureConfig()
        expected = extract(buf, cfg).rows
        calls = []

        def spy(name):
            original = getattr(features, name)

            def wrapper(*args, **kwargs):
                out = original(*args, **kwargs)
                calls.append((name, out.shape))
                return out

            monkeypatch.setattr(features, name, wrapper)

        spectra = audio.FrameSequence.spectra

        def spectra_spy(self, *args):
            out = spectra(self, *args)
            calls.append(("spectra", out.shape))
            return out

        monkeypatch.setattr(audio.FrameSequence, "spectra", spectra_spy)
        for name in ("mfcc", "delta_features"):
            spy(name)
        rows = extract(buf, cfg).rows
        np.testing.assert_array_equal(rows, expected)
        num_frames = rows.shape[0]
        # the window and spectrum are FrameSequence.spectra's, which writes the
        # windowed frames into a buffer, so hamming_window is not called; the
        # power spectrum is squared in place and takes mel_filterbank's
        # product, then mfcc's, both on all BLOCK_FRAMES rows of the zeroed
        # power buffer; the deltas and delta-deltas follow
        assert calls == [
            ("spectra", (num_frames, 257)),
            ("mfcc", (audio.BLOCK_FRAMES, 13)),
            ("delta_features", (num_frames, 13)),
            ("delta_features", (num_frames, 13)),
        ]


class TestReversalOracle:
    """Time reversal mirrors the features, up to pre-emphasis.

    On a length on the frame grid the reversed buffer's frames are the
    forward frames reversed, in reverse order. The window is symmetric and
    |DFT| ignores reversal, so without pre-emphasis the cepstra come back
    mirrored in time, the deltas negated and the delta-deltas unchanged.
    Pre-emphasis is a causal filter, so at the default 0.97 they do not.
    """

    SR = 16000
    NUM_CEPS = 13

    def mirrored(self, preemphasis_a):
        cfg = FeatureConfig(preemphasis_a=preemphasis_a)
        rng = np.random.default_rng(16)
        frame_len, hop = 400, 200
        samples = 0.1 * rng.standard_normal(frame_len + 78 * hop)  # 1 s, on the grid
        buf = AudioBuffer(samples, self.SR)
        fwd = extract(buf, cfg).rows
        rev = extract(reverse(buf), cfg).rows[::-1]
        assert fwd.shape == rev.shape == (79, 39)
        # columns: cepstra, deltas, delta-deltas
        blocks = [slice(k * self.NUM_CEPS, (k + 1) * self.NUM_CEPS) for k in range(3)]
        return [m[:, b] for b in blocks for m in (fwd, rev)]

    def test_mirror_without_preemphasis(self):
        ceps, rceps, vel, rvel, acc, racc = self.mirrored(0.0)
        np.testing.assert_allclose(rceps, ceps, rtol=0, atol=1e-13)
        np.testing.assert_allclose(rvel, -vel, rtol=0, atol=1e-13)
        np.testing.assert_allclose(racc, acc, rtol=0, atol=1e-13)

    def test_default_preemphasis_breaks_the_mirror(self):
        ceps, rceps, *_ = self.mirrored(0.97)
        median = float(np.median(np.abs(rceps - ceps)))
        assert 0.03 < median < 0.3
