"""Endpointing, classification, and transcription behavior."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from conftest import SR, tone, train_vocabulary, utterance, word_features
from oracles import assert_results_match_alone, padded_frames
from revspeech import (
    AudioBuffer,
    EndpointConfig,
    EnhanceConfig,
    FeatureConfig,
    FeatureMatrix,
    GmmModel,
    Vocabulary,
    classify_segment,
    estimate_and_denoise,
    estimate_noise,
    extract,
    reverse,
    segment_utterances,
    transcribe,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from revspeech import audio, features
from revspeech.audio import SCORE_BLOCKS
from revspeech.gmm import log_joint_densities, logsumexp
from revspeech.recognizer import DIRECTIONS, _scored
from revspeech.errors import FingerprintMismatchError, InsufficientDataError, VocabularyError

FRAME_S = 0.025


def rising_take(n=995, seed=19):
    """Noise under a steep fade-in, shorter than the default smoothing window."""
    rng = np.random.default_rng(seed)
    return AudioBuffer(0.5 * rng.standard_normal(n) * np.linspace(0, 1, n) ** 4, SR)


def scanned_regions(buf, cfg):
    """segment_utterances by a per-frame scan, for buffers of >= smooth_frames frames."""
    frames = cfg.frame.segment(buf)
    energies = np.mean(padded_frames(buf.samples, frames.frame_len, frames.hop) ** 2, axis=1)
    ones = np.ones(cfg.smooth_frames)
    smoothed = np.convolve(energies, ones, mode="same") / np.convolve(
        np.ones_like(energies), ones, mode="same"
    )
    threshold = cfg.energy_ratio * np.percentile(smoothed, 10)
    regions, start = [], None
    for i, active in enumerate(list(smoothed > threshold) + [False]):
        if active and start is None:
            start = i
        elif not active and start is not None:
            loud = [j for j in range(start, i) if energies[j] > threshold]
            if loud:
                end = min(loud[-1] * frames.hop + frames.frame_len, len(buf.samples))
                regions.append((loud[0] * frames.hop / SR, end / SR))
            start = None
    merged = []
    for region in regions:
        if merged and region[0] - merged[-1][1] < cfg.merge_gap_ms / 1000.0:
            merged[-1] = (merged[-1][0], region[1])
        else:
            merged.append(region)
    kept = [r for r in merged if r[1] - r[0] >= cfg.min_utterance_ms / 1000.0]
    return kept or [(0.0, buf.duration_s)]


def make_model(label, mean_value, fingerprint="fp"):
    dim = 3
    return GmmModel(
        label=label,
        dim=dim,
        weights=np.array([1.0]),
        means=np.full((1, dim), float(mean_value)),
        variances=np.ones((1, dim)),
        feature_fingerprint=fingerprint,
    )


class TestVocabulary:
    def test_requires_two_labels(self):
        with pytest.raises(VocabularyError):
            Vocabulary.from_models([make_model("only", 0.0)])

    def test_rejects_mixed_fingerprints(self):
        with pytest.raises(FingerprintMismatchError):
            Vocabulary.from_models(
                [make_model("a", 0.0, "fp1"), make_model("b", 1.0, "fp2")]
            )

    def test_rejects_duplicate_labels(self):
        with pytest.raises(VocabularyError):
            Vocabulary.from_models([make_model("a", 0.0), make_model("a", 1.0)])


class TestClassifySegment:
    def test_identical_models_tie_break_lexicographic(self):
        vocab = Vocabulary.from_models([make_model("zeta", 0.0), make_model("alpha", 0.0)])
        rows = np.zeros((4, 3))
        label, _, margin = classify_segment(FeatureMatrix(rows, 4, "fp"), vocab)
        assert label == "alpha"
        assert margin == 0.0

    def test_single_frame_at_model_mean(self):
        vocab = Vocabulary.from_models([make_model("near", 0.0), make_model("far", 8.0)])
        rows = np.zeros((1, 3))
        label, score, margin = classify_segment(FeatureMatrix(rows, 1, "fp"), vocab)
        assert label == "near"
        assert margin > 0
        assert np.isfinite(score)

    def test_two_class_holdout_accuracy(self):
        rng = np.random.default_rng(31)
        enhance_cfg = EnhanceConfig()
        feature_cfg = FeatureConfig()
        vocab = train_vocabulary(["update", "login"], seed=5, utterances=8)
        correct = 0
        total = 0
        for word in ("update", "login"):
            for _ in range(10):
                feats = word_features(utterance(word, rng), enhance_cfg, feature_cfg)
                label, _, _ = classify_segment(feats, vocab)
                correct += label == word
                total += 1
        assert correct / total >= 0.9

    def test_weight_rescaling_keeps_argmax(self):
        vocab = train_vocabulary(["update", "login"], seed=6, utterances=6)
        rng = np.random.default_rng(32)
        feats = word_features(utterance("login", rng), EnhanceConfig(), FeatureConfig())
        before, _, _ = classify_segment(feats, vocab)
        rescaled = []
        for model in vocab.entries.values():
            weights = 7.0 * model.weights
            rescaled.append(
                GmmModel(
                    model.label,
                    model.dim,
                    weights / weights.sum(),
                    model.means,
                    model.variances,
                    model.feature_fingerprint,
                )
            )
        after, _, _ = classify_segment(feats, Vocabulary.from_models(rescaled))
        assert before == after

    def test_fingerprint_mismatch_rejected(self):
        vocab = Vocabulary.from_models([make_model("a", 0.0), make_model("b", 1.0)])
        with pytest.raises(FingerprintMismatchError):
            classify_segment(FeatureMatrix(np.zeros((2, 3)), 2, "other"), vocab)

    def test_dimension_mismatch_rejected(self):
        # features under the vocabulary's own fingerprint but of another width
        vocab = Vocabulary.from_models([make_model("a", 0.0), make_model("b", 1.0)])
        feats = FeatureMatrix(np.zeros((4, 2)), 4, "fp")
        with pytest.raises(FingerprintMismatchError, match="dimension 2, .* have 3"):
            classify_segment(feats, vocab)

    def test_empty_features_rejected(self):
        vocab = Vocabulary.from_models([make_model("a", 0.0), make_model("b", 1.0)])
        with pytest.raises(ValueError):
            classify_segment(FeatureMatrix(np.zeros((0, 3)), 0, "fp"), vocab)

    @given(
        lengths=st.lists(st.integers(1, 12) | st.integers(13, 130), min_size=1, max_size=12),
        block=st.integers(1, 7),
        mixed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batches_score_each_segment_alone(
        self, fixture_vocabulary, lengths, block, mixed, seed
    ):
        # scoring stacks matrices up to SCORE_BLOCKS * BLOCK_FRAMES rows (16
        # to 112 here) and scores them with one set of constants per model,
        # one logsumexp and one pair of products per model; each result must
        # still be the average log-likelihood ranking of the segment alone
        rng = np.random.default_rng(seed)
        fingerprint = fixture_vocabulary.feature_fingerprint
        vocab = mixed_vocabulary(fingerprint) if mixed else fixture_vocabulary
        feats = [FeatureMatrix(rng.normal(0.0, 3.0, (n, 39)), n, fingerprint) for n in lengths]
        got = batch_scored(feats, vocab, block)
        assert got == scored_stacked(feats, vocab, SCORE_BLOCKS * block)
        assert_results_match_alone(got, scored_alone(feats, vocab))

    @pytest.mark.parametrize("block", [1, 5, None])
    @pytest.mark.parametrize("case", [
        "exactly the limit", "one under the limit", "one over the limit",
        "well over the limit", "one segment longer than the limit", "runs of 1-frame segments",
    ])
    def test_exact_across_the_row_limit(self, fixture_vocabulary, block, case):
        # None is the real BLOCK_FRAMES; every model count 1, 2, 4 and 16
        # scores each segment as its stacked batch gives it, bit for bit,
        # and as it scores it alone, up to the products' rounding, wherever
        # the limit cuts
        limit = SCORE_BLOCKS * (block or audio.BLOCK_FRAMES)
        third = limit // 3
        lengths = {
            "exactly the limit": [third, limit - third],
            "one under the limit": [third, limit - third - 1, 2],
            "one over the limit": [third, limit - third + 1, 2],
            "well over the limit": [third + 1] * 7,
            "one segment longer than the limit": [3, limit + 5, 1, limit, 2],
            "runs of 1-frame segments": [1] * (limit + 1) + [7] + [1] * 9,
        }[case]
        rng = np.random.default_rng(len(lengths))
        fingerprint = fixture_vocabulary.feature_fingerprint
        feats = [FeatureMatrix(rng.normal(0.0, 3.0, (n, 39)), n, fingerprint) for n in lengths]
        for vocab in (fixture_vocabulary, mixed_vocabulary(fingerprint)):
            got = batch_scored(feats, vocab, block)
            assert got == scored_stacked(feats, vocab, limit)
            assert_results_match_alone(got, scored_alone(feats, vocab))


def mixed_vocabulary(fingerprint):
    """Four random 39-dimensional models, of 1, 2, 4 and 16 components."""
    rng = np.random.default_rng(5)
    return Vocabulary.from_models([
        GmmModel(label, 39, rng.dirichlet(np.full(k, 5.0)), rng.normal(0.0, 3.0, (k, 39)),
                 rng.uniform(0.5, 4.0, (k, 39)), fingerprint)
        for label, k in (("one", 1), ("two", 2), ("four", 4), ("sixteen", 16))
    ])


def batch_scored(feats, vocab, block=None):
    """_scored of the matrices, each one piece, stacked up to the row limit as
    features.stack_batches stacks them, with BLOCK_FRAMES patched to block if given."""
    with pytest.MonkeyPatch.context() as patch:
        if block is not None:
            patch.setattr(audio, "BLOCK_FRAMES", block)
        pieces = ((matrix.rows, [0, matrix.num_frames]) for matrix in feats)
        return list(_scored(features.stack_batches(pieces), vocab))


def scored_stacked(feats, vocab, limit):
    """(label, score, margin) of each matrix, from the rows of its scoring batch.

    Consecutive matrices of at most limit rows in all (or one longer one)
    are stacked, zero-padded to a whole number of limit rows and scored
    with one product pair per model, as the scorer does; each segment then
    sums its frames with np.sum, in its pairwise order. So the scorer's
    results equal these bit for bit.
    """
    groups = []
    for matrix in feats:
        if groups and sum(m.num_frames for m in groups[-1]) + matrix.num_frames <= limit:
            groups[-1].append(matrix)
        else:
            groups.append([matrix])
    expected = []
    for group in groups:
        stacked = np.vstack([matrix.rows for matrix in group])
        padded = np.zeros((-(-len(stacked) // limit) * limit, stacked.shape[1]))
        padded[: len(stacked)] = stacked
        frame_ll = {
            label: logsumexp(log_joint_densities(model, padded, padded * padded)[: len(stacked)])
            for label, model in vocab.entries.items()
        }
        lo = 0
        for matrix in group:
            hi = lo + matrix.num_frames
            scores = {label: float(np.sum(ll[lo:hi])) / matrix.num_frames
                      for label, ll in frame_ll.items()}
            ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
            expected.append((ranked[0][0], ranked[0][1], ranked[0][1] - ranked[1][1]))
            lo = hi
    return expected


def scored_alone(feats, vocab):
    """(label, score, margin) of each matrix from its own rows, one model at a time."""
    expected = []
    for matrix in feats:
        scores = {
            label: float(np.sum(logsumexp(
                log_joint_densities(model, matrix.rows, matrix.rows * matrix.rows)
            )))
            / matrix.num_frames
            for label, model in vocab.entries.items()
        }
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        expected.append((ranked[0][0], ranked[0][1], ranked[0][1] - ranked[1][1]))
    return expected


class TestSegmentUtterances:
    def test_tone_region_within_one_frame(self):
        rng = np.random.default_rng(33)
        samples = 1e-4 * rng.standard_normal(SR * 2)
        samples[int(0.7 * SR) : int(1.2 * SR)] += tone(800, 0.5)
        regions = segment_utterances(AudioBuffer(samples, SR))
        assert len(regions) == 1
        start, end = regions[0]
        assert abs(start - 0.7) <= FRAME_S
        assert abs(end - 1.2) <= FRAME_S

    def test_digital_silence_is_rejected(self):
        with pytest.raises(InsufficientDataError, match="same energy"):
            segment_utterances(AudioBuffer(np.zeros(SR), SR))

    @pytest.mark.parametrize(
        "samples",
        [np.full(SR, 0.25), np.array([0.3]), 0.1 * np.random.default_rng(38).standard_normal(399)],
        ids=["dc_second", "one_sample", "under_one_frame"],
    )
    def test_equal_frame_energies_are_rejected(self, samples):
        # no frame is louder than another, so no region can stand out
        with pytest.raises(InsufficientDataError):
            segment_utterances(AudioBuffer(samples, SR))

    def test_two_tones_give_two_regions(self):
        rng = np.random.default_rng(34)
        samples = 1e-4 * rng.standard_normal(SR * 3)
        samples[int(0.3 * SR) : int(0.8 * SR)] += tone(600, 0.5)
        samples[int(1.8 * SR) : int(2.3 * SR)] += tone(1200, 0.5)
        regions = segment_utterances(AudioBuffer(samples, SR))
        assert len(regions) == 2
        assert abs(regions[0][0] - 0.3) <= FRAME_S
        assert abs(regions[1][0] - 1.8) <= FRAME_S

    def test_close_regions_merge(self):
        rng = np.random.default_rng(35)
        samples = 1e-4 * rng.standard_normal(SR * 2)
        samples[int(0.3 * SR) : int(0.7 * SR)] += tone(600, 0.4)
        # 100 ms gap, below the 200 ms merge threshold
        samples[int(0.8 * SR) : int(1.2 * SR)] += tone(900, 0.4)
        regions = segment_utterances(AudioBuffer(samples, SR))
        assert len(regions) == 1

    def test_merge_gap_configurable(self):
        rng = np.random.default_rng(37)
        samples = 1e-4 * rng.standard_normal(SR * 2)
        samples[int(0.3 * SR) : int(0.7 * SR)] += tone(600, 0.4, amplitude=0.4)
        samples[int(0.8 * SR) : int(1.2 * SR)] += tone(900, 0.4, amplitude=0.4)
        # the 100 ms gap merges at the default 200 ms rule but not at 50 ms
        narrow = EndpointConfig(merge_gap_ms=50.0)
        assert len(segment_utterances(AudioBuffer(samples, SR), narrow)) == 2
        assert len(segment_utterances(AudioBuffer(samples, SR))) == 1

    def test_short_blips_dropped(self):
        rng = np.random.default_rng(36)
        samples = 1e-4 * rng.standard_normal(SR * 2)
        samples[int(0.4 * SR) : int(0.5 * SR)] += tone(600, 0.1, amplitude=0.4)  # 100 ms
        samples[int(1.0 * SR) : int(1.5 * SR)] += tone(900, 0.5, amplitude=0.4)
        regions = segment_utterances(AudioBuffer(samples, SR))
        assert len(regions) == 1
        assert abs(regions[0][0] - 1.0) <= FRAME_S

    def test_resolves_its_framing_only_where_it_frames(self, transform_counts):
        # the config is checked on the frames FrameSpec.segment cut, at
        # their hop, so the framing is resolved once, there
        buf = rising_take()
        segment_utterances(buf)
        assert dict(transform_counts) == {len(buf.samples): {
            "framings": 1, "resolved": 1, "analyzed": 0, "synthesized": 0,
        }}

    def test_fewer_frames_than_the_smoothing_window(self):
        # 995 samples are 4 frames at the defaults, against 5 smoothing frames
        buf = rising_take()
        regions = segment_utterances(buf)
        assert regions and all(0.0 <= lo < hi <= buf.duration_s for lo, hi in regions)
        for n in range(1, 1400, 13):
            if n < 400:  # one zero-padded frame: nothing to compare it with
                with pytest.raises(InsufficientDataError):
                    segment_utterances(rising_take(n, seed=n))
                continue
            regions = segment_utterances(rising_take(n, seed=n))
            assert all(0.0 <= lo <= hi <= n / SR for lo, hi in regions)

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(4000, 24000),  # at least 10 frames, more than smooth_frames
        st.sampled_from([0.0, 0.25, 0.5, 0.75]),
        st.integers(1, 9),
        st.floats(0.5, 6.0),
        st.floats(0.0, 400.0),
        st.floats(0.0, 400.0),
    )
    def test_matches_a_per_frame_scan(
        self, seed, n, overlap, smooth, ratio, merge_gap_ms, min_utterance_ms
    ):
        rng = np.random.default_rng(seed)
        samples = 1e-3 * rng.standard_normal(n)
        for _ in range(rng.integers(1, 6)):
            lo = int(rng.integers(0, n))
            hi = min(n, lo + int(rng.integers(50, 6000)))
            samples[lo:hi] += 10 ** rng.uniform(-2.5, -0.5) * rng.standard_normal(hi - lo)
        cfg = EndpointConfig(
            overlap_fraction=overlap,
            smooth_frames=smooth,
            energy_ratio=ratio,
            merge_gap_ms=merge_gap_ms,
            min_utterance_ms=min_utterance_ms,
        )
        buf = AudioBuffer(samples, SR)
        regions = segment_utterances(buf, cfg)
        assert regions == scanned_regions(buf, cfg)
        # the forward segments pairing accepts: in time order, none overlapping
        assert all(start < end for start, end in regions)
        assert all(prev[1] <= nxt[0] for prev, nxt in zip(regions, regions[1:]))


class TestTranscribe:
    def test_forward_labels_match_construction(self, fixture_vocabulary, fixture_session):
        buf, spans = fixture_session
        transcript = transcribe(buf, fixture_vocabulary, "forward")
        assert [seg.label for seg in transcript.segments] == [w for w, _, _ in spans]
        for seg, (_, start, end) in zip(transcript.segments, spans):
            assert abs(seg.start_s - start) <= 2 * FRAME_S
            assert abs(seg.end_s - end) <= 2 * FRAME_S

    def test_reverse_direction_equals_forward_of_reversed(
        self, fixture_vocabulary, fixture_session
    ):
        buf, _ = fixture_session
        via_direction = transcribe(buf, fixture_vocabulary, "reverse")
        via_buffer = transcribe(reverse(buf), fixture_vocabulary, "forward")
        assert via_direction.direction == "reverse"
        assert len(via_direction.segments) == len(via_buffer.segments)
        for a, b in zip(via_direction.segments, via_buffer.segments):
            assert a.label == b.label
            assert a.start_s == b.start_s
            assert a.end_s == b.end_s
            assert a.score == b.score

    def test_reverse_boundaries_mirror_to_forward_time(
        self, fixture_vocabulary, fixture_session
    ):
        buf, spans = fixture_session
        duration = buf.duration_s
        rev = transcribe(buf, fixture_vocabulary, "reverse")
        mirrored = sorted(
            (duration - seg.end_s, duration - seg.start_s) for seg in rev.segments
        )
        for (lo, hi), (_, start, end) in zip(mirrored, spans):
            assert abs(lo - start) <= 2 * FRAME_S
            assert abs(hi - end) <= 2 * FRAME_S

    def test_silence_is_rejected(self, fixture_vocabulary):
        buf = AudioBuffer(np.zeros(SR), SR)
        with pytest.raises(InsufficientDataError):
            transcribe(buf, fixture_vocabulary, "forward")

    def test_deterministic(self, fixture_vocabulary, fixture_session):
        buf, _ = fixture_session
        first = transcribe(buf, fixture_vocabulary, "forward")
        second = transcribe(buf, fixture_vocabulary, "forward")
        assert [
            (s.start_s, s.end_s, s.label, s.score, s.margin) for s in first.segments
        ] == [(s.start_s, s.end_s, s.label, s.score, s.margin) for s in second.segments]

    def test_empty_recording_rejected(self, fixture_vocabulary):
        with pytest.raises(InsufficientDataError):
            transcribe(AudioBuffer(np.zeros(0), SR), fixture_vocabulary, "forward")

    def test_threads_transcribing_at_once_equal_calls_in_turn(
        self, fixture_vocabulary, fixture_session
    ):
        buf, _ = fixture_session
        expected = {d: transcribe(buf, fixture_vocabulary, d) for d in DIRECTIONS}
        # the threads race to build the shared, cached tables
        for cached in (audio.hamming_coefficients, features.mel_filter_weights,
                       features._dct_basis):
            cached.cache_clear()
        jobs = [d for d in DIRECTIONS for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                results = list(pool.map(
                    lambda d: transcribe(buf, fixture_vocabulary, d), jobs, timeout=60
                ))
        finally:
            sys.setswitchinterval(interval)
        assert results == [expected[d] for d in jobs]

    def test_one_stft_per_direction(
        self, fixture_vocabulary, fixture_session, transform_counts, monkeypatch
    ):
        self.check_transform_counts(fixture_vocabulary, fixture_session, transform_counts,
                                    monkeypatch, "spectral_subtraction", 25.0)

    def test_endpoints_framed_apart_take_their_own_energies(
        self, fixture_vocabulary, fixture_session, transform_counts, monkeypatch
    ):
        self.check_transform_counts(fixture_vocabulary, fixture_session, transform_counts,
                                    monkeypatch, "spectral_subtraction", 20.0)

    def test_wiener_walks_to_the_last_region_once(
        self, fixture_vocabulary, fixture_session, transform_counts, monkeypatch
    ):
        self.check_transform_counts(fixture_vocabulary, fixture_session, transform_counts,
                                    monkeypatch, "wiener", 25.0)

    @staticmethod
    def check_transform_counts(
        fixture_vocabulary, fixture_session, transform_counts, monkeypatch, method, endpoint_ms
    ):
        # endpointing and enhancement frame the recording once each per
        # direction, and share one pass of frame energies when they frame
        # alike, taking one each otherwise; enhancement analyzes the noise
        # frames once for the profile; each frame that covers a region is
        # analyzed and resynthesized once per region it covers, except that
        # the Wiener recursion analyzes every frame up to the last region
        # frame once
        from revspeech import enhance, recognizer

        energy_passes = []

        def counting_energies(frames):
            energy_passes.append(len(frames))
            return audio.frame_energies(frames)

        for module in (enhance, recognizer):
            monkeypatch.setattr(module, "frame_energies", counting_energies)
        buf, _ = fixture_session
        cfg = EnhanceConfig(method=method)
        endpoint_cfg = EndpointConfig(frame_ms=endpoint_ms)
        passes = 1 if endpoint_ms == cfg.frame_ms else 2
        for direction in ("forward", "reverse"):
            work = reverse(buf) if direction == "reverse" else buf
            frames = cfg.frame.segment(work)
            starts = np.arange(len(frames)) * frames.hop
            covering = [
                np.flatnonzero((starts < int(hi * SR + 0.5))
                               & (starts + frames.frame_len > int(lo * SR + 0.5)))
                for lo, hi in segment_utterances(work, endpoint_cfg)
            ]
            region_frames = sum(len(c) for c in covering)
            walked = covering[-1][-1] + 1 if method == "wiener" else region_frames
            frames_used = estimate_noise(work, cfg).frames_used
            transform_counts.clear()
            energy_passes.clear()
            transcribe(buf, fixture_vocabulary, direction, cfg, endpoint_cfg=endpoint_cfg)
            assert transform_counts[len(buf.samples)] == {
                "framings": 2, "resolved": 2, "analyzed": frames_used + walked,
                "synthesized": region_frames,
            }
            # one resolution per feature check at the rate, in transcribe and
            # at extract_batches' first buffer, which takes its frame length
            # and hop from that check; the endpoint config is checked on the
            # frames it cut, so its framing resolves only in segment
            assert transform_counts[None]["resolved"] == 2
            assert len(energy_passes) == passes
            assert region_frames < len(frames)

    @pytest.mark.parametrize("block", [3, 8, None])
    def test_one_scoring_pass_per_model_per_row_limit(
        self, fixture_vocabulary, fixture_session, monkeypatch, block
    ):
        # each direction's 3 regions of 41 feature rows take
        # ceil(123 / limit) scoring batches of one logsumexp per model: 3 at a
        # 48-row limit; 1 at 128, where scoring each 8-frame extraction batch
        # on its own would take 3; 1 at the real limit
        from revspeech import recognizer

        passes = []

        def counting_logsumexp(values):
            passes.append(len(values))
            return logsumexp(values)

        monkeypatch.setattr(recognizer, "logsumexp", counting_logsumexp)
        if block is not None:
            monkeypatch.setattr(audio, "BLOCK_FRAMES", block)
        limit = SCORE_BLOCKS * audio.BLOCK_FRAMES
        buf, _ = fixture_session
        frame_len, hop, _ = FeatureConfig().frame.resolve(SR)
        models = len(fixture_vocabulary.entries)
        for direction in DIRECTIONS:
            work = reverse(buf) if direction == "reverse" else buf
            rows = sum(
                audio.frame_count(int(hi * SR + 0.5) - int(lo * SR + 0.5), frame_len, hop)
                for lo, hi in segment_utterances(work)
            )
            passes.clear()
            transcribe(buf, fixture_vocabulary, direction)
            assert len(passes) == models * -(-rows // limit)
            assert sum(passes) == models * rows

    @pytest.mark.parametrize("block, batches", [(3, 3), (8, 1), (None, 1)])
    def test_deltas_once_per_scoring_batch(
        self, fixture_vocabulary, fixture_session, monkeypatch, block, batches
    ):
        # each direction's 3 regions of 41 rows are 3 extraction batches at
        # BLOCK_FRAMES 3 and 8 and one at the real size; the deltas and
        # delta-deltas run once per scoring batch of up to SCORE_BLOCKS
        # blocks' rows (48, 128 and 4,096), not once per extraction batch
        calls = []

        def counting_deltas(ceps, window, bounds=None):
            calls.append(len(ceps))
            return delta_features(ceps, window, bounds)

        delta_features = features.delta_features
        monkeypatch.setattr(features, "delta_features", counting_deltas)
        if block is not None:
            monkeypatch.setattr(audio, "BLOCK_FRAMES", block)
        buf, _ = fixture_session
        for direction in DIRECTIONS:
            calls.clear()
            transcribe(buf, fixture_vocabulary, direction)
            assert len(calls) == 2 * batches
            assert sum(calls) == 2 * 123

    @pytest.mark.parametrize("method", ["spectral_subtraction", "wiener"])
    def test_equals_denoising_the_whole_recording(
        self, fixture_vocabulary, fixture_session, method
    ):
        # the regions are cut from the whole recording's enhanced output
        buf, _ = fixture_session
        cfg = EnhanceConfig(method=method)
        for direction in ("forward", "reverse"):
            work = reverse(buf) if direction == "reverse" else buf
            cleaned, _ = estimate_and_denoise(work, cfg)
            expected = []
            for start_s, end_s in segment_utterances(work):
                piece = cleaned.samples[int(start_s * SR + 0.5) : int(end_s * SR + 0.5)]
                feats = extract(AudioBuffer(piece, SR), FeatureConfig())
                expected.append((start_s, end_s, *classify_segment(feats, fixture_vocabulary)))
            got = transcribe(buf, fixture_vocabulary, direction, cfg)
            assert [(s.start_s, s.end_s, s.label, s.score, s.margin)
                    for s in got.segments] == expected

    @given(
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(1, 7),
        method=st.sampled_from(["spectral_subtraction", "wiener"]),
        direction=st.sampled_from(["forward", "reverse"]),
        bursts=st.lists(
            st.tuples(st.integers(50, 400), st.integers(5, 40) | st.integers(100, 300)),
            min_size=1, max_size=5,
        ),
    )
    @settings(max_examples=40)
    # short regions several to a batch between regions longer than a block
    @example(seed=0, block=7, method="spectral_subtraction", direction="forward",
             bursts=[(100, 10), (100, 15), (100, 10), (300, 150), (80, 12)])
    @example(seed=1, block=6, method="wiener", direction="reverse",
             bursts=[(100, 10), (100, 15), (100, 10), (300, 150), (80, 12)])
    # scoring batches of 16 and 32 rows: regions stacked across the limit, one
    # region longer than it
    @example(seed=2, block=1, method="spectral_subtraction", direction="forward",
             bursts=[(100, 10), (100, 150), (100, 15), (300, 300), (80, 40)])
    @example(seed=3, block=2, method="wiener", direction="reverse",
             bursts=[(50, 150), (60, 150), (70, 160), (80, 12), (90, 300)])
    def test_batched_regions_equal_each_region_alone(
        self, fixture_vocabulary, seed, block, method, direction, bursts
    ):
        # denoising and features each batch the regions a block of frames at
        # a time, splitting long regions and gathering short ones, and scoring
        # takes up to SCORE_BLOCKS * BLOCK_FRAMES rows (16 to 112 here);
        # every region still gets what extract and classify_segment give
        # its slice of the whole recording's enhancement, up to the
        # products' rounding
        rng = np.random.default_rng(seed)
        pieces = []
        for gap_ms, burst_ms in bursts:
            pieces += [np.zeros(gap_ms * SR // 1000), tone(rng.uniform(300.0, 3000.0), burst_ms / 1000)]
        samples = np.concatenate(pieces + [np.zeros(SR // 10)])
        buf = AudioBuffer(samples + 0.01 * rng.standard_normal(len(samples)), SR)
        enhance_cfg = EnhanceConfig(method=method)
        endpoint_cfg = EndpointConfig(merge_gap_ms=0.0, min_utterance_ms=0.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(audio, "BLOCK_FRAMES", block)
            work = reverse(buf) if direction == "reverse" else buf
            cleaned, _ = estimate_and_denoise(work, enhance_cfg)
            expected = []
            for start_s, end_s in segment_utterances(work, endpoint_cfg):
                piece = cleaned.samples[int(start_s * SR + 0.5) : int(end_s * SR + 0.5)]
                feats = extract(AudioBuffer(piece, SR), FeatureConfig())
                expected.append((start_s, end_s, *classify_segment(feats, fixture_vocabulary)))
            got = transcribe(buf, fixture_vocabulary, direction, enhance_cfg,
                             endpoint_cfg=endpoint_cfg)
        assert_results_match_alone(
            [(s.start_s, s.end_s, s.label, s.score, s.margin) for s in got.segments], expected
        )

    def test_memory_grows_by_a_small_fraction_of_the_input(self, fixture_vocabulary):
        # the input is the only full-length array: the reversed recording is
        # a view and only the endpointed region is denoised, so what grows
        # is per-frame bookkeeping; the whole denoised output alone would be
        # one byte per input byte
        def traced_peak(duration_s):
            rng = np.random.default_rng(20)
            buf = AudioBuffer(0.01 * rng.standard_normal(int(duration_s * SR)), SR)
            buf.samples[SR : 2 * SR] += tone(500.0, 1.0)
            tracemalloc.start()
            try:
                transcribe(buf, fixture_vocabulary, "reverse")
                return tracemalloc.get_traced_memory()[1], buf.samples.nbytes
            finally:
                tracemalloc.stop()

        short_peak, short_bytes = traced_peak(60.0)
        long_peak, long_bytes = traced_peak(180.0)
        assert (long_peak - short_peak) / (long_bytes - short_bytes) < 0.1

    def test_invalid_direction_rejected(self, fixture_vocabulary):
        with pytest.raises(ValueError):
            transcribe(AudioBuffer(np.zeros(100), SR), fixture_vocabulary, "sideways")
