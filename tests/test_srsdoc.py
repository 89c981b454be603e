"""Transcript pairing, categorization, and report rendering."""

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from revspeech import (
    SegmentHypothesis,
    Transcript,
    analyze,
    build_report,
    parse_report,
    render,
    srsdoc,
    transcribe,
)
from revspeech.config import ToolConfig, config_fingerprint
from revspeech.errors import InsufficientDataError, LexiconFormatError, ReportFormatError
from revspeech.srsdoc import (
    CATEGORY_CONGRUENT,
    CATEGORY_EXPANSIVE,
    CATEGORY_INCONGRUENT,
    CATEGORY_UNMATCHED,
    Lexicon,
    ReversalPair,
    categorize,
    pair_segments,
)


def seg(start, end, label, direction="forward", score=-50.0, margin=1.0):
    return SegmentHypothesis(start, end, label, score, margin, direction)


def fwd_transcript(duration, *segments):
    return Transcript(list(segments), "forward", duration)


def rev_transcript(duration, *segments):
    return Transcript(list(segments), "reverse", duration)


def mirrored(duration, start, end, label, **kw):
    """Reverse-timeline segment that lands on [start, end] in forward time."""
    return seg(duration - end, duration - start, label, direction="reverse", **kw)


LEXICON = Lexicon(
    [("accept", "antonym-of", "reject"), ("remove", "synonym-of", "delete")]
)


class TestLexicon:
    def test_relations_are_symmetric(self):
        assert LEXICON.relation("accept", "reject") == "antonym"
        assert LEXICON.relation("reject", "accept") == "antonym"
        assert LEXICON.relation("remove", "delete") == "synonym"
        assert LEXICON.relation("delete", "remove") == "synonym"

    def test_unknown_pair_has_no_relation(self):
        assert LEXICON.relation("login", "timeout") is None

    def test_negation_marked_labels_are_antonyms(self):
        assert LEXICON.relation("approve", "not_approve") == "antonym"
        assert LEXICON.relation("no-retry", "retry") == "antonym"

    def test_parses_csv_with_comments(self):
        text = "# comment line\naccept, antonym-of, reject\n\nstart , antonym-of, stop\n"
        lexicon = Lexicon.from_text(text)
        assert lexicon.relation("start", "stop") == "antonym"

    def test_rejects_malformed_rows(self):
        with pytest.raises(LexiconFormatError):
            Lexicon.from_text("accept reject\n")
        with pytest.raises(LexiconFormatError):
            Lexicon.from_text("accept, sibling-of, reject\n")

    def test_unknown_relation_names_its_line(self):
        text = "# relations\naccept, antonym-of, reject\nup, opposite-of, down\n"
        with pytest.raises(LexiconFormatError, match="^line 3: unknown relation 'opposite-of'$"):
            Lexicon.from_text(text)

    def test_a_pair_given_two_relations_is_an_error(self):
        # otherwise the later line would win and the report depend on line order
        text = "accept, synonym-of, approve\n# reversed\napprove, antonym-of, accept\n"
        with pytest.raises(
            LexiconFormatError,
            match="^line 3: 'approve' and 'accept' are already synonyms, not antonyms$",
        ):
            Lexicon.from_text(text)

    def test_a_repeated_entry_is_allowed(self):
        lexicon = Lexicon.from_text("accept, synonym-of, approve\napprove, synonym-of, accept\n")
        assert lexicon.relation("accept", "approve") == "synonym"


class TestPairSegments:
    def test_identity_pairing(self):
        duration = 3.0
        fwd = fwd_transcript(duration, seg(0.2, 0.8, "a"), seg(1.5, 2.1, "b"))
        rev = rev_transcript(
            duration, mirrored(duration, 1.5, 2.1, "b"), mirrored(duration, 0.2, 0.8, "a")
        )
        pairs = pair_segments(fwd, rev)
        assert len(pairs) == 2
        for pair in pairs:
            assert pair.forward_segment.label == pair.reverse_segment.label
            assert pair.note == ""

    def test_majority_overlap_wins(self):
        duration = 2.0
        fwd = fwd_transcript(duration, seg(0.0, 0.7, "seventy"), seg(0.7, 1.0, "thirty"))
        rev = rev_transcript(duration, mirrored(duration, 0.0, 1.0, "wide"))
        pairs = pair_segments(fwd, rev)
        two_sided = [p for p in pairs if p.reverse_segment is not None]
        assert len(two_sided) == 1
        assert two_sided[0].forward_segment.label == "seventy"

    def test_zero_overlap_pairs_with_nearest(self):
        duration = 4.0
        fwd = fwd_transcript(duration, seg(0.1, 0.4, "early"), seg(3.0, 3.4, "late"))
        rev = rev_transcript(duration, mirrored(duration, 2.0, 2.4, "middle"))
        pairs = pair_segments(fwd, rev)
        two_sided = [p for p in pairs if p.reverse_segment is not None]
        assert two_sided[0].forward_segment.label == "late"
        assert "nearest" in two_sided[0].note

    def test_unpaired_forward_segments_become_unmatched(self):
        duration = 3.0
        fwd = fwd_transcript(duration, seg(0.2, 0.8, "a"), seg(1.5, 2.1, "b"))
        rev = rev_transcript(duration, mirrored(duration, 0.2, 0.8, "a"))
        pairs = pair_segments(fwd, rev)
        unmatched = [p for p in pairs if p.reverse_segment is None]
        assert len(unmatched) == 1
        assert unmatched[0].forward_segment.label == "b"
        assert unmatched[0].category == CATEGORY_UNMATCHED

    def test_every_reverse_segment_in_exactly_one_pair(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            duration = 10.0
            fwd_segs = []
            cursor = 0.0
            while cursor < 8.5:
                start = cursor + rng.uniform(0.1, 0.6)
                end = start + rng.uniform(0.3, 1.0)
                fwd_segs.append(seg(start, min(end, 9.9), f"w{len(fwd_segs)}"))
                cursor = end
            rev_segs = []
            cursor = 0.0
            while cursor < 8.5:
                start = cursor + rng.uniform(0.1, 0.6)
                end = start + rng.uniform(0.3, 1.0)
                rev_segs.append(
                    seg(start, min(end, 9.9), f"r{len(rev_segs)}", direction="reverse")
                )
                cursor = end
            pairs = pair_segments(
                fwd_transcript(duration, *fwd_segs), rev_transcript(duration, *rev_segs)
            )
            two_sided = [p for p in pairs if p.reverse_segment is not None]
            assert len(two_sided) == len(rev_segs)
            assert {p.reverse_segment.label for p in two_sided} == {
                s.label for s in rev_segs
            }

    def test_matches_brute_force_overlap_oracle(self):
        rng = np.random.default_rng(41)
        duration = 10.0
        for _ in range(20):
            # four segments in time order on a quarter-second grid; gaps may be 0
            gaps, lengths = rng.integers(0, 5, size=4), rng.integers(1, 5, size=4)
            ends = np.cumsum(gaps + lengths)
            fwd_segs = [
                seg((end - length) / 4, end / 4, f"w{i}")
                for i, (end, length) in enumerate(zip(ends, lengths))
            ]
            r_start = rng.uniform(0, 8.5)
            rev_segs = [mirrored(duration, r_start, r_start + 1.0, "r0")]
            pairs = pair_segments(
                fwd_transcript(duration, *fwd_segs), rev_transcript(duration, *rev_segs)
            )
            chosen = [p for p in pairs if p.reverse_segment is not None][0]

            lo, hi = r_start, r_start + 1.0
            overlaps = [
                max(0.0, min(f.end_s, hi) - max(f.start_s, lo)) for f in fwd_segs
            ]
            best = max(overlaps)
            if best > 0:
                assert (
                    chosen.forward_segment.label
                    == fwd_segs[int(np.argmax(overlaps))].label
                )

    def test_duration_mismatch_rejected(self):
        fwd = fwd_transcript(3.0, seg(0.2, 0.8, "a"))
        rev = rev_transcript(3.1, mirrored(3.1, 0.2, 0.8, "a"))
        with pytest.raises(ValueError):
            pair_segments(fwd, rev)

    @pytest.mark.parametrize("fwd_segs", [
        [seg(1.0, 2.0, "f0"), seg(3.0, 4.0, "f1"), seg(1.0, 2.0, "f2"), seg(0.5, 4.5, "f3")],
        [seg(4.0, 5.0, "f0"), seg(1.0, 2.0, "f1"), seg(1.5, 2.0, "f2")],
        [seg(3.0, 4.0, "f0"), seg(1.0, 2.0, "f1")],
        [seg(1.0, 2.0, "f0"), seg(1.75, 3.0, "f1")],
    ], ids=["repeated-and-nested", "out-of-order-nested", "out-of-order", "overlapping"])
    def test_unordered_or_overlapping_forward_segments_rejected(self, fwd_segs):
        # the contract transcribe keeps; without it the bisection can miss
        # the best match, so pairing refuses rather than answer wrongly
        for rev_segs in ([], [seg(7.5, 8.5, "r0", direction="reverse")]):
            with pytest.raises(ValueError, match="time order"):
                pair_segments(fwd_transcript(10.0, *fwd_segs), rev_transcript(10.0, *rev_segs))


def ordered_segments(min_size=0):
    """Forward segments in time order on a quarter-second grid of a 10 s
    timeline, as transcribe emits them: gaps may be 0, so neighbours touch,
    and overlaps and gaps to a reverse segment tie often."""
    runs = st.lists(st.tuples(st.integers(0, 8), st.integers(1, 12)), min_size=min_size,
                    max_size=14)

    def laid_out(runs):
        segments, end = [], 0
        for gap, length in runs:
            start, end = end + gap, min(end + gap + length, 40)
            if start >= 40:
                break
            segments.append(seg(start / 4, end / 4, f"f{len(segments)}"))
        return segments

    return runs.map(laid_out)


def segment_lists(direction, min_size):
    """Segments on a 10 s timeline: any order, overlapping or not."""
    bounds = st.tuples(st.floats(0.0, 9.5), st.floats(0.01, 3.0))
    return st.lists(bounds, min_size=min_size, max_size=12).map(
        lambda spans: [
            seg(start, min(start + length, 10.0), f"{direction[0]}{i}", direction=direction)
            for i, (start, length) in enumerate(spans)
        ]
    )


@given(ordered_segments(min_size=1), segment_lists("reverse", 0))
def test_pairing_accounts_for_every_segment(fwd_segs, rev_segs):
    pairs = pair_segments(fwd_transcript(10.0, *fwd_segs), rev_transcript(10.0, *rev_segs))
    # each reverse segment is in exactly one pair, in order
    assert [p.reverse_segment for p in pairs if p.reverse_segment is not None] == rev_segs
    # each forward segment is in some pair; unmatched exactly when no reverse chose it
    chosen = [p.forward_segment for p in pairs if p.reverse_segment is not None]
    unmatched = [p.forward_segment for p in pairs if p.reverse_segment is None]
    assert all(p.category == CATEGORY_UNMATCHED for p in pairs if p.reverse_segment is None)
    assert unmatched == [f for f in fwd_segs if not any(f is c for c in chosen)]
    assert len(pairs) == len(rev_segs) + len(unmatched)


def scan_pairs(fwd, rev):
    """pair_segments by the O(R*F) scan: every forward segment per reverse one."""
    duration = fwd.source_duration_s
    pairs, used = [], set()
    for rseg in rev.segments:
        lo, hi = duration - rseg.end_s, duration - rseg.start_s
        best_idx, best_overlap, best_gap = None, -1.0, float("inf")
        for idx, fseg in enumerate(fwd.segments):
            overlap = max(0.0, min(fseg.end_s, hi) - max(fseg.start_s, lo))
            gap = max(fseg.start_s - hi, lo - fseg.end_s, 0.0)
            if overlap > best_overlap or (overlap == best_overlap and gap < best_gap):
                best_idx, best_overlap, best_gap = idx, overlap, gap
        note = "" if best_overlap > 0 else "no temporal overlap; paired with nearest"
        used.add(best_idx)
        pairs.append(ReversalPair(fwd.segments[best_idx], rseg, None, note))
    for idx, fseg in enumerate(fwd.segments):
        if idx not in used:
            pairs.append(ReversalPair(fseg, None, CATEGORY_UNMATCHED, "no reverse counterpart"))
    return pairs


def reverse_grid_segments():
    """Reverse segments on the same grid in any order: they may overlap,
    repeat or nest."""
    bounds = st.tuples(st.integers(0, 38), st.integers(1, 12))
    return st.lists(bounds, max_size=14).map(
        lambda spans: [
            seg(start / 4, min(start + length, 40) / 4, f"r{i}", direction="reverse")
            for i, (start, length) in enumerate(spans)
        ]
    )


@given(ordered_segments(), reverse_grid_segments())
@example(  # equal overlaps with two touching forward segments, then equal gaps to two
    [seg(1.0, 2.0, "f0"), seg(2.0, 3.0, "f1"), seg(4.0, 5.0, "f2")],
    [seg(7.5, 8.5, "r0", direction="reverse"), seg(6.25, 6.75, "r1", direction="reverse")],
)
@example([], [seg(1.0, 2.0, "r0", direction="reverse")])  # refused: nothing to pair with
@example([seg(1.0, 2.0, "f0")], [])
@example(  # a reverse segment exactly between two forward ones
    [seg(1.5, 2.0, "f0"), seg(4.0, 5.0, "f1")],
    [seg(6.75, 7.25, "r0", direction="reverse")],
)
def test_pairing_matches_the_scan(fwd_segs, rev_segs):
    fwd, rev = fwd_transcript(10.0, *fwd_segs), rev_transcript(10.0, *rev_segs)
    if rev_segs and not fwd_segs:
        with pytest.raises(ValueError, match=f"reverse segments: {len(rev_segs)}$"):
            pair_segments(fwd, rev)
        return

    def ids(pairs):
        return [(id(p.forward_segment), id(p.reverse_segment), p.category, p.note)
                for p in pairs]

    assert ids(pair_segments(fwd, rev)) == ids(scan_pairs(fwd, rev))


class TestCategorize:
    def pair(self, fwd_label, rev_label):
        return ReversalPair(
            seg(0.0, 1.0, fwd_label), seg(0.0, 1.0, rev_label, direction="reverse")
        )

    def test_identical_labels_congruent(self):
        assert categorize(self.pair("approve", "approve"), LEXICON) == CATEGORY_CONGRUENT

    def test_synonyms_congruent(self):
        assert categorize(self.pair("remove", "delete"), LEXICON) == CATEGORY_CONGRUENT

    def test_antonyms_incongruent(self):
        assert categorize(self.pair("accept", "reject"), LEXICON) == CATEGORY_INCONGRUENT

    def test_negation_marked_incongruent(self):
        assert categorize(self.pair("save", "not_save"), LEXICON) == CATEGORY_INCONGRUENT

    def test_unrelated_labels_expansive(self):
        assert categorize(self.pair("login", "timeout"), LEXICON) == CATEGORY_EXPANSIVE

    def test_requires_reverse_segment(self):
        pair = ReversalPair(seg(0.0, 1.0, "a"), None, CATEGORY_UNMATCHED)
        with pytest.raises(ValueError):
            categorize(pair, LEXICON)


def build_fixture_report(antonym=True):
    duration = 3.0
    fwd = fwd_transcript(
        duration, seg(0.2, 0.7, "accept"), seg(1.0, 1.5, "update"), seg(2.0, 2.5, "login")
    )
    rev_label = "reject" if antonym else "accept"
    rev = rev_transcript(
        duration,
        mirrored(duration, 2.0, 2.5, "login"),
        mirrored(duration, 1.0, 1.5, "update"),
        mirrored(duration, 0.2, 0.7, rev_label),
    )
    meta = {
        "source_file": "session.wav",
        "tool_config_fingerprint": "deadbeef00000000",
        "timestamp": "2026-08-08T00:00:00Z",
    }
    return build_report(fwd, rev, LEXICON, meta)


class TestBuildReport:
    def test_requirements_enumerate_forward_segments(self):
        report = build_fixture_report()
        assert [r.id for r in report.requirements] == ["R-001", "R-002", "R-003"]
        assert [r.text for r in report.requirements] == ["accept", "update", "login"]

    def test_planted_antonym_is_flagged_once(self):
        report = build_fixture_report(antonym=True)
        assert len(report.flagged) == 1
        assert report.flagged[0].forward_segment.label == "accept"
        assert report.flagged[0].reverse_segment.label == "reject"

    def test_no_antonym_means_no_flags(self):
        report = build_fixture_report(antonym=False)
        assert report.flagged == []

    def test_flagged_entries_appear_in_pairs(self):
        report = build_fixture_report()
        for flagged in report.flagged:
            assert any(flagged is p for p in report.pairs)

    def test_flagged_follows_the_pair_categories(self):
        report = build_fixture_report(antonym=False)
        assert report.flagged == []
        report.pairs[1].category = CATEGORY_INCONGRUENT
        assert report.flagged == [report.pairs[1]]
        assert json.loads(render(report, "structured"))["flagged"] == [1]

    def test_categories_assigned_to_all_two_sided_pairs(self):
        report = build_fixture_report()
        for pair in report.pairs:
            if pair.reverse_segment is None:
                assert pair.category == CATEGORY_UNMATCHED
            else:
                assert pair.category in (
                    CATEGORY_CONGRUENT,
                    CATEGORY_INCONGRUENT,
                    CATEGORY_EXPANSIVE,
                )

    def test_reverse_segments_without_forward_ones_are_refused(self):
        # a report of no pairs would drop every reverse segment and read
        # "None detected", where the report accounts for both sides
        rev = rev_transcript(3.0, mirrored(3.0, 0.2, 0.7, "reject"))
        with pytest.raises(ValueError, match="no forward segment .* reverse segments: 1$"):
            build_report(fwd_transcript(3.0), rev, LEXICON, {})


class TestRender:
    def test_markdown_table_row_per_requirement(self):
        report = build_fixture_report()
        text = render(report, "markdown")
        rows = [line for line in text.splitlines() if line.startswith("| R-")]
        assert len(rows) == len(report.requirements)

    def test_markdown_reports_none_detected(self):
        text = render(build_fixture_report(antonym=False), "markdown")
        section = text.split("## Flagged Inconsistencies")[1]
        assert "None detected." in section

    def test_markdown_lists_flagged_pairs(self):
        text = render(build_fixture_report(antonym=True), "markdown")
        section = text.split("## Flagged Inconsistencies")[1]
        assert "accept" in section and "reject" in section
        assert "None detected." not in section

    def test_structured_round_trip_identical(self):
        report = build_fixture_report()
        text = render(report, "structured")
        parsed = parse_report(text)
        assert render(parsed, "structured") == text
        assert parsed.source_file == report.source_file
        assert len(parsed.pairs) == len(report.pairs)
        assert [r.id for r in parsed.requirements] == [
            r.id for r in report.requirements
        ]
        assert [p.category for p in parsed.pairs] == [p.category for p in report.pairs]
        assert parsed.flagged[0].reverse_segment.label == "reject"

    def test_structured_output_is_deterministic(self):
        first = render(build_fixture_report(), "structured")
        second = render(build_fixture_report(), "structured")
        assert first == second

    def test_parse_rejects_garbage(self):
        with pytest.raises(ReportFormatError):
            parse_report("not json at all")
        with pytest.raises(ReportFormatError):
            parse_report('{"format": "srs-v0"}')

    def test_parse_rejects_nesting_too_deep_to_decode(self):
        with pytest.raises(ReportFormatError, match="not valid structured text"):
            parse_report("[" * 100000)

    @pytest.mark.parametrize("key", ["source_file", "timestamp", "tool_config_fingerprint"])
    @pytest.mark.parametrize("value", [5, [1], None])
    def test_parse_rejects_header_fields_that_are_not_strings(self, key, value):
        payload = json.loads(render(build_fixture_report(), "structured"))
        payload[key] = value
        with pytest.raises(ReportFormatError, match=f"{key} is not a string"):
            parse_report(json.dumps(payload))

    @pytest.mark.parametrize("flagged", [[], [0, 1], [1], "all", None])
    def test_parse_rejects_flagged_disagreeing_with_categories(self, flagged):
        payload = json.loads(render(build_fixture_report(), "structured"))
        assert payload["flagged"] != flagged
        payload["flagged"] = flagged
        with pytest.raises(ReportFormatError, match="flagged"):
            parse_report(json.dumps(payload))

    def test_parse_rejects_inconsistent_documents(self):
        text = render(build_fixture_report(), "structured")
        one_sided = json.loads(text)
        one_sided["pairs"][0]["reverse"] = None  # keeps its two-sided category
        extra_field = json.loads(text)
        extra_field["pairs"][1]["forward"]["extra"] = 1
        bad_docs = [json.dumps(one_sided), json.dumps(extra_field), "[]", '"srs-v1"',
                    text.replace('"note"', '"nope"')]
        for bad in bad_docs:
            with pytest.raises(ReportFormatError):
                parse_report(bad)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render(build_fixture_report(), "pdf")


def pin_usable_cpus(monkeypatch, count):
    """Make srsdoc see count usable CPUs, whichever way the platform reports them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def sequential_report(buf, vocab, cfg):
    """build_report over the two directions transcribed one after the other."""
    fwd, rev = (
        transcribe(buf, vocab, direction, cfg.enhance, cfg.features, cfg.endpoint)
        for direction in ("forward", "reverse")
    )
    meta = {"source_file": "session.wav", "tool_config_fingerprint": config_fingerprint(cfg),
            "timestamp": ""}
    return build_report(fwd, rev, Lexicon.default(), meta)


def rendered(report):
    return render(report, "markdown"), render(report, "structured")


class TestAnalyzeThreads:
    """analyze runs its two directions on up to two threads, one each."""

    @pytest.fixture(autouse=True)
    def no_leaked_threads(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    def calls_on_threads(self, monkeypatch, barrier=None):
        """Patch srsdoc.transcribe to record (direction, thread) and return the list."""
        calls = []

        def recording(buf, vocab, direction, *cfgs):
            calls.append((direction, threading.get_ident()))
            if barrier is not None:
                barrier.wait()
            return transcribe(buf, vocab, direction, *cfgs)

        monkeypatch.setattr(srsdoc, "transcribe", recording)
        return calls

    def test_directions_run_at_the_same_time(
        self, monkeypatch, fixture_vocabulary, fixture_session
    ):
        pin_usable_cpus(monkeypatch, 2)
        # each pass waits for the other to start: passes run in turn break the barrier
        calls = self.calls_on_threads(monkeypatch, threading.Barrier(2, timeout=10))
        buf, _ = fixture_session
        report = analyze(buf, fixture_vocabulary, ToolConfig(), "session.wav")
        assert sorted(direction for direction, _ in calls) == ["forward", "reverse"]
        assert len({thread for _, thread in calls}) == 2
        assert rendered(report) == rendered(
            sequential_report(buf, fixture_vocabulary, ToolConfig())
        )

    def test_one_usable_cpu_runs_on_one_worker(
        self, monkeypatch, fixture_vocabulary, fixture_session
    ):
        pin_usable_cpus(monkeypatch, 1)
        calls = self.calls_on_threads(monkeypatch)
        buf, _ = fixture_session
        report = analyze(buf, fixture_vocabulary, ToolConfig(), "session.wav")
        assert [direction for direction, _ in calls] == ["forward", "reverse"]
        assert len({thread for _, thread in calls}) == 1
        assert rendered(report) == rendered(
            sequential_report(buf, fixture_vocabulary, ToolConfig())
        )

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "failing, raised",
        [(("reverse",), "reverse failed"), (("forward", "reverse"), "forward failed")],
    )
    def test_forward_error_takes_precedence(
        self, monkeypatch, fixture_vocabulary, fixture_session, cpus, failing, raised
    ):
        pin_usable_cpus(monkeypatch, cpus)
        reverse_done = threading.Event()

        def failing_transcribe(buf, vocab, direction, *cfgs):
            if direction == "forward" and cpus == 2:
                # on two threads the reverse pass finishes first
                assert reverse_done.wait(timeout=10)
            try:
                if direction in failing:
                    raise InsufficientDataError(f"{direction} failed")
                return transcribe(buf, vocab, direction, *cfgs)
            finally:
                if direction == "reverse":
                    reverse_done.set()

        monkeypatch.setattr(srsdoc, "transcribe", failing_transcribe)
        buf, _ = fixture_session
        with pytest.raises(InsufficientDataError) as info:
            analyze(buf, fixture_vocabulary, ToolConfig(), "session.wav")
        assert str(info.value) == raised

    def test_reports_are_deterministic(self, fixture_vocabulary, fixture_session):
        buf, _ = fixture_session
        expected = rendered(sequential_report(buf, fixture_vocabulary, ToolConfig()))
        for _ in range(5):
            report = analyze(buf, fixture_vocabulary, ToolConfig(), "session.wav")
            assert rendered(report) == expected
