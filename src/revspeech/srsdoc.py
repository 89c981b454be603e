"""A requirements report from a recording (analyze) or its two transcripts (build_report).

Each reverse segment is mapped into forward time and matched to the forward
segment it overlaps most. Label pairs are tagged congruent, incongruent, or
expansive via a small synonym/antonym lexicon; incongruent pairs are flagged
for human review, never silently dropped.
"""

import json
import os
from bisect import bisect_left, bisect_right
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

from .audio import AudioBuffer
from .config import ToolConfig, config_fingerprint
from .errors import LexiconFormatError, ReportFormatError, read_text
from .recognizer import DIRECTIONS, SegmentHypothesis, Transcript, Vocabulary, transcribe

REPORT_FORMAT_VERSION = "srs-v1"

CATEGORY_CONGRUENT = "congruent"
CATEGORY_INCONGRUENT = "incongruent"
CATEGORY_EXPANSIVE = "expansive"
CATEGORY_UNMATCHED = "unmatched"

_NEGATION_PREFIXES = ("not_", "not-", "no_", "no-")

DEFAULT_LEXICON_ROWS = [
    ("accept", "antonym-of", "reject"),
    ("allow", "antonym-of", "deny"),
    ("enable", "antonym-of", "disable"),
    ("start", "antonym-of", "stop"),
    ("login", "antonym-of", "logout"),
    ("open", "antonym-of", "close"),
    ("delete", "synonym-of", "remove"),
    ("signin", "synonym-of", "login"),
]


class Lexicon:
    """Symmetric word-relation table: synonym-of / antonym-of entries."""

    def __init__(self, rows=()):
        self._relations: dict[frozenset, str] = {}
        for left, relation, right in rows:
            self.add(left, relation, right)

    def add(self, left: str, relation: str, right: str) -> None:
        if relation not in ("synonym-of", "antonym-of"):
            raise LexiconFormatError(f"unknown relation {relation!r}")
        pair, kind = frozenset((left, right)), relation.split("-")[0]
        # a second, different relation would make the report depend on line order
        if self._relations.setdefault(pair, kind) != kind:
            raise LexiconFormatError(
                f"{left!r} and {right!r} are already {self._relations[pair]}s, not {kind}s"
            )

    def relation(self, a: str, b: str) -> str | None:
        """'synonym', 'antonym', or None; negation-marked labels are antonyms."""
        found = self._relations.get(frozenset((a, b)))
        if found is not None:
            return found
        if _strip_negation(a) == b or _strip_negation(b) == a:
            return "antonym"
        return None

    @classmethod
    def from_text(cls, text: str) -> "Lexicon":
        lexicon = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 3 or not all(parts):
                raise LexiconFormatError(
                    f"line {lineno}: expected 'word, relation, word', got {raw!r}"
                )
            try:
                lexicon.add(*parts)
            except LexiconFormatError as exc:
                raise LexiconFormatError(f"line {lineno}: {exc}") from None
        return lexicon

    @classmethod
    def from_file(cls, path) -> "Lexicon":
        return cls.from_text(read_text(path, LexiconFormatError))

    @classmethod
    def default(cls) -> "Lexicon":
        return cls(DEFAULT_LEXICON_ROWS)


def _strip_negation(label: str) -> str:
    for prefix in _NEGATION_PREFIXES:
        if label.startswith(prefix) and len(label) > len(prefix):
            return label[len(prefix) :]
    return label


@dataclass
class ReversalPair:
    forward_segment: SegmentHypothesis
    reverse_segment: SegmentHypothesis | None
    category: str | None = None
    note: str = ""

    def __post_init__(self):
        if (self.reverse_segment is None) != (self.category == CATEGORY_UNMATCHED):
            raise ValueError("category is 'unmatched' exactly when reverse is absent")


@dataclass
class Requirement:
    id: str
    text: str
    labels: list[str]
    start_s: float
    end_s: float
    score: float


@dataclass
class SrsReport:
    source_file: str
    requirements: list[Requirement]
    pairs: list[ReversalPair]
    tool_config_fingerprint: str
    timestamp: str = ""

    @property
    def flagged(self) -> list[ReversalPair]:
        """The incongruent pairs, in pair order: the contradictions to review."""
        return [self.pairs[i] for i in _flagged_indices(self.pairs)]


def pair_segments(fwd: Transcript, rev: Transcript) -> list[ReversalPair]:
    """Match every reverse segment to the forward segment of maximal overlap.

    Reverse times are mirrored into forward time first. A reverse segment
    with no overlap pairs with the nearest forward segment and says so in
    its note; ties go to the nearer gap, then to the lower forward index.
    Forward segments no reverse segment chose become unmatched pairs, so the
    report accounts for every segment on both sides.

    Forward segments must be in time order and must not overlap, though
    they may touch, as transcribe emits them (else ValueError). So the ones
    a reverse segment overlaps are one run, bisected by end and by start,
    and the nearest on either side are the run's two neighbours.
    """
    if abs(fwd.source_duration_s - rev.source_duration_s) > 1e-3:
        raise ValueError(
            f"transcript durations differ: {fwd.source_duration_s} vs "
            f"{rev.source_duration_s}"
        )
    duration = fwd.source_duration_s
    segments = fwd.segments
    if any(b.start_s < a.end_s for a, b in zip(segments, segments[1:])):
        raise ValueError("forward segments must be in time order and must not overlap")
    starts = [seg.start_s for seg in segments]
    ends = [seg.end_s for seg in segments]

    pairs = []
    used = set()
    for rseg in rev.segments:
        if not segments:
            break  # no forward segments at all; nothing to pair against
        lo, hi = duration - rseg.end_s, duration - rseg.start_s

        def key(idx: int) -> tuple[float, float, int]:
            fseg = segments[idx]
            overlap = max(0.0, min(fseg.end_s, hi) - max(fseg.start_s, lo))
            gap = max(fseg.start_s - hi, lo - fseg.end_s, 0.0)
            return -overlap, gap, idx

        # segments first..stop-1 overlap [lo, hi]; segment first-1 is the
        # nearest before lo and segment stop the nearest after hi
        first, stop = bisect_right(ends, lo), bisect_left(starts, hi)
        best_idx = min(range(max(first - 1, 0), min(stop + 1, len(segments))), key=key)
        note = "" if key(best_idx)[0] < 0 else "no temporal overlap; paired with nearest"
        used.add(best_idx)
        pairs.append(ReversalPair(segments[best_idx], rseg, None, note))

    for idx, fseg in enumerate(segments):
        if idx not in used:
            pairs.append(
                ReversalPair(fseg, None, CATEGORY_UNMATCHED, "no reverse counterpart")
            )
    return pairs


def categorize(pair: ReversalPair, lexicon: Lexicon) -> str:
    """congruent on same/synonym labels, incongruent on antonyms, else expansive."""
    if pair.reverse_segment is None:
        raise ValueError("cannot categorize a pair without a reverse segment")
    fwd_label = pair.forward_segment.label
    rev_label = pair.reverse_segment.label
    if fwd_label == rev_label:
        return CATEGORY_CONGRUENT
    relation = lexicon.relation(fwd_label, rev_label)
    if relation == "synonym":
        return CATEGORY_CONGRUENT
    if relation == "antonym":
        return CATEGORY_INCONGRUENT
    return CATEGORY_EXPANSIVE


def build_report(
    fwd: Transcript, rev: Transcript, lexicon: Lexicon, meta: dict
) -> SrsReport:
    """Assemble requirements and categorized pairs; incongruent ones are flagged.

    meta supplies source_file, tool_config_fingerprint, and timestamp, so
    identical inputs always produce an identical report.
    """
    pairs = pair_segments(fwd, rev)
    for pair in pairs:
        if pair.reverse_segment is not None:
            pair.category = categorize(pair, lexicon)

    requirements = [
        Requirement(
            id=f"R-{idx:03d}",
            text=seg.label,
            labels=[seg.label],
            start_s=seg.start_s,
            end_s=seg.end_s,
            score=seg.score,
        )
        for idx, seg in enumerate(fwd.segments, start=1)
    ]
    return SrsReport(
        source_file=meta.get("source_file", ""),
        requirements=requirements,
        pairs=pairs,
        tool_config_fingerprint=meta.get("tool_config_fingerprint", ""),
        timestamp=meta.get("timestamp", ""),
    )


def analyze(
    buf: AudioBuffer, vocab: Vocabulary, cfg: ToolConfig, source_file: str, timestamp=""
) -> SrsReport:
    """Transcribe buf forward and time-reversed and report on the pair.

    The lexicon is cfg.lexicon_path, or the default table when that is None.
    The two directions run at the same time, one thread each, on as many
    threads as this process has usable CPUs, up to two: numpy's FFTs, matrix
    products and large elementwise operations release the GIL, and the two
    transcribe calls only read what they share. Results are read in
    direction order, so a forward error is the one raised, and the report
    is the one two passes in turn build.
    """
    lexicon = Lexicon.default() if cfg.lexicon_path is None else Lexicon.from_file(cfg.lexicon_path)
    # map yields in order and cancels what it has not yielded once a result
    # raises, so on one worker a forward error leaves the reverse pass unstarted
    with ThreadPoolExecutor(max_workers=min(len(DIRECTIONS), _usable_cpus())) as pool:
        fwd, rev = pool.map(
            lambda d: transcribe(buf, vocab, d, cfg.enhance, cfg.features, cfg.endpoint),
            DIRECTIONS,
        )
    meta = {
        "source_file": source_file,
        "tool_config_fingerprint": config_fingerprint(cfg),
        "timestamp": timestamp,
    }
    return build_report(fwd, rev, lexicon, meta)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _flagged_indices(pairs: list[ReversalPair]) -> list[int]:
    return [i for i, p in enumerate(pairs) if p.category == CATEGORY_INCONGRUENT]


def _as_dict(obj) -> dict:
    """Field name -> value, one level deep (dataclasses.asdict deep-copies)."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _span(seg: SegmentHypothesis) -> str:
    return f"{seg.start_s:.3f}-{seg.end_s:.3f} s"


def render(report: SrsReport, fmt: str = "markdown") -> str:
    """Render as human-readable markdown or a lossless structured document."""
    if fmt == "structured":
        payload = {
            "format": REPORT_FORMAT_VERSION,
            "source_file": report.source_file,
            "timestamp": report.timestamp,
            "tool_config_fingerprint": report.tool_config_fingerprint,
            "requirements": [_as_dict(r) for r in report.requirements],
            "pairs": [
                {
                    "forward": _as_dict(p.forward_segment),
                    "reverse": None
                    if p.reverse_segment is None
                    else _as_dict(p.reverse_segment),
                    "category": p.category,
                    "note": p.note,
                }
                for p in report.pairs
            ],
            "flagged": _flagged_indices(report.pairs),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    if fmt != "markdown":
        raise ValueError(f"unknown render format {fmt!r}")

    lines = [
        "# Software Requirements Report",
        "",
        "## Header",
        "",
        f"- Source: {report.source_file}",
        f"- Config fingerprint: {report.tool_config_fingerprint}",
        f"- Generated: {report.timestamp}",
        "",
        "## Functional Requirements",
        "",
        "| ID | Requirement | Time span | Score |",
        "|----|-------------|-----------|-------|",
    ]
    for r in report.requirements:
        lines.append(
            f"| {r.id} | {r.text} | {r.start_s:.3f}-{r.end_s:.3f} s | {r.score:.4f} |"
        )
    lines += ["", "## Reversal Analysis", ""]
    for p in report.pairs:
        fwd = p.forward_segment
        if p.reverse_segment is None:
            lines.append(
                f"- forward '{fwd.label}' ({_span(fwd)}): {p.category}; {p.note}"
            )
        else:
            rev = p.reverse_segment
            detail = f"; {p.note}" if p.note else ""
            lines.append(
                f"- forward '{fwd.label}' ({_span(fwd)}) with reverse "
                f"'{rev.label}' ({_span(rev)} in reversed time): {p.category}{detail}"
            )
    lines += ["", "## Flagged Inconsistencies", ""]
    flagged = report.flagged
    if not flagged:
        lines.append("None detected.")
    for p in flagged:
        lines.append(
            f"- forward '{p.forward_segment.label}' ({_span(p.forward_segment)}) "
            f"contradicted by reverse '{p.reverse_segment.label}'"
        )
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> SrsReport:
    """Rebuild a report from its structured rendering."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError(f"not valid structured text: {exc}") from exc
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != REPORT_FORMAT_VERSION:
        raise ReportFormatError(
            f"expected format {REPORT_FORMAT_VERSION!r}, got {found!r}"
        )
    try:
        report = SrsReport(
            source_file=payload["source_file"],
            requirements=[Requirement(**r) for r in payload["requirements"]],
            pairs=[
                ReversalPair(
                    SegmentHypothesis(**p["forward"]),
                    None if p["reverse"] is None else SegmentHypothesis(**p["reverse"]),
                    p["category"],
                    p["note"],
                )
                for p in payload["pairs"]
            ],
            tool_config_fingerprint=payload["tool_config_fingerprint"],
            timestamp=payload["timestamp"],
        )
        flagged = payload["flagged"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ReportFormatError(f"malformed report document: {exc}") from exc
    if flagged != _flagged_indices(report.pairs):
        raise ReportFormatError("flagged list disagrees with the pair categories")
    return report
