"""The three workloads: set-up, the timed operation, its traced replay, and checks.

Each workload has the same shape:

- ``setup(work, seed, gen)`` writes every input to ``work`` (this is
  ``setup_s``);
- ``load(work)`` reads back what operations need, so the peak-RSS
  subprocess runs on exactly the inputs set-up wrote;
- ``reference(state)`` computes, untimed, what checks compare against;
- ``run_op(state, k)`` is the product path, untraced;
- ``replay_op(state, k, tracer)`` does the same work step by step through the
  public functions, with a span around each call;
- ``check(state, k, out)`` and ``guard(state, k, out)`` return lists of
  problems; an empty list means the outputs are correct;
- ``size(state)`` describes the input and ``work_done(state)`` gives the
  audio seconds and segments one operation processes.

Inputs come from the word generators in ``tests/conftest.py``; the workload
seed is the only source of randomness.
"""

import contextlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np

from revspeech import (
    AudioBuffer,
    FeatureMatrix,
    Lexicon,
    SegmentHypothesis,
    Transcript,
    Vocabulary,
    build_report,
    classify_segment,
    cli,
    denoise,
    estimate_noise,
    extract,
    load_model,
    parse_report,
    read_wav,
    render,
    reverse,
    save_model,
    segment_utterances,
    train,
    transcribe,
    write_wav,
)
from revspeech.config import ToolConfig, config_fingerprint
from tracing import NullTracer

WORDS = ("accept", "reject", "update", "login")
# time reversal turns one sweep into the other; band words are unchanged
REVERSED_LABEL = {"accept": "reject", "reject": "accept", "update": "update", "login": "login"}
NEAREST_NOTE = "no temporal overlap"


def load_generators(root: Path):
    """Import the test suite's signal builders from tests/conftest.py."""
    path = root / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("revspeech_test_generators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _quiet_cli(argv) -> int:
    """cli.run with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.run(argv)


def _overlap(a_lo, a_hi, b_lo, b_hi) -> float:
    return max(0.0, min(a_hi, b_hi) - max(a_lo, b_lo))


def _frame_count(buf: AudioBuffer, frame_ms: float, overlap_fraction: float) -> int:
    """Frames audio.segment cuts from buf, by the rule in its docstring."""
    frame_len = int(frame_ms * buf.sample_rate_hz / 1000 + 0.5)
    hop = max(frame_len - int(overlap_fraction * frame_len + 0.5), 1)
    return math.ceil(max(len(buf.samples) - frame_len, 0) / hop) + 1


class AnalyzeSession:
    """`revspeech analyze` in-process on one synthetic session."""

    name = "analyze_session"
    words_per_session = 200  # 0.5 s words with 0.4 s gaps: 180.4 s of audio

    def setup(self, work: Path, seed: int, gen) -> None:
        vocab = gen.train_vocabulary(list(WORDS), seed=seed)
        (work / "models").mkdir(parents=True, exist_ok=True)
        for label, model in vocab.entries.items():
            save_model(model, work / "models" / f"{label}.gmm")
        rng = np.random.default_rng([seed, 1])
        words = [str(w) for w in rng.choice(WORDS, self.words_per_session)]
        buf, spans = gen.build_session(rng, words)
        write_wav(buf, work / "session.wav")
        (work / "planted.json").write_text(json.dumps(spans), encoding="utf-8")

    def load(self, work: Path) -> dict:
        wav = work / "session.wav"
        models = sorted(str(p) for p in (work / "models").glob("*.gmm"))
        argv = ["analyze", "--in", str(wav), "--out-dir", str(work / "out")]
        for path in models:
            argv += ["--model", path]
        return {"work": work, "wav": wav, "models": models, "argv": argv,
                "planted": json.loads((work / "planted.json").read_text(encoding="utf-8"))}

    def reference(self, state: dict) -> None:
        """Endpoint bounds per direction, the independent count of segments per side."""
        buf = read_wav(state["wav"])
        state["duration_s"] = buf.duration_s
        state["bounds"] = {
            "forward": segment_utterances(buf),
            "reverse": segment_utterances(reverse(buf)),
        }
        state["first"] = None

    def size(self, state: dict) -> dict:
        segments = sum(len(b) for b in state["bounds"].values())
        return {"audio_s": state["duration_s"], "words": len(state["planted"]),
                "segments_per_side": {d: len(b) for d, b in state["bounds"].items()},
                "segments": segments}

    def run_op(self, state: dict, k: int) -> dict:
        return {"rc": _quiet_cli(state["argv"])}

    def replay_op(self, state: dict, k: int, tracer) -> dict:
        cfg = ToolConfig()  # what cli builds with no config file and no flags
        with tracer.span("audio.read_wav"):
            buf = read_wav(state["wav"])
        models = []
        for path in state["models"]:
            with tracer.span("gmm.load_model"):
                models.append(load_model(path))
        vocab = Vocabulary.from_models(models)
        lexicon = Lexicon.default()
        fwd = self._transcribe(buf, vocab, "forward", cfg, tracer)
        rev = self._transcribe(buf, vocab, "reverse", cfg, tracer)
        meta = {"source_file": str(state["wav"]),
                "tool_config_fingerprint": config_fingerprint(cfg), "timestamp": ""}
        with tracer.span("srsdoc.build_report") as counts:
            report = build_report(fwd, rev, lexicon, meta)
        counts["srsdoc.pairs"] = len(report.pairs)
        counts["srsdoc.nearest"] = sum(p.note.startswith(NEAREST_NOTE) for p in report.pairs)
        counts["srsdoc.flagged"] = len(report.flagged)
        with tracer.span("srsdoc.render"):
            markdown = render(report, "markdown")
        with tracer.span("srsdoc.render"):
            structured = render(report, "structured")
        out_dir = state["work"] / "replay"
        out_dir.mkdir(exist_ok=True)
        (out_dir / "report.md").write_text(markdown, encoding="utf-8")
        (out_dir / "report.json").write_text(structured, encoding="utf-8")
        return {"rc": 0, "out_dir": out_dir, "buf": buf, "vocab": vocab, "cfg": cfg,
                "transcripts": {"forward": fwd, "reverse": rev}}

    @staticmethod
    def _transcribe(buf, vocab, direction, cfg, tracer) -> Transcript:
        """recognizer.transcribe, one public call per span."""
        work = buf
        if direction == "reverse":
            with tracer.span("audio.reverse"):
                work = reverse(buf)
        with tracer.span("enhance.estimate_noise") as counts:
            profile = estimate_noise(work, cfg.enhance)
        counts["enhance.noise_frames_used"] = profile.frames_used
        with tracer.span("enhance.denoise") as counts:
            cleaned = denoise(work, profile, cfg.enhance)
        counts["enhance.frames"] = _frame_count(
            work, cfg.enhance.frame_ms, cfg.enhance.overlap_fraction
        )
        with tracer.span("recognizer.segment_utterances"):
            regions = segment_utterances(work, cfg.endpoint)
        sr = cleaned.sample_rate_hz
        segments = []
        for start_s, end_s in regions:
            piece = AudioBuffer(
                cleaned.samples[int(start_s * sr + 0.5) : int(end_s * sr + 0.5)], sr
            )
            with tracer.span("features.extract") as counts:
                feats = extract(piece, cfg.features)
            counts["features.frames"] = feats.num_frames
            with tracer.span("recognizer.classify_segment") as counts:
                label, score, margin = classify_segment(feats, vocab)
            counts["recognizer.segments"] = 1
            counts["gmm.frames_scored"] = feats.num_frames * len(vocab.entries)
            segments.append(SegmentHypothesis(start_s, end_s, label, score, margin, direction))
        return Transcript(segments, direction, buf.duration_s)

    def check(self, state: dict, k: int, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"analyze exited with code {out['rc']}"]
        out_dir = out.get("out_dir", state["work"] / "out")
        files = tuple((out_dir / name).read_bytes() for name in ("report.md", "report.json"))
        problems = []
        if state["first"] is None:
            state["first"] = files
        elif files != state["first"]:
            problems.append("report.md or report.json differs from the run's first operation")
        report = parse_report(files[1].decode("utf-8"))
        fwd_seen = [(p.forward_segment.start_s, p.forward_segment.end_s) for p in report.pairs]
        rev_seen = [(p.reverse_segment.start_s, p.reverse_segment.end_s)
                    for p in report.pairs if p.reverse_segment is not None]
        if sorted(set(fwd_seen)) != state["bounds"]["forward"]:
            problems.append("a forward segment is missing from the pairs")
        if rev_seen != state["bounds"]["reverse"]:
            problems.append("a reverse segment is missing from the pairs")
        if k == 0 and not problems:
            state["label_accuracy"] = self._label_accuracy(state, report)
        return problems

    def guard(self, state: dict, k: int, out: dict) -> list[str]:
        problems = []
        for direction, replayed in out["transcripts"].items():
            product = transcribe(out["buf"], out["vocab"], direction, out["cfg"].enhance,
                                 out["cfg"].features, out["cfg"].endpoint)
            if replayed != product:
                problems.append(f"replayed {direction} transcript differs from transcribe")
        return problems

    def _label_accuracy(self, state: dict, report) -> float:
        """Planted words labelled right forward, and swapped right when reversed."""
        duration = state["duration_s"]
        fwd = [p.forward_segment for p in report.pairs]
        rev = [p.reverse_segment for p in report.pairs if p.reverse_segment is not None]
        correct = 0
        for word, lo, hi in state["planted"]:
            best_fwd = max(fwd, key=lambda s: _overlap(s.start_s, s.end_s, lo, hi))
            best_rev = max(
                rev, key=lambda s: _overlap(duration - s.end_s, duration - s.start_s, lo, hi)
            )
            correct += best_fwd.label == word and best_rev.label == REVERSED_LABEL[word]
        return correct / len(state["planted"])

    def work_done(self, state: dict) -> tuple[float, int]:
        return state["duration_s"], self.size(state)["segments"]


class TrainVocab:
    """`revspeech train` for every word at 4 and 16 components, then load_model."""

    name = "train_vocab"
    # EM's iteration count swings with the data and the k-means start (a
    # 16-component fit takes 25 to 70 iterations), so a run needs many fits
    # for a steady median: two dozen takes (about 1,500 frames per fit) keep
    # each operation short, and operations rotate over independent take sets.
    takes_per_word = 24
    components = (4, 16)
    take_sets = 12
    held_out_per_word = 8

    def _take(self, work: Path, s, word: str, i: int) -> Path:
        return work / f"set{s}" / f"{word}-{i:02d}.wav"

    def setup(self, work: Path, seed: int, gen) -> None:
        rng = np.random.default_rng([seed, 2])
        for s in list(range(self.take_sets)) + ["held"]:
            (work / f"set{s}").mkdir(parents=True, exist_ok=True)
            count = self.held_out_per_word if s == "held" else self.takes_per_word
            for word in WORDS:
                for i in range(count):
                    write_wav(gen.utterance(word, rng), self._take(work, s, word, i))
        (work / "models").mkdir(exist_ok=True)
        (work / "seed.txt").write_text(str(seed), encoding="utf-8")

    def load(self, work: Path) -> dict:
        return {"work": work, "seed": int((work / "seed.txt").read_text(encoding="utf-8")),
                "first": {}}

    def reference(self, state: dict) -> None:
        """Train take set 0 in-process, so the first check sees models in memory.

        A model read back from disk cannot show a lossy save_model; the one
        train returned can. Its files are the bytes every later operation on
        set 0 must reproduce.
        """
        state["take_s"] = read_wav(self._take(state["work"], 0, WORDS[0], 0)).duration_s
        out = self.replay_op(state, 0, NullTracer())
        state["reference_problems"] = self.guard(state, 0, out)
        for s, word, c, _, path in self._jobs(state, 0):
            state["first"][s, word, c] = path.read_bytes()

    def size(self, state: dict) -> dict:
        return {"audio_s": self.work_done(state)[0], "words": len(WORDS),
                "takes_per_word": self.takes_per_word, "take_sets": self.take_sets,
                "components": list(self.components)}

    def _jobs(self, state: dict, k: int):
        s = k % self.take_sets
        for word in WORDS:
            takes = [self._take(state["work"], s, word, i) for i in range(self.takes_per_word)]
            for c in self.components:
                yield s, word, c, takes, state["work"] / "models" / f"{word}-{c}.gmm"

    def run_op(self, state: dict, k: int) -> dict:
        models, rcs = {}, []
        for s, word, c, takes, out in self._jobs(state, k):
            argv = ["train", "--label", word, "--components", str(c),
                    "--seed", str(state["seed"] + s), "--out", str(out)]
            for path in takes:
                argv += ["--in", str(path)]
            rcs.append(_quiet_cli(argv))
            models[word, c] = load_model(out) if rcs[-1] == 0 else None
        return {"rc": max(rcs), "models": models}

    def replay_op(self, state: dict, k: int, tracer) -> dict:
        feature_cfg = ToolConfig().features
        models, trained = {}, {}
        for s, word, c, takes, out in self._jobs(state, k):
            rows = []
            for path in takes:
                with tracer.span("audio.read_wav"):
                    buf = read_wav(path)
                with tracer.span("features.extract") as counts:
                    matrix = extract(buf, feature_cfg)
                counts["features.frames"] = matrix.num_frames
                rows.append(matrix.rows)
            stacked = np.vstack(rows)
            merged = FeatureMatrix(stacked, len(stacked), matrix.config_fingerprint)
            with tracer.span("gmm.train") as counts:
                model, report = train(merged, c, state["seed"] + s, label=word)
            counts.update({"gmm.em_iterations": report.iterations,
                           "gmm.converged": int(report.converged), "gmm.fits": 1,
                           "components": c})
            with tracer.span("gmm.save_model"):
                save_model(model, out)
            with tracer.span("gmm.load_model"):
                models[word, c] = load_model(out)
            trained[word, c] = model
        return {"rc": 0, "models": models, "trained": trained}

    def check(self, state: dict, k: int, out: dict) -> list[str]:
        if out["rc"] != 0:
            return [f"train exited with code {out['rc']}"]
        problems = _roundtrip_problems(out["models"], state["work"] / "roundtrip.gmm")
        if k == 0:
            problems += state["reference_problems"]
        for (s, word, c, _, path) in self._jobs(state, k):
            data = path.read_bytes()
            if state["first"].setdefault((s, word, c), data) != data:
                problems.append(f"{word}/{c}: model bytes differ between operations")
        if k == 0 and not problems:
            state["label_accuracy"] = self._label_accuracy(state, out["models"])
        return problems

    def guard(self, state: dict, k: int, out: dict) -> list[str]:
        return _roundtrip_problems(out["trained"], state["work"] / "roundtrip.gmm")

    def _label_accuracy(self, state: dict, models: dict) -> float:
        """Held-out takes labelled as their word by each trained vocabulary."""
        feature_cfg = ToolConfig().features
        vocabs = [Vocabulary.from_models([models[w, c] for w in WORDS]) for c in self.components]
        correct = total = 0
        for word in WORDS:
            for i in range(self.held_out_per_word):
                feats = extract(read_wav(self._take(state["work"], "held", word, i)), feature_cfg)
                for vocab in vocabs:
                    correct += classify_segment(feats, vocab)[0] == word
                    total += 1
        return correct / total

    def work_done(self, state: dict) -> tuple[float, int]:
        """Audio seconds and takes read per operation: every take once per fit."""
        takes = len(WORDS) * len(self.components) * self.takes_per_word
        return takes * state["take_s"], takes


def _roundtrip_problems(models: dict, scratch: Path) -> list[str]:
    """Each model validates and load_model(save_model(m)) equals m exactly."""
    problems = []
    for (word, c), model in models.items():
        model.validate()
        save_model(model, scratch)
        again = load_model(scratch)
        same = (again.label, again.dim, again.feature_fingerprint) == (
            model.label, model.dim, model.feature_fingerprint
        ) and all(np.array_equal(getattr(again, f), getattr(model, f))
                  for f in ("weights", "means", "variances"))
        if not same:
            problems.append(f"{word}/{c}: load_model(save_model(m)) differs from m")
    return problems


# Reverse labels that the default lexicon calls antonyms of each word.
FLIPS = {"accept": "reject", "reject": "accept", "login": "logout", "update": "not_update"}
CATEGORY_OF = {"same": "congruent", "synonym": "congruent", "flip": "incongruent"}


class ReportDense:
    """build_report, render (markdown and structured) and parse_report at scale."""

    name = "report_dense"
    segments = 2000  # per side, about half an hour of speech
    flip_frac = 0.10
    synonym_frac = 0.05
    nearest_frac = 0.05  # reverse segment moved into the following gap
    dropped_frac = 0.02  # forward segment with no reverse counterpart

    def setup(self, work: Path, seed: int, gen) -> None:
        """Forward/reverse transcripts with every pairing outcome planted."""
        rng = np.random.default_rng([seed, 3])
        fwd, cursor = [], 0.4
        for _ in range(self.segments):
            length = 0.45 + 0.1 * rng.random()
            word = str(rng.choice(WORDS))
            fwd.append([cursor, cursor + length, word, -40 - rng.random(), rng.random()])
            cursor += length + 0.35 + 0.1 * rng.random()
        duration = cursor
        rev, plan = [], []
        cuts = np.cumsum([self.flip_frac, self.synonym_frac, self.nearest_frac, self.dropped_frac])
        for i, (start, end, word, _, _) in enumerate(fwd):
            u = rng.random()
            if u < cuts[0]:
                kind, label, lo, hi = "flip", FLIPS[word], start, end
            elif u < cuts[1]:
                kind, label, lo, hi = "synonym", "signin" if word == "login" else word, start, end
            elif u < cuts[2]:
                # 50 ms after this segment ends: nearest to it, overlapping nothing
                kind, label, lo, hi = "nearest", "update", end + 0.05, end + 0.15
            elif u < cuts[3]:
                plan.append({"fwd": i, "category": "unmatched"})
                continue
            else:
                kind, label, lo, hi = "same", word, start, end
            if kind != "nearest":
                lo += 0.02 * rng.uniform(-1, 1)
                hi += 0.02 * rng.uniform(-1, 1)
            category = CATEGORY_OF.get(kind) or (
                "congruent" if word == "update" else "expansive")
            rev.append([duration - hi, duration - lo, label, -40 - rng.random(), rng.random()])
            plan.append({"fwd": i, "category": category})
        # reverse transcripts run in reversed time, so their order flips too
        rev.reverse()
        payload = {"duration_s": duration, "forward": fwd, "reverse": rev, "plan": plan}
        (work / "transcripts.json").write_text(json.dumps(payload), encoding="utf-8")

    def load(self, work: Path) -> dict:
        payload = json.loads((work / "transcripts.json").read_text(encoding="utf-8"))
        duration = payload["duration_s"]

        def transcript(rows, direction):
            segs = [SegmentHypothesis(*row, direction) for row in rows]
            return Transcript(segs, direction, duration)

        return {"fwd": transcript(payload["forward"], "forward"),
                "rev": transcript(payload["reverse"], "reverse"),
                "plan": payload["plan"], "duration_s": duration}

    def reference(self, state: dict) -> None:
        state["flips"] = sum(p["category"] == "incongruent" for p in state["plan"])

    def size(self, state: dict) -> dict:
        return {"audio_s": state["duration_s"],
                "segments_per_side": {"forward": len(state["fwd"].segments),
                                      "reverse": len(state["rev"].segments)},
                "planted_flips": state["flips"]}

    def run_op(self, state: dict, k: int) -> dict:
        return self.replay_op(state, k, NullTracer())

    def replay_op(self, state: dict, k: int, tracer) -> dict:
        meta = {"source_file": "session.wav", "tool_config_fingerprint": "0", "timestamp": ""}
        with tracer.span("srsdoc.build_report") as counts:
            report = build_report(state["fwd"], state["rev"], Lexicon.default(), meta)
        with tracer.span("srsdoc.render"):
            markdown = render(report, "markdown")
        with tracer.span("srsdoc.render"):
            structured = render(report, "structured")
        with tracer.span("srsdoc.parse_report"):
            parsed = parse_report(structured)
        counts["srsdoc.pairs"] = len(report.pairs)
        counts["srsdoc.nearest"] = sum(p.note.startswith(NEAREST_NOTE) for p in report.pairs)
        counts["srsdoc.flagged"] = len(report.flagged)
        return {"rc": 0, "report": report, "markdown": markdown,
                "structured": structured, "parsed": parsed}

    def check(self, state: dict, k: int, out: dict) -> list[str]:
        report, parsed = out["report"], out["parsed"]
        problems = []
        if len(report.flagged) != state["flips"]:
            problems.append(f"{len(report.flagged)} flagged pairs, {state['flips']} planted flips")
        if (parsed != report or render(parsed, "structured") != out["structured"]
                or render(parsed, "markdown") != out["markdown"]):
            problems.append("structured round trip is lossy")
        fwd_ids = {id(s) for s in state["fwd"].segments}
        rev_ids = {id(s) for s in state["rev"].segments}
        if {id(p.forward_segment) for p in report.pairs} != fwd_ids or {
            id(p.reverse_segment) for p in report.pairs if p.reverse_segment
        } != rev_ids:
            problems.append("a segment is missing from the pairs")
        if k == 0 and not problems:
            state["label_accuracy"] = self._label_accuracy(state, report)
        return problems

    def guard(self, state: dict, k: int, out: dict) -> list[str]:
        return []  # the untraced operation is this same replay

    def _label_accuracy(self, state: dict, report) -> float:
        """Pairs whose forward partner and category are the planted ones."""
        planted = {}
        rev_iter = iter(reversed(state["rev"].segments))
        for p in state["plan"]:
            rseg = None if p["category"] == "unmatched" else next(rev_iter)
            planted[id(rseg) if rseg else ("unmatched", p["fwd"])] = p
        fwd_index = {id(s): i for i, s in enumerate(state["fwd"].segments)}
        correct = 0
        for pair in report.pairs:
            i = fwd_index[id(pair.forward_segment)]
            key = id(pair.reverse_segment) if pair.reverse_segment else ("unmatched", i)
            p = planted.get(key)
            correct += p is not None and p["fwd"] == i and p["category"] == pair.category
        return correct / len(report.pairs)

    def work_done(self, state: dict) -> tuple[float, int]:
        return state["duration_s"], len(state["fwd"].segments) + len(state["rev"].segments)


WORKLOADS = {w.name: w for w in (AnalyzeSession(), TrainVocab(), ReportDense())}
