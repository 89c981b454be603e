"""End-to-end subcommand behavior and exit codes."""

import importlib.util
import json
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import build_session, utterance
from revspeech import (
    AudioBuffer,
    FeatureConfig,
    FeatureMatrix,
    Vocabulary,
    analyze,
    estimate_noise,
    extract,
    parse_report,
    read_wav,
    render,
    write_wav,
)
from revspeech.cli import run
from revspeech.config import ToolConfig
from revspeech.errors import InsufficientDataError
from revspeech.gmm import load_model, save_model
from revspeech.recognizer import segment_utterances

WORDS = ("accept", "reject", "update", "login")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Utterance and session WAVs plus trained model files."""
    root = tmp_path_factory.mktemp("cli")
    rng = np.random.default_rng(77)

    takes = {}
    for word in WORDS:
        paths = []
        for i in range(6):
            path = root / f"{word}_{i}.wav"
            write_wav(utterance(word, rng), path)
            paths.append(path)
        takes[word] = paths

    models = {}
    for word in WORDS:
        model_path = root / f"{word}.gmm"
        argv = ["train", "--label", word, "--components", "2",
                "--out", str(model_path)]
        for p in takes[word]:
            argv += ["--in", str(p)]
        assert run(argv) == 0
        models[word] = model_path

    session, spans = build_session(np.random.default_rng(202))
    session_path = root / "session.wav"
    write_wav(session, session_path)

    lexicon_path = root / "lexicon.csv"
    lexicon_path.write_text("# project word relations\naccept, antonym-of, reject\n")

    return {
        "root": root,
        "takes": takes,
        "models": models,
        "session": session_path,
        "spans": spans,
        "lexicon": lexicon_path,
    }


def model_args(workspace):
    args = []
    for path in workspace["models"].values():
        args += ["--model", str(path)]
    return args


class TestReverseCommand:
    def test_double_reverse_restores_payload(self, workspace, tmp_path):
        source = workspace["takes"]["update"][0]
        once = tmp_path / "once.wav"
        twice = tmp_path / "twice.wav"
        assert run(["reverse", "--in", str(source), "--out", str(once)]) == 0
        assert run(["reverse", "--in", str(once), "--out", str(twice)]) == 0
        original = read_wav(source)
        roundtrip = read_wav(twice)
        np.testing.assert_array_equal(roundtrip.samples, original.samples)


class TestEnhanceCommand:
    def test_writes_output_and_noise_profile(self, workspace, tmp_path):
        out = tmp_path / "clean.wav"
        profile = tmp_path / "noise.txt"
        code = run(
            ["enhance", "--in", str(workspace["session"]), "--out", str(out),
             "--noise-out", str(profile)]
        )
        assert code == 0
        cleaned = read_wav(out)
        noisy = read_wav(workspace["session"])
        assert len(cleaned.samples) == len(noisy.samples)
        lines = profile.read_text().splitlines()
        assert lines[0] == "noise-profile-v1"
        assert lines[1].startswith("frames_used:")
        assert lines[2] == "bins: 512"
        magnitudes = [float(v) for v in lines[3:]]
        assert len(magnitudes) == 512
        assert all(m >= 0 for m in magnitudes)
        # the file holds the profile's half spectrum, then its mirror
        half = estimate_noise(noisy, ToolConfig().enhance).mean_magnitude[:257]
        assert magnitudes[:257] == half.tolist()
        assert magnitudes[257:] == magnitudes[255:0:-1]

    def test_wiener_method_flag(self, workspace, tmp_path):
        out = tmp_path / "clean_w.wav"
        code = run(
            ["enhance", "--method", "wiener", "--in", str(workspace["session"]),
             "--out", str(out)]
        )
        assert code == 0
        assert out.exists()


class TestFeaturesCommand:
    def test_json_output(self, workspace, tmp_path):
        out = tmp_path / "feats.json"
        source = workspace["takes"]["login"][0]
        assert run(["features", "--in", str(source), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["dim"] == 39
        assert payload["num_frames"] == len(payload["rows"])
        assert len(payload["rows"][0]) == 39
        matrix = extract(read_wav(source), FeatureConfig())
        expected = json.dumps({
            "config_fingerprint": matrix.config_fingerprint,
            "num_frames": matrix.num_frames,
            "dim": matrix.dim,
            "rows": [list(row) for row in matrix.rows],
        }, sort_keys=True, indent=2) + "\n"
        assert out.read_text(encoding="utf-8") == expected

    def test_csv_output(self, workspace, tmp_path):
        out = tmp_path / "feats.csv"
        source = workspace["takes"]["login"][0]
        assert run(
            ["features", "--format", "csv", "--in", str(source), "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["frame", "f0"]
        cells = lines[1].split(",")
        assert len(cells) == 40
        assert cells[0] == "0"
        assert all(np.isfinite(float(c)) for c in cells[1:])
        matrix = extract(read_wav(source), FeatureConfig())
        expected = [",".join(["frame"] + [f"f{i}" for i in range(39)])]
        expected += [",".join([str(i)] + [repr(float(v)) for v in row])
                     for i, row in enumerate(matrix.rows)]
        assert out.read_text(encoding="utf-8") == "\n".join(expected) + "\n"

    @pytest.mark.parametrize("fmt, bound", [("json", 6.0), ("csv", 1.0)])
    def test_writes_the_document_as_it_encodes(self, tmp_path, monkeypatch, fmt, bound):
        # the traced peak, per byte of the matrix, stays below what holding
        # the whole document as one string would need
        rows = np.random.default_rng(5).standard_normal((5000, 39))
        matrix = FeatureMatrix(rows, len(rows), "0123456789abcdef")
        monkeypatch.setattr("revspeech.features.extract", lambda buf, cfg: matrix)
        source = tmp_path / "tiny.wav"
        write_wav(AudioBuffer(np.zeros(800) + 0.01, 16000), source)
        argv = ["features", "--format", fmt, "--in", str(source),
                "--out", str(tmp_path / f"feats.{fmt}")]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rows.nbytes < bound


class TestTrainCommand:
    def test_model_file_loads(self, workspace):
        model = load_model(workspace["models"]["accept"])
        assert model.label == "accept"
        assert model.dim == 39

    def test_same_seed_is_byte_identical(self, workspace, tmp_path):
        first = tmp_path / "m1.gmm"
        second = tmp_path / "m2.gmm"
        base = ["train", "--label", "update", "--components", "2", "--seed", "5"]
        inputs = []
        for p in workspace["takes"]["update"]:
            inputs += ["--in", str(p)]
        assert run(base + inputs + ["--out", str(first)]) == 0
        assert run(base + inputs + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_takes_are_extracted_in_batches(self, workspace, tmp_path, transform_counts):
        # the takes share framings, yet the model is byte for byte the one
        # trained on each take's own extract, stacked in order
        from revspeech.gmm import save_model, train

        paths = workspace["takes"]["update"]
        stacked = np.vstack([extract(read_wav(p), FeatureConfig()).rows for p in paths])
        merged = FeatureMatrix(stacked, len(stacked), FeatureConfig().fingerprint(16000))
        model, _ = train(merged, 2, 5, label="update")
        save_model(model, tmp_path / "alone.gmm")
        transform_counts.clear()
        argv = ["train", "--label", "update", "--components", "2", "--seed", "5",
                "--out", str(tmp_path / "batched.gmm")]
        for p in paths:
            argv += ["--in", str(p)]
        assert run(argv) == 0
        assert (tmp_path / "batched.gmm").read_bytes() == (tmp_path / "alone.gmm").read_bytes()
        framings = sum(c["framings"] for c in transform_counts.values())
        assert sum(c["analyzed"] for c in transform_counts.values()) == len(stacked)
        assert framings < len(paths)

    def test_mixed_sample_rates_rejected(self, workspace, tmp_path):
        other_rate = tmp_path / "slow.wav"
        write_wav(AudioBuffer(np.zeros(8000) + 0.01, 8000), other_rate)
        argv = ["train", "--label", "x", "--components", "2",
                "--out", str(tmp_path / "x.gmm"),
                "--in", str(workspace["takes"]["update"][0]),
                "--in", str(other_rate)]
        assert run(argv) == 2

    @pytest.mark.parametrize("components", ["1", "4"])
    def test_silence_is_data_error(self, tmp_path, capsys, components):
        silence = tmp_path / "silence.wav"
        write_wav(AudioBuffer(np.zeros(16000), 16000), silence)
        argv = ["train", "--label", "x", "--components", components,
                "--in", str(silence), "--out", str(tmp_path / "x.gmm")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "distinct" in err
        assert not (tmp_path / "x.gmm").exists()

    @pytest.mark.parametrize("label", [" yes", "yes\t", "ye\ns", "yes\r"])
    def test_label_that_would_not_load_back_is_data_error(
        self, workspace, tmp_path, capsys, label
    ):
        # load_model strips each value and splits lines, so such a label
        # would come back changed or not at all
        out = tmp_path / "x.gmm"
        argv = ["train", "--label", label, "--components", "2", "--out", str(out),
                "--in", str(workspace["takes"]["update"][0])]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(label) in err, err
        assert not out.exists()

    def test_label_is_checked_before_any_take_is_read(self, workspace, tmp_path, capsys):
        # two sample rates would fail the takes; the label error comes first
        other_rate = tmp_path / "slow.wav"
        write_wav(AudioBuffer(np.zeros(8000) + 0.01, 8000), other_rate)
        argv = ["train", "--label", " yes", "--components", "2",
                "--out", str(tmp_path / "x.gmm"),
                "--in", str(workspace["takes"]["update"][0]),
                "--in", str(other_rate)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: label ' yes' would not load back as written\n", err

    def test_different_seed_changes_model(self, workspace, tmp_path):
        first = tmp_path / "s1.gmm"
        second = tmp_path / "s2.gmm"
        inputs = []
        for p in workspace["takes"]["update"]:
            inputs += ["--in", str(p)]
        run(["train", "--label", "u", "--components", "2", "--seed", "1",
             "--out", str(first)] + inputs)
        run(["train", "--label", "u", "--components", "2", "--seed", "2",
             "--out", str(second)] + inputs)
        # models may coincide numerically, but both must load cleanly
        assert load_model(first).label == load_model(second).label == "u"


class TestRecognizeCommand:
    def test_transcript_lines(self, workspace, tmp_path, capsys):
        out = tmp_path / "transcript.txt"
        code = run(
            ["recognize", "--in", str(workspace["session"]), "--out", str(out)]
            + model_args(workspace)
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed == out.read_text()
        lines = printed.splitlines()
        assert lines[0].startswith("transcript direction=forward")
        labels = [line.split("\t")[2] for line in lines[1:]]
        assert labels == [w for w, _, _ in workspace["spans"]]

    def test_reverse_direction(self, workspace, capsys):
        code = run(
            ["recognize", "--direction", "reverse", "--in", str(workspace["session"])]
            + model_args(workspace)
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("transcript direction=reverse")
        labels = [line.split("\t")[2] for line in lines[1:]]
        assert labels == ["login", "update", "reject"]


class TestAnalyzeCommand:
    def analyze(self, workspace, out_dir, extra=()):
        argv = (
            ["analyze", "--in", str(workspace["session"]),
             "--lexicon", str(workspace["lexicon"]), "--out-dir", str(out_dir)]
            + model_args(workspace)
            + list(extra)
        )
        return run(argv)

    def test_report_files_and_flagged_pair(self, workspace, tmp_path):
        out_dir = tmp_path / "report"
        assert self.analyze(workspace, out_dir) == 0
        report = parse_report((out_dir / "report.json").read_text())
        assert [r.text for r in report.requirements] == ["accept", "update", "login"]
        assert len(report.flagged) == 1
        assert report.flagged[0].reverse_segment.label == "reject"
        markdown = (out_dir / "report.md").read_text()
        assert "## Flagged Inconsistencies" in markdown
        assert "None detected." not in markdown

    def test_byte_identical_across_runs(self, workspace, tmp_path):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert self.analyze(workspace, first) == 0
        assert self.analyze(workspace, second) == 0
        assert (first / "report.json").read_bytes() == (second / "report.json").read_bytes()
        assert (first / "report.md").read_bytes() == (second / "report.md").read_bytes()

    def test_timestamp_recorded(self, workspace, tmp_path):
        out_dir = tmp_path / "stamped"
        assert self.analyze(workspace, out_dir, ["--timestamp", "2026-08-08T12:00:00Z"]) == 0
        report = parse_report((out_dir / "report.json").read_text())
        assert report.timestamp == "2026-08-08T12:00:00Z"


def test_library_analyze_renders_what_the_command_writes(tmp_path):
    """On the golden session, the command's files are render(analyze(...)) exactly."""
    path = Path(__file__).resolve().parent / "golden" / "make_golden.py"
    spec = importlib.util.spec_from_file_location("make_golden", path)
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    make_golden.build_outputs(tmp_path)

    models = [load_model(tmp_path / f"{word}.gmm") for word in make_golden.WORDS]
    buf = read_wav(tmp_path / "session.wav")
    report = analyze(buf, Vocabulary.from_models(models), ToolConfig(), "session.wav")
    for name, fmt in (("report.md", "markdown"), ("report.json", "structured")):
        assert render(report, fmt).encode("utf-8") == (tmp_path / name).read_bytes()


class TestConfigAndErrors:
    def test_config_file_changes_behavior(self, workspace, tmp_path):
        cfg_path = tmp_path / "tool.cfg"
        cfg_path.write_text("features.num_ceps = 10\n")
        out = tmp_path / "feats10.json"
        source = workspace["takes"]["login"][0]
        code = run(
            ["--config", str(cfg_path), "features", "--in", str(source),
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["dim"] == 30

    def test_verbose_prints_effective_config(self, workspace, tmp_path, capsys):
        out = tmp_path / "f.json"
        source = workspace["takes"]["login"][0]
        code = run(
            ["--verbose", "--seed", "123", "features", "--in", str(source),
             "--out", str(out)]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "seed = 123" in err
        assert "features.num_ceps = 13" in err
        assert "enhance.method = spectral_subtraction" in err

    def test_unknown_flag_is_usage_error(self, workspace):
        assert run(["reverse", "--nope", "x"]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run([]) == 1

    def test_missing_input_is_data_error(self, tmp_path):
        code = run(
            ["reverse", "--in", str(tmp_path / "ghost.wav"),
             "--out", str(tmp_path / "out.wav")]
        )
        assert code == 2

    def test_malformed_wav_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"RIFFxxxxJUNK")
        assert run(["reverse", "--in", str(bad), "--out", str(tmp_path / "o.wav")]) == 2

    def test_bad_model_is_data_error(self, workspace, tmp_path):
        bad = tmp_path / "bad.gmm"
        bad.write_text("gmm-v9\n")
        code = run(
            ["recognize", "--in", str(workspace["session"]), "--model", str(bad),
             "--model", str(bad)]
        )
        assert code == 2

    def test_model_with_repeated_key_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "accept.gmm"
        text = workspace["models"]["accept"].read_text()
        weights = next(line for line in text.splitlines() if line.startswith("weights:"))
        bad.write_text(text + weights + "\n")
        argv = ["recognize", "--in", str(workspace["session"]), "--model", str(bad),
                "--model", str(workspace["models"]["reject"])]
        assert run(argv) == 2
        assert "repeated key 'weights'" in capsys.readouterr().err

    def test_bad_config_is_data_error(self, workspace, tmp_path):
        cfg_path = tmp_path / "broken.cfg"
        cfg_path.write_text("nonsense.key = 1\n")
        out = tmp_path / "o.wav"
        source = workspace["takes"]["login"][0]
        code = run(
            ["--config", str(cfg_path), "reverse", "--in", str(source),
             "--out", str(out)]
        )
        assert code == 2

    def test_config_key_given_twice_is_data_error(self, workspace, tmp_path, capsys):
        cfg_path = tmp_path / "twice.cfg"
        cfg_path.write_text("enhance.method = wiener\nenhance.method = spectral_subtraction\n")
        out = tmp_path / "clean.wav"
        argv = ["--config", str(cfg_path), "enhance",
                "--in", str(workspace["takes"]["login"][0]), "--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'enhance.method'" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("reader", ["--config", "--lexicon", "--model"])
    def test_text_input_that_is_not_utf8_is_data_error(
        self, workspace, tmp_path, capsys, reader
    ):
        bad = tmp_path / "utf16.txt"
        bad.write_bytes(b"\xff\xfea\x00=\x001\x00\n\x00")
        argv = ["analyze", "--in", str(workspace["session"]), *model_args(workspace),
                "--out-dir", str(tmp_path / "out"), reader, str(bad)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err, err
        assert not (tmp_path / "out").exists()

    def test_lexicon_with_conflicting_relations_is_data_error(self, workspace, tmp_path, capsys):
        lexicon = tmp_path / "conflict.csv"
        lexicon.write_text("accept, antonym-of, reject\nreject, synonym-of, accept\n")
        argv = ["analyze", "--in", str(workspace["session"]), *model_args(workspace),
                "--out-dir", str(tmp_path / "out"), "--lexicon", str(lexicon)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "line 2" in err and "'reject'" in err, err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--config", ""),
        ("--lexicon", ""),
        ("--config", "lexicon.cfg"),  # report.lexicon set to the empty path
        ("--noise-out", ""),  # enhance
        ("--out", ""),  # recognize
        ("--out-dir", ""),  # analyze
    ])
    def test_empty_path_is_data_error(
        self, workspace, tmp_path, monkeypatch, capsys, flag, value
    ):
        # an empty path names no file; it must not stand for the default,
        # nor for no file at all; an empty output path is refused before
        # any output: no enhanced WAV, no transcript on stdout, no report
        lexicon_cfg = tmp_path / "lexicon.cfg"
        lexicon_cfg.write_text("report.lexicon =\n")
        monkeypatch.chdir(tmp_path)
        command = {
            "--noise-out": ["enhance", "--out", "clean.wav"],
            "--out": ["recognize", *model_args(workspace)],
        }.get(flag, ["analyze", *model_args(workspace), "--out-dir", "out"])
        argv = [command[0], "--in", str(workspace["session"]), *command[1:], flag, value]
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and "''" in err, err
        assert out == ""
        assert list(tmp_path.iterdir()) == [lexicon_cfg]

    def test_empty_data_chunk_is_data_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.wav"
        # a well-formed 16-bit mono header whose data chunk holds no samples
        empty.write_bytes(
            b"RIFF" + (36).to_bytes(4, "little") + b"WAVEfmt "
            + bytes.fromhex("10000000 0100 0100 803e0000 007d0000 0200 1000")
            + b"data" + (0).to_bytes(4, "little")
        )
        assert read_wav(empty).samples.size == 0
        commands = {
            "enhance": ["--out", str(tmp_path / "o.wav")],
            "reverse": ["--out", str(tmp_path / "o.wav")],
            "features": ["--out", str(tmp_path / "o.json")],
            "train": ["--label", "x", "--out", str(tmp_path / "x.gmm")],
            "recognize": model_args(workspace),
            "analyze": [*model_args(workspace), "--out-dir", str(tmp_path / "out")],
        }
        for command, extra in commands.items():
            assert run([command, "--in", str(empty), *extra]) == 2, command
            err = capsys.readouterr().err
            assert "error:" in err and "no samples" in err, command
        assert list(tmp_path.iterdir()) == [empty]

    def test_digital_silence_is_data_error(self, workspace, tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        write_wav(AudioBuffer(np.zeros(16000), 16000), silent)
        with pytest.raises(InsufficientDataError) as forward:
            segment_utterances(read_wav(silent))
        threads = threading.active_count()
        argv = ["analyze", "--in", str(silent), *model_args(workspace),
                "--out-dir", str(tmp_path / "out")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "same energy" in err, err
        # the forward pass's message, and no thread outlives the command
        assert err == f"error: {forward.value}\n"
        assert threading.active_count() == threads
        assert not (tmp_path / "out").exists()

    def test_recording_shorter_than_the_smoothing_window(self, workspace, tmp_path):
        # 995 samples are 4 endpoint frames at the defaults, against 5 smoothing frames
        rng = np.random.default_rng(19)
        samples = 0.5 * rng.standard_normal(995) * np.linspace(0, 1, 995) ** 4
        short = tmp_path / "short.wav"
        write_wav(AudioBuffer(samples, 16000), short)
        out = tmp_path / "short.txt"
        argv = ["recognize", "--in", str(short), "--out", str(out), *model_args(workspace)]
        assert run(argv) == 0
        assert out.read_text().startswith("transcript direction=forward")
        argv = ["analyze", "--in", str(short), "--lexicon", str(workspace["lexicon"]),
                "--out-dir", str(tmp_path / "report"), *model_args(workspace)]
        assert run(argv) == 0
        assert parse_report((tmp_path / "report" / "report.json").read_text()).pairs

    @pytest.mark.parametrize("line", [
        "enhance.alpha = nan",
        "enhance.frame_ms = nan",
        "features.frame_ms = inf",
        "endpoint.frame_ms = 0",
        "endpoint.smooth_frames = 0",
        "endpoint.overlap_fraction = 1.5",
        "endpoint.energy_ratio = -1",
        "features.low_freq_hz = -100",
    ])
    def test_invalid_config_value_is_data_error(self, workspace, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(line + "\n")
        argv = ["--config", str(cfg_path), "analyze", "--in", str(workspace["session"]),
                *model_args(workspace), "--out-dir", str(tmp_path / "out")]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, line", [
        ("features", "features.frame_ms = 0.01"),
        ("analyze", "enhance.frame_ms = 0.01"),
        ("analyze", "endpoint.frame_ms = 0.01"),
    ])
    def test_frame_shorter_than_one_sample_is_data_error(
        self, workspace, tmp_path, capsys, command, line
    ):
        cfg_path = tmp_path / "short.cfg"
        cfg_path.write_text(line + "\n")
        extra = {
            "features": ["--out", str(tmp_path / "f.json")],
            "analyze": [*model_args(workspace), "--out-dir", str(tmp_path / "out")],
        }[command]
        argv = ["--config", str(cfg_path), command,
                "--in", str(workspace["takes"]["login"][0]), *extra]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "shorter than one sample" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["short.cfg"]

    @pytest.mark.parametrize("extra", [
        ["--seed", "-1"],
        ["--components", "0"],
        ["--components", "-3"],
        ["--config", "seed.cfg"],  # a negative seed from a config file
    ])
    def test_bad_train_argument_is_data_error(
        self, workspace, tmp_path, monkeypatch, capsys, extra
    ):
        (tmp_path / "seed.cfg").write_text("seed = -1\n")
        monkeypatch.chdir(tmp_path)
        argv = ["train", "--in", str(workspace["takes"]["accept"][0]),
                "--label", "x", "--out", "x.gmm", *extra]
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "x.gmm").exists()

    @pytest.mark.parametrize("command", ["recognize", "analyze"])
    def test_model_dimension_mismatch_is_data_error(self, workspace, tmp_path, capsys, command):
        # the models load, agree with each other and carry the features'
        # fingerprint, but have 2 dimensions where the features have 39
        argv = [command, "--in", str(workspace["session"])]
        for word in ("accept", "reject"):
            model = load_model(workspace["models"][word])
            narrow = replace(
                model, dim=2, means=model.means[:, :2], variances=model.variances[:, :2]
            )
            save_model(narrow, tmp_path / f"{word}.gmm")
            argv += ["--model", str(tmp_path / f"{word}.gmm")]
        if command == "analyze":
            argv += ["--out-dir", str(tmp_path / "out")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dimension 39" in err

    def test_single_model_is_data_error(self, workspace, tmp_path, capsys):
        argv = ["analyze", "--in", str(workspace["session"]),
                "--model", str(workspace["models"]["accept"]),
                "--out-dir", str(tmp_path / "out")]
        assert run(argv) == 2
        assert "at least 2 labels" in capsys.readouterr().err

    def test_duplicate_label_is_data_error(self, workspace, capsys):
        model = str(workspace["models"]["accept"])
        argv = ["recognize", "--in", str(workspace["session"]),
                "--model", model, "--model", model]
        assert run(argv) == 2
        assert "duplicate label" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        capsys.readouterr()
