"""Subcommand front door: enhance, reverse, features, train, recognize, analyze.

Exit codes: 0 success, 1 usage error, 2 data or format error. All
randomness flows from --seed; nothing reads a clock unless --timestamp is
given, so identical invocations produce identical output files.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import audio, enhance, features, gmm, recognizer, srsdoc
from .config import ToolConfig, dump_config, load_config
from .errors import ConfigError, InsufficientDataError, RevspeechError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="revspeech", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None,
                        help="config file applied over built-in defaults")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every stochastic step")
    parser.add_argument("-v", "--verbose", action="store_true", default=False,
                        help="print the effective configuration")

    # the same flags are accepted after the subcommand; SUPPRESS keeps an
    # omitted subcommand-level flag from clobbering a root-level value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("-v", "--verbose", action="store_true",
                        default=argparse.SUPPRESS)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", parents=[common],
                       help="remove additive background noise")
    p.add_argument("--in", dest="input", required=True, help="input WAV")
    p.add_argument("--out", required=True, help="enhanced WAV")
    p.add_argument("--method", choices=enhance.METHODS, help="enhancement method")
    p.add_argument("--noise-out", help="write the estimated noise profile here")

    p = sub.add_parser("reverse", parents=[common], help="time-reverse a recording")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("features", parents=[common],
                       help="extract the cepstral feature matrix")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("train", parents=[common],
                       help="fit a word model from recordings")
    p.add_argument("--in", dest="inputs", action="append", required=True,
                   help="training WAV (repeatable)")
    p.add_argument("--label", required=True, help="word label for the model")
    p.add_argument("--out", required=True, help="model file")
    p.add_argument("--components", type=int, default=4, help="mixture size")

    p = sub.add_parser("recognize", parents=[common],
                       help="transcribe a recording against models")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", dest="models", action="append", required=True,
                   help="model file (repeatable)")
    p.add_argument("--direction", choices=recognizer.DIRECTIONS, default="forward")
    p.add_argument("--out", help="write the transcript here too")

    p = sub.add_parser("analyze", parents=[common],
                       help="full forward+reverse analysis with SRS report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--model", dest="models", action="append", required=True)
    p.add_argument("--lexicon", help="synonym/antonym table (CSV triples)")
    p.add_argument("--out-dir", required=True, help="directory for report.md/report.json")
    p.add_argument("--timestamp", default="", help="timestamp recorded in the report")

    return parser


def _effective_config(args) -> ToolConfig:
    cfg = ToolConfig()
    if args.config is not None:
        cfg = load_config(args.config, cfg)
    if args.seed is not None:
        cfg.seed = args.seed
    if getattr(args, "method", None):
        cfg.enhance.method = args.method
    if getattr(args, "lexicon", None) is not None:
        cfg.lexicon_path = args.lexicon
    return cfg


def _write_noise_profile(profile: enhance.NoiseProfile, path) -> None:
    """noise-profile-v1 holds all fft_size bins: the half spectrum, then its mirror."""
    half = profile.mean_magnitude
    values = [f"{v:.17g}" for v in (*half, *half[-2:0:-1])]
    header = ["noise-profile-v1", f"frames_used: {profile.frames_used}", f"bins: {len(values)}"]
    Path(path).write_text("\n".join(header + values) + "\n", encoding="utf-8")


def _transcript_text(transcript: recognizer.Transcript) -> str:
    lines = [
        f"transcript direction={transcript.direction} "
        f"duration={transcript.source_duration_s:.3f}"
    ]
    for seg in transcript.segments:
        lines.append(
            f"{seg.start_s:.3f}\t{seg.end_s:.3f}\t{seg.label}\t"
            f"{seg.score:.6f}\t{seg.margin:.6f}\t{seg.direction}"
        )
    return "\n".join(lines) + "\n"


def _read_audio(path) -> audio.AudioBuffer:
    buf = audio.read_wav(path)
    if len(buf.samples) == 0:
        raise InsufficientDataError(f"{path}: recording has no samples")
    return buf


def _load_vocabulary(model_paths) -> recognizer.Vocabulary:
    return recognizer.Vocabulary.from_models([gmm.load_model(p) for p in model_paths])


def _cmd_enhance(args, cfg: ToolConfig) -> int:
    buf = _read_audio(args.input)
    cleaned, profile = enhance.estimate_and_denoise(buf, cfg.enhance)
    audio.write_wav(cleaned, args.out)
    if args.noise_out is not None:
        _write_noise_profile(profile, args.noise_out)
    return EXIT_OK


def _cmd_reverse(args, cfg: ToolConfig) -> int:
    audio.write_wav(audio.reverse(_read_audio(args.input)), args.out)
    return EXIT_OK


def _cmd_features(args, cfg: ToolConfig) -> int:
    matrix = features.extract(_read_audio(args.input), cfg.features)
    # encode straight into the file: the document is never held whole
    with open(args.out, "w", encoding="utf-8") as fh:
        if args.format == "csv":
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["frame"] + [f"f{i}" for i in range(matrix.dim)])
            for i, row in enumerate(matrix.rows):
                writer.writerow([i] + [repr(float(v)) for v in row])
        else:
            payload = {
                "config_fingerprint": matrix.config_fingerprint,
                "num_frames": matrix.num_frames,
                "dim": matrix.dim,
                "rows": matrix.rows.tolist(),
            }
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_train(args, cfg: ToolConfig) -> int:
    if args.components < 1:
        raise ConfigError(f"--components must be >= 1, got {args.components}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    gmm.check_label(args.label)
    takes = (_read_audio(path) for path in args.inputs)
    matrices = list(features.extract_all(takes, cfg.features))  # one rate, or ConfigError
    rows = np.vstack([matrix.rows for matrix in matrices])
    merged = features.FeatureMatrix(rows, len(rows), matrices[0].config_fingerprint)
    model, report = gmm.train(
        merged, args.components, cfg.seed, label=args.label
    )
    gmm.save_model(model, args.out)
    print(
        f"trained '{args.label}': {args.components} components, "
        f"{report.iterations} iterations, converged={report.converged}"
    )
    return EXIT_OK


def _cmd_recognize(args, cfg: ToolConfig) -> int:
    vocab = _load_vocabulary(args.models)
    transcript = recognizer.transcribe(
        _read_audio(args.input), vocab, args.direction,
        cfg.enhance, cfg.features, cfg.endpoint,
    )
    text = _transcript_text(transcript)
    sys.stdout.write(text)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    return EXIT_OK


def _cmd_analyze(args, cfg: ToolConfig) -> int:
    buf, vocab = _read_audio(args.input), _load_vocabulary(args.models)
    report = srsdoc.analyze(buf, vocab, cfg, args.input, args.timestamp)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, fmt in (("report.md", "markdown"), ("report.json", "structured")):
        (out_dir / name).write_text(srsdoc.render(report, fmt), encoding="utf-8")
    print(
        f"{len(report.requirements)} requirements, "
        f"{len(report.flagged)} flagged inconsistencies -> {out_dir}"
    )
    return EXIT_OK


_HANDLERS = {
    "enhance": _cmd_enhance,
    "reverse": _cmd_reverse,
    "features": _cmd_features,
    "train": _cmd_train,
    "recognize": _cmd_recognize,
    "analyze": _cmd_analyze,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help and friends
        return int(exc.code or 0)

    try:
        for dest in ("out", "noise_out", "out_dir"):  # checked before any output is written
            if getattr(args, dest, None) == "":
                raise ConfigError(f"--{dest.replace('_', '-')} '' is an empty output path")
        cfg = _effective_config(args)
        if args.verbose:
            sys.stderr.write(dump_config(cfg))
        return _HANDLERS[args.command](args, cfg)
    except RevspeechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
