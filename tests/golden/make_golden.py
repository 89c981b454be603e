"""Regenerate the golden fixture that pins revspeech's end-to-end outputs.

    PYTHONPATH=src python tests/golden/make_golden.py

writes, next to this script:

- ``report.md`` and ``report.json``: ``revspeech analyze`` at the default
  configuration on a seeded 5-word session;
- ``forward.txt`` and ``reverse.txt``: ``revspeech recognize`` on the same
  session in both directions with ``enhance.method = wiener``;
- ``accept.gmm``: one of the four 4-component word models the two commands
  above use, as ``revspeech train`` writes it.

Run it only when a change is meant to alter these outputs.
``tests/test_golden.py`` rebuilds the same files in a temporary directory
and compares them with these, scores to a tolerance.

The bytes depend on the numpy and OpenBLAS build as well as on the code:
on some machines this script rewrites ``accept.gmm`` and ``report.json`` in
their last digits at an unchanged commit. So to show that a refactor leaves
the outputs alone, do not rely on ``git diff tests/golden``: build the files
into two scratch directories on one machine, once from the parent commit and
once from the change (``build_outputs(out_dir)``), and compare those.
"""

import os
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from conftest import build_session, utterance  # noqa: E402
from revspeech import write_wav  # noqa: E402
from revspeech.cli import run  # noqa: E402

WORDS = ("accept", "reject", "update", "login")
SESSION_WORDS = ("accept", "update", "reject", "login", "accept")
TAKES = 6
COMPONENTS = 4
SEED = 5
GOLDEN_FILES = ("report.md", "report.json", "forward.txt", "reverse.txt", "accept.gmm")


def _check(argv) -> None:
    code = run(argv)
    if code != 0:
        raise RuntimeError(f"revspeech {' '.join(argv)} exited with {code}")


def build_outputs(out_dir) -> None:
    """Write every golden file, and the inputs they come from, into out_dir.

    Commands run inside out_dir with relative paths, so the report's
    source_file does not depend on where the fixture is built.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(2024)
    takes = {}
    for word in WORDS:
        takes[word] = [f"{word}_{i}.wav" for i in range(TAKES)]
        for name in takes[word]:
            write_wav(utterance(word, rng), out_dir / name)
    session, _ = build_session(rng, words=SESSION_WORDS)
    write_wav(session, out_dir / "session.wav")
    (out_dir / "wiener.cfg").write_text("enhance.method = wiener\n", encoding="utf-8")

    previous = os.getcwd()
    os.chdir(out_dir)
    try:
        models = []
        for word in WORDS:
            argv = ["train", "--seed", str(SEED), "--label", word,
                    "--components", str(COMPONENTS), "--out", f"{word}.gmm"]
            for name in takes[word]:
                argv += ["--in", name]
            _check(argv)
            models += ["--model", f"{word}.gmm"]
        _check(["analyze", "--in", "session.wav", *models, "--out-dir", "."])
        for direction in ("forward", "reverse"):
            _check(["--config", "wiener.cfg", "recognize", "--in", "session.wav",
                    *models, "--direction", direction, "--out", f"{direction}.txt"])
    finally:
        os.chdir(previous)


def main() -> None:
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        build_outputs(tmp)
        for name in GOLDEN_FILES:
            shutil.copyfile(Path(tmp) / name, HERE / name)
    print(f"wrote {', '.join(GOLDEN_FILES)} to {HERE}")


if __name__ == "__main__":
    main()
