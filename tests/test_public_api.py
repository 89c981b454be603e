"""The package's public surface: exported names, their users, and its imports."""

import ast
import importlib.util
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import revspeech
from conftest import build_session, train_vocabulary
from revspeech import save_model, write_wav

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    for name in revspeech.__all__:
        assert getattr(revspeech, name) is not None, name


def test_the_benchmark_imports_only_exported_names():
    # a name the benchmark needs must stay exported; its submodule imports
    # must name what those modules define
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("revspeech")
    ]
    assert imports
    for node in imports:
        for alias in node.names:
            if node.module == "revspeech":
                submodule = importlib.util.find_spec(f"revspeech.{alias.name}")
                assert alias.name in revspeech.__all__ or submodule, alias.name
            else:
                assert hasattr(importlib.import_module(node.module), alias.name), alias.name


def test_readme_library_use_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)

    session, _ = build_session(np.random.default_rng(5))
    write_wav(session, tmp_path / "session.wav")
    vocab = train_vocabulary(["accept", "reject"], utterances=4)
    save_model(replace(vocab.entries["accept"], label="yes"), tmp_path / "yes.gmm")
    save_model(replace(vocab.entries["reject"], label="no"), tmp_path / "no.gmm")

    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert "# " in capsys.readouterr().out


def test_numpy_is_the_only_runtime_dependency():
    # numpy first, with numpy.random, which it loads lazily: the Cython
    # runtime modules that numpy's extensions bring in are not ours
    probe = (
        "import sys, numpy, numpy.random\n"
        "before = set(sys.modules)\n"
        "import revspeech\n"
        "print(' '.join(sorted({name.split('.')[0] for name in set(sys.modules) - before})))\n"
    )
    src = str(Path(revspeech.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    added = set(out.split())
    assert "revspeech" in added
    assert added - {"revspeech", "numpy"} <= set(sys.stdlib_module_names), sorted(added)


def test_import_does_not_load_numpy_random():
    # no command but train draws a random number; numpy 1.x loads
    # numpy.random on import, so only a numpy that does not is checked
    probe = (
        "import sys, numpy\n"
        "lazy = 'numpy.random' not in sys.modules\n"
        "import revspeech\n"
        "print(lazy, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(revspeech.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    lazy, loaded = out.split()
    assert lazy == "False" or loaded == "False"


def test_benchmark_loads_conftest_without_pytest():
    # perfbench/workloads.py:load_generators executes conftest.py for its
    # signal builders; pytest and hypothesis would only add to its peak RSS
    probe = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('generators', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(sorted({'pytest', 'hypothesis'} & set(sys.modules)))\n"
    )
    src = str(Path(revspeech.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe, str(ROOT / "tests" / "conftest.py")],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.strip() == "[]"


def unused_imports(source: str) -> list[str]:
    """Module-level imported names that the module never reads or exports."""
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    # no linter runs on the package, so a deletion could leave a dead import
    package = Path(revspeech.__file__).resolve().parent
    unused = {
        path.name: names
        for path in sorted(package.glob("*.py"))
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_framing_is_defined_beside_the_frames_alone():
    # the rule that cuts frames lives with the frames it cuts, so
    # enhancement frames a recording without the MFCC module
    package = Path(revspeech.__file__).resolve().parent
    names = {"FrameSpec", "framing", "hamming_coefficients", "MAX_FFT_SIZE", "MAX_UTTERANCE_S"}
    defined = {name: [] for name in names}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                bound = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [target.id for target in targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names.intersection(bound):
                defined[name].append(path.name)
    assert defined == {name: ["audio.py"] for name in names}
    enhance = ast.parse((package / "enhance.py").read_text(encoding="utf-8"))
    imported = [
        node.module or alias.name
        for node in ast.walk(enhance) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert "features" not in imported, imported
