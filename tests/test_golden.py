"""Golden fixture: today's end-to-end outputs, rebuilt and compared.

Labels, segment bounds, categories, notes, flags and every header field must
match exactly; scores and margins to 1e-9 relative, plus half a unit in the
last printed digit where a file rounds them. ``tests/golden/make_golden.py``
regenerates the fixture when a change is meant to alter it.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from revspeech.gmm import load_model

GOLDEN = Path(__file__).resolve().parent / "golden"
SCORE_RTOL = 1e-9
SCORE_KEYS = {"score", "margin"}


def _make_golden():
    import importlib.util

    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def rebuilt(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    _make_golden().build_outputs(out)
    return out


def assert_score_close(actual, expected, printed_step=0.0, where=""):
    tol = SCORE_RTOL * abs(expected) + printed_step / 2
    assert math.isclose(actual, expected, rel_tol=0.0, abs_tol=tol), (
        f"{where}: score {actual!r} differs from golden {expected!r}"
    )


def assert_json_matches(actual, expected, path="$"):
    assert type(actual) is type(expected), f"{path}: {actual!r} vs {expected!r}"
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), f"{path}: keys differ"
        for key in expected:
            if key in SCORE_KEYS:
                assert_score_close(actual[key], expected[key], where=f"{path}.{key}")
            else:
                assert_json_matches(actual[key], expected[key], f"{path}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{path}: length differs"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_json_matches(a, e, f"{path}[{i}]")
    else:
        assert actual == expected, f"{path}: {actual!r} vs golden {expected!r}"


def test_report_json(rebuilt):
    assert_json_matches(
        json.loads((rebuilt / "report.json").read_text()),
        json.loads((GOLDEN / "report.json").read_text()),
    )


def test_report_markdown(rebuilt):
    actual = (rebuilt / "report.md").read_text().splitlines()
    expected = (GOLDEN / "report.md").read_text().splitlines()
    assert len(actual) == len(expected)
    for a, e in zip(actual, expected):
        if e.startswith("| R-"):
            # requirement rows end in the score column, printed to 4 decimals
            a_cells, e_cells = a.split("|"), e.split("|")
            assert a_cells[:-2] == e_cells[:-2]
            assert_score_close(float(a_cells[-2]), float(e_cells[-2]), 1e-4, e)
        else:
            assert a == e


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_wiener_transcript(rebuilt, direction):
    actual = (rebuilt / f"{direction}.txt").read_text().splitlines()
    expected = (GOLDEN / f"{direction}.txt").read_text().splitlines()
    assert actual[0] == expected[0]
    assert len(actual) == len(expected)
    for a, e in zip(actual[1:], expected[1:]):
        a_fields, e_fields = a.split("\t"), e.split("\t")
        # start, end, label, score, margin, direction; scores print 6 decimals
        assert a_fields[:3] + a_fields[5:] == e_fields[:3] + e_fields[5:]
        for col in (3, 4):
            assert_score_close(float(a_fields[col]), float(e_fields[col]), 1e-6, e)


def test_trained_model(rebuilt):
    actual = load_model(rebuilt / "accept.gmm")
    expected = load_model(GOLDEN / "accept.gmm")
    assert (actual.label, actual.dim, actual.num_components, actual.feature_fingerprint) == (
        expected.label, expected.dim, expected.num_components, expected.feature_fingerprint
    )
    for name in ("weights", "means", "variances"):
        np.testing.assert_allclose(
            getattr(actual, name), getattr(expected, name), rtol=SCORE_RTOL, atol=0
        )
