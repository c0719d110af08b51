"""Every `bellcert demo <name> --seed 0` document, pinned field by field.

``demo_documents.json`` holds the seven documents as printed when each demo
still had its own function, before they shared one code path.  Two blocks
were re-pinned since: the ``uniqueness_probe`` of ``chained-global`` and of
``lifted``, when it stopped running three more seeds and began reporting the
evidence that the demo's own see-saw restarts hold.  Key sets,
ints, bools and strings must match exactly; floats within 1e-9, since
see-saw floats may move in the last bits when the numerics are reorganized.
"""

import json
from pathlib import Path

import pytest

from bellcert.cli import DEMO_NAMES, main

FLOAT_TOL = 1e-9
EXPECTED = json.loads((Path(__file__).parent / "demo_documents.json").read_text())


def mismatches(expected, actual, path=""):
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)}, expected {sorted(expected)}"]
        return [
            m for k in expected for m in mismatches(expected[k], actual[k], f"{path}/{k}")
        ]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)}, expected {len(expected)}"]
        return [
            m
            for i, (e, a) in enumerate(zip(expected, actual))
            for m in mismatches(e, a, f"{path}/{i}")
        ]
    if type(expected) is float and type(actual) is float:
        close = abs(expected - actual) <= FLOAT_TOL
    else:
        close = type(expected) is type(actual) and expected == actual
    if not close:
        return [f"{path}: {actual!r}, expected {expected!r}"]
    return []


def test_every_demo_is_pinned():
    assert sorted(EXPECTED) == sorted(DEMO_NAMES)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_document_matches_pinned(capsys, name):
    code = main(["demo", name, "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 0 and not captured.err
    assert mismatches(EXPECTED[name], json.loads(captured.out)) == []


class TestComparison:
    """The comparison itself catches the changes it is meant to catch."""

    def test_float_within_tolerance_passes(self):
        assert mismatches({"v": 1.0}, {"v": 1.0 + 1e-12}) == []

    @pytest.mark.parametrize(
        "actual",
        [
            {"v": 1.0 + 1e-6},
            {"v": 1},
            {"v": True},
            {"v": "1.0"},
            {"v": 1.0, "w": 0},
            {},
            {"v": [1.0]},
        ],
    )
    def test_changes_are_reported(self, actual):
        assert mismatches({"v": 1.0}, actual)

    def test_int_and_bool_are_exact(self):
        assert mismatches({"n": 2, "b": False}, {"n": 3, "b": False})
        assert mismatches({"n": 2, "b": False}, {"n": 2, "b": 0})
        assert mismatches([1, 2], [1, 2, 3])
