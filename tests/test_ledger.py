"""The seed-7 ledger: ``weilgap reproduce-all --seed 7`` against its checked-in
document, so a change to any criterion's output shows as a failing test.

``tests/data/reproduce_all_seed7.json`` is that document with the wall
times (``timestamp`` and each criterion's ``seconds``) removed.  A change
that moves a field on purpose regenerates the file and names the fields
that moved, with old and new values.
"""

import json
import math
from pathlib import Path

from weilgap.cli import main

LEDGER = Path(__file__).parent / "data" / "reproduce_all_seed7.json"

# Floats are compared within a relative 1e-12, not exactly.  The run is
# deterministic and repeats bit for bit on one machine, but its float
# fields pass through numpy, mpmath and libm, whose last bits may differ
# between hosts and library builds.  No criterion reports a per-field error
# budget yet, so one relative tolerance stands in for it: far below every
# gate the criteria apply (1e-6 and up), far above a few ulps.
RELATIVE = 1e-12


def without_times(doc: dict) -> dict:
    del doc["timestamp"]
    for entry in doc["result"]["criteria"]:
        del entry["seconds"]
    return doc


def differences(expected, actual, path="$"):
    """The paths at which actual differs from expected: verdicts, counts,
    labels and exact values must be equal, floats within RELATIVE."""
    if isinstance(expected, float) and isinstance(actual, float):
        if expected == actual or math.isclose(expected, actual, rel_tol=RELATIVE, abs_tol=0.0):
            return []
        return [f"{path}: {expected!r} -> {actual!r}"]
    if type(expected) is not type(actual):
        return [f"{path}: {expected!r} -> {actual!r}"]
    if isinstance(expected, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} -> {sorted(actual)}"]
        return [line for key in expected for line in differences(expected[key], actual[key], f"{path}.{key}")]
    if isinstance(expected, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} -> {len(actual)}"]
        return [line for i, pair in enumerate(zip(expected, actual)) for line in differences(*pair, f"{path}[{i}]")]
    return [] if expected == actual else [f"{path}: {expected!r} -> {actual!r}"]


def test_reproduce_all_seed7_matches_the_ledger(tmp_path, capsys):
    out = tmp_path / "reproduce_all.json"
    status = main(["reproduce-all", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    actual = without_times(json.loads(out.read_text()))
    expected = json.loads(LEDGER.read_text())
    assert differences(expected, actual) == []
    assert status == 0


def test_differences_reads_verdicts_exactly_and_floats_within_the_tolerance():
    doc = {"pass": True, "count": 3, "label": "W_p", "residual": 1.0e-14, "z": [0.0, 0.25]}
    assert differences(doc, json.loads(json.dumps(doc))) == []
    assert differences(doc, {**doc, "residual": 1.0e-14 * (1 + 1e-13)}) == []
    assert differences(doc, {**doc, "residual": 1.0e-14 * (1 + 1e-11)}) == ["$.residual: 1e-14 -> 1.00000000001e-14"]
    assert differences(doc, {**doc, "pass": False}) == ["$.pass: True -> False"]
    assert differences(doc, {**doc, "count": 3.0}) == ["$.count: 3 -> 3.0"]
    assert differences(doc, {**doc, "z": [1e-300, 0.25]}) == ["$.z[0]: 0.0 -> 1e-300"]
    assert differences(doc, {**doc, "label": None}) == ["$.label: 'W_p' -> None"]
