"""Golden CLI reports: each case of ``tests/golden/make.py`` reruns to the report it
gave when ``reports.json`` was written.

A rerun must give the same exit code, error message and key tree, and the same
verdict names, pass flags, strings, integers and nulls; a float may move by
FLOAT_ABS plus FLOAT_REL of its size, which holds rounding noise (values near
1e-16) and a BLAS or LAPACK build's last bits, but no change of a verdict's value.
Timings and the inputs' directory are not compared (make.py leaves them out).
The inputs are written again for each run: a vector made by a LAPACK call, such
as a random basis's, is compared only through the values the reports give of it.
"""

import json
import math
import re
from pathlib import Path

import pytest

from golden import make
from nsgleason import cli

FLOAT_ABS = 1e-9
FLOAT_REL = 1e-6

GOLDEN = json.loads(make.REPORTS.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    make.write_inputs(root)
    return root


def differences(got, want, path="") -> list:
    """Where ``got`` departs from ``want``, as a list of messages."""
    if isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [d for k in range(len(want)) for d in differences(got[k], want[k], f"{path}/{k}")]
    if type(got) is not type(want):
        return [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float):
        ok = math.isclose(got, want, rel_tol=FLOAT_REL, abs_tol=FLOAT_ABS)
    else:
        ok = got == want
    return [] if ok else [f"{path}: {got!r} != {want!r}"]


@pytest.mark.parametrize("name", sorted(make.CASES))
def test_golden_report(name, inputs):
    got = make.run_case(make.CASES[name], inputs)
    assert not differences(got, GOLDEN[name]), differences(got, GOLDEN[name])


def test_golden_cases_cover_every_subcommand_verdict_and_exit_code():
    source = Path(cli.__file__).read_text()
    subcommands = {argv[0] for argv in make.CASES.values()}
    assert subcommands == set(re.findall(r'add_parser\(\s*"(\w+)"', source))
    assert len(subcommands) == 8
    verdicts = {v for r in GOLDEN.values() if r["report"] for v in r["report"]["verdicts"]}
    assert verdicts == set(re.findall(r'verdict\(\s*"(\w+)"', source))
    assert len(verdicts) == 20
    assert {r["exit"] for r in GOLDEN.values()} == {0, 1, 2}
    assert sorted(GOLDEN) == sorted(make.CASES)


def test_differences_holds_floats_to_the_bound_and_the_rest_exactly():
    want = {"a": [1.0, 2, "x", True, None], "b": {"c": 1e-16}}
    assert not differences({"a": [1.0 + 1e-7, 2, "x", True, None], "b": {"c": 3e-16}}, want)
    for got in ({"a": [1.01, 2, "x", True, None], "b": {"c": 1e-16}},
                {"a": [1.0, 3, "x", True, None], "b": {"c": 1e-16}},
                {"a": [1.0, 2, "y", True, None], "b": {"c": 1e-16}},
                {"a": [1.0, 2, "x", False, None], "b": {"c": 1e-16}},
                {"a": [1.0, 2, "x", 1, None], "b": {"c": 1e-16}},
                {"a": [1.0, 2, "x", True, None], "b": {"c": 1e-16, "d": 0}},
                {"a": [1.0, 2, "x", True], "b": {"c": 1e-16}}):
        assert differences(got, want), got
