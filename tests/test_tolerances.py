"""Every numerical tolerance of the package is an entry of errors.TOL, and every
entry is read by the check it names."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import errors
from artifact.characters import ClassFunction, character_table
from artifact.cocycles import normalize, trivial_cocycle, validate
from artifact.errors import (
    TOL,
    CocycleIdentityFailure,
    ConditionMismatch,
    NonIntegerMultiplicity,
    NumericalDegeneracy,
    ZeroProjection,
    _check,
)
from artifact.groups import cyclic, full_subgroup, near_field, symmetric
from artifact.lattice import build_patch, ground_state
from artifact.modular import verify_theorem_b1
from artifact.quantum_double import anyon_character, anyons, dg_decompose, pair_orbits

SRC = Path(artifact.__file__).parent
LITERAL = re.compile(r"\d(\.\d+)?e-\d+")


def _table_lines() -> range:
    """Line numbers of the TOL assignment in errors.py."""
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TOL"]:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError("errors.py defines no TOL table")


def _literal_places(source: str) -> set[int]:
    """Lines of round/around calls whose decimal places are a literal: np.round(x, 9),
    round(x, 9), x.round(9) or decimals=9.  Rounding to fixed places is a tolerance."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) not in ("round", "around"):
            continue
        method = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) not in ("np", "numpy")
        places = node.args[0 if method else 1:][:1] + [k.value for k in node.keywords if k.arg in ("decimals", "ndigits")]
        if any(not any(isinstance(n, (ast.Name, ast.Attribute)) for n in ast.walk(arg)) for arg in places):
            lines.add(node.lineno)
    return lines


def test_no_tolerance_literal_outside_the_table():
    table = _table_lines()
    stray = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        rounded = _literal_places(source)
        stray += [
            f"{path.name}:{no}: {line.strip()}"
            for no, line in enumerate(source.splitlines(), 1)
            if (LITERAL.search(line) or no in rounded) and not (path.name == "errors.py" and no in table)
        ]
    assert not stray, "\n".join(stray)


# the errors of a failed check: ConditionMismatch and its subclasses
CHECK_ERRORS = {"ConditionMismatch", "NonIntegerMultiplicity", "NumericalDegeneracy", "ZeroProjection"}


def test_every_check_fails_through_check():
    # a check error is raised by errors._check alone, and no check lives in an assert,
    # which python -O strips
    stray = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            raised = getattr(node, "exc", None)
            raised = getattr(raised, "func", raised)  # raise E(...) or raise E, E a name or an attribute
            name = getattr(raised, "id", getattr(raised, "attr", None))
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Raise) and name in CHECK_ERRORS
                                                and path.name != "errors.py"):
                stray.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not stray, "\n".join(stray)
    assert CHECK_ERRORS == {name for name, value in vars(errors).items()
                            if isinstance(value, type) and issubclass(value, ConditionMismatch)}


def test_the_scan_sees_literal_decimal_places():
    caught = ["np.round(x, 9)", "np.around(x, decimals=3)", "numpy.round(x, -2)", "x.round(9)",
              "round(x, 4)", "round(x, ndigits=4)", "np.round(x, 2 * 4)"]
    passed = ["np.round(x)", "x.round()", "round(x)", 'np.round(x, _places(TOL["phase"]))', "np.round(x, places)"]
    assert [_literal_places(code) for code in caught] == [{1}] * len(caught)
    assert [_literal_places(code) for code in passed] == [set()] * len(passed)


def _row_match():
    tab = character_table(symmetric(3))
    return lambda: tab.match_row(tab.table[1])


def _induced_norm():
    h = near_field(3)
    return lambda: verify_theorem_b1(h)


def _ground_state():
    patch = build_patch(cyclic(2), 2, 2)
    return lambda: ground_state(patch)


def _decompose():
    g = symmetric(3)
    chi = anyon_character(g, anyons(g)[2])
    return lambda: dg_decompose(chi)


def _validate():
    k = full_subgroup(cyclic(2))
    return lambda: validate(np.ones((2, 2)), k)


def _normalize():
    phi = trivial_cocycle(full_subgroup(cyclic(2)))
    return lambda: normalize(phi)


def _from_dense():
    g = symmetric(3)
    grid = anyon_character(g, anyons(g)[2]).values
    return lambda: ClassFunction.from_dense(g, grid, pair_orbits(g))


# entry -> (error raised once the entry fails, builder of the call that reads it)
READERS = {
    "character": (ConditionMismatch, _induced_norm),
    "match": (NumericalDegeneracy, _row_match),
    "nonzero": (ZeroProjection, _ground_state),
    "multiplicity": (NonIntegerMultiplicity, _decompose),
    "phase": (CocycleIdentityFailure, _validate),
    "normalized": (ConditionMismatch, _normalize),
    "reassembly": (ConditionMismatch, _from_dense),
}


def test_every_entry_has_a_reader():
    assert set(READERS) == set(TOL)


@pytest.mark.parametrize("entry", sorted(READERS))
def test_each_entry_is_read(entry, monkeypatch):
    error, build = READERS[entry]
    call = build()
    call()  # passes at the table's value
    monkeypatch.setitem(TOL, entry, math.nan)  # NaN fails every comparison
    with pytest.raises(error):
        call()


def test_check_fails_on_nan_and_reports_residual_and_tol():
    _check("exact", 0.0, 0.0)
    with pytest.raises(ConditionMismatch, match=r"^off \(residual 2\.000e-03, tol 1\.0e-03\)$"):
        _check("off", 2e-3, 1e-3)
    with pytest.raises(NumericalDegeneracy, match="residual nan"):
        _check("nan", math.nan, 1.0, NumericalDegeneracy)
