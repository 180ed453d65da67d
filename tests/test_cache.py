"""Every per-group and per-patch memo of the package is read and written by
errors._cached, and every array it caches is read-only."""

import ast
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import errors

SRC = Path(artifact.__file__).parent
# the memos: conj, powers and conjugacy data; the character table and the per-(n, e) prime;
# centralizers, anyons (read by anyons and _index), pair orbits, S, S mod p and fusion; compiled ops and spans
CALLERS = {"groups.py": 3, "characters.py": 2, "quantum_double.py": 7, "lattice.py": 2}
# where an array may be made read-only: the memo walker, and a group's own mul and inv
WRITEABLE = {("errors.py", "_read_only"), ("groups.py", "GroupTable")}


def _calls(tree, name):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == name]


def _scopes(tree):
    """(top-level function or class name, node) for every node inside one."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            for node in ast.walk(top):
                yield top.name, node


def test_only_errors_cached_reads_or_writes_a_cache():
    stray, callers = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        memo = _calls(tree, "_cached")
        allowed = {id(c.args[0]) for c in memo}
        # besides, a group creates its own empty cache
        allowed |= {id(n.target) for scope, n in _scopes(tree)
                    if (path.name, scope) == ("groups.py", "GroupTable") and isinstance(n, ast.AnnAssign)}
        stray += [f"{path.name}:{n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "_cache" and id(n) not in allowed]
        if memo:
            callers[path.name] = len(memo)
    assert not stray, "\n".join(stray)
    assert callers == CALLERS


def test_arrays_are_made_read_only_in_two_places_only():
    sites = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope, node in _scopes(tree):
            targets = getattr(node, "targets", [])
            if any(isinstance(t, ast.Attribute) and t.attr == "writeable" for t in targets):
                sites.add((path.name, scope))
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "setflags":
                sites.add((path.name, scope))
    assert sites == WRITEABLE


@dataclass(frozen=True)
class _Record:
    values: np.ndarray
    rows: list


def test_cached_builds_once_and_freezes_every_array_it_holds():
    cache, built = {}, []

    def build(n):
        built.append(n)
        return np.arange(n), (_Record(np.ones(n), [np.zeros(2)]), "label")

    first = errors._cached(cache, ("key", 3), build, 3)
    assert errors._cached(cache, ("key", 3), build, 3) is first and built == [3]
    arrays = [first[0], first[1][0].values, first[1][0].rows[0]]
    assert not [a for a in arrays if a.flags.writeable]
    with pytest.raises(ValueError):
        first[1][0].values[0] = 5

