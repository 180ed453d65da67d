"""Every blocked loop of the package is sized by errors.BLOCK_BYTES through
errors._blocks, and its result does not depend on the block size."""

import ast
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import errors
from artifact.errors import NotAssociative, NotLatinSquare
from artifact.groups import affine_group, alternating, cyclic, from_cayley, near_field, symmetric
from artifact.lattice import _gram, _op, _ribbon_op, build_patch, make_ribbon, random_state
from artifact.quantum_double import fusion_verlinde, s_matrix
from artifact.serialize import s_matrix_obj

from conftest import dist
from test_groups import FIVE_LOOP

SRC = Path(artifact.__file__).parent
# the five blocked loops: the Latin and associativity scans, Verlinde fusion,
# the snapped S cells and the Gram's column blocks
CALLERS = {"groups.py": 2, "quantum_double.py": 2, "lattice.py": 1}


def _raised(error, table):
    with pytest.raises(error) as info:
        from_cayley(table)
    return str(info.value)


def _bad_line():
    table = cyclic(12).mul.copy()
    table[7, 3] = table[7, 5]  # breaks row 7 and columns 3 and 5; column 3 is met first
    return _raised(NotLatinSquare, table)


def _bad_triple():
    # Z2 x FIVE_LOOP: every line a permutation, associative on the Z2 digit only
    z2 = np.array([[0, 1], [1, 0]])
    return _raised(NotAssociative, (FIVE_LOOP[:, None, :, None] * 2 + z2[None, :, None, :]).reshape(10, 10))


def _fusion():
    return [fusion_verlinde(build(n)) for build, n in ((alternating, 4), (cyclic, 6))]


def _snap():
    g = affine_group(near_field(5))
    return s_matrix_obj(g, s_matrix(g), snap=True)


def _grams():
    out = []
    for group, size, start, moves in (
        (cyclic(2), (4, 3), ((3, 1), (2, 1)), "vfv"),
        (symmetric(3), (3, 2), ((1, 0), (1, 0)), "fv"),
    ):
        n = group.order
        patch = build_patch(group, *size)
        rib = make_ribbon(patch, start, moves)
        psi = random_state(patch, np.random.default_rng(4))
        out.append(_gram(patch, psi, rib, [_op(patch, _ribbon_op, rib, h, g) for h in range(n) for g in range(n)]))
    return out


def test_one_item_blocks_give_the_default_results(monkeypatch):
    default = [_bad_line(), _bad_triple(), _fusion(), _snap(), _grams()]
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)
    assert errors._blocks(5, 16) == [slice(i, i + 1) for i in range(5)]
    line, triple, fusion, snap, grams = [_bad_line(), _bad_triple(), _fusion(), _snap(), _grams()]
    assert line == default[0] == "column 3 is not a permutation of the element set"
    assert triple == default[1]
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(fusion, default[2]))
    assert snap == default[3]
    # a Gram entry is a float sum over columns, so its block order shows in the last bits
    for gram, ref in zip(grams, default[4]):
        assert dist(gram, ref) <= 1e-14


@pytest.mark.parametrize("n", [0, 1, 5, 37])
@pytest.mark.parametrize("item_bytes", [1, 16 * 37 * 7, errors.BLOCK_BYTES, 3 * errors.BLOCK_BYTES])
def test_blocks_cover_the_range_in_order(n, item_bytes):
    blocks = errors._blocks(n, item_bytes)
    assert [i for b in blocks for i in range(n)[b]] == list(range(n))
    assert all(1 <= b.stop - b.start <= max(1, errors.BLOCK_BYTES // item_bytes) for b in blocks)


def _calls(tree, name):
    return [n for n in ast.walk(tree) if isinstance(n, ast.Call) and getattr(n.func, "id", None) == name]


def _is_step(call):
    """max(a, b // c), the shape of a block step."""
    return len(call.args) == 2 and isinstance(call.args[1], ast.BinOp) and isinstance(call.args[1].op, ast.FloorDiv)


def test_no_block_constant_or_step_outside_errors_blocks():
    stray, callers = [], {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        helper = [f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name == "_blocks"]
        allowed = {id(c) for f in helper for c in _calls(f, "max")}
        stray += [f"{path.name}:{c.lineno}: block step" for c in _calls(tree, "max") if _is_step(c) and id(c) not in allowed]
        for node in tree.body:
            for t in getattr(node, "targets", []):
                if "BLOCK" in getattr(t, "id", "") and f"{path.name}:{t.id}" != "errors.py:BLOCK_BYTES":
                    stray.append(f"{path.name}:{node.lineno}: {t.id}")
        if _calls(tree, "_blocks"):
            callers[path.name] = len(_calls(tree, "_blocks"))
    assert not stray, "\n".join(stray)
    assert callers == CALLERS
