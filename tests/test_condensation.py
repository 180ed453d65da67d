"""Boundary condensation characters, tunneling matrices, and wall reports."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import condensation
from artifact.cli import main
from artifact.cocycles import bicharacter_cocycle, trivial_cocycle, wall_cocycle
from artifact.condensation import (
    UWallSpec,
    boundary_character,
    condense,
    diagonal_wall,
    equivalence_check,
    fold,
    tunnel,
    verify_cf_symmetry,
)
from artifact.groups import (
    cyclic,
    direct_product,
    full_subgroup,
    generated_subgroup,
    near_field,
    subgroup,
    symmetric,
    trivial_subgroup,
)
from artifact.errors import ConditionMismatch
from artifact.modular import affine_cf_anyons
from artifact.quantum_double import anyon_character, anyon_op, anyons, kind, s_matrix

from conftest import dist, reference_characters


def test_boundary_character_frozen_z2_values():
    g = cyclic(2)
    rough = boundary_character(g, trivial_subgroup(g))
    assert dist(rough.values, np.array([[2, 0], [0, 0]])) < 1e-12
    smooth = boundary_character(g, full_subgroup(g))
    assert dist(smooth.values, np.ones((2, 2))) < 1e-12


def test_condense_full_subgroup_keeps_fluxions():
    # smooth boundary: trivial-centralizer-irrep anyons survive with unit multiplicity
    for g in (cyclic(2), symmetric(3)):
        rep = condense(g, full_subgroup(g))
        objs = anyons(g)
        for x, m in zip(objs, np.round(rep.multiplicities).astype(int)):
            assert m == (1 if x.pi == 0 else 0)
        assert set(rep.condensed) == {x for x in objs if x.pi == 0}


def test_condense_trivial_subgroup_keeps_chargeons():
    # rough boundary: chargeons survive with multiplicity equal to their dimension
    for g in (cyclic(2), symmetric(3)):
        rep = condense(g, trivial_subgroup(g))
        for x, m in zip(anyons(g), np.round(rep.multiplicities).astype(int)):
            assert m == (x.dim if x.class_rep == 0 else 0)


def test_condense_dimension_count_intermediate_subgroup():
    # sum of multiplicity times dimension equals |G| for any boundary
    g = symmetric(3)
    k3 = generated_subgroup(g, [next(x for x in range(6) if g.element_order(x) == 3)])
    k2 = generated_subgroup(g, [next(x for x in range(6) if g.element_order(x) == 2)])
    for k in (trivial_subgroup(g), k3, k2, full_subgroup(g)):
        rep = condense(g, k)
        m = np.round(rep.multiplicities).astype(int)
        assert dist(m, rep.multiplicities) < 1e-8
        assert (m >= 0).all()
        dims = np.array([x.dim for x in anyons(g)])
        assert int(m @ dims) == g.order
        # vacuum always condenses exactly once
        assert m[0] == 1


def test_condensation_character_lies_in_the_anyon_span():
    # the boundary character rebuilds exactly from its own decomposition
    g = symmetric(3)
    k = generated_subgroup(g, [3])
    rep = condense(g, k)
    stack = np.stack([anyon_character(g, x).values for x in anyons(g)])
    rebuilt = np.einsum("x,xgh->gh", rep.multiplicities.astype(complex), stack)
    assert dist(rebuilt, rep.character.values) < 1e-9
    # flux support stays inside the conjugation closure of K
    closure = {int(g.conj(t, m)) for t in range(6) for m in k.members}
    outside = [h for h in range(6) if h not in closure]
    assert dist(rep.character.values[:, outside], np.zeros((6, len(outside)))) < 1e-12


def test_bilinear_cocycle_changes_the_lagrangian():
    g = direct_product(cyclic(2), cyclic(2))
    k = full_subgroup(g)
    b = np.ones((4, 4), dtype=complex)
    for x in range(4):
        for y in range(4):
            b[x, y] = (-1) ** ((x >> 1) * (y & 1))
    plain = condense(g, k)
    twisted = condense(g, k, bicharacter_cocycle(k, b))
    assert not np.allclose(plain.multiplicities, twisted.multiplicities)
    dims = np.array([x.dim for x in anyons(g)])
    for rep in (plain, twisted):
        assert int(np.round(rep.multiplicities @ dims)) == 4


def test_fold_pairs_anyons_multiplicatively():
    a, b = cyclic(2), symmetric(3)
    folded, pair_index = fold(a, b)
    assert folded.order == 12
    # anyon pairing index is a bijection and S factorizes through it
    assert sorted(pair_index.ravel().tolist()) == list(range(pair_index.size))
    sa, sb, sf = s_matrix(a), s_matrix(b), s_matrix(folded)
    for i in range(4):
        for j in range(8):
            for k in range(4):
                for l in range(8):
                    lhs = sf[pair_index[i, j], pair_index[k, l]]
                    assert abs(lhs - sa[i, k] * sb[j, l]) < 1e-10


def test_diagonal_wall_is_the_identity_equivalence():
    for g in (cyclic(2), symmetric(3)):
        wall = diagonal_wall(g)
        rep = equivalence_check(g, g, wall)
        assert rep.verdict == "equivalence"
        assert rep.is_permutation
        assert rep.pairing_nondegenerate
        assert rep.projections_surjective == (True, True)
        objs = anyons(g)
        # the induced map is X -> X^op
        index = {x.label: i for i, x in enumerate(objs)}
        for i, j in enumerate(rep.targets):
            assert index[anyon_op(g, objs[j]).label] == i


def test_q2_wall_tunneling_swaps_charge_and_flux():
    phi = wall_cocycle(near_field(2))
    ga, gb = phi.subgroup.parent.meta["product_of"]
    tm = tunnel(ga, gb, UWallSpec(phi.subgroup, phi))
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ]
    )
    assert dist(tm.n, expected) < 1e-9


def test_tunnel_builds_nothing_on_the_product_group():
    phi = wall_cocycle(near_field(4))
    ga, gb = phi.subgroup.parent.meta["product_of"]
    tunnel(ga, gb, UWallSpec(phi.subgroup, phi))
    assert phi.subgroup.parent._cache == {}


def test_verify_cf_never_builds_the_product_table(monkeypatch):
    walls = []

    def spy(h):
        walls.append(wall_cocycle(h))
        return walls[-1]

    monkeypatch.setattr(condensation, "wall_cocycle", spy)
    assert verify_cf_symmetry(near_field(5)).ok
    gg = walls[0].subgroup.parent
    assert callable(gg._mul) and gg._cache == {}
    assert gg.mul.shape == (400, 400)  # built on first use


def test_partial_wall_is_not_an_equivalence():
    g = cyclic(2)
    gp = direct_product(g, g)
    u = subgroup(gp, [0, 2], label="GxE")
    wall = UWallSpec(u, trivial_cocycle(u))
    rep = equivalence_check(g, g, wall)
    assert rep.verdict == "partial"
    assert not rep.projections_surjective[1]
    assert rep.targets is None


def test_wall_character_equals_dual_minus_swap_reference():
    # folded wall algebra character = sum of X (x) op(X dual) minus the
    # rank-one chargeon-fluxion correction, here at q = 2
    phi = wall_cocycle(near_field(2))
    gg = phi.subgroup.parent
    ga, _ = gg.meta["product_of"]
    c, f = affine_cf_anyons(ga, 2)
    refs = reference_characters(ga, c, f, product=gg)
    assert set(refs) == {"identity", "dual", "swap"}
    chi = boundary_character(gg, phi.subgroup, phi)
    assert dist(chi.values, refs["dual"].values - refs["swap"].values) < 1e-8


def test_verify_cf_symmetry_small_fields():
    for q in (2, 3):
        rep = verify_cf_symmetry(near_field(q))
        assert rep.flavor == "field"
        assert rep.ok
        assert kind(rep.chargeon) == "chargeon"
        assert kind(rep.fluxion) == "fluxion"
        assert rep.equivalence is not None and rep.equivalence.is_permutation


def test_verify_cf_symmetry_dickson_flavor():
    rep = verify_cf_symmetry(near_field(9, kind="dickson9"))
    assert rep.flavor == "near-field"
    assert rep.ok
    assert rep.equivalence is None


def test_condense_invariants_are_typed_checks(monkeypatch, capsys):
    decompose = condensation.dg_decompose

    def broken(chi):
        mult = decompose(chi).copy()
        mult[0] = 0  # drop the vacuum
        return mult

    monkeypatch.setattr(condensation, "dg_decompose", broken)
    g = symmetric(3)
    with pytest.raises(ConditionMismatch, match="vacuum"):
        condense(g, full_subgroup(g))
    assert main(["condense", "--group", "builtin:S3", "--subgroup", "full"]) == 1
    assert "vacuum must condense" in capsys.readouterr().err


def test_condense_invariants_hold_under_python_O():
    script = """
import sys
from artifact import condensation
from artifact.cli import main
decompose = condensation.dg_decompose
def broken(chi):
    mult = decompose(chi).copy()
    mult[0] = 0
    return mult
condensation.dg_decompose = broken
print(sys.flags.optimize, main(["condense", "--group", "builtin:S3", "--subgroup", "full"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(artifact.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert run.stdout.split() == ["1", "1"], run.stderr
    assert "check failed: the vacuum must condense" in run.stderr
