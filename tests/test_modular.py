"""Modular data, invariant search, and the affine transposition machinery."""

import numpy as np
import pytest

from artifact import modular
from artifact.errors import SizeMismatch
from artifact.groups import cyclic, near_field, symmetric
from artifact.modular import (
    affine_cf_anyons,
    charge_conjugation_matrix,
    is_modular_invariant,
    modular_data,
    search_transposition_invariants,
    transposition_matrix,
    verify_theorem_b1,
)
from artifact.quantum_double import anyon_dual, anyons, kind

from conftest import dist


def test_modular_data_bundles_consistent_pieces():
    g = symmetric(3)
    data = modular_data(g)
    assert data.s.shape == (8, 8)
    assert data.t.shape == (8,)
    assert len(data.objects) == 8
    assert data.objects[0].label == "(e,r0)"
    # (S T)^3 = S^2 up to the positive anomaly scalar, checked via |.| = 1
    st = data.s * data.t[None, :]
    cube = st @ st @ st
    ss = data.s @ data.s
    scale = cube[0, 0] / ss[0, 0]
    assert abs(abs(scale) - 1) < 1e-9
    assert dist(cube, scale * ss) < 1e-9


def test_charge_conjugation_is_dual_permutation():
    for g in (cyclic(3), symmetric(3)):
        c = charge_conjugation_matrix(g)
        objs = anyons(g)
        index = {x.label: i for i, x in enumerate(objs)}
        expected = np.zeros_like(c)
        for i, x in enumerate(objs):
            expected[i, index[anyon_dual(g, x).label]] = 1
        assert dist(c, expected) < 1e-9


def test_identity_is_always_invariant():
    data = modular_data(symmetric(3))
    verdict = is_modular_invariant(np.eye(8), data)
    assert verdict.ok
    assert verdict.s_residual < 1e-12 and verdict.t_residual < 1e-12
    assert verdict.reasons == ()


def test_invariant_rejects_bad_candidates():
    data = modular_data(symmetric(3))
    # wrong vacuum entry
    m = np.eye(8)
    m[0, 0] = 2
    verdict = is_modular_invariant(m, data)
    assert not verdict.ok
    assert any("vacuum" in r for r in verdict.reasons)
    # negative entry
    m = np.eye(8)
    m[3, 4] = -1
    assert not is_modular_invariant(m, data).ok
    # a permutation that does not commute with T
    m = np.eye(8)[[0, 1, 2, 4, 3, 5, 6, 7]]
    verdict = is_modular_invariant(m, data)
    assert not verdict.ok
    assert verdict.t_residual > 1e-6
    with pytest.raises(SizeMismatch):
        is_modular_invariant(np.eye(7), data)


def test_invariant_rejects_a_nan_matrix():
    data = modular_data(symmetric(3))
    for where in ((0, 0), (3, 4)):
        m = np.eye(8)
        m[where] = np.nan
        verdict = is_modular_invariant(m, data)
        assert not verdict.ok
        assert "entries not integers" in verdict.reasons


def test_s3_search_finds_the_chargeon_fluxion_swap():
    g = symmetric(3)
    hits = search_transposition_invariants(g)
    assert [(h.x.label, h.y.label, h.kinds) for h in hits] == [
        ("(e,r2)", "(c3,r0)", ("chargeon", "fluxion"))
    ]
    data = modular_data(g)
    m = transposition_matrix(data, hits[0].x, hits[0].y)
    verdict = is_modular_invariant(m, data)
    assert verdict.ok
    # the matrix really is the transposition composed with charge conjugation
    c = charge_conjugation_matrix(g)
    swap = np.eye(8)
    swap[[2, 5]] = swap[[5, 2]]
    assert dist(m, swap @ c) < 1e-12


def test_search_skips_non_invariant_transpositions():
    # every returned hit verifies; total count stays small for small doubles
    for g in (cyclic(2), cyclic(4)):
        data = modular_data(g)
        for h in search_transposition_invariants(g):
            m = transposition_matrix(data, h.x, h.y)
            assert is_modular_invariant(m, data).ok
            assert h.x.label != h.y.label


# NaN fails both tests of the scan: one NaN in S rejects every transposition (each
# comparison reads all of S), and NaN twists reject every pair before S is read
@pytest.mark.parametrize("where", ["s", "t"])
def test_search_rejects_nan_modular_data(monkeypatch, where):
    g = symmetric(3)
    s, t = np.array(modular.s_matrix(g)), np.array(modular.t_vector(g))
    if where == "s":
        s[3, 4] = np.nan
    else:
        t[:] = np.nan
    monkeypatch.setattr(modular, "s_matrix", lambda g: s)
    monkeypatch.setattr(modular, "t_vector", lambda g: t)
    assert search_transposition_invariants(g) == []


def test_affine_cf_anyons_q2():
    phi_group = near_field(2)
    from artifact.groups import affine_group

    g = affine_group(phi_group)
    c, f = affine_cf_anyons(g, 2)
    assert kind(c) == "chargeon" and kind(f) == "fluxion"
    assert c.dim == 1 and f.dim == 1
    assert c.label == "(e,r1)" and f.label == "(c1,r0)"


def test_affine_cf_anyons_dimensions_scale_with_q():
    from artifact.groups import affine_group

    for q in (3, 4, 5):
        g = affine_group(near_field(q))
        c, f = affine_cf_anyons(g, q)
        assert kind(c) == "chargeon" and kind(f) == "fluxion"
        assert c.dim == q - 1  # induced from the translation subgroup
        assert f.dim == q - 1  # translation class size


def test_verify_theorem_b1_smallest_field():
    rep = verify_theorem_b1(near_field(2))
    assert rep.q == 2
    assert rep.ok
    assert set(rep.steps) == {
        "b_dim_pi_equals_class_size",
        "c_class_plus_identity_is_subgroup",
        "d_other_irreps_constant_on_class",
        "e_pi_vanishes_off_closure_and_is_minus_one_on_class",
        "f_centralizer_order",
        "g_centralizer_equals_closure",
        "h_centralizer_elementary_abelian",
    }
    assert all(rep.steps.values())
    assert rep.invariant.ok
