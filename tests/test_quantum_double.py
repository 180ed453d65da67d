"""Anyon data of the double: labels, characters, S, T, and fusion."""

import gc
import weakref

import numpy as np
import pytest

from artifact import quantum_double
from artifact.characters import character_table
from artifact.condensation import verify_cf_symmetry
from artifact.errors import (
    ConditionMismatch,
    GroupMismatch,
    NegativeOrNonInteger,
    NonIntegerMultiplicity,
)
from artifact.groups import (
    affine_group,
    alternating,
    conjugacy_data,
    cyclic,
    direct_product,
    near_field,
    symmetric,
)
from artifact.quantum_double import (
    DGClassFunction,
    anyon_by,
    anyon_character,
    anyon_dual,
    anyon_op,
    anyons,
    centralizer,
    dg_decompose,
    dg_inner_product,
    fusion_verlinde,
    kind,
    pair_orbits,
    product_anyon,
    s_charge_powers,
    s_matrix,
    t_vector,
    tensor_character,
)

from conftest import dist, sweep_groups

W3 = np.exp(2j * np.pi / 3)


def test_z2_anyons_are_toric_code():
    g = cyclic(2)
    objs = anyons(g)
    assert [x.label for x in objs] == ["(e,r0)", "(e,r1)", "(c1,r0)", "(c1,r1)"]
    assert [kind(x) for x in objs] == ["vacuum", "chargeon", "fluxion", "mixed"]
    assert [x.dim for x in objs] == [1, 1, 1, 1]
    assert dist(t_vector(g), [1, 1, 1, -1]) < 1e-12
    # fusion is the Klein group: index XOR
    n = fusion_verlinde(g)
    for i in range(4):
        for j in range(4):
            expected = np.zeros(4)
            expected[i ^ j] = 1
            assert dist(n[i, j], expected) < 1e-12


def test_s3_anyon_inventory():
    g = symmetric(3)
    objs = anyons(g)
    assert len(objs) == 8
    assert [x.dim for x in objs] == [1, 1, 2, 3, 3, 2, 2, 2]
    assert [kind(x) for x in objs] == [
        "vacuum",
        "chargeon",
        "chargeon",
        "fluxion",
        "mixed",
        "fluxion",
        "mixed",
        "mixed",
    ]
    # quantum dimensions square-sum to |G|^2
    assert sum(x.dim**2 for x in objs) == 36


def test_s3_s_matrix_frozen_values():
    s = 6 * s_matrix(symmetric(3))
    expected = np.array(
        [
            [1, 1, 2, 3, 3, 2, 2, 2],
            [1, 1, 2, -3, -3, 2, 2, 2],
            [2, 2, 4, 0, 0, -2, -2, -2],
            [3, -3, 0, 3, -3, 0, 0, 0],
            [3, -3, 0, -3, 3, 0, 0, 0],
            [2, 2, -2, 0, 0, 4, -2, -2],
            [2, 2, -2, 0, 0, -2, -2, 4],
            [2, 2, -2, 0, 0, -2, 4, -2],
        ]
    )
    assert dist(s, expected) < 1e-9


def test_s3_t_vector_frozen_values():
    t = t_vector(symmetric(3))
    expected = np.array([1, 1, 1, 1, -1, 1, W3, np.conj(W3)])
    assert dist(t, expected) < 1e-12


def test_centralizer_matches_class_size():
    g = alternating(5)
    data = conjugacy_data(g)
    for ci, members in enumerate(data.classes):
        z = centralizer(g, int(data.reps[ci]))
        assert z.order * len(members) == g.order


def test_anyon_characters_are_orthonormal():
    for g in (symmetric(3), alternating(4)):
        objs = anyons(g)
        chars = [anyon_character(g, x) for x in objs]
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                ip = dg_inner_product(ci, cj)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-8


def test_anyon_character_support_and_vacuum_row():
    g = symmetric(3)
    vac = anyon_character(g, anyons(g)[0])
    # vacuum character: 1 whenever the flux slot is the identity
    expected = np.zeros((6, 6), dtype=complex)
    expected[:, 0] = 1
    assert dist(vac.values, expected) < 1e-12
    # every anyon character is supported on commuting pairs only,
    # with the flux slot confined to the anyon's conjugacy class
    comm = (g.mul == g.mul.T).astype(complex)
    data = conjugacy_data(g)
    for x in anyons(g):
        chi = anyon_character(g, x)
        assert dist(chi.values * (1 - comm), np.zeros((6, 6))) < 1e-12
        off_class = [h for h in range(6) if data.class_of[h] != data.class_of[x.class_rep]]
        assert dist(chi.values[:, off_class], np.zeros((6, len(off_class)))) < 1e-12


def test_character_stack_conjugation_invariance():
    g = symmetric(4)
    stack = np.stack([anyon_character(g, x).values for x in anyons(g)])
    conj = g.conj_table()
    rng = np.random.default_rng(11)
    for t in rng.integers(0, g.order, size=4):
        moved = stack[:, conj[t], :][:, :, conj[t]]
        assert dist(moved, stack) < 1e-9


def test_pair_orbits_invariants_on_the_sweep_groups():
    for g in sweep_groups():
        po = pair_orbits(g)
        commuting = g.mul == g.mul.T
        # one orbit per anyon, covering exactly the k(G) |G| commuting pairs
        assert po.sizes.size == len(anyons(g)) == po.table.shape[1]
        assert int(po.sizes.sum()) == len(conjugacy_data(g).classes) * g.order
        assert np.array_equal(po.orbit_of >= 0, commuting)
        assert np.array_equal(np.bincount(po.orbit_of[commuting]), po.sizes)
        # every orbit id round-trips through its representative pair
        assert np.array_equal(po.orbit_of[po.rep_g, po.rep_h], np.arange(po.sizes.size))


def test_dg_decompose_recovers_basis_vectors():
    g = symmetric(3)
    objs = anyons(g)
    for i, x in enumerate(objs):
        m = dg_decompose(anyon_character(g, x))
        expected = np.zeros(len(objs))
        expected[i] = 1
        assert dist(m, expected) < 1e-9


def test_tensor_decomposition_is_verlinde_fusion():
    g = symmetric(3)
    objs = anyons(g)
    n = fusion_verlinde(g)
    for i, x in enumerate(objs):
        for j, y in enumerate(objs):
            chi = tensor_character(anyon_character(g, x), anyon_character(g, y))
            m = dg_decompose(chi)
            assert dist(m, n[i, j]) < 1e-8


def test_s_matrix_properties_s3():
    s = s_matrix(symmetric(3))
    assert dist(s, s.T) < 1e-12
    assert dist(s @ np.conj(s.T), np.eye(8)) < 1e-10
    # S^2 is the dual permutation; for S3 every anyon is self dual
    assert dist(s @ s, np.eye(8)) < 1e-10


def test_duals_and_op_are_involutions():
    g = cyclic(3)
    objs = anyons(g)
    duals = [anyon_dual(g, x).label for x in objs]
    assert duals == [
        "(e,r0)",
        "(e,r2)",
        "(e,r1)",
        "(c2,r0)",
        "(c2,r2)",
        "(c2,r1)",
        "(c1,r0)",
        "(c1,r2)",
        "(c1,r1)",
    ]
    for x in objs:
        assert anyon_dual(g, anyon_dual(g, x)) == x
        assert anyon_op(g, anyon_op(g, x)) == x
    # the vacuum is fixed by both
    assert anyon_dual(g, objs[0]) == objs[0]
    assert anyon_op(g, objs[0]) == objs[0]


def test_s_squared_matches_dual_permutation():
    g = cyclic(3)
    objs = anyons(g)
    index = {x.label: i for i, x in enumerate(objs)}
    s = s_matrix(g)
    perm = np.zeros((9, 9))
    for i, x in enumerate(objs):
        perm[i, index[anyon_dual(g, x).label]] = 1
    assert dist(s @ s, perm) < 1e-10


def test_fusion_tensor_symmetries():
    g = alternating(4)
    n = fusion_verlinde(g)
    objs = anyons(g)
    index = {x.label: i for i, x in enumerate(objs)}
    dual = [index[anyon_dual(g, x).label] for x in objs]
    # commutativity and vacuum unit
    assert dist(n, np.transpose(n, (1, 0, 2))) < 1e-9
    assert dist(n[0], np.eye(len(objs))) < 1e-9
    # N_{xy}^0 = 1 exactly when y is the dual of x
    vac_slice = n[:, :, 0]
    expected = np.zeros_like(vac_slice)
    for i, j in enumerate(dual):
        expected[i, j] = 1
    assert dist(vac_slice, expected) < 1e-9
    # dimensions form a one dimensional representation of the fusion ring
    dims = np.array([x.dim for x in objs], dtype=float)
    assert dist(np.einsum("xyz,z->xy", n, dims), np.outer(dims, dims)) < 1e-7


def einsum_fusion(g):
    """Reference Verlinde sum as one three-operand einsum, rounded to integers."""
    s = s_matrix(g)
    raw = np.einsum("xu,yu,zu->xyz", s, s, np.conj(s) / s[0])
    return np.rint(raw.real).astype(np.int64)


# 110_000 bytes makes blocks of 5 rows for Z6 (36 anyons) and 11 for Z5 (25),
# so both span several blocks and end in a partial one.
@pytest.mark.parametrize("block_bytes", [None, 110_000])
@pytest.mark.parametrize("build, n", [(cyclic, 6), (cyclic, 5), (alternating, 4), (symmetric, 3)])
def test_fusion_gemm_matches_einsum_reference(monkeypatch, build, n, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(quantum_double, "FUSION_BLOCK_BYTES", block_bytes)
    g = build(n)
    fusion = fusion_verlinde(g)
    assert fusion.dtype == np.int64
    assert np.array_equal(fusion, einsum_fusion(g))


@pytest.mark.parametrize("offset", [0.1, np.nan])
def test_fusion_rejects_a_non_integer_s_matrix(offset):
    g = symmetric(3)
    s = s_matrix(g).copy()
    s[1, 2] += offset
    g._cache["smatrix"] = s
    with pytest.raises(NegativeOrNonInteger):
        fusion_verlinde(g)


def test_cached_s_matrix_and_fusion_are_read_only():
    g = symmetric(3)
    s, n = s_matrix(g).copy(), fusion_verlinde(g).copy()
    with pytest.raises(ValueError):
        s_matrix(g)[0, 0] = 9
    with pytest.raises(ValueError):
        fusion_verlinde(g)[0, 0, 0] = 5
    assert np.array_equal(s_matrix(g), s)
    assert np.array_equal(fusion_verlinde(g), n)


def test_product_anyon_multiplicativity():
    a, b = cyclic(2), symmetric(3)
    g = direct_product(a, b)
    objs = anyons(g)
    index = {x.label: i for i, x in enumerate(objs)}
    ta, tb, tg = t_vector(a), t_vector(b), t_vector(g)
    assert len(objs) == len(anyons(a)) * len(anyons(b))
    for i, x in enumerate(anyons(a)):
        for j, y in enumerate(anyons(b)):
            p = product_anyon(g, x, y)
            assert p.dim == x.dim * y.dim
            assert abs(tg[index[p.label]] - ta[i] * tb[j]) < 1e-10
    with pytest.raises(GroupMismatch):
        product_anyon(g, anyons(b)[2], anyons(b)[0])  # a 2-dimensional anyon is not one of Z2's


def test_anyon_by_and_group_mismatch():
    g = symmetric(3)
    x = anyon_by(g, 0, 2)
    assert x.label == "(e,r2)" and x.dim == 2
    other = cyclic(2)
    chi = anyon_character(g, x)
    chi2 = anyon_character(other, anyons(other)[0])
    with pytest.raises(GroupMismatch):
        _ = chi + chi2


def test_nan_class_functions_are_rejected():
    g = symmetric(3)
    values = np.array(anyon_character(g, anyons(g)[2]).orbit_values)
    values[1] = np.nan
    with pytest.raises(NonIntegerMultiplicity):
        dg_decompose(DGClassFunction(g, values))
    grid = np.array(anyon_character(g, anyons(g)[2]).values)
    grid[0, 0] = np.nan
    with pytest.raises(ConditionMismatch):
        DGClassFunction.from_dense(g, grid)


def test_s_charge_powers_start_at_the_identity_and_hold_s():
    for g in (cyclic(1), symmetric(3), alternating(4)):
        stack = s_charge_powers(g)
        assert stack.shape == s_matrix(g).shape + (len(g.power_table()),)
        assert np.array_equal(stack[..., 1 % stack.shape[-1]], s_matrix(g))
        # j = 0 sends every charge to the identity: d_X d_Y / |G| times the flux overlap
        dims = np.array([x.dim for x in anyons(g)])
        assert dist(stack[0, :, 0], dims / g.order) < 1e-12


def reference_s_power(g, j):
    """(1/|G|) sum over commuting (g, h) of chi_X(h^j g*)* chi_Y(g^j h*)*, one j at a time."""
    po = pair_orbits(g)
    power = g.power_table()[j]
    own = po.orbit_of[power[po.rep_g], po.rep_h]
    swap = po.orbit_of[power[po.rep_h], po.rep_g]
    x = np.conj(po.table)
    return (x[:, swap] * po.sizes) @ x[:, own].T / g.order


def test_s_charge_power_row_blocks_match_the_per_power_reference():
    for g in (symmetric(3), alternating(4), direct_product(cyclic(2), symmetric(3)), cyclic(6)):
        e, m = len(g.power_table()), len(anyons(g))
        reference = np.stack([reference_s_power(g, j) for j in range(e)], axis=-1)
        assert dist(s_charge_powers(g), reference) < 1e-13
        for x0 in range(0, m, 3):
            rows = slice(x0, x0 + 3)
            assert np.array_equal(s_charge_powers(g, rows), s_charge_powers(g)[rows])


def test_dropped_groups_are_freed_without_the_garbage_collector():
    """Cached per-group data holds no reference back to its group, so reference
    counting alone frees a dropped group and its S matrix and fusion tensor."""
    builds = (
        lambda: cyclic(12),
        lambda: direct_product(cyclic(2), symmetric(3)),
        lambda: affine_group(near_field(7)),
    )
    gc.collect()
    gc.disable()
    try:
        for build in builds:
            g = build()
            conjugacy_data(g)
            character_table(g)
            centralizer(g, int(anyons(g)[-1].class_rep))
            refs = [weakref.ref(a) for a in (fusion_verlinde(g), s_matrix(g), pair_orbits(g).orbit_of)]
            del g
            assert [r() is None for r in refs] == [True, True, True]
        report = verify_cf_symmetry(near_field(4))
        assert report.ok
        factor = report.equivalence.tunneling.left
        ref = weakref.ref(pair_orbits(factor).orbit_of)
        del report, factor
        assert ref() is None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic_garbage = {type(o).__qualname__ for o in gc.garbage if type(o).__module__.startswith("artifact")}
        assert cyclic_garbage == set()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
