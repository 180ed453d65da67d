"""Anyon data of the double: labels, characters, S, T, and fusion."""

import dataclasses
import functools
import gc
import weakref

import numpy as np
import pytest

from artifact import characters, errors, quantum_double
from artifact.characters import ClassFunction, character_table
from artifact.condensation import boundary_character, verify_cf_symmetry
from artifact.errors import (
    ConditionMismatch,
    GroupMismatch,
    NonIntegerMultiplicity,
    SizeExceeded,
)
from artifact.groups import (
    GroupTable,
    affine_group,
    alternating,
    conjugacy_data,
    cyclic,
    direct_product,
    full_subgroup,
    near_field,
    symmetric,
)
from artifact.quantum_double import (
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
    s_matrix,
    s_root_counts,
    t_vector,
    tensor_character,
    twist_exponents,
)

from conftest import dist, reference_s_counts, sweep_groups

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
        assert np.array_equal(po.orbit_of[po.reps], np.arange(po.sizes.size))


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


@functools.cache
def einsum_fusion(build, n):
    """Reference Verlinde sum of build(n)'s float S as one three-operand einsum,
    rounded to integers; memoized, since every block size reads the same tensor."""
    s = s_matrix(build(n))
    raw = np.einsum("xu,yu,zu->xyz", s, s, np.conj(s) / s[0])
    return np.rint(raw.real).astype(np.int64)


def affine(q):
    return affine_group(near_field(q))


def z2_times_symmetric(n):
    return direct_product(cyclic(2), symmetric(n))


def dickson(n):
    return affine_group(near_field(n, kind="dickson9"))


# Fusion runs one GEMM per pair of flux classes A <= B, over the z that flux conservation
# allows, in row blocks of A's anyons at 24 m |B| bytes per row (m anyons, |B| in class B).
# At 110_000 and 40_000 bytes the small groups still take every class whole: Z6, Z5, A4
# (14 anyons in classes of 3 and 4), S3, Aff(F5), Z2 x S3, S4 (21 in classes of 3 to 5)
# and A5 (22 in 3 to 5).  Aff(D9), the Dickson near-field's affine group (32 in 4 to 9),
# splits its class of 6 into rows 5 + 1 against its class of 9 at 40_000.  Z10 (classes of
# 10 of 100) takes blocks of 4 rows at 110_000, Z12 (12 of 144) 2, Aff(F11) (10 or 11 of
# 112) 3 or 4; all three take 1 row at 40_000 and whole classes by default.  In S4, A5 and
# Aff(D9) class products reach up to 3, 5 and 3 classes and the blocks differ in size.
# Z10 and Z12 have p = |G| + 1 (11 and 13), Aff(F11) the largest p of the benchmark, 331.
@pytest.mark.parametrize("block_bytes", [None, 110_000, 40_000])
@pytest.mark.parametrize("build, n", [
    (cyclic, 6), (cyclic, 5), (alternating, 4), (symmetric, 3), (affine, 5), (z2_times_symmetric, 3),
    (cyclic, 10), (cyclic, 12), (affine, 11), (symmetric, 4), (alternating, 5), (dickson, 9),
])
def test_fusion_gemm_matches_einsum_reference(monkeypatch, build, n, block_bytes):
    if block_bytes is not None:
        monkeypatch.setattr(errors, "BLOCK_BYTES", block_bytes)
    g = build(n)
    fusion = fusion_verlinde(g)
    assert fusion.dtype == np.min_scalar_type(max(x.dim for x in anyons(g)))
    assert np.array_equal(fusion, einsum_fusion(build, n))
    assert np.array_equal(fusion, fusion.transpose(1, 0, 2))


# N <= min(d_x, d_y) <= max d fixes the dtype: S6 has the largest dimension of the
# groups the tests, CI and benchmark build, 144, the nearest to the uint8 limit, and
# Aff(F13) the benchmark's largest tensor; both are uint8, read-only, and their
# dimension sums hold over Z
@pytest.mark.parametrize("build, n, max_dim", [(symmetric, 6, 144), (affine, 13, 13)])
def test_fusion_is_stored_at_its_certified_width(build, n, max_dim):
    g = build(n)
    dims = np.array([x.dim for x in anyons(g)])
    fusion = fusion_verlinde(g)
    assert dims.max() == max_dim
    assert fusion.dtype == np.uint8 and not fusion.flags.writeable
    assert np.array_equal(fusion.astype(np.int64) @ dims, np.outer(dims, dims))


def test_fusion_certifies_the_int64_residues_before_the_narrowing_store(monkeypatch):
    # a residue r + 256 in the last row would wrap back to r in uint8; the
    # certificate reads the int64 block, so it fails, and no tensor is cached
    g = symmetric(3)
    g._cache["s_residues"] = quantum_double._s_residues(g)
    exact = quantum_double._gemm_mod

    def shifted(a, b, p):
        out = exact(a, b, p)
        out[-1, 0] += 256
        return out

    monkeypatch.setattr(quantum_double, "_gemm_mod", shifted)
    with pytest.raises(ConditionMismatch, match="fusion residues: sum N d != d_x d_y"):
        fusion_verlinde(g)
    assert "fusion" not in g._cache


def test_fusion_certifies_the_flux_sector_table(monkeypatch):
    # a class pair whose product meets two classes loses one of them: its outcomes
    # there are skipped though not 0, so the block's dimension sum falls short
    g = symmetric(3)
    exact = quantum_double._flux_sectors

    def dropped(g):
        hits = exact(g).copy()
        a, b = next((a, b) for a, b in zip(*np.triu_indices(len(hits))) if hits[a, b].sum() > 1)
        hits[a, b, np.flatnonzero(hits[a, b])[-1]] = False
        return hits

    monkeypatch.setattr(quantum_double, "_flux_sectors", dropped)
    with pytest.raises(ConditionMismatch, match="fusion residues: sum N d != d_x d_y"):
        fusion_verlinde(g)
    assert "fusion" not in g._cache


def test_fusion_primes_of_the_reference_groups():
    primes = {g.label: quantum_double._s_residues(g)[0] for g in (cyclic(10), cyclic(12), affine(11))}
    assert primes == {"Z10": 11, "Z12": 13, "Aff(F11)": 331}


# the half tensor still reads every entry of S mod p and conj(S) mod p: a residue
# moved at [1, 2] fails, and so does one in the last row, which is the last x and
# a y of every block; no tensor is cached
CORRUPTED = [
    pytest.param(which, at, id=f"{name}{where}")
    for at, where in [((1, 2), ""), ((-1, 0), "-last-first"), ((-1, -1), "-last-last")]
    for which, name in ((1, "S"), (2, "conjS"))
]


@pytest.mark.parametrize("which, at", CORRUPTED)
def test_fusion_rejects_a_corrupted_s_residue(which, at):
    g = symmetric(3)
    residues = list(quantum_double._s_residues(g))
    residues[which][at] = (residues[which][at] + 1) % residues[0]
    g._cache["s_residues"] = tuple(residues)
    with pytest.raises(ConditionMismatch, match="fusion residues: sum N d != d_x d_y"):
        fusion_verlinde(g)
    assert "fusion" not in g._cache


# one root multiplicity of the last irrep at the last class, raised by one, in the
# table of each distinct centralizer of S3: the identity's is S3 itself, so rep 0
# corrupts S3's own table; then Z2 and Z3
@pytest.mark.parametrize("rep", [0, 1, 2])
def test_fusion_rejects_a_corrupted_centralizer_mult(rep):
    g = symmetric(3)
    z = centralizer(g, int(conjugacy_data(g).reps[rep])).as_group
    tab = character_table(z)
    mult = tab.mult.copy()
    mult[-1, -1, -1] += 1
    z._cache["chartable"] = (tab.table, tab.dims, mult)
    with pytest.raises(ConditionMismatch, match="fusion residues: sum N d != d_x d_y"):
        fusion_verlinde(g)
    assert "fusion" not in g._cache


def test_residue_gemm_refuses_sums_past_exact_float64():
    # the guard reads the operands: K max(a) max(b) = 4 2^34 2^17 = 2^53 passes, and one
    # more in a's largest entry or one more column is refused; zeros pass at any width
    p = 2**17 + 1
    a, b = np.full((1, 4), 2.0**34), np.full((4, 1), 2.0**17)
    assert quantum_double._gemm_mod(a, b, p)[0, 0] == 2**53 % p
    for a, b in ((a + np.eye(1, 4), b), (np.full((1, 5), 2.0**34), np.full((5, 1), 2.0**17))):
        with pytest.raises(SizeExceeded, match="exact float64"):
            quantum_double._gemm_mod(a, b, p)
    assert quantum_double._gemm_mod(np.zeros((1, 5)), np.zeros((5, 1)), p)[0, 0] == 0


@pytest.mark.parametrize("p", [7, 13, 331, 2**17 - 1, 2**17 + 1])
def test_residue_gemm_floor_mod_is_exact_up_to_2_53(p):
    # a one-column GEMM by 1 hands the float64 floor-mod each f as it is: 2^53 itself,
    # the last multiple of p at or below it and the integer before, and random f
    k = 2**53 // p
    f = [2**53, k * p, k * p - 1, 0, p - 1, p]
    f += np.random.default_rng(p).integers(0, 2**53, 2000, endpoint=True).tolist()
    out = quantum_double._gemm_mod(np.array(f, dtype=np.float64)[:, None], np.ones((1, 1)), p)
    assert out.dtype == np.int64
    assert out[:, 0].tolist() == [x % p for x in f]


def test_elements_with_one_centralizer_share_its_table():
    g = cyclic(6)
    assert len({id(centralizer(g, a).as_group) for a in range(g.order)}) == 1


def test_elements_with_one_centralizer_share_its_root_multiplicities():
    g = cyclic(12)
    mults = [character_table(centralizer(g, a).as_group).mult for a in range(g.order)]
    assert all(mult is mults[0] for mult in mults)
    assert mults[0].dtype == np.int16 and mults[0].shape == (12, 12, 12) and not mults[0].flags.writeable


# _character_table runs once per distinct centralizer of a class representative, and
# the identity's is g itself, so g's own table serves it: Aff(F13) builds three (G,
# Z13, Z12) and Z12 one
@pytest.mark.parametrize("build, n, tables", [
    (cyclic, 12, 1), (affine, 13, 3), (z2_times_symmetric, 3, 3), (symmetric, 5, 6),
])
def test_anyons_build_one_character_table_per_distinct_centralizer(monkeypatch, build, n, tables):
    g = build(n)
    built = []
    table = characters._character_table
    monkeypatch.setattr(characters, "_character_table", lambda h: built.append(h) or table(h))
    character_table(g), anyons(g), pair_orbits(g)
    assert len(built) == tables and built[0] is g


# a central element's centralizer is the whole group, and its as_group is g itself:
# the identity of S3, the centre {(0, e), (1, e)} = {0, 6} of Z2 x S3, all of Z12
@pytest.mark.parametrize("build, n, central", [
    (symmetric, 3, [0]), (z2_times_symmetric, 3, [0, 6]), (cyclic, 12, list(range(12))),
])
def test_a_central_elements_centralizer_is_the_group_itself(build, n, central):
    g = build(n)
    assert [a for a in range(g.order) if np.array_equal(g.mul[a], g.mul[:, a])] == central
    assert [a for a in range(g.order) if centralizer(g, a).as_group is g] == central
    z = centralizer(g, 0)
    assert z.parent is g and z.order == g.order
    assert np.array_equal(z.members, np.arange(g.order)) and np.array_equal(z.position, np.arange(g.order))
    assert character_table(z.as_group).mult is character_table(g).mult
    # built anew on each call, never cached: a cached Subgroup would hold g in g's own cache
    assert centralizer(g, 0) is not z
    assert ("centralizer", z.members.tobytes()) not in g._cache


def test_cached_s_matrix_and_fusion_are_read_only():
    g = symmetric(3)
    s, n = s_matrix(g).copy(), fusion_verlinde(g).copy()
    with pytest.raises(ValueError):
        s_matrix(g)[0, 0] = 9
    with pytest.raises(ValueError):
        fusion_verlinde(g)[0, 0, 0] = 5
    assert np.array_equal(s_matrix(g), s)
    assert np.array_equal(fusion_verlinde(g), n)
    # every other cached per-group array is shared by later calls, so it is read-only too
    data, po, z = conjugacy_data(g), pair_orbits(g), centralizer(g, 1)
    cached = {
        "character_table.table": character_table(g).table,
        "character_table.dims": character_table(g).dims,
        "character_table.mult": character_table(g).mult,
        "s_residues.s": g._cache["s_residues"][1],
        "s_residues.conj_s": g._cache["s_residues"][2],
        "conjugacy_data.class_of": data.class_of,
        "conjugacy_data.reps": data.reps,
        "conjugacy_data.transversal": data.transversal,
        **{f"conjugacy_data.classes[{i}]": c for i, c in enumerate(data.classes)},
        "pair_orbits.orbit_of": po.orbit_of,
        "pair_orbits.sizes": po.sizes,
        "pair_orbits.rep_g": po.reps[0],
        "pair_orbits.rep_h": po.reps[1],
        "centralizer.members": z.members,
        "centralizer.position": z.position,
    }
    for name, arr in cached.items():
        before = arr.copy()
        with pytest.raises(ValueError):
            arr.flat[0] = 5
        assert np.array_equal(arr, before), name
    assert character_table(g).table[0, 0] == 1
    # cached containers are tuples: an append would change every later anyons, _index and pair_orbits
    objs = anyons(g)
    with pytest.raises(AttributeError):
        objs.append(objs[0])
    assert anyons(g) is objs and len(objs) == 8
    assert isinstance(data.classes, tuple)
    # after a full run every array reachable from the cache, centralizers' caches included, is read-only
    t_vector(g), anyon_dual(g, objs[3]), anyon_op(g, objs[5])
    arrays = list(_reachable_arrays(g._cache))
    assert len(arrays) > 30
    assert not [a for a in arrays if a.flags.writeable]


def _reachable_arrays(value):
    """Arrays in value, through containers, dataclass fields and groups with their caches."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, GroupTable):
        yield from _reachable_arrays((value.mul, value.inv, value._cache))
    elif isinstance(value, dict):
        yield from _reachable_arrays(list(value.values()))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _reachable_arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _reachable_arrays(getattr(value, f.name))


def test_product_anyon_multiplicativity():
    # A4 x Z4 has rows of equal degree that only their complex values separate
    for a, b in [(cyclic(2), symmetric(3)), (symmetric(3), symmetric(3)), (alternating(4), cyclic(4))]:
        g = direct_product(a, b)
        objs = anyons(g)
        index = {x: i for i, x in enumerate(objs)}
        ta, tb, tg = t_vector(a), t_vector(b), t_vector(g)
        hit = []
        for i, x in enumerate(anyons(a)):
            for j, y in enumerate(anyons(b)):
                p = product_anyon(g, x, y)
                hit.append(index[p])
                assert p.dim == x.dim * y.dim
                assert abs(tg[index[p]] - ta[i] * tb[j]) < 1e-10
        assert sorted(hit) == list(range(len(objs)))  # a bijection onto anyons(g)
    a, b = cyclic(2), symmetric(3)
    with pytest.raises(GroupMismatch):
        product_anyon(direct_product(a, b), anyons(b)[2], anyons(b)[0])  # a 2-dimensional anyon is not one of Z2's


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
        dg_decompose(ClassFunction(g, values, pair_orbits(g)))
    grid = np.array(anyon_character(g, anyons(g)[2]).values)
    grid[0, 0] = np.nan
    with pytest.raises(ConditionMismatch):
        ClassFunction.from_dense(g, grid, pair_orbits(g))


def test_from_dense_on_pairs_rejects_values_off_commuting_pairs():
    g = symmetric(3)
    grid = np.array(boundary_character(g, full_subgroup(g)).values)
    x, y = np.argwhere(g.mul != g.mul.T)[0]
    grid[x, y] = 1.0
    with pytest.raises(ConditionMismatch):
        ClassFunction.from_dense(g, grid, pair_orbits(g))


def _s_counts(g):
    """The row blocks of s_root_counts, stacked, after checking their scales |Z(a)||Z(b)|."""
    blocks = list(s_root_counts(g))
    zord = np.array([centralizer(g, x.class_rep).order for x in anyons(g)])
    assert np.array_equal(np.concatenate([scale for _, scale in blocks]), np.outer(zord, zord))
    return np.concatenate([c for c, _ in blocks])


def test_s_root_counts_start_at_the_identity_and_hold_s():
    for g in (cyclic(1), symmetric(3), alternating(4)):
        c, e = _s_counts(g), len(g.power_table())
        zord = np.array([centralizer(g, x.class_rep).order for x in anyons(g)])
        assert c.shape == s_matrix(g).shape + (e,) and c.min() >= 0
        assert dist(c @ np.exp(2j * np.pi * np.arange(e) / e) / np.outer(zord, zord), s_matrix(g)) < 1e-12
        # j = 0 sends every charge to the identity: the vacuum row counts |G| |Z(b)| S_0Y = |Z(b)| d_Y
        assert np.array_equal(c[0].sum(axis=-1), zord * [x.dim for x in anyons(g)])


def test_s_root_counts_match_the_float_route(monkeypatch):
    for g in (*sweep_groups(), symmetric(5), alternating(6), symmetric(6)):
        assert np.array_equal(_s_counts(g), reference_s_counts(g)), g.label
    g = direct_product(cyclic(2), symmetric(3))
    monkeypatch.setattr(errors, "BLOCK_BYTES", 1)  # one row per block
    assert len(list(s_root_counts(g))) == len(anyons(g))
    assert np.array_equal(_s_counts(g), reference_s_counts(g))


def test_twist_exponents_give_t():
    for g in (symmetric(3), alternating(5), affine_group(near_field(7))):
        e = len(g.power_table())
        assert dist(np.exp(2j * np.pi * twist_exponents(g) / e), t_vector(g)) < 1e-12


# a row of mult at a's own class in Z(a) that is not d_pi at one root: d = 2 split over
# two roots on S3 (a = e, Z(a) = S3), and a sign twist counted twice on Z2 (a a transposition)
@pytest.mark.parametrize("rep, pi, row", [(0, 2, [1, 1, 0, 0, 0, 0]), (1, 1, [0, 2])])
def test_twist_exponents_refuse_a_wrong_twist_row(rep, pi, row):
    g = symmetric(3)
    a = int(conjugacy_data(g).reps[rep])
    z = centralizer(g, a)
    tab = character_table(z.as_group)
    mult = tab.mult.copy()
    mult[pi, conjugacy_data(z.as_group).class_of[z.position[a]]] = row
    z.as_group._cache["chartable"] = (tab.table, tab.dims, mult)
    with pytest.raises(ConditionMismatch, match="twist rows must hold d_pi at one root"):
        twist_exponents(g)


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
            centralizer(g, 0)  # the whole group: g itself, which no cache may hold
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
