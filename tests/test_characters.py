"""Ordinary character tables, induction, restriction, and exact root multiplicities."""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import characters, quantum_double
from artifact.characters import (
    ClassFunction,
    _row_sort_order,
    character_table,
    class_orbits,
    conjugate_character,
    decompose,
    induced_character,
    inner_product,
    regular_character,
    restricted_character,
    trivial_character,
)
from artifact.cli import main
from artifact.errors import ConditionMismatch, GroupMismatch, NumericalDegeneracy
from artifact.groups import (
    affine_group,
    alternating,
    conjugacy_data,
    cyclic,
    direct_product,
    from_cayley,
    generated_subgroup,
    near_field,
    symmetric,
)

from conftest import (
    dist,
    eigensolve_character_table,
    root_multiplicities,
    sweep_groups,
    tensor_product_character_table,
    tuple_key_order,
)

W3 = np.exp(2j * np.pi / 3)


def test_s3_table_matches_known_values():
    # classes ordered by minimal representative: e, transpositions, 3-cycles
    ct = character_table(symmetric(3))
    assert ct.dims.tolist() == [1, 1, 2]
    expected = np.array(
        [
            [1, 1, 1],
            [1, -1, 1],
            [2, 0, -1],
        ],
        dtype=complex,
    )
    assert dist(ct.table, expected) < 1e-10


def test_z4_table_matches_known_values():
    ct = character_table(cyclic(4))
    expected = np.array(
        [
            [1, 1, 1, 1],
            [1, 1j, -1, -1j],
            [1, -1j, -1, 1j],
            [1, -1, 1, -1],
        ]
    )
    assert dist(ct.table, expected) < 1e-10


def test_a4_table_matches_known_values():
    # classes: e, the two 3-cycle classes, then double transpositions
    ct = character_table(alternating(4))
    assert ct.dims.tolist() == [1, 1, 1, 3]
    expected = np.array(
        [
            [1, 1, 1, 1],
            [1, W3, np.conj(W3), 1],
            [1, np.conj(W3), W3, 1],
            [3, 0, 0, -1],
        ]
    )
    assert dist(ct.table, expected) < 1e-8


def test_row_orthonormality_various_groups():
    for g in (cyclic(8), symmetric(4), alternating(5), direct_product(cyclic(2), symmetric(3))):
        ct = character_table(g)
        n = ct.n_rows
        gram = np.array(
            [[inner_product(ct.row(i), ct.row(j)) for j in range(n)] for i in range(n)]
        )
        assert dist(gram, np.eye(n)) < 1e-8
        # sum of squared dimensions is the group order
        assert int(np.round((ct.dims**2).sum())) == g.order


def test_regular_character_contains_each_irrep_dim_times():
    g = symmetric(4)
    ct = character_table(g)
    reg = regular_character(g)
    for i in range(ct.n_rows):
        mult = inner_product(reg, ct.row(i))
        assert abs(mult - ct.dims[i]) < 1e-8


def test_trivial_and_conjugate_characters():
    g = alternating(4)
    ct = character_table(g)
    assert dist(trivial_character(g).orbit_values, np.ones(4)) < 1e-12
    # conjugating the omega row gives the omega-bar row
    assert dist(conjugate_character(ct.row(1)).orbit_values, ct.table[2]) < 1e-8


def test_frobenius_reciprocity_s3():
    g = symmetric(3)
    k = generated_subgroup(g, [next(x for x in range(6) if g.element_order(x) == 3)])
    ct_g = character_table(g)
    ct_k = character_table(k.as_group)
    for i in range(ct_k.n_rows):
        ind = induced_character(g, k, ct_k.row(i))
        for j in range(ct_g.n_rows):
            lhs = inner_product(ind, ct_g.row(j))
            rhs = inner_product(ct_k.row(i), restricted_character(k, ct_g.row(j)))
            assert abs(lhs - rhs) < 1e-8


def test_induced_character_degree_scales_by_index():
    g = alternating(4)
    k = generated_subgroup(g, [x for x in range(12) if g.element_order(x) == 2])
    ind = induced_character(g, k, trivial_character(k.as_group))
    assert abs(ind.values[0] - g.order / k.order) < 1e-10


def test_restriction_is_pointwise():
    g = symmetric(4)
    k = generated_subgroup(g, [1])
    chi = character_table(g).row(3)
    res = restricted_character(k, chi)
    for i, m in enumerate(k.members):
        assert abs(res.values[i] - chi.values[int(m)]) < 1e-10


@pytest.mark.parametrize("g", [cyclic(3), symmetric(3)], ids=["Z3", "S3"])
def test_class_and_double_functions_do_not_mix(g):
    # Z3 has as many classes as rows of its 3 x 3 grid: without the guard the
    # class vector broadcasts against the grid
    chi = character_table(g).row(1)
    psi = quantum_double.anyon_character(g, quantum_double.anyons(g)[1])
    for a, b in ((chi, psi), (psi, chi)):
        with pytest.raises(GroupMismatch):
            inner_product(a, b)
        with pytest.raises(GroupMismatch):
            _ = a + b
        with pytest.raises(GroupMismatch):
            _ = a - b


def test_one_inner_product_and_one_decomposition():
    assert quantum_double.dg_inner_product is inner_product
    assert quantum_double.dg_decompose is decompose


@pytest.mark.parametrize("g", [symmetric(3), alternating(4), affine_group(near_field(5))], ids=["S3", "A4", "AffF5"])
def test_decompose_ordinary_characters(g):
    ct = character_table(g)
    for i in range(ct.n_rows):
        assert decompose(ct.row(i)).tolist() == np.eye(ct.n_rows, dtype=int)[i].tolist()
    assert decompose(regular_character(g)).tolist() == ct.dims.tolist()
    k = generated_subgroup(g, [1])
    ct_k = character_table(k.as_group)
    for i in range(ct_k.n_rows):
        ind = decompose(induced_character(g, k, ct_k.row(i)))
        res = [decompose(restricted_character(k, ct.row(j)))[i] for j in range(ct.n_rows)]
        assert ind.tolist() == res  # Frobenius reciprocity


def test_from_dense_on_classes_checks_constancy():
    g = symmetric(3)
    chi = character_table(g).row(2)
    back = ClassFunction.from_dense(g, chi.values, class_orbits(g))
    assert np.array_equal(back.orbit_values, chi.orbit_values)
    with pytest.raises(ConditionMismatch):
        ClassFunction.from_dense(g, np.arange(g.order), class_orbits(g))


def _powers(value: complex, e: int) -> np.ndarray:
    """value^j for j = 0..e-1: the Dixon input of one root of unity."""
    return value ** np.arange(e)


# root_multiplicities is the tests' float route of Dixon's formula, the reference that
# the exact multiplicities (the table's and the snapped S cells') are held to
def test_root_multiplicities_of_roots_of_unity():
    z8 = np.exp(2j * np.pi / 8)
    assert root_multiplicities(2 * _powers(z8, 8)).tolist() == [0, 2, 0, 0, 0, 0, 0, 0]
    # 2 cos(2 pi / 3) = -1 reads as z3 + z3^2, and a constant as its multiplicity at k = 0
    assert root_multiplicities(_powers(W3, 3) + _powers(np.conj(W3), 3)).tolist() == [0, 1, 1]
    assert root_multiplicities(np.full(4, 3.0)).tolist() == [3, 0, 0, 0]
    # the last axis is j; leading axes are cells
    both = root_multiplicities(np.stack([_powers(1j, 4), _powers(-1j, 4)]))
    assert both.tolist() == [[0, 1, 0, 0], [0, 0, 0, 1]]


@pytest.mark.parametrize(
    "values",
    [
        np.full(4, 0.123456789 + 0.5j),  # off integers
        np.full(4, -1.0),  # a negative multiplicity
        np.array([1.0, np.nan, 1.0, 1.0]),  # NaN
    ],
)
def test_root_multiplicities_reject_non_multiplicities(values):
    with pytest.raises(NumericalDegeneracy):
        root_multiplicities(values)


def test_character_values_are_sums_of_eigenvalue_roots():
    # chi(x^j), j = 0..e-1, gives the eigenvalue multiplicities of rho(x): they
    # count dim rho eigenvalues, sum back to chi(x) and are the exact ones the table keeps
    for g in (symmetric(4), alternating(5), direct_product(cyclic(3), symmetric(3))):
        ct = character_table(g)
        data = conjugacy_data(g)
        powers = g.power_table()
        c = root_multiplicities(ct.table[:, data.class_of[powers[:, data.reps].T]])
        e = len(powers)
        assert c.shape == (ct.n_rows, len(data.reps), e)
        assert np.array_equal(c.sum(axis=-1), np.repeat(ct.dims[:, None], len(data.reps), 1))
        assert dist(c @ np.exp(2j * np.pi * np.arange(e) / e), ct.table) < 1e-12
        assert np.array_equal(c, ct.mult)


def _reference_groups():
    """The sweep groups, then S5, A6, S6 (|G| = 720) and Aff(F_q) for q = 11, 13, 16."""
    yield from sweep_groups()
    yield from (symmetric(5), alternating(6), symmetric(6))
    yield from (affine_group(near_field(q)) for q in (11, 13, 16))


@pytest.mark.parametrize("g", list(_reference_groups()), ids=lambda g: g.label)
def test_exact_table_matches_the_float_eigensolve(g):
    ct = character_table(from_cayley(g.mul, label=g.label))  # a fresh group: no cached table
    table, dims = eigensolve_character_table(g)
    assert ct.dims.tolist() == dims.tolist()
    assert dist(ct.table, table) <= 1e-9  # same rows in the same order


def test_product_groups_give_the_same_table_through_either_path():
    """Dixon-Schneider on the product against the tensor product of the factor tables."""
    for a, b in [(cyclic(2), symmetric(3)), (symmetric(3), symmetric(3)), (cyclic(4), alternating(4)),
                 (affine_group(near_field(5)), cyclic(3)), (alternating(4), cyclic(4))]:
        ct = character_table(direct_product(a, b))
        table, dims = tensor_product_character_table(direct_product(a, b))
        assert ct.dims.tolist() == dims.tolist()
        assert dist(ct.table, table) <= 1e-9  # same rows in the same order


def test_row_sort_order_matches_the_tuple_key_on_shuffled_rows():
    rng = np.random.default_rng(7)
    for g in (*sweep_groups(), symmetric(5), alternating(6), direct_product(symmetric(3), symmetric(3))):
        ct = character_table(g)
        for _ in range(3):
            rows = rng.permutation(ct.n_rows)
            table, dims = ct.table[rows], ct.dims[rows]
            assert _row_sort_order(table, dims).tolist() == tuple_key_order(table, dims).tolist()
        assert _row_sort_order(ct.table, ct.dims).tolist() == list(range(ct.n_rows))


def _drop_last_root(monkeypatch):
    eigenvalues = characters._eigenvalues
    monkeypatch.setattr(characters, "_eigenvalues", lambda m, p: eigenvalues(m, p)[:-1])


def _corrupt_one_class_constant(monkeypatch):
    constants = characters._class_structure_constants

    def corrupt(g):
        a = constants(g).copy()
        a[1, 1, 0] += 1  # one more transposition pair multiplying to e
        return a

    monkeypatch.setattr(characters, "_class_structure_constants", corrupt)


@pytest.mark.parametrize("fault", [_drop_last_root, _corrupt_one_class_constant])
def test_exact_checks_reject_a_faulty_split(fault, monkeypatch):
    fault(monkeypatch)
    with pytest.raises(ConditionMismatch):
        character_table(symmetric(3))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["chartable", "--group", "builtin:S3"])
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue().startswith("check failed: ")


@pytest.mark.parametrize("p", [13, 157, 761])
def test_lagrange_polynomials_are_one_at_their_root_and_zero_at_the_others(p):
    # sum_j L[lam, j] mu^j = delta_{lam mu} mod p, on seeded root sets
    rng = np.random.default_rng(p)
    for r in (1, 2, 5, 12, 13):
        roots = [int(x) for x in rng.choice(p, size=r, replace=False)]
        lagrange = characters._lagrange(roots, p)
        powers = np.array([[pow(mu, j, p) for mu in roots] for j in range(r)], dtype=np.int64)  # [j, mu]
        assert lagrange.dtype == np.int64 and lagrange.min() >= 0 and lagrange.max() < p
        assert np.array_equal(lagrange @ powers % p, np.eye(r, dtype=np.int64))


def _least_prime_and_roots(n, e):
    """The unmemoized search: the least prime p = 1 (mod e) above n, and the powers of
    the first x^((p-1)/e), x = 1, 2, ..., of order e."""
    p = e * (n // e) + 1
    while p <= n or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += e
    for x in range(1, p):
        zp = [pow(x, (p - 1) // e * s, p) for s in range(e)]
        if 1 not in zp[1:]:
            return p, zp


@pytest.mark.parametrize("g", [
    cyclic(1), cyclic(2), cyclic(12), symmetric(3), symmetric(6), alternating(5), affine_group(near_field(9)),
    affine_group(near_field(13)), direct_product(cyclic(2), symmetric(3)),
], ids=lambda g: g.label)
def test_the_prime_memo_keeps_every_prime_and_root(g):
    # one read-only entry per (|G|, e), shared by every later call and equal to the search it replaced
    key = (g.order, len(g.power_table()))
    want_p, want_z = _least_prime_and_roots(*key)
    p, zp = characters._prime_and_roots(*key)
    assert (p, zp.dtype, zp.tolist()) == (want_p, np.int64, want_z)
    assert not zp.flags.writeable
    assert characters._prime_and_roots(*key)[1] is zp and characters._PRIMES[key][1] is zp


def _chain_split(m, vecs, p):
    """The eigenprojector of each root lam of m mod p applied to vecs as a chain of
    factors (m - mu) / (lam - mu), r(r - 1) products in all: the reference for the
    one Krylov step of characters._split."""
    roots = [int(r) for r in characters._eigenvalues(m, p)]
    parts = [vecs[:, :0]]
    for lam in roots:
        proj = vecs
        for mu in roots:
            if mu != lam:
                proj = (m @ proj - mu * proj) % p * pow(lam - mu, -1, p) % p
        parts.append(proj[:, proj.any(axis=0)])
    return np.concatenate(parts, axis=1)


@pytest.mark.parametrize("g", [
    symmetric(5), alternating(6), affine_group(near_field(13)), direct_product(cyclic(2), symmetric(3)),
], ids=lambda g: g.label)
def test_the_krylov_split_matches_the_chain_of_eigenprojector_factors(g):
    # every class matrix splits e_0 and the vectors its predecessors left, bit for bit
    p, _ = characters._prime_and_roots(g.order, len(g.power_table()))
    start = vecs = np.eye(len(conjugacy_data(g).reps), 1, dtype=np.int64)
    for m in characters._class_structure_constants(g)[1:]:
        for before in (start, vecs):
            split, chain = characters._split(m, before, p), _chain_split(m, before, p)
            assert split.dtype == chain.dtype and np.array_equal(split, chain)
        vecs = characters._split(m, vecs, p)
    assert vecs.shape == (len(conjugacy_data(g).reps),) * 2


def test_exact_checks_hold_under_python_O():
    script = """
import sys
from artifact import characters, quantum_double
from artifact.cli import main
eigenvalues = characters._eigenvalues
characters._eigenvalues = lambda m, p: eigenvalues(m, p)[:-1]
print(sys.flags.optimize, main(["chartable", "--group", "builtin:S3"]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(artifact.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert run.stdout.split() == ["1", "1"], run.stderr
    assert "check failed: " in run.stderr
