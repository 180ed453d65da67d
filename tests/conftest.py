"""Shared helpers for the test suite."""

import numpy as np

from artifact import lattice
from artifact.characters import ClassFunction
from artifact.errors import GroupMismatch, NumericalDegeneracy
from artifact.groups import (
    GroupTable,
    affine_group,
    alternating,
    conjugacy_data,
    cosets,
    cyclic,
    direct_product,
    near_field,
    symmetric,
)
from artifact.lattice import apply_invariant_op, ground_state
from artifact.quantum_double import (
    Anyon,
    anyon_character,
    anyon_dual,
    anyon_op,
    anyons,
    centralizer,
    pair_orbits,
)


def dist(a, b):
    """Max absolute entrywise difference."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def root_multiplicities(values: np.ndarray) -> np.ndarray:
    """The float route of Dixon's formula, kept as a reference for the exact counts:
    integer c[..., k] with values[..., j] = sum_k c_k z^(jk), z = exp(2 pi i / e), by one
    inverse discrete Fourier transform along the last axis.  Raises NumericalDegeneracy
    when c is off integers by more than 1e-8, negative, or NaN."""
    raw = np.fft.fft(values, axis=-1) / values.shape[-1]
    c = np.rint(raw.real)
    if not np.max(np.abs(raw - c)) <= 1e-8 or not c.min() >= 0:
        raise NumericalDegeneracy("root multiplicities off non-negative integers")
    return c.astype(np.int64)


def reference_s_power(g: GroupTable, j: int) -> np.ndarray:
    """(1/|G|) sum over commuting (g, h) of chi_X(h^j g*)* chi_Y(g^j h*)*, one j at a time."""
    po = pair_orbits(g)
    power = g.power_table()[j]
    own = po.orbit_of[power[po.reps[0]], po.reps[1]]
    swap = po.orbit_of[power[po.reps[1]], po.reps[0]]
    x = np.conj(po.table)
    return (x[:, swap] * po.sizes) @ x[:, own].T / g.order


def reference_s_counts(g: GroupTable) -> np.ndarray:
    """c[X, Y, k] of |Z(a)||Z(b)| S_XY = sum_k c_k z^k by the float route: S with every
    charge raised to the j-th power, scaled, then root_multiplicities over j."""
    zord = np.array([centralizer(g, x.class_rep).order for x in anyons(g)])
    stack = np.stack([reference_s_power(g, j) for j in range(len(g.power_table()))], axis=-1)
    return root_multiplicities(np.outer(zord, zord)[..., None] * stack)


def sweep_groups():
    """The 25 groups of order <= 72 of the criterion-10 property sweep."""
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        yield cyclic(n)
    yield symmetric(3)
    yield symmetric(4)
    yield alternating(4)
    yield alternating(5)
    yield direct_product(cyclic(2), cyclic(2))
    yield direct_product(cyclic(2), cyclic(4))
    yield direct_product(cyclic(3), cyclic(3))
    yield direct_product(cyclic(2), symmetric(3))
    for q in (2, 3, 4, 5, 7, 8, 9):
        yield affine_group(near_field(q))
    yield affine_group(near_field(9, kind="dickson9"))


def reference_characters(
    g: GroupTable, c: Anyon, f: Anyon, product: GroupTable | None = None
) -> dict[str, ClassFunction]:
    """The three folded comparison characters on G x G.

    "identity" sums X (x) op(X) over all anyons, "dual" sums X (x) op(X dual),
    and "swap" is the rank-one correction built from the chargeon c and the
    fluxion f whose transposition the wall is expected to implement."""
    gg = direct_product(g, g) if product is None else product
    factors = gg.meta.get("product_of")
    if factors is None or factors[0] is not g or factors[1] is not g:
        raise GroupMismatch("product group must fold two copies of g")
    n = g.order
    ident = np.zeros((n * n, n * n), dtype=np.complex128)
    dual = np.zeros_like(ident)
    for x in anyons(g):
        xv = anyon_character(g, x).values
        ident += np.kron(xv, anyon_character(g, anyon_op(g, x)).values)
        dual += np.kron(xv, anyon_character(g, anyon_op(g, anyon_dual(g, x))).values)
    cv = anyon_character(g, c).values
    fv = anyon_character(g, f).values
    swap = np.kron(cv - fv, cv - fv)
    return {
        "identity": ClassFunction.from_dense(gg, ident, pair_orbits(gg)),
        "dual": ClassFunction.from_dense(gg, dual, pair_orbits(gg)),
        "swap": ClassFunction.from_dense(gg, swap, pair_orbits(gg)),
    }


def list_boundary_character(patch, spec, seed: int = 0) -> ClassFunction:
    """Lattice boundary character with the orbit layouts of the whole invariant
    basis held at once, each entry summed over the basis in order: per basis
    state and holonomy class k of its layout at the ribbon's end site, the Gram
    M_k of the layout's columns, M_k[t g^-1, t] added to entry (g, conj[t, k])
    for g, then t, in order: the reference for the streamed
    `lattice_boundary_character`."""
    gt, sub, n = patch.group, patch.boundary, patch.group.order
    reps = cosets(gt, sub)
    shape, src, ends, conj = lattice._by_holonomy(patch, *spec.end)
    psi = ground_state(patch, seed=seed)
    layouts = [
        np.take(apply_invariant_op(patch, spec, psi, int(sub.members[k]), int(gi)).amplitudes.reshape(shape),
                src, axis=1)
        for k in range(sub.order)
        for gi in reps
    ]
    values = np.zeros((n, n), dtype=np.complex128)
    for u in layouts:
        for h, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):
            uk = u[:, :, lo:hi].swapaxes(0, 1).reshape(n, -1)
            gram = np.conj(uk) @ uk.T
            for g in range(n):
                for t in range(n):
                    values[g, conj[t, h]] += gram[gt.mul[t, gt.inv[g]], t]
    return ClassFunction.from_dense(gt, len(reps) * values, pair_orbits(gt))


def tuple_key_order(table: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Row order by the tuple key (degree, ((-re, -im) of each value rounded to
    9 places), index), one Python key per row: the reference for the package's
    lexsort."""
    keys = sorted(
        (int(dims[i]), tuple((round(-v.real, 9) + 0.0, round(-v.imag, 9) + 0.0) for v in row), i)
        for i, row in enumerate(table)
    )
    return np.array([key[-1] for key in keys], dtype=np.int64)


def eigensolve_character_table(g: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """(table, dims) by the float class-sum method, the reference for the exact
    Dixon-Schneider tables.

    The class matrices M_i[j, l] = |{(x, y) in C_i x C_j : xy = z_l}| share the
    eigenvectors omega_chi(K_l) = |C_l| chi(z_l) / chi(1); one seeded random real
    combination of them is diagonalized, each eigenvector is scaled to omega[0] = 1,
    and chi(1) = sqrt(|G| / sum_l |omega_l|^2 / |C_l|) turns omega into chi."""
    data = conjugacy_data(g)
    k = len(data.classes)
    sizes = np.array([c.size for c in data.classes], dtype=np.float64)
    cls = data.class_of
    counts = np.zeros((k, k, k))
    np.add.at(counts, (cls[:, None], cls[None, :], cls[g.mul]), 1)
    mats = counts / sizes
    combo = np.tensordot(np.random.default_rng(1000).standard_normal(k), mats, axes=1)
    vecs = np.linalg.eig(combo)[1]
    omegas = (vecs / vecs[0]).T  # row 0 of M_i is the i-th unit vector: omega_i = (M_i omega)_0
    degrees = np.rint(np.sqrt(g.order / np.sum(np.abs(omegas) ** 2 / sizes, axis=1)))
    table = degrees[:, None] * omegas / sizes
    dims = np.rint(table[:, 0].real).astype(np.int64)
    order = tuple_key_order(table, dims)
    return table[order], dims[order]


def tensor_product_character_table(g: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    """(table, dims) of a direct product as the tensor product of its factors'
    tables, rows in the tuple-key order: the reference for the product tables
    that character_table computes by Dixon-Schneider like any other group's."""
    from artifact.characters import character_table

    ga, gb = g.meta["product_of"]
    ta, tb = character_table(ga), character_table(gb)
    i, j = np.divmod(conjugacy_data(g).reps, gb.order)
    left = ta.table[:, conjugacy_data(ga).class_of[i]]
    right = tb.table[:, conjugacy_data(gb).class_of[j]]
    table = (left[:, None, :] * right[None, :, :]).reshape(-1, i.size)
    dims = np.outer(ta.dims, tb.dims).ravel()
    order = tuple_key_order(table, dims)
    return table[order], dims[order]
