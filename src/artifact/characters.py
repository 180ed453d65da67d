"""Irreducible characters of finite groups by the numeric class-sum method.

A random real combination of the class-sum matrices is diagonalized once;
its joint eigenvectors give the central characters, which are rescaled to
ordinary characters, with post-hoc orthogonality checks.  The table is
complex floating point.  Its exact values come from `root_multiplicities`:
chi(g) is the sum of the eigenvalues of rho(g), e-th roots of unity for e
the group exponent, and Dixon's formula reads their integer multiplicities
off chi(g^j), j = 0..e-1, with one discrete Fourier transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TOL, GroupMismatch, NotSubgroup, NumericalDegeneracy, _check, _integers
from .groups import GroupTable, Subgroup, conjugacy_data

MAX_ATTEMPTS = 8


@dataclass
class ClassFunction:
    """Complex values per conjugacy class, in conjugacy_data class order."""

    group: GroupTable
    values: np.ndarray

    def on_element(self, x: int) -> complex:
        return complex(self.values[conjugacy_data(self.group).class_of[x]])

    def on_elements(self) -> np.ndarray:
        """Length-|G| vector of values per element."""
        return self.values[conjugacy_data(self.group).class_of]

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, np.conj(self.values))


@dataclass
class CharacterTable:
    group: GroupTable
    table: np.ndarray  # rows = irreps, columns = classes
    dims: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.table.shape[0])

    def row(self, i: int) -> ClassFunction:
        return ClassFunction(self.group, self.table[i])

    def match_row(self, values: np.ndarray) -> int:
        """Row index whose values match the given class vector."""
        for i in range(self.n_rows):
            if np.max(np.abs(self.table[i] - values)) <= TOL["match"]:
                return i
        raise NumericalDegeneracy("no matching irreducible row")


def _row_sort_order(table: np.ndarray, dims: np.ndarray) -> np.ndarray:
    keys = []
    for i in range(table.shape[0]):
        value_key = tuple(
            (round(-v.real, 9) + 0.0, round(-v.imag, 9) + 0.0) for v in table[i]
        )
        keys.append((int(dims[i]), value_key, i))
    keys.sort()
    return np.array([k[-1] for k in keys], dtype=np.int64)


def _class_structure_constants(g: GroupTable) -> np.ndarray:
    data = conjugacy_data(g)
    k = len(data.classes)
    sizes = np.array([c.size for c in data.classes], dtype=np.int64)
    cls = data.class_of
    counts = np.zeros((k, k, k), dtype=np.int64)
    ci = np.broadcast_to(cls[:, None], g.mul.shape).ravel()
    cj = np.broadcast_to(cls[None, :], g.mul.shape).ravel()
    ck = cls[g.mul].ravel()
    np.add.at(counts, (ci, cj, ck), 1)
    return counts / sizes[None, None, :]


def _orthonormality_residual(g: GroupTable, table: np.ndarray) -> float:
    sizes = np.array([c.size for c in conjugacy_data(g).classes], dtype=np.float64)
    gram = (table * sizes[None, :]) @ table.conj().T / g.order
    return float(np.max(np.abs(gram - np.eye(table.shape[0]))))


def _attempt(g: GroupTable, mats: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(table, dims) from the joint eigenvectors of one seeded random combination
    of the class matrices; raises NumericalDegeneracy when they fall short."""
    k = mats.shape[0]
    sizes = np.array([c.size for c in conjugacy_data(g).classes], dtype=np.float64)
    norms = np.abs(mats).max(axis=(1, 2))
    combo = np.tensordot(np.random.default_rng(seed).standard_normal(k), mats, axes=1)
    _, vecs = np.linalg.eig(combo)
    table = np.empty((k, k), dtype=np.complex128)
    for col in range(k):
        v = vecs[:, col]
        # reads tol <= |v[0]|: a pivot below TOL["nonzero"] fails
        _check("eigenvector pivot", TOL["nonzero"], abs(v[0]), NumericalDegeneracy)
        omega = v / v[0]
        scale = max(1.0, float(np.max(np.abs(omega))))
        omvals = np.empty(k, dtype=np.complex128)
        for i in range(k):
            image = mats[i] @ omega
            omvals[i] = image[0]
            bound = TOL["eigenvector"] * max(1.0, norms[i] * scale)
            _check("class matrix eigen equation", np.max(np.abs(image - omvals[i] * omega)), bound,
                   NumericalDegeneracy)
        d = math.sqrt(g.order / float(np.sum(np.abs(omvals) ** 2 / sizes)))
        dim = np.rint(d)
        _check("degree off integer", abs(d - dim), TOL["match"], NumericalDegeneracy)
        if dim < 1:
            raise NumericalDegeneracy("degree below one")
        table[col] = dim * omvals / sizes
    dims = np.real(table[:, 0]).round().astype(np.int64)
    if int(np.sum(dims**2)) != g.order:
        raise NumericalDegeneracy("squared degrees must total |G|")
    order = _row_sort_order(table, dims)
    table, dims = table[order], dims[order]
    _check("row orthonormality", _orthonormality_residual(g, table), TOL["character"], NumericalDegeneracy)
    return table, dims


def character_table_generic(g: GroupTable) -> CharacterTable:
    """Class-sum algorithm on any group, ignoring product structure."""
    mats = _class_structure_constants(g)
    for attempt in range(MAX_ATTEMPTS):
        try:
            table, dims = _attempt(g, mats, 1000 + attempt)
        except NumericalDegeneracy:
            continue
        sizes = np.array([c.size for c in conjugacy_data(g).classes], dtype=np.float64)
        gram = table.conj().T @ table
        _check("column orthogonality violated", np.max(np.abs(gram - np.diag(g.order / sizes))),
               TOL["character"] * g.order, NumericalDegeneracy)
        return CharacterTable(g, table, dims)
    raise NumericalDegeneracy(f"character table of {g.label} failed after {MAX_ATTEMPTS} attempts")


def _product_character_table(g: GroupTable) -> CharacterTable:
    ga, gb = g.meta["product_of"]
    ta, tb = character_table(ga), character_table(gb)
    data = conjugacy_data(g)
    ca = conjugacy_data(ga).class_of
    cb = conjugacy_data(gb).class_of
    nb = gb.order
    rep_pairs = [(ca[r // nb], cb[r % nb]) for r in data.reps]
    k = len(data.classes)
    ka, kb = ta.n_rows, tb.n_rows
    table = np.empty((ka * kb, k), dtype=np.complex128)
    dims = np.empty(ka * kb, dtype=np.int64)
    pair_of_row = []
    for u in range(ka):
        for v in range(kb):
            r = u * kb + v
            table[r] = [ta.table[u, i] * tb.table[v, j] for i, j in rep_pairs]
            dims[r] = ta.dims[u] * tb.dims[v]
            pair_of_row.append((u, v))
    order = _row_sort_order(table, dims)
    table, dims = table[order], dims[order]
    out = CharacterTable(g, table, dims)
    _check("tensor-product table lost orthonormality", _orthonormality_residual(g, table),
           TOL["character"], NumericalDegeneracy)
    g._cache["chartable_row_of_pair"] = {
        pair_of_row[old]: new for new, old in enumerate(order)
    }
    return out


def character_table(g: GroupTable) -> CharacterTable:
    """Canonical character table: rows by degree, then value order; cached as (table, dims)."""
    if "chartable" not in g._cache:
        build = _product_character_table if "product_of" in g.meta else character_table_generic
        ct = build(g)
        ct.table.flags.writeable = ct.dims.flags.writeable = False
        g._cache["chartable"] = ct.table, ct.dims
    return CharacterTable(g, *g._cache["chartable"])


def product_row_of_pair(g: GroupTable, u: int, v: int) -> int:
    """Row of the product-group table carrying factor rows (u, v)."""
    character_table(g)
    return g._cache["chartable_row_of_pair"][(u, v)]


# --- class function operations ---------------------------------------------------

def inner_product(chi1: ClassFunction, chi2: ClassFunction) -> complex:
    """(1/|G|) sum_g chi1(g)* chi2(g)."""
    if chi1.group is not chi2.group:
        raise GroupMismatch("class functions live on different groups")
    sizes = np.array([c.size for c in conjugacy_data(chi1.group).classes])
    return complex(np.sum(sizes * np.conj(chi1.values) * chi2.values) / chi1.group.order)


def conjugate_character(chi: ClassFunction) -> ClassFunction:
    return chi.conjugate()


def trivial_character(g: GroupTable) -> ClassFunction:
    k = len(conjugacy_data(g).classes)
    return ClassFunction(g, np.ones(k, dtype=np.complex128))


def regular_character(g: GroupTable) -> ClassFunction:
    k = len(conjugacy_data(g).classes)
    values = np.zeros(k, dtype=np.complex128)
    values[0] = g.order
    return ClassFunction(g, values)


def restricted_character(k: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Restriction of a parent-group class function to the subgroup."""
    if chi.group is not k.parent:
        raise GroupMismatch("class function does not live on the parent group")
    data = conjugacy_data(k.as_group)
    parent_values = chi.on_elements()
    values = np.array([parent_values[k.members[r]] for r in data.reps])
    return ClassFunction(k.as_group, values)


def induced_character(g: GroupTable, k: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Standard induction: Ind(x) = (1/|K|) sum over y with y^-1 x y in K."""
    if k.parent is not g:
        raise NotSubgroup("subgroup belongs to a different group")
    if chi.group is not k.as_group:
        raise GroupMismatch("class function does not live on the subgroup")
    data = conjugacy_data(g)
    conj = g.conj_table()
    sub_values = chi.on_elements()
    values = np.empty(len(data.classes), dtype=np.complex128)
    for ci, r in enumerate(data.reps):
        conjugates = conj[g.inv, r]
        local = k.position[conjugates]
        hit = local >= 0
        values[ci] = np.sum(sub_values[local[hit]]) / k.order
    return ClassFunction(g, values)


# --- exact values ----------------------------------------------------------------

def root_multiplicities(values: np.ndarray) -> np.ndarray:
    """Dixon's formula: integer c[..., k] with f = sum_k c_k z^k, z = exp(2 pi i / e),
    from values[..., j] = f evaluated with every group element raised to the j-th
    power, j = 0..e-1 (so values[..., j] = sum_k c_k z^(jk)).

    c is the inverse discrete Fourier transform along the last axis.  Raises
    NumericalDegeneracy when it is off integers by more than TOL["character"],
    negative, or NaN."""
    raw = np.fft.fft(values, axis=-1) / values.shape[-1]
    c = _integers(raw, "root multiplicities off integers", TOL["character"], NumericalDegeneracy)
    if c.min() < 0:
        raise NumericalDegeneracy("negative root multiplicity")
    return c
