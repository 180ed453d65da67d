"""Irreducible characters of finite groups, exact by Dixon-Schneider modulo p.

p is the least prime p = 1 (mod e) above |G|, e the group exponent, so F_p
holds the e-th roots of unity and every character value reduces into it.  The
class matrices a[i] commute; their joint eigenvectors are the central characters
omega_chi(K_l) = |C_l| chi(z_l) / chi(1).  The identity-class vector e_0 =
sum_chi (chi(1)^2 / |G|) omega_chi is split by the eigenprojectors of successive
class matrices into k vectors, whose first entries give the degrees.  The checks
(k components, sum of squared degrees, row and column orthogonality, root
multiplicities counting the degree) are exact in F_p.  Dixon's formula reads the
multiplicity of each root z^t in rho(g) off chi(g^j), j = 0..e-1, with one
discrete Fourier transform mod p; the complex table is the multiplicities times
exp(2 pi i t / e).  `root_multiplicities` is the same formula on float values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TOL, GroupMismatch, NotSubgroup, NumericalDegeneracy, _cached, _check, _integers
from .groups import GroupTable, Subgroup, conjugacy_data


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
    """Rows by degree, then by (-re, -im) of each value rounded to 9 places, then index."""
    keys = np.round(-table, 9)
    cols = np.stack([keys.real, keys.imag], axis=-1).reshape(len(dims), -1)
    return np.lexsort((*cols.T[::-1], dims))


def _class_structure_constants(g: GroupTable) -> np.ndarray:
    """a[i, j, l] = #{x in class i : x^-1 z_l in class j}, z_l the representative of
    class l: the class sums multiply as K_i K_j = sum_l a[i, j, l] K_l."""
    data = conjugacy_data(g)
    k = len(data.reps)
    right = data.class_of[g.mul[g.inv[:, None], data.reps[None, :]]]
    flat = (data.class_of[:, None] * k + right) * k + np.arange(k)
    return np.bincount(flat.ravel(), minlength=k**3).reshape(k, k, k)


def _eigenvalues(m: np.ndarray, p: int) -> np.ndarray:
    """The roots in F_p of det(x - m): the characteristic polynomial by
    Faddeev-LeVerrier, then Horner at every x."""
    coef, acc, x = [1], np.zeros_like(m), np.arange(p)
    for j in range(1, len(m) + 1):
        acc = (m @ acc + coef[-1] * np.eye(len(m), dtype=np.int64)) % p
        coef.append(-int(np.trace(m @ acc)) * pow(j, -1, p) % p)
    values = np.zeros(p, dtype=np.int64)
    for c in coef:
        values = (values * x + c) % p
    return np.flatnonzero(values == 0)


def character_table(g: GroupTable) -> CharacterTable:
    """Canonical character table by Dixon-Schneider modulo p: rows by degree, then
    value order; cached as (table, dims)."""
    return CharacterTable(g, *_cached(g._cache, "chartable", _character_table, g))


def _character_table(g: GroupTable) -> tuple[np.ndarray, np.ndarray]:
    data = conjugacy_data(g)
    n, k = g.order, len(data.reps)
    sizes = np.array([c.size for c in data.classes], dtype=np.int64)
    powers = data.class_of[g.power_table()[:, data.reps]]  # [j, l]: class of z_l^j
    e = len(powers)
    p = e * (n // e) + 1
    while p <= n or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += e
    vecs = np.eye(k, 1, dtype=np.int64)  # e_0 = sum_chi (chi(1)^2 / |G|) omega_chi
    for m in _class_structure_constants(g)[1:]:
        if vecs.shape[1] >= k:
            break
        roots = [int(r) for r in _eigenvalues(m, p)]
        parts = [vecs[:, :0]]
        for lam in roots:
            proj = vecs
            for mu in roots:
                if mu != lam:
                    proj = (m @ proj - mu * proj) % p * pow(lam - mu, -1, p) % p
            parts.append(proj[:, proj.any(axis=0)])
        vecs = np.concatenate(parts, axis=1)
    _check("class matrices split e_0 into other than k components", abs(vecs.shape[1] - k), 0)
    squares = vecs[0] * n % p  # chi(1)^2 mod p
    dims = np.array([math.isqrt(int(s)) for s in squares], dtype=np.int64)
    _check("degrees squared off positive squares", np.count_nonzero((dims**2 != squares) | (dims < 1)), 0)
    _check("squared degrees must total |G|", abs(int(np.sum(dims**2)) - n), 0)
    # each component is (chi(1)^2 / |G|) omega_chi, so chi(z_l) = |G| v_l / (chi(1) |C_l|)
    chi = vecs.T * n % p * np.array([[pow(int(d * h), -1, p) for h in sizes] for d in dims]) % p
    dual = chi[:, data.class_of[g.inv[data.reps]]]  # chi(z_l^-1)
    rows = (chi * sizes % p) @ dual.T % p  # |G| <chi, psi>
    _check("row orthogonality mod p", np.count_nonzero(rows != n * np.eye(k, dtype=np.int64)), 0)
    _check("column orthogonality mod p", np.count_nonzero(chi.T @ dual % p != np.diag(n // sizes)), 0)
    for x in range(1, p):
        zp = np.array([pow(x, (p - 1) // e * s, p) for s in range(e)], dtype=np.int64)
        if 1 not in zp[1:]:  # z = zp[1] has order e
            break
    dft = zp[-np.outer(np.arange(e), np.arange(e)) % e] * pow(e, -1, p) % p  # [j, t] = z^-jt / e
    mult = chi[:, powers].transpose(0, 2, 1) @ dft % p  # [chi, l, t]: multiplicity of z^t in rho(z_l)
    _check("root multiplicities must count the degree", np.count_nonzero(mult.sum(-1) != dims[:, None]), 0)
    table = mult @ np.exp(2j * np.pi * np.arange(e) / e)
    order = _row_sort_order(table, dims)
    return table[order], dims[order]


# --- class function operations ---------------------------------------------------

def inner_product(chi1: ClassFunction, chi2: ClassFunction) -> complex:
    """(1/|G|) sum_g chi1(g)* chi2(g)."""
    if chi1.group is not chi2.group:
        raise GroupMismatch("class functions live on different groups")
    sizes = np.array([c.size for c in conjugacy_data(chi1.group).classes])
    return complex(np.sum(sizes * np.conj(chi1.values) * chi2.values) / chi1.group.order)


def conjugate_character(chi: ClassFunction) -> ClassFunction:
    return ClassFunction(chi.group, np.conj(chi.values))


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
