"""Irreducible characters of finite groups, exact by Dixon-Schneider modulo p.

p is the least prime p = 1 (mod e) above |G|, e the group exponent, so F_p
holds the e-th roots of unity and every character value reduces into it.  The
class matrices a[i] commute; their joint eigenvectors are the central characters
omega_chi(K_l) = |C_l| chi(z_l) / chi(1).  Successive class matrices m split the
identity-class vector e_0 = sum_chi (chi(1)^2 / |G|) omega_chi into k vectors,
whose first entries give the degrees: the eigenprojector of a root of m is its
Lagrange polynomial in m, one product with the Krylov basis m^j v.  The checks
(k components, sum of squared degrees, row and column orthogonality, root
multiplicities counting the degree) are exact in F_p.  Dixon's formula reads the
multiplicity of each root z^t in rho(g) off chi(g^j), j = 0..e-1, with one
discrete Fourier transform mod p; the complex table is the multiplicities times
exp(2 pi i t / e), and `CharacterTable.mult` keeps them for exact use mod other
primes: fusion, and the snapped S and T of `quantum_double`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import TOL, GroupMismatch, NonIntegerMultiplicity, NotSubgroup, NumericalDegeneracy, SizeExceeded
from .errors import _cached, _check, _integers, _places, _reassembles
from .groups import GroupTable, Subgroup, conjugacy_data


@dataclass(frozen=True, eq=False)
class Orbits:
    """Orbits of a group acting on points: elements under conjugation
    (`class_orbits`) or commuting pairs under simultaneous conjugation
    (`quantum_double.pair_orbits`).  Points are index tuples into an array
    over all points, and table[x, o] is irreducible character x on orbit o."""

    orbit_of: np.ndarray  # point -> orbit id, -1 on points outside every orbit
    sizes: np.ndarray  # points per orbit
    reps: tuple[np.ndarray, ...]  # point (reps[0][o], ...) lies in orbit o
    table: np.ndarray


@dataclass(frozen=True, eq=False)
class ClassFunction:
    """Function constant on orbits: orbit_values[o] on every point of orbit o,
    zero on points outside every orbit; `values` expands it over all points."""

    group: GroupTable = field(repr=False)
    orbit_values: np.ndarray
    orbits: Orbits = field(repr=False)

    @classmethod
    def from_dense(cls, g: GroupTable, dense, orbits: Orbits) -> ClassFunction:
        """The class function whose `values` are dense; raises ConditionMismatch
        unless dense is constant on orbits and zero outside them."""
        dense = np.asarray(dense, dtype=np.complex128)
        chi = cls(g, dense[orbits.reps], orbits)
        _reassembles("values are not a class function on these orbits", chi.values, dense)
        return chi

    @cached_property
    def values(self) -> np.ndarray:
        """Values over all points: per element, or the |G| x |G| grid on the double."""
        return np.append(self.orbit_values, 0)[self.orbits.orbit_of]

    def __add__(self, other: ClassFunction) -> ClassFunction:
        _on_orbits(self.group, self.orbits, other)
        return ClassFunction(self.group, self.orbit_values + other.orbit_values, self.orbits)

    def __sub__(self, other: ClassFunction) -> ClassFunction:
        _on_orbits(self.group, self.orbits, other)
        return ClassFunction(self.group, self.orbit_values - other.orbit_values, self.orbits)


def _on_orbits(g: GroupTable, orbits: Orbits, *chis: ClassFunction) -> None:
    """Raise GroupMismatch unless every chi lives on g and on these orbits."""
    if any(chi.group is not g or chi.orbits.orbit_of is not orbits.orbit_of for chi in chis):
        raise GroupMismatch("class functions live on different groups or orbits")


@dataclass
class CharacterTable:
    group: GroupTable
    table: np.ndarray  # rows = irreps, columns = classes
    dims: np.ndarray
    mult: np.ndarray  # int16 [row, class l, t]: multiplicity of exp(2 pi i t / e) in rho(z_l)

    @property
    def n_rows(self) -> int:
        return int(self.table.shape[0])

    def row(self, i: int) -> ClassFunction:
        return ClassFunction(self.group, self.table[i], class_orbits(self.group))

    def match_row(self, values: np.ndarray) -> int:
        """Row index whose values match the given class vector."""
        for i in range(self.n_rows):
            if np.max(np.abs(self.table[i] - values)) <= TOL["match"]:
                return i
        raise NumericalDegeneracy("no matching irreducible row")


def _row_sort_order(table: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Rows by degree, then by (-re, -im) of each value rounded to TOL["phase"]'s places, then index."""
    keys = np.round(-table, _places(TOL["phase"]))
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


def _lagrange(roots: list[int], p: int) -> np.ndarray:
    """L[i, j]: the x^j coefficient of prod_{mu != lam} (x - mu) / (lam - mu) mod p, lam = roots[i]."""
    full = [1]  # prod_mu (x - mu), highest power first, then divided by x - lam for every lam at once
    for mu in roots:
        full = [(a - mu * b) % p for a, b in zip(full + [0], [0] + full)]
    lam, quot = np.array(roots, dtype=np.int64), [np.ones(len(roots), dtype=np.int64)]
    for c in full[1:-1]:
        quot.append((c + lam * quot[-1]) % p)
    scale = [pow(math.prod(root - mu for mu in roots if mu != root), -1, p) for root in roots]
    return np.stack(quot[::-1], axis=1) * np.array(scale)[:, None] % p


def _split(m: np.ndarray, vecs: np.ndarray, p: int) -> np.ndarray:
    """The nonzero columns of L(m) vecs mod p, L the Lagrange polynomial of each root of m in turn."""
    roots = [int(r) for r in _eigenvalues(m, p)]
    krylov = [vecs]  # m^j vecs, j = 0..r-1
    for _ in roots[1:]:
        krylov.append(m @ krylov[-1] % p)
    split = np.tensordot(_lagrange(roots, p), krylov, axes=1) % p  # [root, class, column]
    return np.concatenate([v[:, v.any(axis=0)] for v in split], axis=1)


def _gemm_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p as int64, for float64 a, b holding non-negative integers; exact (the
    floor-mod too) while a.shape[-1] max(a) max(b) <= 2^53, else SizeExceeded."""
    reach = a.shape[-1] * int(a.max()) * int(b.max())
    _check("residue GEMM beyond exact float64 integers", reach, 2**53, SizeExceeded)
    out = a @ b
    out -= p * np.floor(out / p)
    return out.astype(np.int64)


def _dixon(values: np.ndarray, zp: np.ndarray, p: int) -> np.ndarray:
    """Dixon's formula mod p: int64 c[..., t] = sum_j z^-jt values[..., j] / e, the multiplicity
    of z^t in a sum of roots whose j-th powers sum to values[..., j] (float64 residues), z = zp[1]."""
    e = len(zp)
    dft = zp[-np.outer(np.arange(e), np.arange(e)) % e] * pow(e, -1, p) % p * 1.0  # [j, t] = z^-jt / e
    return _gemm_mod(values.reshape(-1, e), dft, p).reshape(values.shape)


def character_table(g: GroupTable) -> CharacterTable:
    """Canonical character table by Dixon-Schneider modulo p: rows by degree, then
    value order; cached as (table, dims, mult)."""
    return CharacterTable(g, *_cached(g._cache, "chartable", _character_table, g))


# (n, e) -> (p, z^s): for every group of order n and exponent e, its S residues, and (B, e) snaps
_PRIMES: dict = {}


def _prime_and_roots(n: int, e: int) -> tuple[int, np.ndarray]:
    """The least prime p = 1 (mod e) above n, and z^s for s = 0..e-1 (read-only), z of
    order e the first power x^((p-1)/e) of x = 1, 2, ... that has it; built once per (n, e)."""
    return _cached(_PRIMES, (n, e), _least_prime_and_roots, n, e)


def _least_prime_and_roots(n: int, e: int) -> tuple[int, np.ndarray]:
    p = e * (n // e) + 1
    while p <= n or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        p += e
    candidates = (np.array([pow(x, (p - 1) // e * s, p) for s in range(e)], dtype=np.int64) for x in range(1, p))
    return p, next(zp for zp in candidates if 1 not in zp[1:])


def _character_table(g: GroupTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    data = conjugacy_data(g)
    n, k = g.order, len(data.reps)
    sizes = np.array([c.size for c in data.classes], dtype=np.int64)
    powers = data.class_of[g.power_table()[:, data.reps]]  # [j, l]: class of z_l^j
    e = len(powers)
    p, zp = _prime_and_roots(n, e)
    vecs = np.eye(k, 1, dtype=np.int64)  # e_0 = sum_chi (chi(1)^2 / |G|) omega_chi
    for m in _class_structure_constants(g)[1:]:
        if vecs.shape[1] >= k:
            break
        vecs = _split(m, vecs, p)
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
    mult = _dixon(chi[:, powers.T] * 1.0, zp, p)  # [chi, l, t]: z^t in rho(z_l)
    _check("root multiplicities must count the degree", np.count_nonzero(mult.sum(-1) != dims[:, None]), 0)
    table = mult @ np.exp(2j * np.pi * np.arange(e) / e)
    order = _row_sort_order(table, dims)
    return table[order], dims[order], mult[order].astype(np.int16)


# --- class function operations ---------------------------------------------------

def class_orbits(g: GroupTable) -> Orbits:
    """Conjugacy classes as orbits on elements, with the character table."""
    data = conjugacy_data(g)
    return Orbits(data.class_of, np.bincount(data.class_of), (data.reps,), character_table(g).table)


def inner_product(chi1: ClassFunction, chi2: ClassFunction) -> complex:
    """(1/|G|) sum over points of chi1* chi2: elements of G, or all pairs (g, h)."""
    _on_orbits(chi1.group, chi1.orbits, chi2)
    return complex(np.sum(chi1.orbits.sizes * np.conj(chi1.orbit_values) * chi2.orbit_values) / chi1.group.order)


def decompose(chi: ClassFunction) -> np.ndarray:
    """Integer multiplicities against the rows of chi.orbits.table, by orthonormality.

    Raises NonIntegerMultiplicity when the projections are not integers or the
    reassembled sum misses the input (the input was not in the character span)."""
    orbits = chi.orbits
    raw = np.conj(orbits.table) @ (orbits.sizes * chi.orbit_values) / chi.group.order
    mult = _integers(raw, "projection off nearest integer", TOL["multiplicity"], NonIntegerMultiplicity)
    _reassembles("reassembly", mult @ orbits.table, chi.orbit_values, NonIntegerMultiplicity)
    return mult


def conjugate_character(chi: ClassFunction) -> ClassFunction:
    return ClassFunction(chi.group, np.conj(chi.orbit_values), chi.orbits)


def trivial_character(g: GroupTable) -> ClassFunction:
    k = len(conjugacy_data(g).classes)
    return ClassFunction(g, np.ones(k, dtype=np.complex128), class_orbits(g))


def regular_character(g: GroupTable) -> ClassFunction:
    k = len(conjugacy_data(g).classes)
    values = np.zeros(k, dtype=np.complex128)
    values[0] = g.order
    return ClassFunction(g, values, class_orbits(g))


def restricted_character(k: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Restriction of a parent-group class function to the subgroup."""
    _on_orbits(k.parent, class_orbits(k.parent), chi)
    sub = k.as_group
    return ClassFunction(sub, chi.values[k.members[conjugacy_data(sub).reps]], class_orbits(sub))


def induced_character(g: GroupTable, k: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Standard induction: Ind(x) = (1/|K|) sum over y with y^-1 x y in K."""
    if k.parent is not g:
        raise NotSubgroup("subgroup belongs to a different group")
    _on_orbits(k.as_group, class_orbits(k.as_group), chi)
    data = conjugacy_data(g)
    conj = g.conj_table()
    sub_values = chi.values
    values = np.empty(len(data.classes), dtype=np.complex128)
    for ci, r in enumerate(data.reps):
        conjugates = conj[g.inv, r]
        local = k.position[conjugates]
        hit = local >= 0
        values[ci] = np.sum(sub_values[local[hit]]) / k.order
    return ClassFunction(g, values, class_orbits(g))
