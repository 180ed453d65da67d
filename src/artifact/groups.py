"""Finite groups as dense Cayley tables.

Elements are indices 0..n-1 with the identity fixed at 0; the table is the
single source of truth (permutation groups are materialized into tables).
Also provides the field / near-field constructions and their affine groups
H+ \\rtimes Hx, which the symmetry checks downstream are stated for.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AxiomFailure,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotLatinSquare,
    NotPrimePower,
    NotSubgroup,
    SizeExceeded,
    _blocks,
    _cached,
)

# Entries of the largest array that cyclic, near_field, affine_group,
# wall_subgroup and direct_product (its table, built on first use of mul) may
# allocate; a larger input is refused before any array exists.
MAX_ENTRIES = 1 << 24


class GroupTable:
    """A finite group on 0..n-1. mul[x, y] = xy, inv[x] = x^-1, identity = 0.

    The table may be given as a function that builds it on first use of mul."""

    __slots__ = ("order", "_mul", "inv", "identity", "label", "meta", "_cache")

    def __init__(self, mul, inv: np.ndarray, label: str, meta: dict | None = None):
        self.order = int(inv.shape[0])
        self._mul = mul
        self.inv = inv
        self.identity = 0
        self.label = label
        self.meta = meta or {}
        self._cache: dict = {}
        if not callable(mul):
            mul.flags.writeable = False
        inv.flags.writeable = False

    @property
    def mul(self) -> np.ndarray:
        if callable(self._mul):
            table = self._mul()
            table.flags.writeable = False
            self._mul = table
        return self._mul

    def __repr__(self) -> str:
        return f"GroupTable({self.label}, order={self.order})"

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return int(self.mul[self.mul[g, x], self.inv[g]])

    def conj_table(self) -> np.ndarray:
        """n x n table with entry [g, x] = g x g^-1."""
        return _cached(self._cache, "conj", lambda: self.mul[self.mul, self.inv[:, None]])

    def power_table(self) -> np.ndarray:
        """e x n table with entry [j, x] = x^j, j = 0..e-1; its length e is the exponent."""
        def build():
            rows = [np.zeros(self.order, dtype=np.int64)]
            while (step := self.mul[rows[-1], np.arange(self.order)]).any():
                rows.append(step)
            return np.stack(rows)
        return _cached(self._cache, "powers", build)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def element_order(self, x: int) -> int:
        k, y = 1, x
        while y != 0:
            y = int(self.mul[y, x])
            k += 1
        return k


def _light_test(mul: np.ndarray, defect) -> tuple[int, int, int] | None:
    """Light's associativity test, over greedy generators by right-normed closure.

    Each generator a is the least element that is not yet a right-normed product
    a1 (a2 (... ak)) of earlier ones (or the identity 0), and defect(a) is the
    n x n mask of the (x, y) where a fails its law; returns the first failing
    (x, a, y), or None.  For defect(a) = [(xa)y != x(ay)], the a that pass are
    closed under products (x(ac))y = ((xa)c)y = (xa)(cy) = x(a(cy)) = x((ac)y),
    so when every generator passes, every element does: the table is
    associative, exactly.  While they pass, each new generator at least doubles
    the reached set of a Latin square, so at most log2(n) + 1 are ever drawn and
    the cost is O(n^2 log n).  The same closure argument holds for any law of
    this shape that passes to products, such as the 2-cocycle identity."""
    n = mul.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    gens: list[int] = []
    while not reached.all():
        a = int(np.argmin(reached))
        bad = defect(a)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return int(x), a, int(y)
        gens.append(a)
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(n, dtype=bool)
            hit[mul[np.ix_(gens, frontier)]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached[frontier] = True
    return None


def _validate_table(mul: np.ndarray, label: str) -> GroupTable:
    if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
        raise ValueError("multiplication table must be square")
    n = mul.shape[0]
    if mul.min() < 0 or mul.max() >= n:
        raise ValueError("table entries must lie in 0..n-1")
    idx = np.arange(n)
    if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
        for e in range(1, n):
            if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
                raise NoIdentity(f"identity element found at index {e}, expected index 0")
        raise NoIdentity("table has no identity element")
    # entries lie in 0..n-1, so a line is a permutation iff it sorts to idx.
    # A block's rows and columns are checked together, so the first bad line is
    # the one a scan row 0, column 0, row 1, column 1, ... meets first.
    for lines in _blocks(n, 8 * n):
        rows = np.flatnonzero((np.sort(mul[lines], axis=1) != idx).any(axis=1))
        cols = np.flatnonzero((np.sort(mul[:, lines], axis=0) != idx[:, None]).any(axis=0))
        if rows.size or cols.size:
            r = int(rows[0]) if rows.size else n
            c = int(cols[0]) if cols.size else n
            raise NotLatinSquare("row", lines.start + r) if r <= c else NotLatinSquare("column", lines.start + c)
    if _light_test(mul, lambda a: mul[mul[:, a]] != mul[:, mul[a]]) is not None:
        # name the first failing (x, y, z), comparing (xy)z with x(yz) a block of x at a time
        for xs in _blocks(n, 8 * n * n):
            lhs = mul[mul[xs], :]
            rhs = mul[xs][:, mul]
            if not np.array_equal(lhs, rhs):
                x, y, z = np.argwhere(lhs != rhs)[0]
                raise NotAssociative(xs.start + int(x), int(y), int(z))
    inv = np.argmax(mul == 0, axis=1).astype(np.int64)
    two_sided = mul[inv, idx] == 0
    if not two_sided.all():
        raise NoInverse(int(np.nonzero(~two_sided)[0][0]))
    return GroupTable(np.ascontiguousarray(mul, dtype=np.int64), inv, label)


def from_cayley(table, label: str = "custom") -> GroupTable:
    """Validate a raw multiplication table and wrap it as a group."""
    mul = np.array(table, dtype=np.int64, copy=True)
    return _validate_table(mul, label)


# --- builtin families ---------------------------------------------------------

def _within_cap(entries: int, what: str) -> None:
    """Refuse, before allocating, an array of more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise SizeExceeded(f"{what} would take {entries} array entries, above the cap of {MAX_ENTRIES}")


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise SizeExceeded("cyclic order must be at least 1")
    _within_cap(n * n, f"the table of Z{n}")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    return _validate_table(mul, f"Z{n}")


def _perm_table(perms: list[tuple[int, ...]], label: str) -> GroupTable:
    """mul[i, j] = index of perms[i] o perms[j], i.e. of k -> perms[i][perms[j][k]]."""
    p = np.array(perms, dtype=np.int64)
    radix = p.shape[1] ** np.arange(p.shape[1])[::-1]
    codes = p @ radix
    # composed[i, j] = code of perms[i] o perms[j], one image position k at a time
    composed = sum(p[:, col] * r for col, r in zip(p.T, radix))
    order = np.argsort(codes)
    mul = order[np.searchsorted(codes[order], composed)]
    g = _validate_table(mul, label)
    g.meta["permutations"] = perms
    return g


def _parity(p: tuple[int, ...]) -> int:
    inversions = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inversions % 2


def symmetric(n: int) -> GroupTable:
    if not 1 <= n <= 6:
        raise SizeExceeded(f"symmetric group supported for n <= 6, got {n}")
    perms = sorted(itertools.permutations(range(n)))
    return _perm_table(perms, f"S{n}")


def alternating(n: int) -> GroupTable:
    if not 1 <= n <= 6:
        raise SizeExceeded(f"alternating group supported for n <= 6, got {n}")
    perms = sorted(p for p in itertools.permutations(range(n)) if _parity(p) == 0)
    return _perm_table(perms, f"A{n}")


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Componentwise product on index pairs, encoded as i*|b| + j.

    A product of groups is a group, so nothing is re-validated, and the table
    is built, and checked against the size cap, on first use of mul; subgroups
    are assembled from the factors, so a product whose table is never read is
    never capped."""
    n, nb = a.order * b.order, b.order

    def table() -> np.ndarray:
        _within_cap(n * n, f"the table of {a.label}x{b.label}")
        return (a.mul[:, None, :, None] * nb + b.mul[None, :, None, :]).reshape(n, n)

    inv = (a.inv[:, None] * nb + b.inv[None, :]).ravel()
    return GroupTable(table, inv, f"{a.label}x{b.label}", {"product_of": (a, b)})


# --- fields and near-fields ----------------------------------------------------

@dataclass
class NearFieldSpec:
    """Addition/multiplication tables on 0..q-1 with zero = 0 and one = 1.

    Only left distributivity is guaranteed; use is_right_distributive to test
    whether the instance is an honest field.
    """

    q: int
    add: np.ndarray
    mul: np.ndarray
    label: str

    def __repr__(self) -> str:
        return f"NearFieldSpec({self.label}, q={self.q})"


def _factor_prime_power(q: int) -> tuple[int, int]:
    """(p, d) with q = p^d; the least factor p is sought by trial division up to sqrt(q)."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = next((k for k in range(2, math.isqrt(q) + 1) if q % k == 0), q)
    d, m = 0, q
    while m % p == 0:
        m //= p
        d += 1
    if m != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, d


def _field_tables(q: int) -> tuple[np.ndarray, np.ndarray]:
    """F_q as F_p[t]/f, element x the polynomial whose coefficients are x's base-p digits.

    Multiplication by x is the matrix sum_i x_i C^i, C the companion matrix of f
    (multiplication by t).  The monics f = t^d + sum_i c_i t^i are tried in the
    order of m = sum_i c_i p^i, and f is the first whose table has no zero
    divisors: F_p[t]/f is a field exactly when f is irreducible."""
    p, d = _factor_prime_power(q)
    weights = p ** np.arange(d)
    digits = np.arange(q)[:, None] // weights % p
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    for m in range(q):
        companion = np.eye(d, k=-1, dtype=np.int64)
        companion[:, -1] = -(m // weights % p) % p
        powers = [np.eye(d, dtype=np.int64)]
        for _ in range(d - 1):
            powers.append(companion @ powers[-1] % p)
        times = np.tensordot(digits, np.stack(powers), axes=1) % p  # times[x] multiplies by x
        mul = np.einsum("xjk,yk->xyj", times, digits) % p @ weights
        if (mul[1:, 1:] != 0).all():
            return add, mul
    raise NotPrimePower(f"no irreducible polynomial of degree {d} over F_{p}")


def validate_near_field(spec: NearFieldSpec) -> None:
    """Brute-force all four axioms; raises AxiomFailure naming the first breach."""
    q, add, mul = spec.q, spec.add, spec.mul
    try:
        additive = from_cayley(add, f"{spec.label}+")
    except Exception as exc:
        raise AxiomFailure("additive group", str(exc)) from exc
    if not additive.is_abelian():
        raise AxiomFailure("additive commutativity")
    if not (np.all(mul[0] == 0) and np.all(mul[:, 0] == 0)):
        raise AxiomFailure("zero annihilation")
    sub = mul[1:, 1:]
    if (sub == 0).any():
        x, y = np.argwhere(sub == 0)[0] + 1
        raise AxiomFailure("zero divisors", f"{x} * {y} = 0")
    try:
        from_cayley(sub - 1, f"{spec.label}x")
    except Exception as exc:
        raise AxiomFailure("multiplicative group", str(exc)) from exc
    lhs = mul[:, add]
    rhs = add[mul[:, :, None], mul[:, None, :]]
    if not np.array_equal(lhs, rhs):
        x, y, z = np.argwhere(lhs != rhs)[0]
        raise AxiomFailure("left distributivity", f"triple ({x}, {y}, {z})")


def is_right_distributive(spec: NearFieldSpec) -> bool:
    lhs = spec.mul[spec.add, :]
    rhs = spec.add[spec.mul[:, None, :], spec.mul[None, :, :]]
    # lhs[y,z,x] = (y+z)x ; rhs[y,z,x] = yx + zx
    return bool(np.array_equal(lhs, rhs))


def near_field(q: int, kind: str = "field") -> NearFieldSpec:
    """Ordinary F_q, or the order-9 Dickson near-field for kind='dickson9'."""
    _within_cap(q**3, f"the near-field axioms of order {q}")
    if kind == "field":
        spec = NearFieldSpec(q, *_field_tables(q), f"F{q}")
    elif kind == "dickson9":
        if q != 9:
            raise NotPrimePower("the Dickson construction here is specific to q = 9")
        add, fmul = _field_tables(9)
        squares = np.diagonal(fmul)
        # x * y is the field's x y when x is zero or a square, x y^3 otherwise
        square_rows = np.isin(np.arange(9), squares)[:, None]
        spec = NearFieldSpec(9, add, np.where(square_rows, fmul, fmul[:, fmul[np.arange(9), squares]]), "D9")
    else:
        raise ValueError(f"unknown near-field kind: {kind!r}")
    validate_near_field(spec)
    return spec


def affine_group(h: NearFieldSpec) -> GroupTable:
    """Pairs (a, alpha) with (a, alpha)(a', alpha') = (a + alpha a', alpha alpha').

    Index encoding a*(q-1) + (alpha-1), so the identity (0, 1) sits at 0.
    """
    q = h.q
    _within_cap((q * (q - 1)) ** 2, f"the table of Aff({h.label})")
    a_idx = np.arange(q)
    al_idx = np.arange(1, q)
    new_a = h.add[a_idx[:, None, None], h.mul[al_idx[None, :, None], a_idx[None, None, :]]]
    new_al = h.mul[al_idx[:, None], al_idx[None, :]]
    combined = (
        new_a[:, :, :, None] * (q - 1) + (new_al[None, :, None, :] - 1)
    ).reshape(q * (q - 1), q * (q - 1))
    return _validate_table(combined, f"Aff({h.label})")


# --- conjugacy data -------------------------------------------------------------

@dataclass
class ConjugacyData:
    """Classes, minimal-index representatives, and transversal k_b
    (k_b a k_b^-1 = b, k_a = e)."""

    classes: tuple[np.ndarray, ...]
    class_of: np.ndarray
    reps: np.ndarray
    transversal: np.ndarray


def conjugacy_data(g: GroupTable) -> ConjugacyData:
    return _cached(g._cache, "conjugacy", _conjugacy_data, g)


def _conjugacy_data(g: GroupTable) -> ConjugacyData:
    n = g.order
    conj = g.conj_table()
    class_of = np.full(n, -1, dtype=np.int64)
    classes: list[np.ndarray] = []
    reps: list[int] = []
    transversal = np.zeros(n, dtype=np.int64)
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit, first = np.unique(conj[:, x], return_index=True)
        class_of[orbit] = len(classes)
        classes.append(orbit)
        reps.append(x)
        transversal[orbit] = first
    return ConjugacyData(tuple(classes), class_of, np.array(reps, dtype=np.int64), transversal)


# --- subgroups and cosets --------------------------------------------------------

@dataclass
class Subgroup:
    """A subgroup re-indexed as its own GroupTable, unvalidated: a subset holding e
    and closed under products and inverses is a group.

    embed maps local indices to parent indices; position maps parent to local
    (-1 outside)."""

    parent: GroupTable
    members: np.ndarray
    as_group: GroupTable
    position: np.ndarray

    @property
    def order(self) -> int:
        return int(self.members.size)

    def __repr__(self) -> str:
        return f"Subgroup({self.as_group.label}, order={self.order} of {self.parent.label})"


def subgroup(g: GroupTable, members, label: str | None = None) -> Subgroup:
    # np.unique's result without its numpy.ma import: sorted, then deduplicated once a first entry is known
    members = np.sort(np.asarray(members, dtype=np.int64), axis=None)
    if members.size == 0 or members[0] != 0:
        raise NotSubgroup("subgroup must contain the identity 0")
    members = members[np.append(True, members[1:] != members[:-1])]
    if members.min() < 0 or members.max() >= g.order:
        raise NotSubgroup("member index out of range")
    position = np.full(g.order, -1, dtype=np.int64)
    position[members] = np.arange(members.size)
    if "product_of" in g.meta:
        # the products' mixed-radix codes i*|b| + j, from the factor tables
        ga, gb = g.meta["product_of"]
        i, j = np.divmod(members, gb.order)
        codes = ga.mul[np.ix_(i, i)] * gb.order
        codes += gb.mul[np.ix_(j, j)]
    else:
        codes = g.mul[np.ix_(members, members)]
    local = position[codes]
    if (local < 0).any():
        i, j = np.argwhere(local < 0)[0]
        raise NotSubgroup(f"not closed: {members[i]} * {members[j]} = {codes[i, j]} is outside")
    del codes
    inv = position[g.inv[members]]
    if (inv < 0).any():
        raise NotSubgroup(f"not closed under inverse: {members[inv < 0][0]}")
    table = GroupTable(local, inv, label or f"{g.label}|sub{members.size}")
    return Subgroup(g, members, table, position)


def generated_subgroup(g: GroupTable, generators) -> Subgroup:
    seen = {0}
    frontier = [0]
    gens = [int(x) for x in generators]
    while frontier:
        x = frontier.pop()
        for s in gens:
            for y in (int(g.mul[x, s]), int(g.mul[s, x])):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return subgroup(g, sorted(seen))


def trivial_subgroup(g: GroupTable) -> Subgroup:
    return subgroup(g, [0])


def full_subgroup(g: GroupTable) -> Subgroup:
    return subgroup(g, np.arange(g.order))


def cosets(g: GroupTable, k: Subgroup) -> np.ndarray:
    """Minimal-index left-coset transversal {g_1 = e, g_2, ...} for G = U g_i K."""
    if k.parent is not g:
        raise NotSubgroup("subgroup belongs to a different group")
    covered = np.zeros(g.order, dtype=bool)
    transversal = []
    for x in range(g.order):
        if not covered[x]:
            transversal.append(x)
            covered[g.mul[x, k.members]] = True
    out = np.array(transversal, dtype=np.int64)
    if out.size * k.order != g.order:
        raise NotSubgroup("cosets do not tile the group")
    return out
