"""Finite groups as dense Cayley tables.

Elements are indices 0..n-1 with the identity fixed at 0; the table is the
single source of truth (permutation groups are materialized into tables).
Also provides the field / near-field constructions and their affine groups
H+ \\rtimes Hx, which the symmetry checks downstream are stated for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

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
)

# Table entries sorted at a time by the Latin-square check (bounds its temporaries)
LATIN_BLOCK_ENTRIES = 1 << 18


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
        if "conj" not in self._cache:
            t = self.mul[self.mul, self.inv[:, None]]
            t.flags.writeable = False
            self._cache["conj"] = t
        return self._cache["conj"]

    def power_table(self) -> np.ndarray:
        """e x n table with entry [j, x] = x^j, j = 0..e-1; its length e is the exponent."""
        if "powers" not in self._cache:
            rows = [np.zeros(self.order, dtype=np.int64)]
            while (step := self.mul[rows[-1], np.arange(self.order)]).any():
                rows.append(step)
            t = np.stack(rows)
            t.flags.writeable = False
            self._cache["powers"] = t
        return self._cache["powers"]

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
            new = np.unique(mul[np.ix_(gens, frontier)])
            frontier = new[~reached[new]]
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
    # Rows and columns i0.. are checked together, so the first bad line is the
    # one a scan row 0, column 0, row 1, column 1, ... meets first.
    step = max(1, LATIN_BLOCK_ENTRIES // n)
    for i0 in range(0, n, step):
        lines = slice(i0, i0 + step)
        rows = np.flatnonzero((np.sort(mul[lines], axis=1) != idx).any(axis=1))
        cols = np.flatnonzero((np.sort(mul[:, lines], axis=0) != idx[:, None]).any(axis=0))
        if rows.size or cols.size:
            r = int(rows[0]) if rows.size else n
            c = int(cols[0]) if cols.size else n
            raise NotLatinSquare("row", i0 + r) if r <= c else NotLatinSquare("column", i0 + c)
    if _light_test(mul, lambda a: mul[mul[:, a]] != mul[:, mul[a]]) is not None:
        # name the first failing (x, y, z), comparing (xy)z with x(yz) a block of x at a time
        step = max(1, LATIN_BLOCK_ENTRIES // (n * n))
        for x0 in range(0, n, step):
            lhs = mul[mul[x0:x0 + step], :]
            rhs = mul[x0:x0 + step][:, mul]
            if not np.array_equal(lhs, rhs):
                x, y, z = np.argwhere(lhs != rhs)[0]
                raise NotAssociative(x0 + int(x), int(y), int(z))
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

def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise SizeExceeded("cyclic order must be at least 1")
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
    is built on first use of mul; subgroups are assembled from the factors."""
    n, nb = a.order * b.order, b.order

    def table() -> np.ndarray:
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
    zero: int = 0
    one: int = 1
    meta: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"NearFieldSpec({self.label}, q={self.q})"


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            d = 0
            m = q
            while m % p == 0:
                m //= p
                d += 1
            if m != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, d
    raise NotPrimePower(f"{q} is not a prime power")


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return tuple(out)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    # m is monic; reduce a modulo m, little-endian coefficients
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return tuple(c % p for c in a[:dm])


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    d = len(f) - 1
    for deg in range(1, d // 2 + 1):
        for coeffs in itertools.product(range(p), repeat=deg):
            divisor = coeffs + (1,)
            if not any(_poly_mod(f, divisor, p)):
                return False
    return True


def _field_modulus(p: int, d: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree d over F_p."""
    for m in range(p**d):
        coeffs = tuple((m // p**i) % p for i in range(d)) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise NotPrimePower(f"no irreducible polynomial of degree {d} over F_{p}")


def _field_tables(q: int) -> tuple[np.ndarray, np.ndarray, dict]:
    p, d = _factor_prime_power(q)
    if d == 1:
        idx = np.arange(q)
        add = (idx[:, None] + idx[None, :]) % q
        mul = (idx[:, None] * idx[None, :]) % q
        return add, mul, {"p": p, "degree": 1, "modulus": None}
    modulus = _field_modulus(p, d)
    vecs = [tuple((x // p**i) % p for i in range(d)) for x in range(q)]

    def enc(vec: tuple[int, ...]) -> int:
        return sum(c * p**i for i, c in enumerate(vec))

    add = np.empty((q, q), dtype=np.int64)
    mul = np.empty((q, q), dtype=np.int64)
    for x in range(q):
        for y in range(q):
            add[x, y] = enc(tuple((vecs[x][i] + vecs[y][i]) % p for i in range(d)))
            mul[x, y] = enc(_poly_mod(_poly_mul(vecs[x], vecs[y], p), modulus, p))
    return add, mul, {"p": p, "degree": d, "modulus": modulus}


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
    if kind == "field":
        add, mul, meta = _field_tables(q)
        spec = NearFieldSpec(q, add, mul, f"F{q}", meta=meta)
    elif kind == "dickson9":
        if q != 9:
            raise NotPrimePower("the Dickson construction here is specific to q = 9")
        add, fmul, meta = _field_tables(9)
        cube = fmul[np.arange(9), fmul[np.arange(9), np.arange(9)]]
        squares = {int(fmul[y, y]) for y in range(1, 9)}
        mul = np.empty((9, 9), dtype=np.int64)
        for x in range(9):
            mul[x] = fmul[x] if (x == 0 or x in squares) else fmul[x, cube]
        meta = dict(meta, twisted=True)
        spec = NearFieldSpec(9, add, mul, "D9", meta=meta)
    else:
        raise ValueError(f"unknown near-field kind: {kind!r}")
    validate_near_field(spec)
    return spec


def affine_group(h: NearFieldSpec) -> GroupTable:
    """Pairs (a, alpha) with (a, alpha)(a', alpha') = (a + alpha a', alpha alpha').

    Index encoding a*(q-1) + (alpha-1), so the identity (0, 1) sits at 0.
    """
    q = h.q
    a_idx = np.arange(q)
    al_idx = np.arange(1, q)
    new_a = h.add[a_idx[:, None, None], h.mul[al_idx[None, :, None], a_idx[None, None, :]]]
    new_al = h.mul[al_idx[:, None], al_idx[None, :]]
    combined = (
        new_a[:, :, :, None] * (q - 1) + (new_al[None, :, None, :] - 1)
    ).reshape(q * (q - 1), q * (q - 1))
    g = _validate_table(combined, f"Aff({h.label})")
    pairs = [(a, al) for a in range(q) for al in range(1, q)]
    g.meta["affine_of"] = h
    g.meta["pairs"] = pairs
    return g


# --- conjugacy data -------------------------------------------------------------

@dataclass
class ConjugacyData:
    """Classes, minimal-index representatives, and transversal k_b
    (k_b a k_b^-1 = b, k_a = e)."""

    classes: list[np.ndarray]
    class_of: np.ndarray
    reps: np.ndarray
    transversal: np.ndarray


def conjugacy_data(g: GroupTable) -> ConjugacyData:
    if "conjugacy" in g._cache:
        return g._cache["conjugacy"]
    n = g.order
    conj = g.conj_table()
    class_of = np.full(n, -1, dtype=np.int64)
    classes: list[np.ndarray] = []
    reps: list[int] = []
    transversal = np.zeros(n, dtype=np.int64)
    for x in range(n):
        if class_of[x] >= 0:
            continue
        orbit = np.unique(conj[:, x])
        ci = len(classes)
        class_of[orbit] = ci
        classes.append(orbit)
        reps.append(x)
        for b in orbit:
            transversal[b] = np.argmax(conj[:, x] == b)
    data = ConjugacyData(classes, class_of, np.array(reps, dtype=np.int64), transversal)
    g._cache["conjugacy"] = data
    return data


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
    members = np.unique(np.asarray(members, dtype=np.int64))
    if members.size == 0 or members[0] != 0:
        raise NotSubgroup("subgroup must contain the identity 0")
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
