"""Anyon data of the quantum double of a finite group.

Simple objects are labeled by a conjugacy class together with an irreducible
character of the centralizer of its representative.  Every derived quantity
here (S and T matrices, fusion multiplicities, duality) is computed from the
characters chi(g h*), which live on commuting pairs and are constant on
orbits of simultaneous conjugation.  There are exactly as many orbits as
anyons, so a class function on the double is stored as one value per orbit
(`pair_orbits`); `DGClassFunction.values` is the expanded |G| x |G| grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .characters import character_table
from .errors import ConditionMismatch, GroupMismatch, NegativeOrNonInteger, NonIntegerMultiplicity
from .groups import GroupTable, Subgroup, conjugacy_data, subgroup

MULT_TOL = 1e-4
FUSION_TOL = 1e-6
REASSEMBLY_TOL = 1e-8
# Complex bytes of one row block of the Verlinde product; at this size a
# block's few temporaries stay in a core's L2 cache.  A block is never less
# than one row x, so past 181 anyons a block is one row.
FUSION_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class Anyon:
    """Simple object: class of class_rep and centralizer irrep pi, a label within its group."""

    class_rep: int
    pi: int
    dim: int
    label: str


@dataclass(frozen=True, eq=False)
class PairOrbits:
    """Orbits of commuting pairs (g, h) under simultaneous conjugation.

    The orbit of (g, h) with h in class c is fixed by c and by the class of
    k_h^-1 g k_h in Z(reps[c]).  Orbits are numbered class by class in anyon
    order, so the double character table is block diagonal and its blocks are
    the centralizer character tables."""

    orbit_of: np.ndarray  # [g, h] -> orbit id, -1 off commuting pairs
    sizes: np.ndarray  # |O| = |cl(a)| * |Z(a)-class|
    rep_g: np.ndarray  # (rep_g[o], rep_h[o]) is a pair in orbit o
    rep_h: np.ndarray
    table: np.ndarray  # table[x, o] = chi_x on orbit o, anyons x in anyons() order


@dataclass(frozen=True, eq=False)
class DGClassFunction:
    """Character-like function on the double: orbit_values[o] = chi(g h*) for
    every commuting pair (g, h) in orbit o of pair_orbits(group).

    Zero off commuting pairs; sums and differences stay in the span of anyon
    characters."""

    group: GroupTable = field(repr=False)
    orbit_values: np.ndarray

    @classmethod
    def from_dense(cls, g: GroupTable, grid) -> "DGClassFunction":
        """Orbit values of a dense grid[g, h]; raises ConditionMismatch unless the
        grid is constant on orbits and zero off commuting pairs."""
        grid = np.asarray(grid, dtype=np.complex128)
        po = pair_orbits(g)
        chi = cls(g, grid[po.rep_g, po.rep_h])
        scale = max(1.0, float(np.max(np.abs(grid))))
        residual = float(np.max(np.abs(chi.values - grid)))
        if not residual <= REASSEMBLY_TOL * scale:  # NaN fails too
            raise ConditionMismatch(
                f"grid is not a class function on commuting pairs (residual {residual:.3e})"
            )
        return chi

    @cached_property
    def values(self) -> np.ndarray:
        """Dense grid values[g, h] = chi(g h*)."""
        return np.append(self.orbit_values, 0)[pair_orbits(self.group).orbit_of]

    def _same_group(self, other: "DGClassFunction") -> None:
        if self.group is not other.group:
            raise GroupMismatch("class functions live on different doubles")

    def __add__(self, other: "DGClassFunction") -> "DGClassFunction":
        self._same_group(other)
        return DGClassFunction(self.group, self.orbit_values + other.orbit_values)

    def __sub__(self, other: "DGClassFunction") -> "DGClassFunction":
        self._same_group(other)
        return DGClassFunction(self.group, self.orbit_values - other.orbit_values)


def centralizer(g: GroupTable, a: int) -> Subgroup:
    """Centralizer of an element, memoized per group.

    In a direct product the centralizer of (a, b) factorizes; the factor
    structure is recorded on the re-indexed table so its character table is
    assembled from the factor tables instead of rerunning the generic solver.
    The cache holds (members, as_group, position), never g itself."""
    cache = g._cache.setdefault("centralizers", {})
    a = int(a)
    if a not in cache:
        label = f"Z[{g.label}:{a}]"
        if "product_of" in g.meta:
            ga, gb = g.meta["product_of"]
            nb = gb.order
            za = centralizer(ga, a // nb)
            zb = centralizer(gb, a % nb)
            members = (za.members[:, None] * nb + zb.members[None, :]).ravel()
            sub = subgroup(g, members, label)
            sub.as_group.meta["product_of"] = (za.as_group, zb.as_group)
        else:
            sub = subgroup(g, np.nonzero(g.conj_table()[:, a] == a)[0], label)
        cache[a] = sub.members, sub.as_group, sub.position
    return Subgroup(g, *cache[a])


def anyons(g: GroupTable) -> list[Anyon]:
    """All simple objects, ordered by (class representative, irrep row).

    Index 0 is always the vacuum (identity class, trivial irrep)."""
    if "anyons" in g._cache:
        return g._cache["anyons"]
    data = conjugacy_data(g)
    out: list[Anyon] = []
    index: dict[tuple[int, int], int] = {}
    for ci, a in enumerate(data.reps):
        size = int(data.classes[ci].size)
        tab = character_table(centralizer(g, int(a)).as_group)
        cl = "e" if a == 0 else f"c{a}"
        for p in range(tab.n_rows):
            index[(int(a), p)] = len(out)
            out.append(Anyon(int(a), p, size * int(tab.dims[p]), f"({cl},r{p})"))
    if sum(x.dim**2 for x in out) != g.order**2:
        raise ConditionMismatch("squared dims must total |G|^2")
    g._cache["anyons"] = out
    g._cache["anyon_index"] = index
    return out


def _index(g: GroupTable, class_rep: int, pi: int) -> int:
    anyons(g)
    return g._cache["anyon_index"][(int(class_rep), int(pi))]


def anyon_by(g: GroupTable, class_rep: int, pi: int) -> Anyon:
    """Anyon with the given canonical class representative and irrep row."""
    return anyons(g)[_index(g, class_rep, pi)]


def pair_orbits(g: GroupTable) -> PairOrbits:
    """Commuting-pair orbits of g with the double character table, memoized.

    chi_x(g h*) = [h in class][gh = hg] tr_pi(k_h^-1 g k_h), so the table is
    the centralizer character tables placed along the diagonal."""
    if "pair_orbits" in g._cache:
        return g._cache["pair_orbits"]
    data = conjugacy_data(g)
    conj = g.conj_table()
    n = len(anyons(g))
    orbit_of = np.full((g.order, g.order), -1, dtype=np.int64)
    sizes = np.empty(n, dtype=np.int64)
    rep_g = np.empty(n, dtype=np.int64)
    rep_h = np.empty(n, dtype=np.int64)
    table = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for ci, a in enumerate(data.reps):
        zc = centralizer(g, int(a))
        zdata = conjugacy_data(zc.as_group)
        hs = data.classes[ci]
        block = slice(at, at + len(zdata.reps))
        # k_h Z(a) k_h^-1 = Z(h), and m in Z(a) lands on orbit (class, class of m)
        moved = conj[data.transversal[hs][:, None], zc.members[None, :]]
        orbit_of[moved, hs[:, None]] = at + zdata.class_of[None, :]
        sizes[block] = [hs.size * c.size for c in zdata.classes]
        rep_g[block] = zc.members[zdata.reps]
        rep_h[block] = a
        table[block, block] = character_table(zc.as_group).table
        at = block.stop
    table.flags.writeable = False
    out = PairOrbits(orbit_of, sizes, rep_g, rep_h, table)
    g._cache["pair_orbits"] = out
    return out


def anyon_character(g: GroupTable, x: Anyon) -> DGClassFunction:
    """chi_x as a row of the double character table."""
    return DGClassFunction(g, pair_orbits(g).table[_index(g, x.class_rep, x.pi)])


def dg_inner_product(chi1: DGClassFunction, chi2: DGClassFunction) -> complex:
    """(1/|G|) sum over all basis pairs of chi1(g h*)* chi2(g h*)."""
    chi1._same_group(chi2)
    sizes = pair_orbits(chi1.group).sizes
    return complex(np.sum(sizes * np.conj(chi1.orbit_values) * chi2.orbit_values) / chi1.group.order)


def dg_decompose(chi: DGClassFunction, tol: float = MULT_TOL) -> np.ndarray:
    """Integer multiplicities against anyons(group), by orthonormality.

    Raises NonIntegerMultiplicity when the projections are not integers or the
    reassembled sum misses the input (the input was not in the character span)."""
    g = chi.group
    po = pair_orbits(g)
    raw = np.conj(po.table) @ (po.sizes * chi.orbit_values) / g.order
    mult = np.rint(raw.real)
    err = float(np.max(np.abs(raw - mult)))
    if not err <= tol:  # NaN fails too
        raise NonIntegerMultiplicity(f"projection off nearest integer by {err:.3e}")
    mult = mult.astype(np.int64)
    scale = max(1.0, float(np.max(np.abs(chi.orbit_values))))
    residual = float(np.max(np.abs(mult @ po.table - chi.orbit_values)))
    if not residual <= REASSEMBLY_TOL * scale:
        raise NonIntegerMultiplicity(f"reassembly residual {residual:.3e}")
    return mult


def tensor_character(chi1: DGClassFunction, chi2: DGClassFunction) -> DGClassFunction:
    """Product character via the coproduct: h splits over ordered pairs h1 h2 = h,
    evaluated at one pair (g, h) per orbit."""
    chi1._same_group(chi2)
    g = chi1.group
    po = pair_orbits(g)
    h1 = np.arange(g.order)[None, :]
    g_col, h_col = po.rep_g[:, None], po.rep_h[:, None]
    first = np.append(chi1.orbit_values, 0)[po.orbit_of[g_col, h1]]
    second = np.append(chi2.orbit_values, 0)[po.orbit_of[g_col, g.mul[g.inv[h1], h_col]]]
    return DGClassFunction(g, np.sum(first * second, axis=1))


def s_matrix(g: GroupTable) -> np.ndarray:
    """Modular S: S_XY = (1/|G|) sum over commuting (g, h) of chi_X(h g*)* chi_Y(g h*)*.

    (g, h) -> (h, g) maps orbits to orbits, so this is one product of a column
    gather of the conjugate double character table with the table itself."""
    if "smatrix" in g._cache:
        return g._cache["smatrix"]
    po = pair_orbits(g)
    swap = po.orbit_of[po.rep_h, po.rep_g]
    x = np.conj(po.table)
    s = (x[:, swap] * po.sizes) @ x.T / g.order
    s.flags.writeable = False
    g._cache["smatrix"] = s
    return s


def s_charge_powers(g: GroupTable, rows: slice = slice(None)) -> np.ndarray:
    """Rows `rows` of S with every charge raised to the j-th power, j = 0..e-1
    (e the exponent) along the last axis.  Times |Z(a)||Z(b)| these are the
    values from which root_multiplicities reads S_XY as a sum of roots of unity.

    S_XY with charges to the j-th power pairs orbit (h^j, g) of X with orbit
    (g^j, h) of Y; the X side is summed onto the orbits of (g^j, h), so a row
    block is one GEMM against the conjugate table for every j at once, and
    j = 1 gives s_matrix bit for bit."""
    po = pair_orbits(g)
    powers = g.power_table()
    e, m = len(powers), po.sizes.size
    x = np.conj(po.table)
    swap = po.orbit_of[powers[:, po.rep_h], po.rep_g]
    own = po.orbit_of[powers[:, po.rep_g], po.rep_h]
    left = x[rows][:, swap] * po.sizes  # [X, j, orbit]
    r = left.shape[0]
    bins = (np.arange(r * e).reshape(r, e, 1) * m + own).ravel()  # row (X, j), column own
    summed = np.bincount(bins, left.real.ravel(), r * e * m) + 1j * np.bincount(
        bins, left.imag.ravel(), r * e * m
    )
    out = summed.reshape(r * e, m) @ x.T / g.order
    return out.reshape(r, e, m).transpose(0, 2, 1)


def t_vector(g: GroupTable) -> np.ndarray:
    """Twists T_X = tr_pi(a) / dim pi, one unit-modulus value per anyon."""
    po = pair_orbits(g)
    a = np.array([x.class_rep for x in anyons(g)])
    rows = np.arange(a.size)
    out = po.table[rows, po.orbit_of[a, a]] / po.table[rows, po.orbit_of[0, a]]
    if not float(np.max(np.abs(np.abs(out) - 1.0))) < 1e-9:
        raise ConditionMismatch("twists must be unit modulus")
    return out


def fusion_verlinde(g: GroupTable) -> np.ndarray:
    """Fusion tensor N[x, y, z] = sum_u S_xu S_yu conj(S_zu) / S_0u (Verlinde).

    One complex GEMM, L[(x, y), u] = S_xu S_yu times R[u, z] = conj(S_zu) / S_0u,
    taken in row blocks of x; every entry of every block must round to a
    non-negative integer within FUSION_TOL.  The result is read-only."""
    if "fusion" in g._cache:
        return g._cache["fusion"]
    s = s_matrix(g)
    m = s.shape[0]
    right = np.conj(s).T / s[0][:, None]
    rows = max(1, FUSION_BLOCK_BYTES // (16 * m * m))
    out = np.empty((m, m, m), dtype=np.int64)
    for x0 in range(0, m, rows):
        raw = (s[x0 : x0 + rows, None, :] * s[None, :, :]).reshape(-1, m) @ right
        n = np.rint(raw.real)
        raw.real -= n  # raw is now the off-integer part
        err = float(np.max(np.abs(raw)))
        if not err <= FUSION_TOL:  # NaN fails too
            raise NegativeOrNonInteger(f"fusion entries off integers by {err:.3e}")
        if n.min() < 0:
            raise NegativeOrNonInteger("negative fusion multiplicity")
        out[x0 : x0 + rows] = n.reshape(-1, m, m)
    out.flags.writeable = False
    g._cache["fusion"] = out
    return out


def anyon_dual(g: GroupTable, x: Anyon) -> Anyon:
    """Dual object: its character is chi_x(g^-1 h^-1*), located by decomposition."""
    po = pair_orbits(g)
    inverse = po.orbit_of[g.inv[po.rep_g], g.inv[po.rep_h]]
    row = po.table[_index(g, x.class_rep, x.pi), inverse]
    return anyons(g)[int(np.argmax(dg_decompose(DGClassFunction(g, row))))]


def anyon_op(g: GroupTable, x: Anyon) -> Anyon:
    """Image in the opposite theory: same class, conjugated irrep."""
    tab = character_table(centralizer(g, x.class_rep).as_group)
    return anyon_by(g, x.class_rep, tab.match_row(np.conj(tab.table[x.pi])))


def kind(x: Anyon) -> str:
    """vacuum / chargeon (trivial flux) / fluxion (trivial charge) / mixed."""
    electric = x.class_rep == 0
    magnetic = x.pi == 0
    if electric and magnetic:
        return "vacuum"
    if electric:
        return "chargeon"
    if magnetic:
        return "fluxion"
    return "mixed"


def product_anyon(g: GroupTable, x: Anyon, y: Anyon) -> Anyon:
    """Anyon of a direct product built from factor anyons; character is the kron."""
    if "product_of" not in g.meta:
        raise GroupMismatch("not a direct product group")
    ga, gb = g.meta["product_of"]
    if x not in anyons(ga) or y not in anyons(gb):
        raise GroupMismatch("factor anyons do not match the product factors")
    from .characters import product_row_of_pair

    rep = x.class_rep * gb.order + y.class_rep
    z = centralizer(g, rep)
    return anyon_by(g, rep, product_row_of_pair(z.as_group, x.pi, y.pi))
