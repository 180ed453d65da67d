"""Anyon data of the quantum double of a finite group.

Simple objects are labeled by a conjugacy class together with an irreducible
character of the centralizer of its representative.  Every derived quantity
here (S and T matrices, fusion multiplicities, duality) is computed from the
characters chi(g h*), which live on commuting pairs and are constant on
orbits of simultaneous conjugation.  There are exactly as many orbits as
anyons, so a class function on the double is a `characters.ClassFunction` on
the orbits of `pair_orbits`, one value per orbit; its `.values` is the expanded
|G| x |G| grid.  Inner product and decomposition are the ones of
`characters`, bound here as `dg_inner_product` and `dg_decompose`.  Fusion is
exact: it reads the same characters mod p, from the centralizers' root
multiplicities, and certifies its integers over Z.  So are the cyclotomic
forms of S and T: `s_root_counts` by Dixon's formula mod a prime above every
count, and `twist_exponents` read off the multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import ClassFunction, Orbits, _dixon, _gemm_mod, _on_orbits, _prime_and_roots, character_table, decompose, inner_product
from .errors import TOL, ConditionMismatch, GroupMismatch, _blocks, _cached, _check
from .groups import GroupTable, Subgroup, conjugacy_data, subgroup


@dataclass(frozen=True)
class Anyon:
    """Simple object: class of class_rep and centralizer irrep pi, a label within its group."""

    class_rep: int
    pi: int
    dim: int
    label: str


def centralizer(g: GroupTable, a: int) -> Subgroup:
    """Centralizer of an element, memoized per group under its member set: elements
    with one centralizer share its subgroup table and so its Dixon-Schneider table.

    The cache holds (members, as_group, position), never g itself, so the centralizer of
    a central element, the whole group, is g with its own table, built anew, uncached."""
    members = np.flatnonzero(g.conj_table()[:, int(a)] == int(a))
    if members.size == g.order:
        return Subgroup(g, members, g, members)
    return Subgroup(g, *_cached(g._cache, ("centralizer", members.tobytes()), _centralizer, g, members))


def _centralizer(g: GroupTable, members: np.ndarray) -> tuple[np.ndarray, GroupTable, np.ndarray]:
    sub = subgroup(g, members, f"Z[{g.label}:{members.size}]")
    return sub.members, sub.as_group, sub.position


def anyons(g: GroupTable) -> tuple[Anyon, ...]:
    """All simple objects, ordered by (class representative, irrep row).

    Index 0 is always the vacuum (identity class, trivial irrep)."""
    return _cached(g._cache, "anyons", _anyons, g)[0]


def _anyons(g: GroupTable) -> tuple[tuple[Anyon, ...], dict[tuple[int, int], int]]:
    """The anyons and the index of each (class_rep, pi) among them."""
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
    return tuple(out), index


def _index(g: GroupTable, class_rep: int, pi: int) -> int:
    return _cached(g._cache, "anyons", _anyons, g)[1][(int(class_rep), int(pi))]


def anyon_by(g: GroupTable, class_rep: int, pi: int) -> Anyon:
    """Anyon with the given canonical class representative and irrep row."""
    return anyons(g)[_index(g, class_rep, pi)]


def pair_orbits(g: GroupTable) -> Orbits:
    """Orbits of commuting pairs (g, h) under simultaneous conjugation, with
    reps (rep_g, rep_h) and the double character table, memoized.

    The orbit of (g, h) with h in class c is fixed by c and by the class of
    k_h^-1 g k_h in Z(reps[c]).  Orbits are numbered class by class in anyon
    order, and chi_x(g h*) = [h in class][gh = hg] tr_pi(k_h^-1 g k_h), so the
    table is the centralizer character tables placed along the diagonal."""
    return _cached(g._cache, "pair_orbits", _pair_orbits, g)


def _pair_orbits(g: GroupTable) -> Orbits:
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
    return Orbits(orbit_of, sizes, (rep_g, rep_h), table)


def _scatter(ids: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Complex weights summed into n bins by id."""
    return np.bincount(ids, weights.real, n) + 1j * np.bincount(ids, weights.imag, n)


def anyon_character(g: GroupTable, x: Anyon) -> ClassFunction:
    """chi_x as a row of the double character table."""
    po = pair_orbits(g)
    return ClassFunction(g, po.table[_index(g, x.class_rep, x.pi)], po)


dg_inner_product = inner_product
dg_decompose = decompose


def tensor_character(chi1: ClassFunction, chi2: ClassFunction) -> ClassFunction:
    """Product character via the coproduct: h splits over ordered pairs h1 h2 = h,
    evaluated at one pair (g, h) per orbit."""
    g = chi1.group
    po = pair_orbits(g)
    _on_orbits(g, po, chi1, chi2)
    rep_g, rep_h = po.reps
    h1 = np.arange(g.order)[None, :]
    g_col, h_col = rep_g[:, None], rep_h[:, None]
    first = np.append(chi1.orbit_values, 0)[po.orbit_of[g_col, h1]]
    second = np.append(chi2.orbit_values, 0)[po.orbit_of[g_col, g.mul[g.inv[h1], h_col]]]
    return ClassFunction(g, np.sum(first * second, axis=1), po)


def s_matrix(g: GroupTable) -> np.ndarray:
    """Modular S: S_XY = (1/|G|) sum over commuting (g, h) of chi_X(h g*)* chi_Y(g h*)*.

    (g, h) -> (h, g) maps orbits to orbits, so this is one product of a column
    gather of the conjugate double character table with the table itself."""
    return _cached(g._cache, "smatrix", _s_matrix, g)


def _s_matrix(g: GroupTable) -> np.ndarray:
    po = pair_orbits(g)
    swap = po.orbit_of[po.reps[::-1]]  # orbit of (h, g) for each rep (g, h)
    x = np.conj(po.table)
    return (x[:, swap] * po.sizes) @ x.T / g.order


def t_vector(g: GroupTable) -> np.ndarray:
    """Twists T_X = tr_pi(a) / dim pi, one unit-modulus value per anyon."""
    po = pair_orbits(g)
    a = np.array([x.class_rep for x in anyons(g)])
    rows = np.arange(a.size)
    out = po.table[rows, po.orbit_of[a, a]] / po.table[rows, po.orbit_of[0, a]]
    _check("twists must be unit modulus", float(np.max(np.abs(np.abs(out) - 1.0))), TOL["phase"])
    return out


def twist_exponents(g: GroupTable) -> np.ndarray:
    """k per anyon with T_X = z^k, z = exp(2 pi i / e), e the exponent: a is central in Z(a), so the
    root multiplicities of pi at a's class are d_pi at one root and 0 elsewhere, else ConditionMismatch."""
    e, out = len(g.power_table()), []
    for a in conjugacy_data(g).reps:
        z = centralizer(g, int(a))
        tab = character_table(z.as_group)
        row = tab.mult[:, conjugacy_data(z.as_group).class_of[z.position[a]]]  # [pi, t]
        off = (np.count_nonzero(row, axis=1) != 1) | (row.max(axis=1) != tab.dims)
        _check("twist rows must hold d_pi at one root", np.count_nonzero(off), 0)
        out.append(np.argmax(row, axis=1) * (e // row.shape[1]))
    return np.concatenate(out)


def _double_tables(g: GroupTable, p: int, zp: np.ndarray) -> np.ndarray:
    """[2, m, m] float64: the double character table mod p and its conjugate, zp[s] = z^s for z of
    order e in F_p.  Centralizer tables map by exp(2 pi i / e_Z) -> z^(e/e_Z), conjugates by z^-(e/e_Z)."""
    e, n, at = len(zp), pair_orbits(g).sizes.size, 0
    tables = np.zeros((2, n, n))
    for a in conjugacy_data(g).reps:
        mult = character_table(centralizer(g, int(a)).as_group).mult
        t = np.arange(mult.shape[2]) * (e // mult.shape[2])
        block = slice(at, at := at + len(mult))
        tables[:, block, block] = (mult @ zp[np.stack([t, -t % e])].T % p).transpose(2, 0, 1)
    return tables


def _s_residues(g: GroupTable) -> tuple[int, np.ndarray, np.ndarray]:
    """(p, S mod p, conj(S) mod p), int32 as |G| <= 2^12 (groups.MAX_ENTRIES) keeps p far
    below 2^31; p and z are those of g's table.  The gather and GEMM of _s_matrix, mod p."""
    po = pair_orbits(g)
    p, zp = _prime_and_roots(g.order, len(g.power_table()))
    swap = po.orbit_of[po.reps[::-1]]
    back = pow(g.order, -1, p)
    tables = _double_tables(g, p, zp)[::-1]
    s, conj_s = ((_gemm_mod(x[:, swap] * po.sizes, x.T, p) * back % p).astype(np.int32) for x in tables)
    return p, s, conj_s


def s_root_counts(g: GroupTable):
    """Yield (c, scale) over row blocks X of S: c[X, Y, k] >= 0 with scale_XY S_XY = sum_k
    c_k z^k, z = exp(2 pi i / e), e the exponent, scale_XY = |Z(a)||Z(b)|.  S_XY with every
    charge to the j-th power pairs orbit (h^j, g) of X with (g^j, h) of Y: X's side is summed
    onto the orbits of (g^j, h), Dixon's formula mod P turns j into k, and a GEMM with the
    conjugate double table mod P sums the orbits.  At j = 0, scale S_XY = B_XY = scale d'_X
    d'_Y N_XY / |G| (d' the irrep degrees, N the commuting pairs of the two classes) and P > max
    B, so c_k <= B_XY is its own residue; sum_k c_k = B_XY over Z, else ConditionMismatch."""
    po, data, powers = pair_orbits(g), conjugacy_data(g), g.power_table()
    (rep_g, rep_h), e, m, k = po.reps, len(powers), po.sizes.size, data.reps.size
    flux = data.class_of[rep_h]  # the class of anyon X: orbits are numbered in anyon order
    zord = g.order // np.bincount(data.class_of)[flux]  # |Z(a)|
    degree = zord * np.array([x.dim for x in anyons(g)]) // g.order
    pairs = np.bincount(data.class_of[rep_g] * k + flux, po.sizes, k * k).astype(np.int64).reshape(k, k)
    bound = np.outer(zord * degree, zord * degree) * pairs[np.ix_(flux, flux)] // g.order
    p, zp = _prime_and_roots(int(bound.max()), e)
    x = _double_tables(g, p, zp)[1]
    left, right = x * zord[:, None] % p, x * (zord * pow(g.order, -1, p) % p)[:, None] % p
    swap = po.orbit_of[powers[:, rep_h], rep_g]  # [j, orbit]
    own = po.orbit_of[powers[:, rep_g], rep_h] * e + np.arange(e)[:, None]
    for rows in _blocks(m, 32 * m * e):
        bins = (np.arange(rows.stop - rows.start)[:, None, None] * (m * e) + own).ravel()  # [X, own orbit, j]
        summed = np.bincount(bins, (left[rows][:, swap] * po.sizes).ravel(), bins.size).reshape(-1, m, e)
        summed -= p * np.floor(summed / p)  # exact: every sum stays below 2^53
        c = _gemm_mod(right, _dixon(summed, zp, p) * 1.0, p)  # [X, Y, k]
        _check("snapped S: sum_k c_k != B", np.count_nonzero(c.sum(axis=-1) != bound[rows]), 0)
        yield c, np.outer(zord[rows], zord)


def fusion_verlinde(g: GroupTable) -> np.ndarray:
    """Fusion tensor N[x, y, z] = sum_u S_xu S_yu conj(S_zu) / S_0u (Verlinde), in F_p.

    Real GEMMs of residues, L[(x, y), u] = S_xu S_yu times R[u, z] = conj(S_zu) |G| / d_u, one
    per flux class pair A <= B of x, y (row blocks of x, mirrored into N[y, x]), over the z whose
    class meets C_A C_B: flux is conserved.  Each int64 block is certified over Z, sum_z r_xyz d_z
    = d_x d_y, else ConditionMismatch: r = N mod p, N <= d_x < p and N >= 0 off the block, so only
    r = N with N = 0 off it passes; no float is compared.  Stored read-only in the dtype of max d >= N."""
    return _cached(g._cache, "fusion", _fusion_verlinde, g)


def _flux_sectors(g: GroupTable) -> np.ndarray:
    """hits[A, B, C]: class C meets C_A C_B, that is, rep_A b lies in C for some b in C_B."""
    data = conjugacy_data(g)
    hits = np.zeros((data.reps.size,) * 3, dtype=bool)
    hits[np.arange(data.reps.size)[:, None], data.class_of, data.class_of[g.mul[data.reps]]] = True
    return hits


def _fusion_verlinde(g: GroupTable) -> np.ndarray:
    p, s, conj_s = _cached(g._cache, "s_residues", _s_residues, g)
    m, s = s.shape[0], s.astype(np.float64)
    dims = np.array([x.dim for x in anyons(g)], dtype=np.int64)
    right = (conj_s.T * np.array([g.order * pow(int(d), -1, p) % p for d in dims])[:, None] % p).astype(np.float64)
    flux = conjugacy_data(g).class_of[[x.class_rep for x in anyons(g)]]
    at, hits = np.searchsorted(flux, np.arange(flux[-1] + 2)), _flux_sectors(g)  # class c: anyons at[c]:at[c + 1]
    out = np.zeros((m, m, m), dtype=np.min_scalar_type(int(dims.max())))  # N <= max d
    for a, b in zip(*np.triu_indices(len(at) - 1)):
        ys, zs = slice(at[b], at[b + 1]), np.flatnonzero(hits[a, b, flux])
        for xs in _blocks(at[a + 1] - at[a], 24 * m * (ys.stop - ys.start)):
            xs = slice(at[a] + xs.start, at[a] + xs.stop)
            n = _gemm_mod((s[xs, None] * s[None, ys]).reshape(-1, m), right[:, zs], p).reshape(xs.stop - xs.start, -1, zs.size)
            _check("fusion residues: sum N d != d_x d_y", np.count_nonzero(n @ dims[zs] - np.outer(dims[xs], dims[ys])), 0)
            out[xs, ys, zs] = n
            out[ys, xs, zs] = n.transpose(1, 0, 2)
    return out


def anyon_dual(g: GroupTable, x: Anyon) -> Anyon:
    """Dual object: its character is chi_x(g^-1 h^-1*), located by decomposition."""
    po = pair_orbits(g)
    rep_g, rep_h = po.reps
    inverse = po.orbit_of[g.inv[rep_g], g.inv[rep_h]]
    row = po.table[_index(g, x.class_rep, x.pi), inverse]
    return anyons(g)[int(np.argmax(decompose(ClassFunction(g, row, po))))]


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
    """Anyon of a direct product built from factor anyons: the class of (a, b) and
    the irrep of Z((a, b)) = Z(a) x Z(b) whose character is chi_u(x) chi_v(y)."""
    if "product_of" not in g.meta:
        raise GroupMismatch("not a direct product group")
    ga, gb = g.meta["product_of"]
    if x not in anyons(ga) or y not in anyons(gb):
        raise GroupMismatch("factor anyons do not match the product factors")
    rep = x.class_rep * gb.order + y.class_rep
    z = centralizer(g, rep)
    za, zb = centralizer(ga, x.class_rep), centralizer(gb, y.class_rep)
    i, j = np.divmod(z.members[conjugacy_data(z.as_group).reps], gb.order)
    u = character_table(za.as_group).row(x.pi).values[za.position[i]]
    v = character_table(zb.as_group).row(y.pi).values[zb.position[j]]
    return anyon_by(g, rep, character_table(z.as_group).match_row(u * v))
