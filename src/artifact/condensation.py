"""Boundary condensation and domain-wall tunneling for quantum doubles.

A boundary is specified by a subgroup K together with a two-cocycle on it.
Its algebra character decomposes into anyon characters with non-negative
integer multiplicities; the multiplicity of an anyon says how many ways it
condenses at that boundary.  A domain wall between the doubles of G and G'
is the same datum on G x G' after folding, and when the wall is invertible
the decomposition encodes a bijection between the two anyon sets.

Characters are class functions on the double, stored per commuting-pair orbit
(see quantum_double); `.values` is the expanded dense grid.  Boundary and
wall characters are scattered straight from K x K (or U x U) onto orbits, so
a wall never builds anything on G x G'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cocycles import TwoCocycle, phase, trivial_cocycle, wall_cocycle
from .errors import ConditionMismatch, GroupMismatch, SubgroupMismatch
from .groups import GroupTable, NearFieldSpec, Subgroup, direct_product, subgroup
from .quantum_double import (
    MULT_TOL,
    REASSEMBLY_TOL,
    Anyon,
    DGClassFunction,
    anyon_dual,
    anyon_op,
    anyons,
    dg_decompose,
    pair_orbits,
    product_anyon,
)


@dataclass(frozen=True, eq=False)
class CondensationReport:
    group: GroupTable
    boundary: Subgroup
    cocycle: TwoCocycle
    character: DGClassFunction
    multiplicities: np.ndarray
    condensed: tuple[Anyon, ...]


@dataclass(frozen=True, eq=False)
class UWallSpec:
    """Wall subgroup U of a folded product group plus a cocycle on it."""

    u: Subgroup
    phi: TwoCocycle


@dataclass(frozen=True, eq=False)
class TunnelingMatrix:
    left: GroupTable
    right: GroupTable
    n: np.ndarray  # n[x, y] = multiplicity of x (x) y in the wall character


def _scatter(ids: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    """Complex weights summed into n bins by id."""
    return np.bincount(ids, weights.real, n) + 1j * np.bincount(ids, weights.imag, n)


def boundary_character(g: GroupTable, k: Subgroup, phi: TwoCocycle | None = None) -> DGClassFunction:
    """Character of the boundary algebra A(K, phi) as a function on the double.

    On the orbit O of commuting pairs, chi = |G| / (|K| |O|) times the sum of
    the commuting-pair phase of phi over the commuting (k, l) in K x K that
    lie in O; orbits that never meet K x K give zero."""
    if k.parent is not g:
        raise SubgroupMismatch("boundary subgroup does not live in this group")
    if phi is None:
        phi = trivial_cocycle(k)
    if phi.subgroup is not k and not (
        phi.subgroup.parent is g and np.array_equal(phi.subgroup.members, k.members)
    ):
        raise SubgroupMismatch("cocycle is not defined on this boundary subgroup")
    po = pair_orbits(g)
    ids = po.orbit_of[np.ix_(k.members, k.members)]
    inside = ids >= 0
    sums = _scatter(ids[inside], phase(phi).values[inside], po.sizes.size)
    return DGClassFunction(g, sums * g.order / (k.order * po.sizes))


def condense(g: GroupTable, k: Subgroup, phi: TwoCocycle | None = None) -> CondensationReport:
    """Decompose the boundary character; every multiplicity is a non-negative
    integer, the vacuum condenses exactly once, and the dimension-weighted
    count totals |G|."""
    if phi is None:
        phi = trivial_cocycle(k)
    chi = boundary_character(g, k, phi)
    mult = dg_decompose(chi)
    objs = anyons(g)
    if mult.min() < 0:
        raise ConditionMismatch("boundary multiplicities must be non-negative")
    if mult[0] != 1:
        raise ConditionMismatch("the vacuum must condense with multiplicity one")
    if int(sum(m * x.dim for m, x in zip(mult, objs))) != g.order:
        raise ConditionMismatch("dimension-weighted multiplicities must total |G|")
    condensed = tuple(x for m, x in zip(mult, objs) if m > 0)
    return CondensationReport(g, k, phi, chi, mult, condensed)


def fold(ga: GroupTable, gb: GroupTable) -> tuple[GroupTable, np.ndarray]:
    """Product group together with the index map (x, y) -> product anyon.

    pair_index[i, j] is the position of the i-th anyon of ga paired with the
    j-th anyon of gb inside anyons(product); the map is a bijection."""
    gg = direct_product(ga, gb)
    ax, bx = anyons(ga), anyons(gb)
    target = {x: i for i, x in enumerate(anyons(gg))}
    pair_index = np.empty((len(ax), len(bx)), dtype=np.int64)
    for i, x in enumerate(ax):
        for j, y in enumerate(bx):
            pair_index[i, j] = target[product_anyon(gg, x, y)]
    if not np.array_equal(np.sort(pair_index.ravel()), np.arange(len(target))):
        raise ConditionMismatch("product anyons must biject with pairs of factor anyons")
    return gg, pair_index


def _wall_factors(ga: GroupTable, gb: GroupTable, wall: UWallSpec) -> GroupTable:
    gg = wall.u.parent
    factors = gg.meta.get("product_of")
    if factors is None or factors[0] is not ga or factors[1] is not gb:
        raise GroupMismatch("wall subgroup does not live in the product of these groups")
    return gg


def tunnel(ga: GroupTable, gb: GroupTable, wall: UWallSpec) -> TunnelingMatrix:
    """Multiplicity matrix n[x, y] of x (x) y in the wall's boundary character.

    The phase on commuting (u, v) in U x U is scattered onto pairs of orbits,
    (orbit of (u1, v1) in G, orbit of (u2, v2) in G'), and projected onto the
    two factor character tables; nothing is built on G x G'."""
    gg = _wall_factors(ga, gb, wall)
    pa, pb = pair_orbits(ga), pair_orbits(gb)
    left, right = wall.u.members // gb.order, wall.u.members % gb.order
    ia = pa.orbit_of[np.ix_(left, left)]
    ib = pb.orbit_of[np.ix_(right, right)]
    inside = (ia >= 0) & (ib >= 0)
    ma, mb = pa.sizes.size, pb.sizes.size
    w = _scatter(ia[inside] * mb + ib[inside], phase(wall.phi).values[inside], ma * mb)
    w = w.reshape(ma, mb)
    raw = np.conj(pa.table) @ w @ np.conj(pb.table).T / wall.u.order
    n = np.rint(raw.real)
    err = float(np.abs(raw - n).max())
    if not err <= MULT_TOL or n.min() < 0:  # NaN fails too
        raise ConditionMismatch(f"wall character is not a sum of product anyons (err={err:.2e})")
    n = n.astype(np.int64)
    folded = w * (gg.order / wall.u.order) / np.outer(pa.sizes, pb.sizes)
    back = pa.table.T @ n @ pb.table
    scale = max(1.0, float(np.abs(folded).max()))
    if not np.abs(back - folded).max() <= REASSEMBLY_TOL * scale:
        raise ConditionMismatch("tunneling matrix must reassemble the wall character")
    if n[0, 0] != 1:
        raise ConditionMismatch("the product vacuum must appear exactly once")
    da = np.array([x.dim for x in anyons(ga)])
    db = np.array([y.dim for y in anyons(gb)])
    if int(da @ n @ db) != gg.order:
        raise ConditionMismatch("dimension-weighted total must be |G||G'|")
    return TunnelingMatrix(ga, gb, n)


def diagonal_wall(g: GroupTable) -> UWallSpec:
    """Transparent wall: the diagonal subgroup of G x G with trivial cocycle."""
    gg = direct_product(g, g)
    members = np.arange(g.order) * g.order + np.arange(g.order)
    u = subgroup(gg, members, label=f"diag({g.label})")
    return UWallSpec(u, trivial_cocycle(u))


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    verdict: str  # "equivalence" or "partial"
    tunneling: TunnelingMatrix
    is_permutation: bool
    projections_surjective: tuple[bool, bool]
    pairing_nondegenerate: bool
    targets: tuple[int, ...] | None  # targets[i] = j with n[i, j] = 1 when invertible


def equivalence_check(ga: GroupTable, gb: GroupTable, wall: UWallSpec) -> EquivalenceReport:
    """Decide invertibility of the wall by two independent routes and cross-check.

    Route one inspects U: both coordinate projections must be onto, and the
    commuting-pair phase must pair U cap (G x e) with U cap (e x G') without
    degeneracy.  Route two asks whether the tunneling matrix is a permutation.
    The routes must agree; disagreement raises ConditionMismatch."""
    tm = tunnel(ga, gb, wall)
    n = tm.n
    is_perm = bool(
        n.shape[0] == n.shape[1]
        and n.max() <= 1
        and (n.sum(axis=0) == 1).all()
        and (n.sum(axis=1) == 1).all()
    )

    mem = wall.u.members
    nb = gb.order
    proj_left = np.unique(mem // nb).size == ga.order
    proj_right = np.unique(mem % nb).size == gb.order
    left_slice = np.nonzero(mem % nb == 0)[0]
    right_slice = np.nonzero(mem // nb == 0)[0]
    t = wall.phi.table  # U cap (G x e) commutes with U cap (e x G'): phase phi(k, l) / phi(l, k)
    block = np.round(t[np.ix_(left_slice, right_slice)] / t[np.ix_(right_slice, left_slice)].T, 9)
    nondeg = (
        left_slice.size == right_slice.size
        and len({tuple(r) for r in block}) == left_slice.size
        and len({tuple(c) for c in block.T}) == right_slice.size
    )
    conditions = bool(proj_left and proj_right and nondeg)

    if conditions != is_perm:
        raise ConditionMismatch(
            "subgroup-side invertibility test and tunneling matrix disagree"
        )
    targets = tuple(int(np.argmax(row)) for row in n) if is_perm else None
    return EquivalenceReport(
        "equivalence" if is_perm else "partial",
        tm,
        is_perm,
        (bool(proj_left), bool(proj_right)),
        bool(nondeg),
        targets,
    )


@dataclass(frozen=True, eq=False)
class CFSymmetryReport:
    flavor: str  # "field" or "near-field"
    ok: bool
    chargeon: Anyon
    fluxion: Anyon
    detail: str
    equivalence: EquivalenceReport | None


def verify_cf_symmetry(h: NearFieldSpec) -> CFSymmetryReport:
    """Confirm the chargeon-fluxion swap attached to a (near-)field.

    For an honest field the swap is realized by a concrete invertible wall on
    the doubled affine group: the induced auto-equivalence must be the
    distinguished transposition composed with the dual map.  For a proper
    near-field no such wall subgroup exists, so the swap is certified at the
    level of modular data instead."""
    from .groups import is_right_distributive
    from .modular import affine_cf_anyons, verify_theorem_b1

    if not is_right_distributive(h):
        report = verify_theorem_b1(h)
        failed = [name for name, ok in report.steps.items() if not ok]
        detail = (
            "no wall subgroup (multiplication is not distributive); "
            f"structural steps {'all hold' if not failed else 'FAILED: ' + ', '.join(failed)}, "
            f"transposition invariant: {report.invariant.ok}"
        )
        return CFSymmetryReport(
            "near-field", report.ok, report.chargeon, report.fluxion, detail, None
        )

    wall_phi = wall_cocycle(h)
    u = wall_phi.subgroup
    gg = u.parent
    ga, gb = gg.meta["product_of"]
    if ga is not gb:
        raise ConditionMismatch("the wall folds two copies of the same affine group")
    c, f = affine_cf_anyons(ga, h.q)
    eq = equivalence_check(ga, gb, UWallSpec(u, wall_phi))
    objs = anyons(ga)
    idx = {x: i for i, x in enumerate(objs)}
    ok = eq.is_permutation
    if ok:
        for i, x in enumerate(objs):
            image = anyon_op(ga, objs[eq.targets[i]])
            swapped = anyon_dual(ga, x)
            if swapped == c:
                swapped = f
            elif swapped == f:
                swapped = c
            if idx[image] != idx[swapped]:
                ok = False
                break
    detail = (
        f"wall tunneling is {'the c/f transposition composed with the dual map' if ok else 'NOT the expected permutation'}"
        if eq.is_permutation
        else "wall is not invertible"
    )
    return CFSymmetryReport("field", ok, c, f, detail, eq)
