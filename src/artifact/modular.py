"""Symmetry analysis of modular data: invariant matrices, the dual permutation,
transposition scans, and the affine near-field case study.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characters import EQ_TOL, character_table, induced_character, inner_product
from .errors import ConditionMismatch, SizeMismatch
from .groups import (
    GroupTable,
    NearFieldSpec,
    Subgroup,
    affine_group,
    conjugacy_data,
    subgroup,
)
from .quantum_double import (
    Anyon,
    anyon_by,
    anyon_dual,
    anyons,
    centralizer,
    kind,
    s_matrix,
    t_vector,
)


@dataclass(frozen=True, eq=False)
class ModularData:
    group: GroupTable
    s: np.ndarray
    t: np.ndarray
    objects: tuple[Anyon, ...]


def modular_data(g: GroupTable) -> ModularData:
    return ModularData(g, s_matrix(g), t_vector(g), tuple(anyons(g)))


@dataclass(frozen=True)
class InvariantVerdict:
    ok: bool
    s_residual: float
    t_residual: float
    reasons: tuple[str, ...]


def is_modular_invariant(m: np.ndarray, data: ModularData, tol: float = EQ_TOL) -> InvariantVerdict:
    """Non-negative integer matrix commuting with S and T, with unit vacuum entry."""
    m = np.asarray(m)
    if m.shape != data.s.shape:
        raise SizeMismatch(f"candidate shape {m.shape} does not match {data.s.shape}")
    reasons = []  # every test reads "not ... <=" so that NaN fails it
    if not np.abs(m - np.rint(np.real(m))).max() <= tol:
        reasons.append("entries not integers")
    if not np.real(m).min() >= -tol:
        reasons.append("negative entry")
    if not abs(m[0, 0] - 1) <= tol:
        reasons.append("vacuum entry not 1")
    s_res = float(np.abs(m @ data.s - data.s @ m).max())
    t_res = float(np.abs(m * data.t[None, :] - data.t[:, None] * m).max())
    if not s_res <= tol:
        reasons.append("does not commute with S")
    if not t_res <= tol:
        reasons.append("does not commute with T")
    return InvariantVerdict(not reasons, s_res, t_res, tuple(reasons))


def charge_conjugation_matrix(g: GroupTable) -> np.ndarray:
    """Permutation matrix J of the dual map; always a modular invariant."""
    objs = anyons(g)
    j = np.zeros((len(objs), len(objs)), dtype=np.int64)
    for i, x in enumerate(objs):
        j[i, objs.index(anyon_dual(g, x))] = 1
    return j


@dataclass(frozen=True)
class TranspositionHit:
    x: Anyon
    y: Anyon
    kinds: tuple[str, str]


def search_transposition_invariants(g: GroupTable, tol: float = EQ_TOL) -> list[TranspositionHit]:
    """All unordered anyon pairs whose transposition commutes with S and T.

    Pairs touching the vacuum are excluded up front (their candidate loses the
    unit vacuum entry); T-commutation reduces to equal twists and prunes the scan."""
    objs = anyons(g)
    s = s_matrix(g)
    t = t_vector(g)
    m = len(objs)
    hits = []
    for i in range(1, m):
        for j in range(i + 1, m):
            if abs(t[i] - t[j]) > tol:
                continue
            p = np.arange(m)
            p[i], p[j] = j, i
            if np.abs(s[np.ix_(p, p)] - s).max() > tol:
                continue
            hits.append(TranspositionHit(objs[i], objs[j], (kind(objs[i]), kind(objs[j]))))
    return hits


def transposition_matrix(data: ModularData, x: Anyon, y: Anyon) -> np.ndarray:
    m = len(data.objects)
    i, j = data.objects.index(x), data.objects.index(y)
    p = np.eye(m, dtype=np.int64)
    p[i, i] = p[j, j] = 0
    p[i, j] = p[j, i] = 1
    return p


def affine_cf_anyons(g: GroupTable, q: int) -> tuple[Anyon, Anyon]:
    """The distinguished chargeon (e, pi) and fluxion (class of (1,1), trivial).

    pi is the induced irrep off the translation subgroup: the unique row of
    dimension q-1 taking value -1 on the class of (1,1)."""
    data = conjugacy_data(g)
    a_elem = q - 1  # encoding of (1, 1)
    cls = int(data.class_of[a_elem])
    tab = character_table(g)
    rows = [
        p
        for p in range(tab.n_rows)
        if tab.dims[p] == q - 1 and abs(tab.table[p, cls] + 1) < 1e-6
    ]
    if len(rows) != 1:
        raise ConditionMismatch("the induced irrep must be unique")
    chargeon = anyon_by(g, 0, rows[0])
    fluxion = anyon_by(g, int(data.reps[cls]), 0)
    return chargeon, fluxion


@dataclass(frozen=True, eq=False)
class TheoremB1Report:
    group: GroupTable
    q: int
    chargeon: Anyon
    fluxion: Anyon
    steps: dict[str, bool]
    invariant: InvariantVerdict

    @property
    def ok(self) -> bool:
        return self.invariant.ok and all(self.steps.values())


def verify_theorem_b1(h: NearFieldSpec) -> TheoremB1Report:
    """Re-derive the checkable facts behind the chargeon-fluxion transposition.

    Builds the affine group of the (near-)field, constructs pi by explicit
    induction from a nontrivial character of the translation subgroup K, and
    confirms each structural step plus the final modular-invariance claim."""
    g = affine_group(h)
    q = h.q
    data = conjugacy_data(g)
    tab = character_table(g)

    k = subgroup(g, [a * (q - 1) for a in range(q)], label="K")
    ind = induced_character(g, k, character_table(k.as_group).row(1))
    if not abs(inner_product(ind, ind) - 1) < 1e-8:
        raise ConditionMismatch("induced character must be irreducible")
    pi = tab.match_row(ind.values)

    a_elem = q - 1
    cls = int(data.class_of[a_elem])
    members = data.classes[cls]
    chargeon = anyon_by(g, 0, pi)
    fluxion = anyon_by(g, int(data.reps[cls]), 0)

    closure = np.sort(np.concatenate(([0], members)))
    zc = centralizer(g, int(data.reps[cls]))
    orders = {g.element_order(int(x)) for x in members}

    steps = {
        "b_dim_pi_equals_class_size": int(tab.dims[pi]) == members.size,
        "c_class_plus_identity_is_subgroup": _is_closed(g, closure),
        "d_other_irreps_constant_on_class": all(
            abs(tab.table[p, cls] - tab.dims[p]) < 1e-8
            for p in range(tab.n_rows)
            if p != pi
        ),
        "e_pi_vanishes_off_closure_and_is_minus_one_on_class": (
            abs(tab.table[pi, cls] + 1) < 1e-8
            and all(
                abs(tab.table[pi, c]) < 1e-8
                for c in range(len(data.classes))
                if c not in (0, cls)
            )
        ),
        "f_centralizer_order": zc.order == members.size + 1,
        "g_centralizer_equals_closure": np.array_equal(zc.members, closure),
        "h_centralizer_elementary_abelian": (
            zc.as_group.is_abelian() and len(orders) == 1
        ),
    }

    mdata = modular_data(g)
    verdict = is_modular_invariant(transposition_matrix(mdata, chargeon, fluxion), mdata)
    return TheoremB1Report(g, q, chargeon, fluxion, steps, verdict)


def _is_closed(g: GroupTable, members: np.ndarray) -> bool:
    inside = np.zeros(g.order, dtype=bool)
    inside[members] = True
    return bool(inside[g.mul[np.ix_(members, members)]].all())
