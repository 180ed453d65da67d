"""2-cocycles on subgroups: validation, gauge normalization, commuting-pair phases.

Includes the two constructions the theorems run on: bicharacters of abelian
subgroups, and the wall cocycle on U inside Aff(F_q) x Aff(F_q) whose
condensation swaps the distinguished chargeon and fluxion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    TOL,
    CocycleIdentityFailure,
    NotAbelian,
    NotAField,
    NotBimultiplicative,
    SizeMismatch,
    _check,
)
from .groups import (
    NearFieldSpec,
    Subgroup,
    _factor_prime_power,
    _light_test,
    _within_cap,
    affine_group,
    direct_product,
    is_right_distributive,
    subgroup,
)


@dataclass(frozen=True, eq=False)
class TwoCocycle:
    """Unitary 2-cochain phi on a subgroup, indexed by its local element order."""

    subgroup: Subgroup
    table: np.ndarray

    @property
    def order(self) -> int:
        return int(self.table.shape[0])


def _identity_residual(mul: np.ndarray, table: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """Worst violation of phi(kl,m) phi(k,l) = phi(k,lm) phi(l,m) and its triple;
    the first NaN, if any, is the worst."""
    worst, where = 0.0, (0, 0, 0)
    for k in range(table.shape[0]):
        lhs = table[mul[k], :] * table[k, :][:, None]
        rhs = table[k, mul] * table
        diff = np.abs(lhs - rhs)
        l, m = np.unravel_index(np.argmax(diff), diff.shape)  # argmax stops at a NaN
        if not diff[l, m] <= worst:
            worst, where = float(diff[l, m]), (k, int(l), int(m))
            if np.isnan(worst):
                break
    return worst, where


def validate(table: np.ndarray, k: Subgroup) -> TwoCocycle:
    """Check a float table against the cocycle identity on every triple of K.

    Every input that arrives as floats (bicharacters, the output of normalize)
    takes this full |K|^3 scan within TOL["phase"].  Light's test would not do:
    the identity rebuilds a triple from four others,
    psi(x,ac,y) = psi(xa,c,y) - psi(a,c,y) + psi(x,a,cy) - psi(x,a,c) for
    psi = log phi, so a tolerance met on generator triples doubles with each
    step of closure depth.  wall_cocycle and cocycle files, whose exponents are
    exact integers, take the exact route instead."""
    table = np.asarray(table, dtype=np.complex128)
    n = k.as_group.order
    if table.shape != (n, n):
        raise SizeMismatch(f"table shape {table.shape} does not match |K| = {n}")
    residual, (a, b, c) = _identity_residual(k.as_group.mul, table)
    _check("identity residual", residual, TOL["phase"], partial(CocycleIdentityFailure, a, b, c))
    return TwoCocycle(k, table)


def trivial_cocycle(k: Subgroup) -> TwoCocycle:
    return TwoCocycle(k, np.ones((k.as_group.order, k.as_group.order), dtype=np.complex128))


def normalize(phi: TwoCocycle) -> tuple[TwoCocycle, np.ndarray]:
    """Gauge-equivalent cocycle with phi(e,.) = phi(.,e) = 1, phi(k,k^-1) = 1,
    unit modulus, and phi(k^-1,l^-1) = phi(l,k)^-1; returns (cocycle, alpha).

    The witness satisfies out.table = phi.table * alpha(k) alpha(l) / alpha(kl).
    Idempotent: a normalized input comes back unchanged with alpha = 1."""
    g = phi.subgroup.as_group
    mul, inv = g.mul, g.inv
    n = g.order
    table = phi.table.astype(np.complex128)

    # |phi| is a real 2-cocycle, hence the coboundary of its row mean; divide it out.
    tau = np.log(np.abs(table)).mean(axis=1)
    alpha = np.exp(-tau).astype(np.complex128)
    table = table * alpha[:, None] * alpha[None, :] / alpha[mul]
    table = table / np.abs(table)

    # A constant alpha = c rescales the whole table by c; pin phi(e,e) = 1.
    c = 1.0 / table[0, 0]
    alpha = alpha * c
    table = table * c

    # Per inverse pair {k, k^-1} adjust one endpoint so phi(k, k^-1) = 1;
    # involutions take the principal square root of phi(k,k)^-1.
    step = np.ones(n, dtype=np.complex128)
    for k in range(1, n):
        ki = int(inv[k])
        if k < ki:
            step[ki] = 1.0 / table[k, ki]
        elif k == ki:
            step[k] = np.exp(-0.5j * np.angle(table[k, k]))
    alpha = alpha * step
    table = table * step[:, None] * step[None, :] / step[mul]

    residual, _ = _identity_residual(mul, table)
    out = TwoCocycle(phi.subgroup, table)
    drift = np.abs(phase(out)[2] - phase(phi)[2]).max()
    _check("normalization must preserve the cocycle identity", residual, TOL["normalized"])
    for what, err in (
        ("phi(e, .) must be 1", np.abs(table[0, :] - 1).max()),
        ("phi(., e) must be 1", np.abs(table[:, 0] - 1).max()),
        ("phi(k, k^-1) must be 1", np.abs(table[np.arange(n), inv] - 1).max()),
        ("values must be unit modulus", np.abs(np.abs(table) - 1).max()),
        ("phi(k^-1, l^-1) phi(l, k) must be 1", np.abs(table[inv[:, None], inv[None, :]] * table.T - 1).max()),
        ("phi(.|.) must be gauge invariant on commuting pairs", drift),
    ):
        _check(what, err, TOL["phase"])
    return out, alpha


def phase(phi: TwoCocycle) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, l, values): the commuting pairs of phi's subgroup, local indices in
    row-major order, and the gauge-invariant phase phi(k|l) = phi(k,l) / phi(l,k)
    on each (phi(k,l) phi(klk^-1,k)^-1 with klk^-1 = l), the combination that
    enters the condensation character."""
    mul = phi.subgroup.as_group.mul
    k, l = np.nonzero(mul == mul.T)
    return k, l, phi.table[k, l] / phi.table[l, k]


def bicharacter_cocycle(k: Subgroup, b: np.ndarray) -> TwoCocycle:
    """A bicharacter of an abelian subgroup is automatically a cocycle."""
    g = k.as_group
    if not g.is_abelian():
        raise NotAbelian("bicharacter cocycles require an abelian subgroup")
    b = np.asarray(b, dtype=np.complex128)
    left = np.abs(b[g.mul, :] - b[:, None, :] * b[None, :, :]).max()
    right = np.abs(b[:, g.mul] - b[:, :, None] * b[:, None, :]).max()
    _check("first slot residual", left, TOL["phase"], NotBimultiplicative)
    _check("second slot residual", right, TOL["phase"], NotBimultiplicative)
    return validate(b, k)


def absolute_trace(h: NearFieldSpec) -> np.ndarray:
    """tr: F_q -> F_p, x -> x + x^p + ... + x^(p^(d-1)), as residues 0..p-1.

    The Frobenius map x -> x^p is one vector of p - 1 table lookups; the trace
    sums its d iterates, one vector addition each."""
    if not is_right_distributive(h):
        raise NotAField("the trace form needs honest field arithmetic")
    p, d = _factor_prime_power(h.q)
    frobenius = idx = np.arange(h.q)
    for _ in range(p - 1):
        frobenius = h.mul[frobenius, idx]
    total, term = np.zeros_like(idx), idx
    for _ in range(d):
        total, term = h.add[total, term], frobenius[term]
    _check("trace must land in the prime subfield", np.count_nonzero(total >= p), 0)
    return total


def wall_subgroup(h: NearFieldSpec) -> Subgroup:
    """U = {((a1, alpha), (a2, alpha^-1))} inside Aff(F_q) x Aff(F_q)."""
    if not is_right_distributive(h):
        # closure of U under the product needs a commutative multiplicative group
        raise NotAField("the wall subgroup is only defined over a field")
    q = h.q
    _within_cap((q * q * (q - 1)) ** 2, f"the table of U({h.label})")
    g1 = affine_group(h)
    # axes (alpha, a1, a2); al = alpha - 1 and al_inv = alpha^-1 - 1 index mul[1:, 1:]
    a, al = np.arange(q), np.arange(q - 1)[:, None, None]
    al_inv = np.argmax(h.mul[1:, 1:] == 1, axis=1)[:, None, None]
    members = (a[:, None] * (q - 1) + al) * g1.order + a * (q - 1) + al_inv
    return subgroup(direct_product(g1, g1), members.ravel(), label=f"U({h.label})")


def _exponent_identity_failure(mul: np.ndarray, e: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """First (x, a, y) with e(x,a) + e(xa,y) != e(a,y) + e(x,ay) (mod p), for a over
    the generators of Light's test on the group table mul; None if there is none.

    The a that pass for every x, y are closed under products, and in a group the
    identity is itself a right-normed product a(a(...a)), so when every
    generator passes, omega**e is a 2-cocycle: exact, at |U|^2 per generator.
    Entries of e lie in 0..p-1."""

    def defect(a: int) -> np.ndarray:
        d = e[mul[:, a]] + e[:, a, None]
        d -= e[a]
        d -= e[:, mul[a]]
        return (d != 0) & (d != p) & (d != -p)  # d lies strictly between -2p and 2p

    return _light_test(mul, defect)


def wall_cocycle(h: NearFieldSpec) -> TwoCocycle:
    """phi(g, h) = omega^tr(alpha a2 b1) on U, with omega a primitive p-th root.

    g supplies alpha and a2, h supplies b1.  The exponents e stay integers mod
    p and pass the exact identity check of _exponent_identity_failure (|U|^2
    per generator of U, not |U|^3); the complex table is omega**e."""
    u = wall_subgroup(h)
    q = h.q
    p, _ = _factor_prime_power(q)
    first, second = np.divmod(u.members, q * (q - 1))  # (a1, alpha) and (a2, alpha^-1)
    b1, al = np.divmod(first, q - 1)  # a1 (h's b1) and alpha - 1
    omega = -1.0 + 0.0j if p == 2 else np.exp(2j * np.pi / p)
    e = absolute_trace(h)[h.mul[h.mul[al + 1, second // (q - 1)][:, None], b1[None, :]]]
    e = e.astype(np.int16 if 4 * p < 1 << 15 else np.int64)
    bad = _exponent_identity_failure(u.as_group.mul, e, p)
    if bad is not None:
        raise CocycleIdentityFailure(*bad, f"exponents differ mod {p}")
    return TwoCocycle(u, omega**e)
