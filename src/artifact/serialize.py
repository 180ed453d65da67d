"""JSON and CSV emitters plus file readers for the package's data objects.

Writers are deterministic: key order is fixed in code, numbers keep their
shortest round-trip repr, CSV uses "\n" line endings, and every document
ends with a newline, so repeated runs produce byte-identical output.
Readers accept exactly what the writers emit.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

import numpy as np

from .characters import CharacterTable, ClassFunction
from .cocycles import TwoCocycle, _exponent_identity_failure
from .condensation import CFSymmetryReport, CondensationReport, EquivalenceReport
from .errors import TOL, CocycleIdentityFailure, SizeMismatch, _check
from .groups import GroupTable, Subgroup, conjugacy_data, from_cayley, subgroup
from .modular import InvariantVerdict, TranspositionHit
from .quantum_double import anyons, kind, pair_orbits, s_root_counts, twist_exponents

# Largest omega_order the cocycle writer will infer when factoring a table
# into integer powers of one primitive root.
MAX_ROOT_ORDER = 10_000


def render_json(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def complex_grid(values: np.ndarray) -> list:
    """Nested lists of [re, im] float pairs."""
    arr = np.asarray(values)
    return np.stack([arr.real, arr.imag], axis=-1).astype(np.float64).tolist()


def _pair_grid_to_array(rows) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise SizeMismatch("expected nested [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def format_complex(z) -> str:
    """Compact text form for CSV cells; exact repr of both float parts."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def _csv(header: list, rows) -> str:
    """The header row and then every row of the iterable rows, as CSV text."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return out.getvalue()


def group_exponent(g: GroupTable) -> int:
    return len(g.power_table())


def _cyclotomic_cells(c: np.ndarray, scale) -> list:
    """Render the cells sum_k c[..., k] z_e^k / scale as nested lists of strings.

    A coset k + (e/p)Z of exponents sums to zero for every prime p | e, so each
    coset's minimum is cancelled, one prime at a time; entries only decrease,
    so one pass per prime leaves no coset without a zero.  The coefficients
    and the scale are then divided by their gcd.  A cell reads "2 + z6^1 +
    3*z6^4", wrapped as "(...)/3" when the reduced scale is above 1."""
    e = c.shape[-1]
    c = c.copy()
    for p in range(2, e + 1):
        if e % p == 0 and all(p % q for q in range(2, p)):
            cosets = c.reshape(*c.shape[:-1], p, e // p)
            cosets -= cosets.min(axis=-2, keepdims=True)
    common = np.gcd(np.gcd.reduce(c, axis=-1), scale)
    c //= common[..., None]
    scale = np.broadcast_to(scale // common, common.shape)
    cells = np.empty(common.shape, dtype=object)
    for at in np.ndindex(common.shape):
        ks = np.flatnonzero(c[at]).tolist()
        terms = [f"{n}*z{e}^{k}" if n > 1 else f"z{e}^{k}" for k, n in zip(ks, c[at][ks].tolist())]
        if not ks or ks[0] == 0:  # the constant term, or the zero cell
            terms[:1] = [str(c[at][0])]
        body = " + ".join(terms)
        cells[at] = f"({body})/{scale[at]}" if scale[at] > 1 else body
    return cells.tolist()


# --- groups, subgroups, cocycles ---------------------------------------------------

def group_to_obj(g: GroupTable) -> dict:
    return {
        "order": int(g.order),
        "mul": [[int(v) for v in row] for row in g.mul],
        "label": g.label,
    }


def _ints(raw, what: str) -> np.ndarray:
    """raw read as int64; an entry that is not a JSON integer raises SizeMismatch."""
    arr = np.asarray(raw)
    if arr.size and arr.dtype.kind != "i":
        raise SizeMismatch(f"{what} must be integers")
    return arr.astype(np.int64)


def group_from_obj(obj) -> GroupTable:
    mul = _ints(obj["mul"], "mul entries")
    if mul.shape != (_ints(obj["order"], "order").item(),) * 2:
        raise SizeMismatch("mul table shape disagrees with order")
    return from_cayley(mul, label=str(obj.get("label", "custom")))


def subgroup_from_obj(g: GroupTable, obj) -> Subgroup:
    return subgroup(g, _ints(obj["members"], "subgroup members"))


def cocycle_to_obj(phi: TwoCocycle) -> dict:
    """Factor the table as omega**exponents for one primitive root omega.

    Entries must be roots of unity (all library constructions are); the
    integer exponents make the file format round-trip bit-exactly.
    """
    turns = np.angle(phi.table) / (2.0 * np.pi)
    fracs = [Fraction(float(t)).limit_denominator(MAX_ROOT_ORDER) for t in turns.ravel()]
    p = int(np.lcm.reduce(np.asarray([f.denominator for f in fracs], dtype=np.int64)))
    exps = np.asarray([int(f * p) % p for f in fracs], dtype=np.int64).reshape(turns.shape)
    rebuilt = np.exp(2j * np.pi * exps / p)
    _check("cocycle entries are not roots of unity of a common order",
           float(np.max(np.abs(rebuilt - phi.table))), TOL["phase"], SizeMismatch)
    return {
        "subgroup": [int(m) for m in phi.subgroup.members],
        "omega_order": p,
        "exponents": [[int(v) for v in row] for row in exps],
    }


def cocycle_from_obj(g: GroupTable, obj) -> TwoCocycle:
    """The cocycle omega**exponents, omega = exp(2 pi i / omega_order), after the
    exact identity check on the exponents mod omega_order (Light's test, as for
    the wall cocycle); that check adds two exponents in int64, so omega_order
    stays below 2^62.  The exponents are indexed by the listed members, so the
    list must be the subgroup's members in increasing order, without repeats."""
    listed = _ints(obj["subgroup"], "subgroup members")
    k = subgroup(g, listed)
    if not np.array_equal(listed, k.members):
        raise SizeMismatch("cocycle subgroup members must be listed in increasing order, without repeats")
    p = _ints(obj["omega_order"], "omega_order")
    if p.shape or p < 1:
        raise SizeMismatch("omega_order must be one integer, at least 1")
    if p >= 1 << 62:
        raise SizeMismatch("omega_order must be below 2^62")
    exps = _ints(obj["exponents"], "exponents")
    if exps.shape != (k.order, k.order):
        raise SizeMismatch("exponent table shape disagrees with subgroup order")
    exps %= p
    bad = _exponent_identity_failure(k.as_group.mul, exps, int(p))
    if bad is not None:
        raise CocycleIdentityFailure(*bad, f"exponents differ mod {p}")
    table = np.exp(2j * np.pi * exps / p)
    if p in (1, 2, 4):
        table = np.round(table.real) + 1j * np.round(table.imag)
    return TwoCocycle(k, table)


# --- character tables and anyon lists ----------------------------------------------

def chartable_obj(ct: CharacterTable) -> dict:
    """Every value rendered exactly, from the root multiplicities the table keeps."""
    return {
        "group": ct.group.label,
        "classes": [int(r) for r in conjugacy_data(ct.group).reps],
        "dims": [int(d) for d in ct.dims],
        "rows": _cyclotomic_cells(ct.mult.astype(np.int64), 1),
    }


def chartable_csv(obj: dict) -> str:
    """A chartable_obj as CSV: one row per irrep, one column per class representative."""
    return _csv(["irrep", *obj["classes"]], ([f"r{i}", *row] for i, row in enumerate(obj["rows"])))


ANYON_FIELDS = ["label", "class_rep", "pi", "dim", "kind"]


def _anyon_rows(g: GroupTable) -> list:
    """One row per anyon, in the order of ANYON_FIELDS."""
    return [[x.label, int(x.class_rep), int(x.pi), int(x.dim), kind(x)] for x in anyons(g)]


def anyons_obj(g: GroupTable) -> dict:
    return {"group": g.label, "anyons": [dict(zip(ANYON_FIELDS, row)) for row in _anyon_rows(g)]}


def anyons_csv(g: GroupTable) -> str:
    return _csv(ANYON_FIELDS, _anyon_rows(g))


# --- modular matrices ---------------------------------------------------------------

def s_matrix_obj(g: GroupTable, s: np.ndarray, snap: bool = False) -> dict:
    """With snap, S_XY is rendered over the scale |Z(a)||Z(b)|, which makes it a
    sum of roots of unity; its multiplicities come exactly from s_root_counts."""
    labels = [x.label for x in anyons(g)]
    if not snap:
        return {"group": g.label, "objects": labels, "s": complex_grid(s)}
    return {"group": g.label, "objects": labels, "s": [row for block in s_root_counts(g) for row in _cyclotomic_cells(*block)]}


def t_vector_obj(g: GroupTable, t: np.ndarray, snap: bool = False) -> dict:
    labels = [x.label for x in anyons(g)]
    if not snap:
        return {"group": g.label, "objects": labels, "t": complex_grid(t)}
    roots = np.eye(group_exponent(g), dtype=np.int64)[twist_exponents(g)]
    return {"group": g.label, "objects": labels, "t": _cyclotomic_cells(roots, 1)}


def fusion_obj(g: GroupTable, n: np.ndarray) -> dict:
    return {"group": g.label, "objects": [x.label for x in anyons(g)], "n": n.tolist()}


def matrix_csv(labels, m: np.ndarray, corner: str = "") -> str:
    arr = np.asarray(m)
    row_labels = labels
    if arr.ndim == 1:
        arr, row_labels = arr.reshape(1, -1), [corner or "value"]
    real = lambda v: repr(float(v)) if isinstance(v, float) else int(v)
    cell = format_complex if np.iscomplexobj(arr) else real
    return _csv([corner, *labels], ([name, *map(cell, row)] for name, row in zip(row_labels, arr)))


def fusion_csv(g: GroupTable, n: np.ndarray) -> str:
    labels, at = np.array([x.label for x in anyons(g)]), np.nonzero(n)
    rows = zip(*(labels[i].tolist() for i in at), n[at].tolist())
    return _csv(["left", "right", "result", "multiplicity"], rows)


# --- class functions on the double --------------------------------------------------

def class_function_obj(chi: ClassFunction) -> dict:
    return {
        "group": chi.group.label,
        "order": int(chi.group.order),
        "values": complex_grid(chi.values),
    }


def class_function_from_obj(g: GroupTable, obj) -> ClassFunction:
    values = _pair_grid_to_array(obj["values"])
    if values.shape != (g.order, g.order):
        raise SizeMismatch("class function grid shape disagrees with group order")
    return ClassFunction.from_dense(g, values, pair_orbits(g))


# --- condensation and tunneling reports ---------------------------------------------

def condensation_obj(rep: CondensationReport) -> dict:
    objs = anyons(rep.group)
    mult = {x.label: int(m) for x, m in zip(objs, rep.multiplicities) if m}
    return {
        "group": rep.group.label,
        "boundary": [int(m) for m in rep.boundary.members],
        "multiplicities": mult,
        "condensed": [x.label for x in rep.condensed],
        "verdict": "consistent",
    }


def equivalence_obj(rep: EquivalenceReport) -> dict:
    left, right, n = anyons(rep.tunneling.left), anyons(rep.tunneling.right), rep.tunneling.n
    pairs = {f"{left[i].label} (x) {right[j].label}": int(n[i, j]) for i, j in zip(*np.nonzero(n))}
    targets = None if rep.targets is None else {left[i].label: right[j].label for i, j in enumerate(rep.targets)}
    return {
        "multiplicities": pairs,
        "condensed": list(pairs),
        "verdict": rep.verdict,
        "is_permutation": rep.is_permutation,
        "projections_surjective": list(rep.projections_surjective),
        "pairing_nondegenerate": rep.pairing_nondegenerate,
        "targets": targets,
    }


def cf_report_obj(rep: CFSymmetryReport) -> dict:
    return {
        "flavor": rep.flavor,
        "ok": rep.ok,
        "chargeon": rep.chargeon.label,
        "fluxion": rep.fluxion.label,
        "detail": rep.detail,
        "equivalence": equivalence_obj(rep.equivalence) if rep.equivalence else None,
    }


# --- modular invariants --------------------------------------------------------------

def invariant_obj(v: InvariantVerdict) -> dict:
    return {
        "ok": v.ok,
        "s_residual": float(v.s_residual),
        "t_residual": float(v.t_residual),
        "reasons": list(v.reasons),
    }


def hits_obj(g: GroupTable, hits: list[TranspositionHit], residuals) -> dict:
    pairs = []
    for hit, verdict in zip(hits, residuals):
        pairs.append(
            {
                "x": hit.x.label,
                "y": hit.y.label,
                "kinds": list(hit.kinds),
                "s_residual": float(verdict.s_residual),
                "t_residual": float(verdict.t_residual),
            }
        )
    return {"group": g.label, "count": len(pairs), "pairs": pairs}


def square_matrix_from_obj(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[-1] == 2:
        arr = arr[..., 0] + 1j * arr[..., 1]
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise SizeMismatch("expected a square matrix")
    if not np.isfinite(arr).all():
        raise SizeMismatch("square matrix entries must be finite")
    return arr


# --- lattice reports -----------------------------------------------------------------

def relation_report_obj(label: str, checks, tol: float) -> dict:
    rows = [
        {"name": name, "residual": float(res), "ok": bool(res <= tol)}
        for name, res in checks
    ]
    return {
        "patch": label,
        "tol": float(tol),
        "checks": rows,
        "ok": all(r["ok"] for r in rows),
    }
