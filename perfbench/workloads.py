"""The four benchmark workloads, as fixed lists of checked operations.

Each workload is a function (bench, seed, tiny) that runs its operations one
after another through `bench.op`, which times the call, checks the result and
counts failures.  The seed only picks inputs (anyon pairs, subgroup
generators, the seeds of the lattice probe states); the package sees the
picked inputs and nothing else.  `tiny` swaps in a handful of small groups
for the benchmark's own smoke tests.

Library functions are looked up on their modules at call time, so the span
wrappers installed for a traced pass see every call.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import re
import time

import numpy as np

from artifact import characters as C
from artifact import cli
from artifact import cocycles as Co
from artifact import condensation as D
from artifact import groups as G
from artifact import lattice as L
from artifact import modular as M
from artifact import quantum_double as Q

# Acceptance bounds of the checks (criteria 8 and 9 of the test suite, and
# the rendering contract of `qdouble --snap`).
RELATION_TOL = 1e-8
LATTICE_CHAR_TOL = 1e-6
RENDER_TOL = 1e-9
NUMERIC_TOL = 1e-8

class Pass:
    """Closed-loop client for one pass: times each operation, checks its result."""

    def __init__(self, recorder=None, speed=None):
        self.recorder = recorder
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: list[float] = []
        self.spans: list[tuple[float, float]] = []
        self.cpu_s = 0.0
        self.cells = 0
        self.rendered = 0

    def op(self, name: str, thunk, check):
        """Run thunk() timed, then check(result) untimed and untraced.

        Raising or failing the check counts the operation as failed.  The
        result is returned either way (None if the call raised), so later
        operations compare against what the package actually produced.
        Time spent in the speed samples taken during the call is not counted."""
        self.attempted += 1
        out, why = None, None
        s0 = self.speed.spent if self.speed is not None else 0.0
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = thunk()
        except Exception as exc:  # a failed operation is counted; the pass goes on
            why = f"{type(exc).__name__}: {exc}"
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            sampling = self.speed.spent - s0 if self.speed is not None else 0.0
            self.times.append(t1 - t0 - sampling)
            self.spans.append((t0, t1))
            self.cpu_s += c1 - c0 - sampling
        if why is None:
            if self.recorder is not None:
                self.recorder.active = False
            try:
                if not check(out):
                    why = "wrong result"
            except Exception as exc:
                why = f"check raised {type(exc).__name__}: {exc}"
            finally:
                if self.recorder is not None:
                    self.recorder.active = True
        if why is not None:
            self.failed += 1
            self.failures.append(f"{name}: {why}")
        return out


def _near(a, b, tol: float) -> bool:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) <= tol


# --- modular: many anyons, small |G| ----------------------------------------------


def _modular_groups(tiny: bool):
    if tiny:
        yield "Z2", lambda: G.cyclic(2), 2
        yield "Z2xZ2", lambda: G.direct_product(G.cyclic(2), G.cyclic(2)), 4
        yield "Aff(F3)", lambda: G.affine_group(G.near_field(3)), 6
        return
    for n in range(2, 13):
        yield f"Z{n}", lambda n=n: G.cyclic(n), n
    yield "Z2xZ4", lambda: G.direct_product(G.cyclic(2), G.cyclic(4)), 8
    yield "Z3xZ3", lambda: G.direct_product(G.cyclic(3), G.cyclic(3)), 9
    yield "Z2xS3", lambda: G.direct_product(G.cyclic(2), G.symmetric(3)), 12
    for q in (4, 5, 7, 8, 9, 11, 13):
        yield f"Aff(F{q})", lambda q=q: G.affine_group(G.near_field(q)), q * (q - 1)


def check_s_matrix(s) -> bool:
    return _near(s, s.T, NUMERIC_TOL) and _near(s @ s.conj().T, np.eye(len(s)), NUMERIC_TOL)


def check_fusion_tensor(n, m: int) -> bool:
    """Integer, non-negative, vacuum acts as the identity."""
    return (
        n.shape == (m, m, m)
        and np.issubdtype(n.dtype, np.integer)
        and int(n.min()) >= 0
        and np.array_equal(n[0], np.eye(m, dtype=n.dtype))
    )


def check_fusion_routes(n, i: int, j: int, mult) -> bool:
    """The Verlinde route and the character route give the same N_ij^k."""
    return np.array_equal(np.asarray(mult), n[i, j])


def check_transposition_hits(hits, g) -> bool:
    """Every reported pair is a transposition commuting with S and T."""
    s, t = Q.s_matrix(g), Q.t_vector(g)
    index = {x: i for i, x in enumerate(Q.anyons(g))}
    for hit in hits:
        i, j = index[hit.x], index[hit.y]
        p = np.arange(len(t))
        p[i], p[j] = j, i
        if not (_near(s[np.ix_(p, p)], s, NUMERIC_TOL) and abs(t[i] - t[j]) <= NUMERIC_TOL):
            return False
    return True


def modular(bench: Pass, seed: int, tiny: bool = False) -> None:
    """Build each group fresh, then conjugacy data, character table, anyons,
    S, T and Verlinde fusion; fusion of 3 seeded anyon pairs a second time
    through tensor_character + dg_decompose; finally the transposition scan."""
    rng = np.random.default_rng(seed)
    specs = list(_modular_groups(tiny))
    picks = rng.random((len(specs), 3, 2))
    for (label, build, order), pick in zip(specs, picks):
        g = bench.op(f"build {label}", build, lambda g: g.order == order)
        bench.op(f"conjugacy_data {label}", lambda: G.conjugacy_data(g),
                 lambda d: sum(c.size for c in d.classes) == order)
        bench.op(f"character_table {label}", lambda: C.character_table(g),
                 lambda ct: int(np.sum(ct.dims**2)) == order)
        objs = bench.op(f"anyons {label}", lambda: Q.anyons(g),
                        lambda xs: sum(x.dim**2 for x in xs) == order**2)
        m = len(objs) if objs else 1
        bench.op(f"s_matrix {label}", lambda: Q.s_matrix(g), check_s_matrix)
        bench.op(f"t_vector {label}", lambda: Q.t_vector(g),
                 lambda t: _near(np.abs(t), 1.0, NUMERIC_TOL))
        n = bench.op(f"fusion_verlinde {label}", lambda: Q.fusion_verlinde(g),
                     lambda n: check_fusion_tensor(n, m))
        for i, j in (pick * m).astype(int):
            bench.op(
                f"fusion by characters {label} {i}x{j}",
                lambda: Q.dg_decompose(Q.tensor_character(
                    Q.anyon_character(g, objs[i]), Q.anyon_character(g, objs[j]))),
                lambda mult: check_fusion_routes(n, i, j, mult),
            )
    scans = [("S3", lambda: G.symmetric(3))] if tiny else [
        ("A6", lambda: G.alternating(6)),
        ("S5", lambda: G.symmetric(5)),
        ("Aff(F7)", lambda: G.affine_group(G.near_field(7))),
    ]
    for label, build in scans:
        g = bench.op(f"build {label}", build, lambda g: g.order > 1)
        bench.op(
            f"search_transposition_invariants {label}",
            lambda: M.search_transposition_invariants(g),
            lambda hits: check_transposition_hits(hits, g),
        )


# --- walls: few anyons, large |G| or |G x G'| ---------------------------------------


def check_condensation(rep, g, which: str) -> bool:
    """Integer multiplicities, vacuum once, dimension-weighted total |G|; the
    trivial boundary condenses exactly the chargeons (each dim times) and the
    full boundary exactly the fluxions (each once)."""
    mult = rep.multiplicities
    objs = Q.anyons(g)
    if mult.min() < 0 or mult[0] != 1:
        return False
    if int(sum(m * x.dim for m, x in zip(mult, objs))) != g.order:
        return False
    if which == "trivial":
        return all(m == (x.dim if x.class_rep == 0 else 0) for m, x in zip(mult, objs))
    if which == "full":
        return all(m == (1 if x.pi == 0 else 0) for m, x in zip(mult, objs))
    return True


def walls(bench: Pass, seed: int, tiny: bool = False) -> None:
    """verify cf on fields and dickson9, condensation on the trivial, full and
    two seeded cyclic subgroups, and diagonal walls through equivalence_check."""
    rng = np.random.default_rng(seed)
    targets = [(2, "field"), (3, "field"), (9, "dickson9")] if tiny else [
        (2, "field"), (3, "field"), (4, "field"), (5, "field"), (7, "field"), (9, "dickson9")]
    for q, flavor in targets:
        bench.op(f"verify_cf_symmetry {flavor} q={q}",
                 lambda: D.verify_cf_symmetry(G.near_field(q, kind=flavor)),
                 lambda rep: rep.ok)
    boundaries = [("S3", lambda: G.symmetric(3))] if tiny else [
        ("S4", lambda: G.symmetric(4)),
        ("A5", lambda: G.alternating(5)),
        ("S5", lambda: G.symmetric(5)),
        ("A6", lambda: G.alternating(6)),
    ]
    picks = rng.random((len(boundaries), 2))
    for (label, build), pick in zip(boundaries, picks):
        g = bench.op(f"build {label}", build, lambda g: g.order > 1)
        gens = [1 + int(u * (g.order - 1)) for u in pick]
        subgroups = [("trivial", lambda: G.trivial_subgroup(g)),
                     ("full", lambda: G.full_subgroup(g))]
        subgroups += [(f"<{x}>", lambda x=x: G.generated_subgroup(g, [x])) for x in gens]
        for which, make in subgroups:
            k = bench.op(f"subgroup {label} {which}", make,
                         lambda k: g.order % k.order == 0)
            bench.op(f"condense {label} {which}", lambda: D.condense(g, k),
                     lambda rep: check_condensation(rep, g, which))
    diagonals = [("Z2", lambda: G.cyclic(2))] if tiny else [
        ("S3", lambda: G.symmetric(3)),
        ("Z4", lambda: G.cyclic(4)),
        ("A4", lambda: G.alternating(4)),
    ]
    for label, build in diagonals:
        g = bench.op(f"build {label}", build, lambda g: g.order > 1)
        wall = bench.op(f"diagonal_wall {label}", lambda: D.diagonal_wall(g),
                        lambda w: w.u.order == g.order)
        bench.op(f"equivalence_check diag({label})",
                 lambda: D.equivalence_check(g, g, wall),
                 lambda rep: rep.is_permutation and rep.verdict == "equivalence")


# --- lattice: state-vector kernels ------------------------------------------------------

# Probe states per identity in each relation suite (the test suite uses 16).
PROBE_STATES = 4


def _z22_bilinear(z22):
    b = np.array([[(-1.0) ** ((x >> 1) * (y & 1)) for y in range(4)] for x in range(4)],
                 dtype=complex)
    return Co.bicharacter_cocycle(G.full_subgroup(z22), b)


def lattice(bench: Pass, seed: int, tiny: bool = False) -> None:
    """The five criterion-8 relation suites on seeded probe states, then the
    boundary character read off the lattice against the algebraic one."""
    rng = np.random.default_rng(seed)
    z2 = bench.op("build Z2", lambda: G.cyclic(2), lambda g: g.order == 2)
    s3 = bench.op("build S3", lambda: G.symmetric(3), lambda g: g.order == 6)
    z22 = bench.op("build Z2xZ2", lambda: G.direct_product(G.cyclic(2), G.cyclic(2)),
                   lambda g: g.order == 4)
    k3 = bench.op("subgroup S3 Z3", lambda: G.generated_subgroup(
        s3, [next(x for x in range(6) if s3.element_order(x) == 3)]), lambda k: k.order == 3)
    phi = bench.op("bicharacter_cocycle Z2xZ2", lambda: _z22_bilinear(z22),
                   lambda phi: phi.order == 4)
    states = 1 if tiny else PROBE_STATES
    suites = [("wall Z2 / K = Z2", lambda s: L.wall_relation_report(
        z2, G.full_subgroup(z2), states=states, seed=s))]
    if not tiny:
        suites = [
            ("bulk Z2", lambda s: L.bulk_relation_report(z2, states=states, seed=s)),
            ("bulk S3", lambda s: L.bulk_relation_report(s3, states=states, seed=s)),
            *suites,
            ("wall S3 / K = Z3", lambda s: L.wall_relation_report(
                s3, k3, states=states, seed=s)),
            ("wall Z2xZ2 / bilinear", lambda s: L.wall_relation_report(
                z22, phi.subgroup, phi, states=states, seed=s)),
        ]
    suite_seeds = rng.integers(0, 2**31, size=len(suites))
    for (label, run), s in zip(suites, suite_seeds):
        bench.op(f"relation suite {label}", lambda: run(int(s)),
                 lambda checks: bool(checks) and max(r for _, r in checks) <= RELATION_TOL)
    cases = [("Z2 trivial", z2, lambda: G.trivial_subgroup(z2)),
             ("Z2 full", z2, lambda: G.full_subgroup(z2))]
    if not tiny:
        cases += [("S3 full", s3, lambda: G.full_subgroup(s3)),
                  ("S3 / Z3", s3, lambda: k3)]
    case_seeds = rng.integers(0, 2**31, size=len(cases))
    for (label, g, make), s in zip(cases, case_seeds):
        k = bench.op(f"subgroup {label}", make, lambda k: k.parent is g)
        patch = bench.op(f"minimal_boundary_patch {label}",
                         lambda: L.minimal_boundary_patch(g, k), lambda p: p.size > 0)
        rib = bench.op(f"make_ribbon {label}",
                       lambda: L.make_ribbon(patch, ((1, 0), None), "wv"),
                       lambda r: len(r.triangles) >= 2)
        algebraic = bench.op(f"boundary_character {label}",
                             lambda: D.boundary_character(g, k),
                             lambda chi: chi.values.shape == (g.order, g.order))
        bench.op(f"lattice_boundary_character {label}",
                 lambda: L.lattice_boundary_character(patch, rib, seed=int(s)),
                 lambda chi: _near(chi.values, algebraic.values, LATTICE_CHAR_TOL))


# --- render: qdouble output with cyclotomic snapping ---------------------------------------

_ROOT_TERM = re.compile(r"(?:(\d+)\*)?z(\d+)\^(\d+)")


def cell_value(cell) -> complex:
    """Value of one CLI cell: an [re, im] pair, or a rendered sum of roots of
    unity such as "2*z12^3 + z12^5", optionally wrapped as "(...)/scale"."""
    if not isinstance(cell, str):
        re_part, im_part = cell
        return complex(re_part, im_part)
    body, scale = cell, 1
    wrapped = re.fullmatch(r"\((.*)\)/(\d+)", cell)
    if wrapped:
        body, scale = wrapped.group(1), int(wrapped.group(2))
    total = 0j
    for term in body.split(" + "):
        root = _ROOT_TERM.fullmatch(term)
        if root:
            coeff, order, power = root.groups()
            total += int(coeff or 1) * cmath.exp(2j * cmath.pi * int(power) / int(order))
        else:
            total += int(term)
    return total / scale


def _reference_values(command: str, uri: str) -> np.ndarray:
    g = cli.parse_group(uri)
    if command == "chartable":
        return C.character_table(g).table
    if command == "smatrix":
        return Q.s_matrix(g)
    return Q.t_vector(g)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """qdouble in-process: (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_rendered(bench: Pass, argv: list[str], result) -> bool:
    """Exit code 0; every cell equals the library's float value to RENDER_TOL.
    Counts string cells against all cells for the snap ratio."""
    code, text = result
    if code != 0:
        return False
    doc = json.loads(text)
    command = argv[0]
    if command == "verify":
        return doc["ok"] is True
    key = {"chartable": "rows", "smatrix": "s", "tmatrix": "t"}[command]
    cells = doc[key]
    if command != "tmatrix":
        cells = [c for row in cells for c in row]
    bench.cells += len(cells)
    bench.rendered += sum(isinstance(c, str) for c in cells)
    ref = _reference_values(command, argv[argv.index("--group") + 1]).ravel()
    return len(cells) == ref.size and all(
        abs(cell_value(c) - v) <= RENDER_TOL for c, v in zip(cells, ref)
    )


def render(bench: Pass, seed: int, tiny: bool = False) -> None:
    """qdouble commands run through cli.main with stdout captured.  The
    command list is fixed, so the seed changes nothing here."""
    del seed
    commands = [
        ["chartable", "--group", "builtin:S3"],
        ["smatrix", "--snap", "--group", "builtin:Z2"],
        ["tmatrix", "--snap", "--group", "builtin:S3"],
        ["verify", "cf", "2"],
    ] if tiny else [
        ["chartable", "--group", "builtin:A5"],
        ["smatrix", "--snap", "--group", "builtin:S3"],
        ["smatrix", "--snap", "--group", "builtin:A4"],
        ["tmatrix", "--snap", "--group", "builtin:A5"],
        ["chartable", "--group", "affine:q=7"],
        ["verify", "cf", "5"],
    ]
    for argv in commands:
        bench.op("qdouble " + " ".join(argv), lambda: run_cli(argv),
                 lambda result: check_rendered(bench, argv, result))


WORKLOADS = {"modular": modular, "walls": walls, "lattice": lattice, "render": render}
