"""Command line front end: group ingestion, computation dispatch, report output.

Exit codes: 0 on success, 1 when a verification subcommand finds a violated
condition (or a library consistency check trips), 2 on unusable input.  All
output is a pure function of the arguments and the seed, so repeated runs
emit identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import serialize
from .characters import EQ_TOL, character_table
from .cocycles import wall_cocycle
from .condensation import UWallSpec, condense, diagonal_wall, equivalence_check, verify_cf_symmetry
from .errors import (
    ArtifactError,
    ConditionMismatch,
    NegativeOrNonInteger,
    NonIntegerMultiplicity,
    NumericalDegeneracy,
    ZeroProjection,
)
from .groups import (
    GroupTable,
    NearFieldSpec,
    affine_group,
    alternating,
    cyclic,
    direct_product,
    full_subgroup,
    near_field,
    symmetric,
    trivial_subgroup,
)
from .lattice import (
    bulk_relation_report,
    lattice_boundary_character,
    make_ribbon,
    minimal_boundary_patch,
    wall_relation_report,
)
from .modular import (
    is_modular_invariant,
    modular_data,
    search_transposition_invariants,
    transposition_matrix,
)
from .quantum_double import anyons, fusion_verlinde

# Failures of a mathematical condition on otherwise valid input; everything
# else raised by the library is treated as an input problem.
CHECK_FAILURES = (
    ConditionMismatch,
    NegativeOrNonInteger,
    NonIntegerMultiplicity,
    NumericalDegeneracy,
    ZeroProjection,
)

BUILTIN_RE = re.compile(r"([ZSA])(\d+)")


class UsageError(Exception):
    pass


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def parse_near_field(text: str) -> NearFieldSpec:
    """'q=N', bare 'N', or 'dickson9'."""
    if text == "dickson9":
        return near_field(9, kind="dickson9")
    body = text.removeprefix("q=")
    if not body.isdigit():
        raise UsageError(f"cannot parse near-field spec {text!r}")
    return near_field(int(body))


def _builtin_group(name: str) -> GroupTable:
    m = BUILTIN_RE.fullmatch(name)
    if not m:
        raise UsageError(f"unknown builtin group {name!r} (expected Zn, Sn, or An)")
    letter, n = m.group(1), int(m.group(2))
    if letter == "Z":
        return cyclic(n)
    if letter == "S":
        return symmetric(n)
    return alternating(n)


def split_product(rest: str) -> tuple[str, str]:
    sep = "×" if "×" in rest else "x"
    left, found, right = rest.partition(sep)
    if not found or not left or not right:
        raise UsageError(f"product spec needs two factors, got {rest!r}")
    return left, right


def parse_group(text: str) -> GroupTable:
    """Group URI: builtin:S3, affine:q=4, affine:dickson9, product:A<x>B,
    file:path, a bare builtin name, or a JSON file path."""
    scheme, colon, rest = text.partition(":")
    if not colon:
        if BUILTIN_RE.fullmatch(text):
            return _builtin_group(text)
        return serialize.group_from_obj(_read_json(text))
    if scheme == "builtin":
        return _builtin_group(rest)
    if scheme == "affine":
        return affine_group(parse_near_field(rest))
    if scheme == "product":
        left, right = split_product(rest)
        return direct_product(parse_group(left), parse_group(right))
    if scheme == "file":
        return serialize.group_from_obj(_read_json(rest))
    raise UsageError(f"unknown group scheme {scheme!r}")


def parse_subgroup(g: GroupTable, text: str):
    if text == "trivial":
        return trivial_subgroup(g)
    if text == "full":
        return full_subgroup(g)
    if re.fullmatch(r"\d+(,\d+)*", text):
        return serialize.subgroup_from_obj(g, {"members": [int(v) for v in text.split(",")]})
    return serialize.subgroup_from_obj(g, _read_json(text))


def _resolve_boundary(g: GroupTable, sub_text, coc_text):
    """Subgroup and optional cocycle; the cocycle file fixes the subgroup
    when --subgroup is omitted."""
    if coc_text is not None:
        phi = serialize.cocycle_from_obj(g, _read_json(coc_text))
        k = phi.subgroup
        if sub_text is not None:
            given = parse_subgroup(g, sub_text)
            if list(given.members) != list(k.members):
                raise UsageError("--subgroup disagrees with the cocycle file")
        return k, phi
    if sub_text is None:
        raise UsageError("--subgroup (or --cocycle) is required")
    return parse_subgroup(g, sub_text), None


def _emit(text: str) -> None:
    sys.stdout.write(text)


# --- subcommand bodies ----------------------------------------------------------------

def cmd_group_info(args) -> int:
    g = parse_group(args.group)
    from .groups import conjugacy_data

    data = conjugacy_data(g)
    obj = {
        "label": g.label,
        "order": int(g.order),
        "abelian": bool(g.is_abelian()),
        "exponent": serialize.group_exponent(g),
        "classes": len(data.reps),
        "class_sizes": [int(c.size) for c in data.classes],
    }
    _emit(serialize.render_json(obj))
    return 0


def cmd_chartable(args) -> int:
    g = parse_group(args.group)
    ct = character_table(g)
    obj = serialize.chartable_obj(ct)
    if args.format == "csv":
        import csv as _csv
        import io

        out = io.StringIO()
        w = _csv.writer(out, lineterminator="\n")
        w.writerow(["irrep", *obj["classes"]])
        for i, row in enumerate(obj["rows"]):
            w.writerow([f"r{i}", *row])
        _emit(out.getvalue())
    else:
        _emit(serialize.render_json(obj))
    return 0


def cmd_anyons(args) -> int:
    g = parse_group(args.group)
    if args.format == "csv":
        _emit(serialize.anyons_csv(g))
    else:
        _emit(serialize.render_json(serialize.anyons_obj(g)))
    return 0


def cmd_smatrix(args) -> int:
    g = parse_group(args.group)
    data = modular_data(g)
    if args.format == "csv":
        labels = [x.label for x in data.objects]
        _emit(serialize.matrix_csv(labels, data.s, corner="S"))
    else:
        _emit(serialize.render_json(serialize.s_matrix_obj(g, data.s, snap=args.snap)))
    return 0


def cmd_tmatrix(args) -> int:
    g = parse_group(args.group)
    data = modular_data(g)
    if args.format == "csv":
        labels = [x.label for x in data.objects]
        _emit(serialize.matrix_csv(labels, data.t, corner="T"))
    else:
        _emit(serialize.render_json(serialize.t_vector_obj(g, data.t, snap=args.snap)))
    return 0


def cmd_fusion(args) -> int:
    g = parse_group(args.group)
    n = fusion_verlinde(g)
    if args.format == "csv":
        _emit(serialize.fusion_csv(g, n))
    else:
        _emit(serialize.render_json(serialize.fusion_obj(g, n)))
    return 0


def cmd_condense(args) -> int:
    g = parse_group(args.group)
    k, phi = _resolve_boundary(g, args.subgroup, args.cocycle)
    rep = condense(g, k, phi)
    _emit(serialize.render_json(serialize.condensation_obj(rep)))
    return 0


def cmd_tunnel(args) -> int:
    if args.wall_u == "diagonal":
        if args.group is None:
            raise UsageError("--wall-u diagonal needs --group")
        g = parse_group(args.group)
        ga = gb = g
        wall = diagonal_wall(g)
    elif args.wall_u is not None and (args.wall_u == "dickson9" or args.wall_u.removeprefix("q=").isdigit()):
        h = parse_near_field(args.wall_u)
        phi = wall_cocycle(h)
        ga, gb = phi.subgroup.parent.meta["product_of"]
        wall = UWallSpec(phi.subgroup, phi)
    else:
        if args.group is None or not args.group.startswith("product:"):
            raise UsageError("custom walls need --group product:A<x>B plus a members file")
        left, right = split_product(args.group.partition(":")[2])
        ga, gb = parse_group(left), parse_group(right)
        prod = direct_product(ga, gb)
        if args.wall_u is None:
            raise UsageError("--wall-u is required (diagonal, q=N, dickson9, or a members file)")
        u = parse_subgroup(prod, args.wall_u)
        if args.cocycle is not None:
            phi = serialize.cocycle_from_obj(prod, _read_json(args.cocycle))
            if list(phi.subgroup.members) != list(u.members):
                raise UsageError("--cocycle subgroup disagrees with --wall-u members")
            u = phi.subgroup
        else:
            from .cocycles import trivial_cocycle

            phi = trivial_cocycle(u)
        wall = UWallSpec(u, phi)
    rep = equivalence_check(ga, gb, wall)
    _emit(serialize.render_json(serialize.equivalence_obj(rep)))
    return 0


def cmd_modinv_search(args) -> int:
    g = parse_group(args.group)
    data = modular_data(g)
    hits = search_transposition_invariants(g, tol=args.tol)
    verdicts = [
        is_modular_invariant(transposition_matrix(data, h.x, h.y), data, tol=args.tol)
        for h in hits
    ]
    _emit(serialize.render_json(serialize.hits_obj(g, hits, verdicts)))
    return 0


def cmd_modinv_check(args) -> int:
    g = parse_group(args.group)
    data = modular_data(g)
    m = serialize.square_matrix_from_obj(_read_json(args.matrix))
    verdict = is_modular_invariant(m, data, tol=args.tol)
    _emit(serialize.render_json(serialize.invariant_obj(verdict)))
    return 0 if verdict.ok else 1


def cmd_verify_cf(args) -> int:
    h = parse_near_field(args.target)
    rep = verify_cf_symmetry(h)
    _emit(serialize.render_json(serialize.cf_report_obj(rep)))
    return 0 if rep.ok else 1


def cmd_lattice_verify(args) -> int:
    g = parse_group(args.group)
    if args.subgroup is None and args.cocycle is None:
        checks = bulk_relation_report(g, seed=args.seed)
        label = f"bulk:{g.label}"
    else:
        k, phi = _resolve_boundary(g, args.subgroup, args.cocycle)
        checks = wall_relation_report(g, k, phi, seed=args.seed)
        label = f"wall:{g.label}"
    obj = serialize.relation_report_obj(label, checks, args.tol)
    _emit(serialize.render_json(obj))
    return 0 if obj["ok"] else 1


def cmd_lattice_character(args) -> int:
    g = parse_group(args.group)
    k, phi = _resolve_boundary(g, args.subgroup, args.cocycle)
    patch = minimal_boundary_patch(g, k, phi)
    spec = make_ribbon(patch, ((1, 0), None), "wv")
    chi = lattice_boundary_character(patch, spec, seed=args.seed)
    obj = serialize.class_function_obj(chi)
    obj["boundary"] = [int(m) for m in k.members]
    _emit(serialize.render_json(obj))
    return 0


# --- parser ----------------------------------------------------------------------------

def _add_common(p, group=True, fmt=False, snap=False, boundary=False, tol=False, seed=False):
    if group:
        p.add_argument("--group", required=True, help="group URI or JSON file path")
    if fmt:
        p.add_argument("--format", choices=["json", "csv"], default="json")
    if snap:
        p.add_argument("--snap", action="store_true", help="render cyclotomic entries exactly")
    if boundary:
        p.add_argument("--subgroup", help="'trivial', 'full', comma list, or members file")
        p.add_argument("--cocycle", help="cocycle JSON file (root-of-unity exponents)")
    if tol:
        p.add_argument("--tol", type=float, default=EQ_TOL)
    if seed:
        p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qdouble", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group", help="group utilities")
    gsub = p.add_subparsers(dest="subcommand", required=True)
    gi = gsub.add_parser("info", help="order, classes, exponent")
    _add_common(gi)
    gi.set_defaults(fn=cmd_group_info)

    p = sub.add_parser("chartable", help="ordinary character table")
    _add_common(p, fmt=True)
    p.set_defaults(fn=cmd_chartable)

    p = sub.add_parser("anyons", help="simple objects of the double")
    _add_common(p, fmt=True)
    p.set_defaults(fn=cmd_anyons)

    p = sub.add_parser("smatrix", help="modular S-matrix")
    _add_common(p, fmt=True, snap=True)
    p.set_defaults(fn=cmd_smatrix)

    p = sub.add_parser("tmatrix", help="modular T-matrix (twists)")
    _add_common(p, fmt=True, snap=True)
    p.set_defaults(fn=cmd_tmatrix)

    p = sub.add_parser("fusion", help="Verlinde fusion multiplicities")
    _add_common(p, fmt=True)
    p.set_defaults(fn=cmd_fusion)

    p = sub.add_parser("condense", help="boundary condensation multiplicities")
    _add_common(p, boundary=True)
    p.set_defaults(fn=cmd_condense)

    p = sub.add_parser("tunnel", help="domain-wall tunneling matrix")
    p.add_argument("--group", help="product:A<x>B for custom walls, any group for diagonal")
    p.add_argument("--wall-u", dest="wall_u", help="'diagonal', 'q=N', 'dickson9', or members file")
    p.add_argument("--cocycle", help="cocycle JSON file on the wall subgroup")
    p.set_defaults(fn=cmd_tunnel)

    p = sub.add_parser("modinv", help="modular invariant tools")
    msub = p.add_subparsers(dest="subcommand", required=True)
    ms = msub.add_parser("search", help="transposition-type invariants")
    _add_common(ms, tol=True)
    ms.set_defaults(fn=cmd_modinv_search)
    mc = msub.add_parser("check", help="test a candidate matrix")
    mc.add_argument("matrix", help="JSON file with a square matrix")
    _add_common(mc, tol=True)
    mc.set_defaults(fn=cmd_modinv_check)

    p = sub.add_parser("verify", help="verification bundles")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    vc = vsub.add_parser("cf", help="chargeon-fluxion symmetry for an affine group")
    vc.add_argument("target", help="prime power q, 'q=N', or 'dickson9'")
    vc.set_defaults(fn=cmd_verify_cf)

    p = sub.add_parser("lattice", help="exact simulator checks")
    lsub = p.add_subparsers(dest="subcommand", required=True)
    lv = lsub.add_parser("verify", help="operator relation suite")
    _add_common(lv, boundary=True, tol=True, seed=True)
    lv.set_defaults(fn=cmd_lattice_verify)
    lc = lsub.add_parser("character", help="boundary character from the lattice")
    _add_common(lc, boundary=True, seed=True)
    lc.set_defaults(fn=cmd_lattice_character)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CHECK_FAILURES as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArtifactError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
