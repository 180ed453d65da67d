"""Command line front end: group ingestion, computation dispatch, report output.

Exit codes: 0 on success, 1 when a verification subcommand finds a violated
condition (or a library consistency check trips), 2 on unusable input.  All
output is a pure function of the arguments and the seed, so repeated runs
emit identical bytes.

The two paragraphs above are the --help description; in detail: each
subcommand body returns its document, a JSON tree or CSV text, and `main`
writes it.  Exit code 1 means the document says "ok": false (modinv check,
verify cf, lattice verify) or a check failed with an error.  --snap applies to
JSON output only; --tol must be a finite, non-negative float.
The parser is built once per process and shared by every `main` call; each call
parses into a fresh namespace, so no option value carries from one command to the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import serialize
from .characters import character_table
from .cocycles import trivial_cocycle, wall_cocycle
from .condensation import UWallSpec, condense, diagonal_wall, equivalence_check, verify_cf_symmetry
from .errors import (
    TOL,
    ArtifactError,
    ConditionMismatch,
    NonIntegerMultiplicity,
    NumericalDegeneracy,
    ZeroProjection,
)
from .groups import (
    GroupTable,
    NearFieldSpec,
    affine_group,
    alternating,
    conjugacy_data,
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
from .quantum_double import anyons, fusion_verlinde, s_matrix, t_vector

# Failures of a mathematical condition on otherwise valid input; everything
# else raised by the library is treated as an input problem.
CHECK_FAILURES = (
    ConditionMismatch,
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


# --- subcommand bodies: each returns its document, a JSON tree or CSV text ------------

def cmd_group_info(args) -> dict:
    g = parse_group(args.group)
    data = conjugacy_data(g)
    return {
        "label": g.label,
        "order": int(g.order),
        "abelian": bool(g.is_abelian()),
        "exponent": serialize.group_exponent(g),
        "classes": len(data.reps),
        "class_sizes": [int(c.size) for c in data.classes],
    }


def cmd_chartable(args) -> dict | str:
    obj = serialize.chartable_obj(character_table(parse_group(args.group)))
    return serialize.chartable_csv(obj) if args.format == "csv" else obj


def cmd_anyons(args) -> dict | str:
    g = parse_group(args.group)
    return serialize.anyons_csv(g) if args.format == "csv" else serialize.anyons_obj(g)


def _modular_matrix(corner, compute, to_obj):
    """The body of smatrix (corner "S") and tmatrix (corner "T")."""
    def body(args) -> dict | str:
        if args.snap and args.format == "csv":
            raise UsageError("--snap applies to JSON output only")
        g = parse_group(args.group)
        if args.format == "csv":
            return serialize.matrix_csv([x.label for x in anyons(g)], compute(g), corner=corner)
        return to_obj(g, compute(g), snap=args.snap)
    return body


def cmd_fusion(args) -> dict | str:
    g = parse_group(args.group)
    return (serialize.fusion_csv if args.format == "csv" else serialize.fusion_obj)(g, fusion_verlinde(g))


def cmd_condense(args) -> dict:
    g = parse_group(args.group)
    return serialize.condensation_obj(condense(g, *_resolve_boundary(g, args.subgroup, args.cocycle)))


def cmd_tunnel(args) -> dict:
    if args.wall_u == "dickson9":
        raise UsageError("--wall-u dickson9 has no wall; the Dickson near-field is checked by verify cf dickson9")
    field = args.wall_u is not None and args.wall_u.removeprefix("q=").isdigit()
    if args.cocycle is not None and (field or args.wall_u == "diagonal"):
        raise UsageError(f"--cocycle is read only with a members-file wall, not --wall-u {args.wall_u}")
    if field and args.group is not None:
        raise UsageError(f"--wall-u {args.wall_u} fixes the groups; --group is not read")
    if args.wall_u == "diagonal":
        if args.group is None:
            raise UsageError("--wall-u diagonal needs --group")
        ga = gb = parse_group(args.group)
        wall = diagonal_wall(ga)
    elif field:
        phi = wall_cocycle(parse_near_field(args.wall_u))
        ga, gb = phi.subgroup.parent.meta["product_of"]
        wall = UWallSpec(phi.subgroup, phi)
    else:
        if args.group is None or not args.group.startswith("product:"):
            raise UsageError("custom walls need --group product:A<x>B plus a members file")
        left, right = split_product(args.group.partition(":")[2])
        ga, gb = parse_group(left), parse_group(right)
        prod = direct_product(ga, gb)
        if args.wall_u is None:
            raise UsageError("--wall-u is required (diagonal, q=N, or a members file)")
        u = parse_subgroup(prod, args.wall_u)
        if args.cocycle is not None:
            phi = serialize.cocycle_from_obj(prod, _read_json(args.cocycle))
            if list(phi.subgroup.members) != list(u.members):
                raise UsageError("--cocycle subgroup disagrees with --wall-u members")
            u = phi.subgroup
        else:
            phi = trivial_cocycle(u)
        wall = UWallSpec(u, phi)
    return serialize.equivalence_obj(equivalence_check(ga, gb, wall))


def cmd_modinv_search(args) -> dict:
    g = parse_group(args.group)
    data = modular_data(g)
    hits = search_transposition_invariants(g, tol=args.tol)
    verdicts = [is_modular_invariant(transposition_matrix(data, h.x, h.y), data, tol=args.tol) for h in hits]
    return serialize.hits_obj(g, hits, verdicts)


def cmd_modinv_check(args) -> dict:
    data = modular_data(parse_group(args.group))
    m = serialize.square_matrix_from_obj(_read_json(args.matrix))
    return serialize.invariant_obj(is_modular_invariant(m, data, tol=args.tol))


def cmd_verify_cf(args) -> dict:
    return serialize.cf_report_obj(verify_cf_symmetry(parse_near_field(args.target)))


def cmd_lattice_verify(args) -> dict:
    g = parse_group(args.group)
    if args.subgroup is None and args.cocycle is None:
        return serialize.relation_report_obj(f"bulk:{g.label}", bulk_relation_report(g, seed=args.seed), args.tol)
    checks = wall_relation_report(g, *_resolve_boundary(g, args.subgroup, args.cocycle), seed=args.seed)
    return serialize.relation_report_obj(f"wall:{g.label}", checks, args.tol)


def cmd_lattice_character(args) -> dict:
    g = parse_group(args.group)
    k, phi = _resolve_boundary(g, args.subgroup, args.cocycle)
    patch = minimal_boundary_patch(g, k, phi)
    chi = lattice_boundary_character(patch, make_ribbon(patch, ((1, 0), None), "wv"), seed=args.seed)
    return {**serialize.class_function_obj(chi), "boundary": [int(m) for m in k.members]}


def tolerance(text: str) -> float:
    """--tol: a finite, non-negative float; argparse makes anything else exit 2."""
    if not 0.0 <= (tol := float(text)) < float("inf"):  # nan compares false
        raise argparse.ArgumentTypeError(f"must be finite and non-negative, got {text!r}")
    return tol


# --- parser ----------------------------------------------------------------------------

# The options several commands share, each defined once: (flag, add_argument keywords).
GROUP = ("--group", {"required": True, "help": "group URI or JSON file path"})
FORMAT = ("--format", {"choices": ["json", "csv"], "default": "json"})
SNAP = ("--snap", {"action": "store_true", "help": "render cyclotomic entries exactly"})
SUBGROUP = ("--subgroup", {"help": "'trivial', 'full', comma list, or members file"})
COCYCLE = ("--cocycle", {"help": "cocycle JSON file (root-of-unity exponents)"})
TOLERANCE = ("--tol", {"type": tolerance, "default": TOL["character"]})
SEED = ("--seed", {"type": int, "default": 0})

# (command path, help, arguments, body); a path whose body is None takes subcommands.
COMMANDS = [
    ("group", "group utilities", (), None),
    ("group info", "order, classes, exponent", (GROUP,), cmd_group_info),
    ("chartable", "ordinary character table", (GROUP, FORMAT), cmd_chartable),
    ("anyons", "simple objects of the double", (GROUP, FORMAT), cmd_anyons),
    ("smatrix", "modular S-matrix", (GROUP, FORMAT, SNAP), _modular_matrix("S", s_matrix, serialize.s_matrix_obj)),
    ("tmatrix", "modular T-matrix (twists)", (GROUP, FORMAT, SNAP),
     _modular_matrix("T", t_vector, serialize.t_vector_obj)),
    ("fusion", "Verlinde fusion multiplicities", (GROUP, FORMAT), cmd_fusion),
    ("condense", "boundary condensation multiplicities", (GROUP, SUBGROUP, COCYCLE), cmd_condense),
    ("tunnel", "domain-wall tunneling matrix", (
        ("--group", {"help": "product:A<x>B for custom walls, any group for diagonal"}),
        ("--wall-u", {"dest": "wall_u", "help": "'diagonal', 'q=N', or members file"}),
        ("--cocycle", {"help": "cocycle JSON file on the wall subgroup"}),
    ), cmd_tunnel),
    ("modinv", "modular invariant tools", (), None),
    ("modinv search", "transposition-type invariants", (GROUP, TOLERANCE), cmd_modinv_search),
    ("modinv check", "test a candidate matrix",
     (("matrix", {"help": "JSON file with a square matrix"}), GROUP, TOLERANCE), cmd_modinv_check),
    ("verify", "verification bundles", (), None),
    ("verify cf", "chargeon-fluxion symmetry for an affine group",
     (("target", {"help": "prime power q, 'q=N', or 'dickson9'"}),), cmd_verify_cf),
    ("lattice", "exact simulator checks", (), None),
    ("lattice verify", "operator relation suite", (GROUP, SUBGROUP, COCYCLE, TOLERANCE, SEED), cmd_lattice_verify),
    ("lattice character", "boundary character from the lattice", (GROUP, SUBGROUP, COCYCLE, SEED),
     cmd_lattice_character),
]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qdouble parser, built on the first call and returned by every later one;
    each command's body is bound from COMMANDS when the parser is first built."""
    ap = argparse.ArgumentParser(prog="qdouble", description="\n\n".join(__doc__.split("\n\n")[:2]))
    subparsers = {"": ap.add_subparsers(dest="command", required=True)}
    for path, help_text, arguments, body in COMMANDS:
        parent, _, name = path.rpartition(" ")
        p = subparsers[parent].add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        if body is None:
            subparsers[path] = p.add_subparsers(dest="subcommand", required=True)
        else:
            p.set_defaults(fn=body)
    return ap


def main(argv=None) -> int:
    """Run one command, write its document to stdout, and return the exit code:
    1 when the document says "ok": false, 0 otherwise, and 1 or 2 on an error."""
    args = build_parser().parse_args(argv)
    try:
        doc = args.fn(args)
        sys.stdout.write(doc if isinstance(doc, str) else serialize.render_json(doc))
        return 1 if isinstance(doc, dict) and doc.get("ok") is False else 0
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
