"""Serialization round trips and command line behavior."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import cli, errors, quantum_double, serialize
from artifact.characters import character_table
from artifact.cli import main
from artifact.cocycles import bicharacter_cocycle, validate, wall_cocycle
from artifact.condensation import boundary_character
from artifact.errors import CocycleIdentityFailure, ConditionMismatch, SizeMismatch
from artifact.groups import (
    affine_group,
    cyclic,
    direct_product,
    full_subgroup,
    near_field,
    symmetric,
)
from artifact.quantum_double import anyons, fusion_verlinde, s_matrix, t_vector
from artifact.serialize import (
    anyons_csv,
    chartable_obj,
    class_function_from_obj,
    class_function_obj,
    cocycle_from_obj,
    cocycle_to_obj,
    fusion_csv,
    group_from_obj,
    group_to_obj,
    matrix_csv,
    render_json,
    s_matrix_obj,
    square_matrix_from_obj,
    subgroup_from_obj,
    t_vector_obj,
)

from conftest import dist, sweep_groups


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_render_json_is_deterministic():
    obj = {"b": 1, "a": [1.5, 2.25]}
    one, two = render_json(obj), render_json(obj)
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one) == obj


def test_group_roundtrip():
    g = symmetric(3)
    obj = group_to_obj(g)
    back = group_from_obj(obj)
    assert back.order == 6
    assert np.array_equal(back.mul, g.mul)
    assert np.array_equal(back.inv, g.inv)


def test_cocycle_roundtrip_is_exact():
    z22 = direct_product(cyclic(2), cyclic(2))
    k = full_subgroup(z22)
    b = np.ones((4, 4), dtype=complex)
    for x in range(4):
        for y in range(4):
            b[x, y] = (-1) ** ((x >> 1) * (y & 1))
    phi2 = bicharacter_cocycle(k, b)
    phi3 = wall_cocycle(near_field(3))
    for phi, order in ((phi2, 2), (phi3, 3)):
        obj = cocycle_to_obj(phi)
        assert obj["omega_order"] == order
        back = cocycle_from_obj(phi.subgroup.parent, obj)
        assert dist(back.table, phi.table) < 1e-12
        # writer output is stable through a full round trip
        assert cocycle_to_obj(back) == obj


def test_cocycle_to_obj_rejects_phases_that_are_not_roots_of_unity():
    # a coboundary whose phases exp(2 pi i sqrt(2) k) are no roots of unity: it
    # validates, but limit_denominator would write it with omega_order 4620 and
    # read it back 3.5e-8 off, which breaks the exact round trip
    g = cyclic(3)
    a = np.exp(2j * np.pi * np.sqrt(2) * np.arange(3))
    phi = validate(a[:, None] * a[None, :] / a[g.mul], full_subgroup(g))
    with pytest.raises(SizeMismatch, match="not roots of unity"):
        cocycle_to_obj(phi)


Z2_COCYCLE = {"subgroup": [0, 1], "omega_order": 2, "exponents": [[0, 0], [0, 1]]}


@pytest.mark.parametrize(
    "option, obj, message",
    [
        # each was read by truncation to an integer, or (omega_order 0) failed late with NaN
        ("--group", {"order": 2, "mul": [[0, 1], [1, 0.9]]}, "mul entries must be integers"),
        ("--cocycle", {**Z2_COCYCLE, "exponents": [[0, 0], [0, 0.7]]}, "exponents must be integers"),
        ("--subgroup", {"members": [0, 1.2]}, "subgroup members must be integers"),
        ("--cocycle", {**Z2_COCYCLE, "omega_order": 0}, "omega_order must be one integer, at least 1"),
        ("--cocycle", {**Z2_COCYCLE, "omega_order": -2}, "omega_order must be one integer, at least 1"),
    ],
    ids=["mul", "exponent", "member", "omega_order_zero", "omega_order_negative"],
)
def test_json_readers_reject_non_integers(tmp_path, option, obj, message):
    read = {"--group": group_from_obj, "--subgroup": lambda o: subgroup_from_obj(cyclic(2), o),
            "--cocycle": lambda o: cocycle_from_obj(cyclic(2), o)}[option]
    with pytest.raises(SizeMismatch, match=message):
        read(obj)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    argv = ["group", "info", "--group", f"file:{path}"] if option == "--group" else \
        ["condense", "--group", "builtin:Z2", option, str(path)]
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "") and message in err


def test_cocycle_files_are_checked_exactly_at_large_omega_order(tmp_path):
    # omega^(e(1,1)) with omega_order 10^10 misses the identity by 2 pi / 10^10,
    # under the float scan's TOL["phase"]; the exact test names the triple
    obj = {"subgroup": [0, 1, 2], "omega_order": 10**10, "exponents": [[0, 0, 0], [0, 1, 0], [0, 0, 0]]}
    with pytest.raises(CocycleIdentityFailure, match="exponents differ mod 10000000000") as err:
        cocycle_from_obj(cyclic(3), obj)
    assert err.value.triple == (1, 1, 2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(["condense", "--group", "builtin:Z3", "--cocycle", str(path)])
    assert (code, out) == (2, "") and "(1, 1, 2)" in err


def test_cocycle_files_reject_an_omega_order_the_exact_test_cannot_add():
    obj = {**Z2_COCYCLE, "omega_order": 2**62, "exponents": [[0, 0], [0, 2**61]]}
    with pytest.raises(SizeMismatch, match="omega_order must be below 2"):
        cocycle_from_obj(cyclic(2), obj)
    assert cocycle_from_obj(cyclic(2), {**obj, "omega_order": 2**62 - 1, "exponents": [[0, 0], [0, 0]]})


def test_cocycle_files_list_their_members_in_increasing_order(tmp_path):
    # e(x, y) = x1 y2 mod 3 on Z3 x Z3 (x = 3 x1 + x2), written once over the members
    # in order and once over them listed as (x1, x2) -> (x2, x1), the exponents in
    # that order.  The second file was read against the sorted members, a different
    # cocycle with another condensed set; a list out of order is now refused
    e = lambda x, y: (x // 3) * (y % 3) % 3
    swapped = [3 * (x % 3) + x // 3 for x in range(9)]
    files = {name: {"subgroup": members, "omega_order": 3, "exponents": [[e(x, y) for y in members] for x in members]}
             for name, members in (("sorted", list(range(9))), ("swapped", swapped))}
    g = direct_product(cyclic(3), cyclic(3))
    phi = cocycle_from_obj(g, files["sorted"])
    assert phi.subgroup.members.tolist() == list(range(9))
    # out of order (an automorphic and a non-automorphic order) or repeated: refused
    for obj, group in ((files["swapped"], g), ({**Z2_COCYCLE, "subgroup": [0, 2, 1, 3], "exponents": np.zeros(
            (4, 4), dtype=int).tolist()}, cyclic(4)), ({**Z2_COCYCLE, "subgroup": [0, 1, 1]}, cyclic(2))):
        with pytest.raises(SizeMismatch, match="increasing order"):
            cocycle_from_obj(group, obj)
    for name, obj in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    argv = lambda name: ["condense", "--group", "product:builtin:Z3xbuiltin:Z3", "--cocycle", str(tmp_path / name)]
    code, out, _ = run_cli(argv("sorted.json"))
    assert code == 0 and json.loads(out)["condensed"]
    code, out, err = run_cli(argv("swapped.json"))
    assert (code, out) == (2, "") and "increasing order" in err


def test_chartable_obj_snaps_roots():
    from artifact.groups import alternating

    obj = chartable_obj(character_table(alternating(4)))
    assert obj["dims"] == [1, 1, 1, 3]
    # snapped cells render as powers of the exponent-order root of unity
    flat = json.dumps(obj)
    assert "z6" in flat


def test_s_matrix_obj_structure():
    g = symmetric(3)
    obj = s_matrix_obj(g, s_matrix(g), snap=True)
    assert len(obj["objects"]) == 8
    assert len(obj["s"]) == 8
    # snapped entries render over the centralizer-order scale
    assert any(isinstance(cell, str) and "/" in cell for row in obj["s"] for cell in row)
    # unsnapped output stores [re, im] pairs
    raw = s_matrix_obj(g, s_matrix(g))
    assert isinstance(raw["s"][0][0], list) and len(raw["s"][0][0]) == 2


# The cell grammar of `--snap` output, as the benchmark parses it: integers and
# [c*]z{e}^{k} terms joined by " + ", wrapped as "(body)/scale" when scale > 1.
TERM = re.compile(r"(?:(\d+)\*)?z(\d+)\^(\d+)|(\d+)")
CELL = re.compile(r"\((.*)\)/(\d+)|(.*)")


def cell_value(cell: str) -> complex:
    wrapped, scale, bare = CELL.fullmatch(cell).groups()
    assert scale is None or int(scale) > 1
    total = 0j
    for term in (wrapped or bare).split(" + "):
        coeff, order, power, integer = TERM.fullmatch(term).groups()
        if integer is not None:
            total += int(integer)
        else:
            total += int(coeff or 1) * np.exp(2j * np.pi * int(power) / int(order))
    return total / int(scale or 1)


def rendered_values(cells) -> np.ndarray:
    arr = np.array(cells, dtype=object)
    return np.array([cell_value(c) for c in arr.ravel()]).reshape(arr.shape)


def test_every_cell_renders_exactly_on_the_sweep_groups():
    for g in sweep_groups():
        ct = character_table(g)
        chartable = chartable_obj(ct)["rows"]
        s = s_matrix_obj(g, s_matrix(g), snap=True)["s"]
        t = t_vector_obj(g, t_vector(g), snap=True)["t"]
        for cells, ref in ((chartable, ct.table), (s, s_matrix(g)), (t, t_vector(g))):
            assert dist(rendered_values(cells), ref) < 1e-9, g.label
            assert not any("-" in c for c in np.ravel(cells))


def test_s3_cells_cancel_vanishing_sums_and_reduce_fractions():
    g = symmetric(3)
    # chi_2(transposition) = 1 + z6^3 = 0, and S[(e,r2),(e,r2)] = 24/36 = 2/3
    assert chartable_obj(character_table(g))["rows"][2][1] == "0"
    assert s_matrix_obj(g, s_matrix(g), snap=True)["s"][2][2] == "(2)/3"


def test_snapped_s_cells_do_not_depend_on_the_row_block(monkeypatch):
    g = affine_group(near_field(5))  # 22 anyons, exponent 20
    whole = s_matrix_obj(g, s_matrix(g), snap=True)
    for rows in (1, 3):  # one row, and blocks of 3 ending in a partial one
        monkeypatch.setattr(errors, "BLOCK_BYTES", 32 * 22 * 20 * rows)
        assert s_matrix_obj(g, s_matrix(g), snap=True) == whole


# one residue of the conjugate double table mod P moved by one, at a trivial charge (the
# j = 0 sums move) and at the last orbit (counts wrap mod P): some cell's counts then miss
# their certified sum, and the rendering fails with exit code 1
@pytest.mark.parametrize("at", [(1, 0), (-1, -1)], ids=["trivial-charge", "last"])
def test_snapped_cells_reject_a_corrupted_residue(monkeypatch, at):
    exact = quantum_double._double_tables

    def broken(g, p, zp):
        tables = exact(g, p, zp)
        tables[1][at] = (tables[1][at] + 1) % p
        return tables

    monkeypatch.setattr(quantum_double, "_double_tables", broken)
    with pytest.raises(ConditionMismatch, match="snapped S"):
        s_matrix_obj(symmetric(3), s_matrix(symmetric(3)), snap=True)
    code, out, err = run_cli(["smatrix", "--snap", "--group", "builtin:S3"])
    assert code == 1 and out == ""
    assert "snapped S: sum_k c_k != B" in err


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["smatrix", "--snap", "--group", "builtin:A4"],
         "f2ddd56cc8646a87018f061941ccf2c027943f5a301b883520d851b4acb1e439"),
        (["chartable", "--group", "builtin:A5"],
         "e0c2c4a6e0821edcd4c1f3ce226321c3cc73a9b06490e82c4f598f9c6ddc81af"),
    ],
)
def test_cli_rendered_bytes_are_frozen(argv, digest):
    # SHA-256 of the output rendered from root multiplicities
    code, out, _ = run_cli(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_matrix_and_fusion_csv_shapes():
    g = symmetric(3)
    labels = [x.label for x in anyons(g)]
    text = matrix_csv(labels, s_matrix(g), corner="S")
    lines = text.strip().split("\n")
    assert len(lines) == 9
    assert lines[0].startswith("S,")
    n = fusion_verlinde(g)
    ftext = fusion_csv(g, n)
    flines = ftext.strip().split("\n")
    assert flines[0] == "left,right,result,multiplicity"
    assert len(flines) == 1 + int(np.round(n).sum())


def test_class_function_roundtrip():
    g = cyclic(2)
    chi = boundary_character(g, full_subgroup(g))
    obj = class_function_obj(chi)
    back = class_function_from_obj(g, obj)
    assert dist(back.values, chi.values) < 1e-12


def test_class_function_from_obj_rejects_values_off_commuting_pairs():
    g = symmetric(3)
    obj = class_function_obj(boundary_character(g, full_subgroup(g)))
    x, y = np.argwhere(g.mul != g.mul.T)[0]
    obj["values"][x][y] = [1.0, 0.0]
    with pytest.raises(ConditionMismatch):
        class_function_from_obj(g, obj)


def test_class_function_from_obj_rejects_nan_values():
    g = symmetric(3)
    obj = json.loads(render_json(class_function_obj(boundary_character(g, full_subgroup(g)))))
    obj["values"][0][0] = [float("nan"), 0.0]
    with pytest.raises(ConditionMismatch):
        class_function_from_obj(g, obj)


def test_square_matrix_from_obj_accepts_pairs_and_scalars():
    plain = square_matrix_from_obj([[1, 0], [0, 1]])
    assert dist(plain, np.eye(2)) < 1e-12
    pairs = square_matrix_from_obj([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, -1.0]]])
    assert pairs[0, 0] == 1j and pairs[1, 1] == -1j


def test_cli_group_info():
    code, out, _ = run_cli(["group", "info", "--group", "builtin:S3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    assert obj["abelian"] is False
    assert obj["classes"] == 3


def test_cli_anyons_csv_and_determinism():
    code, out, _ = run_cli(["anyons", "--group", "builtin:S3", "--format", "csv"])
    assert code == 0
    assert len(out.strip().split("\n")) == 9
    code2, out2, _ = run_cli(["anyons", "--group", "builtin:S3", "--format", "csv"])
    assert out2 == out


@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "711c0c25d7e4c19fab64efc09bc4ad250e573002d2e2a909059d42b9ce1647cb"),
        ("json", "93cea4e485f3e2336ea514f332962394e375d1771b62f1fd5ac6d643c21f16b4"),
    ],
)
def test_cli_fusion_s3_bytes_are_frozen(fmt, digest):
    # SHA-256 of the output of the three-operand einsum implementation
    code, out, _ = run_cli(["fusion", "--group", "builtin:S3", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


LATTICE_PINS = [
    (["lattice", "verify", "--group", "builtin:Z2", "--subgroup", "full"],
     "a308839706964d1c512ba19ce1fb3774adcfd64653bb7dd2d249e1a9477f76b5"),
    (["lattice", "character", "--group", "builtin:S3", "--subgroup", "trivial"],
     "0e301a6a1359c22fca2fadf869cb01bf52ede1def12039fc47893faa205fff86"),
    (["lattice", "verify", "--group", "builtin:Z2"],
     "dfb29b51b8455914befd841a8f5e6e76780dd27de94d04cdc611f8304b00daa7"),
    # a non-abelian bulk group, the two-coset wall (T~ T~ = 0 off the coset)
    # and a cocycle phase on every phased record
    (["lattice", "verify", "--group", "builtin:S3"],
     "c9031ec16bf825e3d4e23f0f7b6b5a31be13d116d275fa67beb63a79a696b9be"),
    (["lattice", "verify", "--group", "builtin:S3", "--subgroup", "0,3,4"],
     "ba5ebfb46f660db5c2af2054fad1d6618e2c046c478570f25dde547d4fcfb48d"),
    (["lattice", "verify", "--group", "product:builtin:Z2xbuiltin:Z2", "--cocycle", "bilinear.json"],
     "e38d61c75f0002589af428e9fca4174544188e4c0c448bd9f70a775923048df5"),
    # the largest wall suite: T~ sums over all of K = S3 in every T~ record
    (["lattice", "verify", "--group", "builtin:S3", "--subgroup", "full"],
     "05470a3dae37be67a1b9cb444fcc53f27fdbb9b0008cd7b3c92b35b7ccda5051"),
    # the T~ basis of the full wall: every T~^{k,g} merges |K| = 6 ribbon terms
    (["lattice", "character", "--group", "builtin:S3", "--subgroup", "full"],
     "95a8a00b19620458bcce7650dd834ca5eab0c7b336618cf71d410429d40726d6"),
]


@pytest.mark.parametrize("argv, digest", LATTICE_PINS, ids=["_".join(argv) for argv, _ in LATTICE_PINS])
def test_cli_lattice_bytes_are_frozen(tmp_path, argv, digest):
    # SHA-256 of the output with random product-state probes, each on the axes
    # its identity touches, run at one BLAS thread as the benchmark runs.  State
    # norms and inner products are einsums in one fixed order; the sector Gram
    # and character Gram products are GEMMs whose bytes the CI also compares at
    # two threads.  Bulk vertex projectors are orbit sums, exactly constant on
    # each orbit, so the wall suites' charge row reads exactly 0
    z22 = direct_product(cyclic(2), cyclic(2))
    bilinear = np.array([[(-1.0) ** ((x >> 1) * (y & 1)) for y in range(4)] for x in range(4)])
    phi = bicharacter_cocycle(full_subgroup(z22), bilinear)
    (tmp_path / "bilinear.json").write_text(json.dumps(cocycle_to_obj(phi)))
    one_thread = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    run = subprocess.run(
        [sys.executable, "-m", "artifact.cli", *argv], capture_output=True, cwd=tmp_path,
        env=dict(os.environ, **one_thread, PYTHONPATH=str(Path(artifact.__file__).parents[1])),
    )
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == digest


# Input files of the contract pin, written into the working directory of the run.
CONTRACT_FILES = {
    "z22-bicharacter.json": {"subgroup": [0, 1, 2, 3], "omega_order": 2,
                             "exponents": [[(x >> 1) * (y & 1) for y in range(4)] for x in range(4)]},
    "members.json": {"members": [0, 3]},
    "identity.json": np.eye(8, dtype=int).tolist(),
    "not-invariant.json": [[2 if i == j == 0 else int(i == j) for j in range(8)] for i in range(8)],
}

# One fast invocation of every command path and format no other pin covers:
# (argv, exit code, SHA-256 of stdout).
CONTRACT = [
    ("group info --group builtin:S3", 0,
     "227c8af6072205a42c0e6c4013775d3a5a047b39f9c775a55f9ec5959234e9a4"),
    ("chartable --group builtin:S3 --format csv", 0,
     "32b9c3286e4d1f03a77ca34bd1cf32f0c45800d89f448fc7a84b789f89fe5227"),
    ("anyons --group builtin:S3", 0,
     "b2290b7f31f7923a3a0fd671eb7d15fd12656c59232005f27b34b9ac9ed3487a"),
    ("anyons --group builtin:S3 --format csv", 0,
     "a0cb6223491a867b09c5c6ed8005b8ad7aea48f7ab0a7add3d190e7dcf247702"),
    ("smatrix --group builtin:S3", 0,
     "bf17b22d038357688008039d925acf201b81c9ed9e044645084018c35d6cdcde"),
    ("smatrix --group builtin:S3 --format csv", 0,
     "83bfbefc673e705598594fbb4b772614a4c9f01f5f860823162c17e8c0950938"),
    ("tmatrix --group builtin:S3", 0,
     "b5bd0a66df770c01cba6ed80b77ead6a8f048ce97bddd861f283e52abbbdc35e"),
    ("tmatrix --group builtin:S3 --format csv", 0,
     "5e55b68888146e692d4765ad36b288be6c0f5363e1c902749b6354f1138ea2a4"),
    ("tmatrix --snap --group builtin:S3", 0,
     "a22d6f12c137bba6f4af8e934fafb9c680b2133dc6d94948d94ec8780b601225"),
    ("condense --group builtin:S3 --subgroup 0,3,4", 0,
     "448ac04fae0ba69b477d0d4f56f48f2e2f3800e321ca26a5145ac2878884c3df"),
    ("condense --group product:builtin:Z2xbuiltin:Z2 --cocycle z22-bicharacter.json", 0,
     "1897e00646ee69a95946607d233dfee84d333752285d08ce86420595e535c858"),
    ("tunnel --wall-u diagonal --group builtin:S3", 0,
     "417bb2a10c10b208ae6c40970b401f4ca1f229e25bf86b5e014157cb220fa594"),
    ("tunnel --wall-u q=3", 0,
     "bdfb7cbf3d9f8d9dfe2c729e610fcbe53d5135faec27af5c52c014de53dc6302"),
    ("tunnel --group product:builtin:Z2xbuiltin:Z2 --wall-u members.json", 0,
     "7d31157e120875a263c27acadbeda24123c844df389d827f3eda6a9edfa8a69f"),
    ("modinv search --group builtin:S3", 0,
     "3257f924dc4a1ec1162d5a2badfd8777c3daed085e65fe0536d331eec220b362"),
    ("modinv check identity.json --group builtin:S3", 0,
     "2904a2b4c2c23dc6c9c9ceef3e4cb2200327f37d643db8c1931cebc9812cdab7"),
    ("modinv check not-invariant.json --group builtin:S3", 1,
     "d4776d5d7f065763daece5ebfd0b8cbeb47e842040e858f0cb24a6495b44f6e7"),
    ("verify cf 3", 0,
     "85ca653b58906d4bfd8bc12fa3473d95b09f5585b20af5e5193519e7850fa4b5"),
    ("verify cf 8", 0,
     "6c2570535e1277a107822f437993270ada3ffefe1e37d6f31c020cdc18155380"),
    ("verify cf 9", 0,
     "188a73773136293114de32f849a811f9d5dfecd197c13c6aff6a124e5e511425"),
    ("lattice character --group builtin:Z2 --subgroup full", 0,
     "87c4adf280cb3f19dc155d84c84c432c30dd586c3c0e2df8da2c74e54324fabe"),
]


@pytest.mark.parametrize("argv, code, digest", CONTRACT, ids=[argv.replace(" ", "_") for argv, _, _ in CONTRACT])
def test_cli_contract_bytes_are_frozen(tmp_path, monkeypatch, argv, code, digest):
    for name, obj in CONTRACT_FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    got, out, _ = run_cli(argv.split())
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


@pytest.mark.parametrize("argv", ["group info --group builtin:Z99999999", "verify cf 2147483647", "verify cf 32",
                                  "group info --group product:builtin:Z1000xbuiltin:Z1000"])
def test_oversized_inputs_are_refused_before_any_array_exists(argv):
    start = time.perf_counter()
    code, out, err = run_cli(argv.split())
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "above the cap" in err


def test_cli_lattice_verify_passes_residuals_equal_to_the_tolerance():
    # a residual passes at residual <= tol, as every other check does
    code, out, _ = run_cli(
        ["lattice", "verify", "--group", "builtin:Z2", "--subgroup", "full", "--tol", "0"])
    rows = json.loads(out)["checks"]
    exact = [r for r in rows if r["residual"] == 0.0]
    assert exact and all(r["ok"] for r in exact)
    assert all(not r["ok"] for r in rows if r["residual"] > 0.0)
    assert code == 1  # rounding leaves some residuals above zero


def test_cli_smatrix_csv():
    code, out, _ = run_cli(["smatrix", "--group", "builtin:Z4", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 17
    assert lines[0].split(",")[0] == "S"


def test_cli_condense_smooth_boundary():
    code, out, _ = run_cli(
        ["condense", "--group", "builtin:Z2", "--subgroup", "full"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "consistent"
    assert obj["multiplicities"] == {"(e,r0)": 1, "(c1,r0)": 1}


def test_cli_tunnel_q2_wall():
    code, out, _ = run_cli(["tunnel", "--wall-u", "2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "equivalence"
    assert obj["is_permutation"] is True
    assert obj["targets"]["(e,r1)"] == "(c1,r0)"
    assert obj["targets"]["(c1,r0)"] == "(e,r1)"


def test_cli_tunnel_members_file_named_like_a_field(tmp_path, monkeypatch):
    (tmp_path / "q2").write_text(json.dumps({"members": [0, 3]}))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["tunnel", "--group", "product:builtin:Z2xbuiltin:Z2", "--wall-u", "q2"])
    assert code == 0
    assert json.loads(out)["verdict"] == "equivalence"


def test_cli_tunnel_diagonal():
    code, out, _ = run_cli(["tunnel", "--wall-u", "diagonal", "--group", "builtin:S3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "equivalence"


def test_cli_modinv_search_and_check(tmp_path):
    code, out, _ = run_cli(["modinv", "search", "--group", "builtin:S3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 1
    assert obj["pairs"][0]["x"] == "(e,r2)"
    assert obj["pairs"][0]["y"] == "(c3,r0)"

    good = tmp_path / "id.json"
    good.write_text(json.dumps(np.eye(8).astype(int).tolist()))
    code, out, _ = run_cli(["modinv", "check", str(good), "--group", "builtin:S3"])
    assert code == 0

    bad = tmp_path / "bad.json"
    m = np.eye(8)
    m[0, 0] = 2
    bad.write_text(json.dumps(m.astype(int).tolist()))
    code, out, err = run_cli(["modinv", "check", str(bad), "--group", "builtin:S3"])
    assert code == 1


def test_cli_verify_cf():
    code, out, _ = run_cli(["verify", "cf", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True


def test_cli_lattice_character():
    code, out, _ = run_cli(
        ["lattice", "character", "--group", "builtin:Z2", "--subgroup", "full"]
    )
    assert code == 0
    obj = json.loads(out)
    grid = square_matrix_from_obj(obj["values"])
    assert dist(grid, np.ones((2, 2))) < 1e-6


def test_cli_tol_and_seed_only_where_read():
    with pytest.raises(SystemExit) as exc:
        run_cli(["chartable", "--group", "builtin:S3", "--seed", "3"])
    assert exc.value.code == 2
    code, out, _ = run_cli(
        ["lattice", "verify", "--group", "builtin:Z2", "--subgroup", "full", "--seed", "1"]
    )
    assert code == 0
    assert json.loads(out)["ok"] is True


DICKSON_WALL = "--wall-u dickson9 has no wall; the Dickson near-field is checked by verify cf dickson9"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("tunnel --wall-u diagonal --group builtin:Z2 --cocycle /nonexistent.json",
         "--cocycle is read only with a members-file wall, not --wall-u diagonal"),
        ("tunnel --wall-u q=2 --cocycle /nonexistent.json",
         "--cocycle is read only with a members-file wall, not --wall-u q=2"),
        ("tunnel --wall-u dickson9 --cocycle /nonexistent.json", DICKSON_WALL),
        ("tunnel --wall-u q=2 --group builtin:S5", "--wall-u q=2 fixes the groups; --group is not read"),
        ("tunnel --wall-u dickson9 --group builtin:S3", DICKSON_WALL),
        ("smatrix --snap --format csv --group builtin:S3", "--snap applies to JSON output only"),
        ("tmatrix --snap --format csv --group builtin:S3", "--snap applies to JSON output only"),
    ],
    ids=["diagonal-cocycle", "field-cocycle", "dickson9-cocycle", "field-group", "dickson9-group",
         "smatrix-snap-csv", "tmatrix-snap-csv"],
)
def test_cli_refuses_options_the_command_does_not_read(argv, message):
    # each option was accepted and never read, the cocycle file never opened
    code, out, err = run_cli(argv.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_cli_tunnel_refuses_the_dickson_wall():
    # the Dickson near-field has no wall cocycle, so no --wall-u dickson9 ever ran
    code, out, err = run_cli(["tunnel", "--wall-u", "dickson9"])
    assert (code, out, err) == (2, "", f"error: {DICKSON_WALL}\n")
    help_text = io.StringIO()
    with contextlib.redirect_stdout(help_text), pytest.raises(SystemExit):
        main(["tunnel", "--help"])
    assert "dickson9" not in help_text.getvalue()


def test_cli_a_document_with_nan_exits_2(monkeypatch):
    # a NaN residual is written into the report, which the JSON writer refuses
    # inside main's error mapping, before anything is written
    monkeypatch.setattr(cli, "wall_relation_report", lambda *args, **kwargs: [("probe", float("nan"))])
    code, out, err = run_cli(["lattice", "verify", "--group", "builtin:Z2", "--subgroup", "full"])
    assert (code, out) == (2, "") and err.startswith("input error: Out of range float values")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["modinv search", "modinv check identity.json", "lattice verify --subgroup full"])
def test_cli_tol_must_be_finite_and_non_negative(command, tol):
    # refused by the parser, before a group is built or a file is read
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main([*command.split(), "--group", "builtin:Z2", "--tol", tol])
    assert exc.value.code == 2
    assert f"argument --tol: must be finite and non-negative, got '{tol}'" in err.getvalue()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_cli_modinv_check_rejects_a_non_finite_candidate(tmp_path, value):
    # json reads NaN and Infinity; the matrix is refused where it is read, not by the writer
    m = np.eye(4)
    m[0, 1] = value
    path = tmp_path / "candidate.json"
    path.write_text(json.dumps(m.tolist()))
    code, out, err = run_cli(["modinv", "check", str(path), "--group", "builtin:Z2"])
    assert (code, out, err) == (2, "", "input error: square matrix entries must be finite\n")


def test_cli_group_file_roundtrip(tmp_path):
    path = tmp_path / "group.json"
    path.write_text(render_json(group_to_obj(symmetric(3))))
    code, out, _ = run_cli(["group", "info", "--group", f"file:{path}"])
    assert code == 0
    assert json.loads(out)["order"] == 6


def test_cli_usage_errors_exit_2():
    code, _, err = run_cli(["group", "info", "--group", "builtin:Q8"])
    assert code == 2
    assert err.strip() != ""
    code, _, _ = run_cli(["tunnel", "--wall-u", "custom", "--group", "builtin:S3"])
    assert code == 2


def test_cli_product_group():
    code, out, _ = run_cli(["group", "info", "--group", "product:builtin:Z2xbuiltin:Z3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["order"] == 6
    assert obj["abelian"] is True


HASH_SEED_COMMANDS = [
    ["verify", "cf", "5"],
    ["condense", "--group", "builtin:S4", "--subgroup", "full"],
    ["tunnel", "--wall-u", "diagonal", "--group", "builtin:A4"],
    ["tunnel", "--wall-u", "q=3"],
    ["lattice", "verify", "--group", "builtin:Z2", "--subgroup", "full"],
    ["chartable", "--group", "builtin:A5"],
    ["modinv", "search", "--group", "builtin:S3"],
]


def test_cli_stdout_does_not_depend_on_the_hash_seed():
    # one interpreter per seed runs every command through the CLI entry point
    script = """
import contextlib, io, json, sys
from artifact.cli import main
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    sys.stdout.write(f"$ {' '.join(argv)} -> {code}\\n{out.getvalue()}")
"""
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", script, json.dumps(HASH_SEED_COMMANDS)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(Path(artifact.__file__).parents[1])),
        )
        for seed in ("0", "1")
    ]
    (zero, err), (one, _) = [run.communicate() for run in runs]
    assert zero.count(b" -> 0\n") == len(HASH_SEED_COMMANDS), err.decode()
    assert zero == one


# one command of each kind; np.unique without index outputs would import numpy.ma behind any of them
LIGHT_IMPORT_COMMANDS = [
    ["group", "info", "--group", "builtin:S3"],
    ["chartable", "--group", "builtin:A5"],
    ["anyons", "--group", "builtin:S3", "--format", "csv"],
    ["smatrix", "--snap", "--group", "builtin:S3"],
    ["tmatrix", "--group", "builtin:S3"],
    ["fusion", "--group", "builtin:S3"],
    ["condense", "--group", "builtin:S3", "--subgroup", "full"],
    ["tunnel", "--wall-u", "diagonal", "--group", "builtin:S3"],
    ["modinv", "search", "--group", "builtin:S3"],
    ["verify", "cf", "5"],
    ["lattice", "verify", "--group", "builtin:Z2", "--subgroup", "full"],
    ["lattice", "character", "--group", "builtin:Z2", "--subgroup", "full"],
]


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1.x imports numpy.ma with numpy")
def test_cli_commands_do_not_import_numpy_ma():
    script = """
import contextlib, io, json, sys
from artifact.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, "numpy.ma" in sys.modules]))
"""
    run = subprocess.run(
        [sys.executable, "-c", script, json.dumps(LIGHT_IMPORT_COMMANDS)], capture_output=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(Path(artifact.__file__).parents[1])),
    )
    assert json.loads(run.stdout) == [[0] * len(LIGHT_IMPORT_COMMANDS), False]


def test_cli_builds_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_cli_calls_share_no_option_values():
    # the shared parser parses each call into a fresh namespace: --format csv does not stick
    code, out, _ = run_cli(["chartable", "--group", "builtin:S3", "--format", "csv"])
    assert (code, out.splitlines()[0]) == (0, "irrep,0,1,3")
    code, out, _ = run_cli(["chartable", "--group", "builtin:S3"])
    assert code == 0
    assert json.loads(out)["group"] == "S3"


def test_cli_works_after_a_call_that_exits_2_on_a_bad_flag():
    with pytest.raises(SystemExit) as exc:
        run_cli(["chartable", "--group", "builtin:S3", "--no-such-flag"])
    assert exc.value.code == 2
    code, out, _ = run_cli(["group", "info", "--group", "builtin:S3"])
    assert (code, json.loads(out)["order"]) == (0, 6)
