"""Two-cocycles on boundary subgroups: validation, gauge, and wall data."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import artifact
from artifact import cocycles
from artifact.cli import main
from artifact.cocycles import (
    absolute_trace,
    bicharacter_cocycle,
    normalize,
    phase,
    trivial_cocycle,
    validate,
    wall_cocycle,
    wall_subgroup,
)
from artifact.errors import (
    CocycleIdentityFailure,
    ConditionMismatch,
    NotAbelian,
    NotBimultiplicative,
)
from artifact.groups import (
    cyclic,
    direct_product,
    full_subgroup,
    near_field,
    symmetric,
)

from conftest import dist


def z22_full():
    g = direct_product(cyclic(2), cyclic(2))
    return full_subgroup(g)


def nondegenerate_form(k):
    # beta((x1, x2), (y1, y2)) = (-1)^(x1 y2) on Z2 x Z2
    n = k.order
    b = np.ones((n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            b[x, y] = (-1) ** ((x >> 1) * (y & 1))
    return b


def test_trivial_cocycle_is_all_ones():
    k = z22_full()
    phi = trivial_cocycle(k)
    assert dist(phi.table, np.ones((4, 4))) == 0.0


def test_validate_rejects_broken_identity():
    k = z22_full()
    table = np.ones((4, 4), dtype=complex)
    table[1, 2] = -1  # single sign flip cannot satisfy the 2-cocycle identity
    with pytest.raises(CocycleIdentityFailure):
        validate(table, k)


def test_validate_and_bicharacter_reject_nan_tables():
    k = z22_full()
    table = np.ones((4, 4), dtype=complex)
    table[2, 3] = np.nan
    with pytest.raises(CocycleIdentityFailure):
        validate(table, k)
    with pytest.raises(NotBimultiplicative):
        bicharacter_cocycle(k, table)


def test_bicharacter_is_a_cocycle():
    k = z22_full()
    phi = bicharacter_cocycle(k, nondegenerate_form(k))
    assert set(np.unique(np.round(phi.table.real))) <= {-1.0, 1.0}
    # rebuilding through validate keeps the same table
    assert dist(validate(phi.table, k).table, phi.table) == 0.0


def test_bicharacter_rejects_bad_inputs():
    g = symmetric(3)
    with pytest.raises(NotAbelian):
        bicharacter_cocycle(full_subgroup(g), np.ones((6, 6)))
    k = z22_full()
    b = np.ones((4, 4), dtype=complex)
    b[3, 3] = -1  # not multiplicative in either slot
    with pytest.raises(NotBimultiplicative):
        bicharacter_cocycle(k, b)


def test_normalize_gauge_properties():
    k = z22_full()
    phi = bicharacter_cocycle(k, nondegenerate_form(k))
    normed, alpha = normalize(phi)
    kg = k.as_group
    # still a cocycle; trivial on the identity row and column and on inverse pairs
    validate(normed.table, k)
    assert dist(normed.table[0, :], np.ones(4)) < 1e-12
    assert dist(normed.table[:, 0], np.ones(4)) < 1e-12
    assert dist(normed.table[np.arange(4), kg.inv], np.ones(4)) < 1e-12
    assert dist(np.abs(normed.table), np.ones((4, 4))) < 1e-12
    # idempotent: normalizing again changes nothing
    again, alpha2 = normalize(normed)
    assert dist(again.table, normed.table) < 1e-12
    assert dist(alpha2, np.ones(4)) < 1e-12
    # alpha witnesses the gauge move out(k, l) = phi(k, l) a(k) a(l) / a(kl)
    rebuilt = phi.table * alpha[:, None] * alpha[None, :] / alpha[kg.mul]
    assert dist(rebuilt, normed.table) < 1e-12


def test_phase_is_gauge_invariant():
    k = z22_full()
    kg = k.as_group
    phi = bicharacter_cocycle(k, nondegenerate_form(k))
    rng = np.random.default_rng(3)
    base = phase(phi)[2]
    for _ in range(5):
        beta = np.exp(2j * np.pi * rng.random(k.order))
        beta[0] = 1.0
        twisted = phi.table * beta[kg.mul] / (beta[:, None] * beta[None, :])
        assert dist(phase(validate(twisted, k))[2], base) < 1e-10


def test_phase_values_on_commuting_pairs():
    # for a bicharacter, phi(k, l) / phi(l, k) is the commutator pairing; K is
    # abelian, so every pair commutes and the pairs run over K x K in row-major order
    k = z22_full()
    b = nondegenerate_form(k)
    phi = bicharacter_cocycle(k, b)
    left, right, values = phase(phi)
    assert left.tolist() == np.repeat(np.arange(4), 4).tolist()
    assert right.tolist() == np.tile(np.arange(4), 4).tolist()
    expected = phi.table / phi.table.T
    assert dist(values, expected.ravel()) < 1e-12


def test_absolute_trace_small_fields():
    # F4: Tr(x) = x + x^2 lands in F2 and is 0 exactly on the prime subfield
    h4 = near_field(4)
    tr4 = absolute_trace(h4)
    assert tr4.tolist()[0] == 0
    assert sorted(tr4.tolist()).count(0) == 2
    # the additive character x -> (-1)^Tr(x) is balanced
    assert sum((-1) ** t for t in tr4) == 0
    tr8 = absolute_trace(near_field(8))
    assert sum((-1) ** t for t in tr8) == 0


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


# SHA-256 of the int64 bytes of add, mul and absolute_trace of F_q: the element
# encoding, and with it the choice of modulus, is part of every affine label.
FIELD_PINS = {
    4: "65e1af105b748967f9d38c454840990fa84658b40164eb7e3241b888bb4bde63",
    8: "79bb3f1892418a1b5663087533c768c79a8e9e4af0eb6394dc59dd71358504bb",
    9: "32cfdf72f9a196715242f51633d4b701de7cdbec83e30166fb3ea5ce8b6cb635",
    16: "605cac6b032b51ffb06b877b602945aa949ab6da1ec8205c100ce665f9b9d46c",
    25: "5c473e436a8a3eb78d386dc130de4a2730f9627b6d23c3be85fa3f19907a364f",
    27: "3e2b7bd2f1faed6bb3144a00ba9b541701fbfa6430cede8b26768c69a4c402cf",
    32: "292f9b922ec62c0358a39b4f9dd21f03f61c92c16c99d6f6aecbe8df247e0f35",
    49: "9b1becb87c5c70c014acba99fbec0a31275bb5c13cad74c244b4912233449503",
    64: "93b9a0ace58c85f62d00acf4d0bfe5c2e4c8f4306c850c054f938b8afb97aca6",
    81: "5f7af9590768167b1bd6c54c1188419d4f84b216d25e0bb674b9aab83845e86c",
    121: "4bc1f496e659caac66531beded41dbbe8a5332d9d474ace16e68b8b380de2e1d",
    125: "f81a2c84b7bf876a210fd398ec50f0495c2d1fe4bd13728cdca3abf17da2f63b",
}

# SHA-256 of the int64 members of wall_subgroup(near_field(q)).
WALL_PINS = {
    2: "a1e03200f1f82ad2c1cec8795c271aaecf98f5aa2d151d2229ec5fa0c177cf77",
    3: "8d0125c14548aff5cbe49d7414b09b592a0b13f3bdf94ad7b56d8156fb98f789",
    4: "48cf2282f4e66982a1fc78b455da9e3ff718a52bf3bb554c65f397594e1d672c",
    5: "377316003408916ccb23615a79775f53bb8dd2541fac9e78144c40cebc914fd1",
    7: "6756c0a1532a35c36af665ef2bece135b5aa0fffd24fcf09cbf3fc272454bec7",
    8: "61785668b49d3fefc38de96ec2641601658fba50f572d497d837944613df28e1",
    9: "a8d0c00adad79f7568bb55f18d4330583a858a726d418eb515039efbf7c8215a",
    11: "14a2af9c3f583ae1dcec868a4c85c046c24ebd1ac7ebba205e46d4327f282218",
    13: "5a385b7cb8b62b2dcfbbaa772980000a201432ded06bb2a3b5abee42c4ef0d13",
}


@pytest.mark.parametrize("q", sorted(FIELD_PINS))
def test_field_tables_and_trace_are_pinned(q):
    h = near_field(q)
    assert _digest(h.add, h.mul, absolute_trace(h)) == FIELD_PINS[q]


def test_dickson_table_is_pinned():
    h = near_field(9, kind="dickson9")
    assert _digest(h.mul) == "372972db3c42c446707bf979cb7d89ae7f3706de3f6ac8dd306b79db8bc6db3b"


@pytest.mark.parametrize("q", sorted(WALL_PINS))
def test_wall_subgroup_members_are_pinned(q):
    assert _digest(wall_subgroup(near_field(q)).members) == WALL_PINS[q]


def test_wall_subgroup_order_and_closure():
    for q in (2, 3, 4):
        h = near_field(q)
        u = wall_subgroup(h)
        assert u.order == q * q * (q - 1)
        gg = u.parent
        mem = set(u.members.tolist())
        for a in u.members:
            for b in u.members:
                assert int(gg.mul[a, b]) in mem


def test_wall_cocycle_validates_and_has_expected_root_order():
    for q, p in ((2, 2), (3, 3), (4, 2), (5, 5)):
        phi = wall_cocycle(near_field(q))
        validate(phi.table, phi.subgroup)
        roots = phi.table ** p
        assert dist(roots, np.ones_like(roots)) < 1e-9
        if q > 2:
            assert dist(phi.table, np.ones_like(phi.table)) > 0.5


def test_wall_cocycle_q2_is_real_bicharacter():
    phi = wall_cocycle(near_field(2))
    assert set(np.unique(np.round(phi.table.real))) == {-1.0, 1.0}
    assert dist(phi.table.imag, np.zeros_like(phi.table.real)) < 1e-12


def test_normalize_invariants_are_typed_checks(monkeypatch, capsys):
    monkeypatch.setattr(cocycles, "_identity_residual", lambda mul, table: (1.0, (0, 0, 0)))
    with pytest.raises(ConditionMismatch, match="preserve the cocycle identity"):
        normalize(trivial_cocycle(z22_full()))
    argv = ["lattice", "character", "--group", "builtin:Z2", "--subgroup", "full"]
    assert main(argv) == 1
    assert "normalization must preserve the cocycle identity" in capsys.readouterr().err


def test_normalize_invariants_hold_under_python_O():
    script = """
import sys
from artifact import cocycles
from artifact.cli import main
cocycles._identity_residual = lambda mul, table: (1.0, (0, 0, 0))
argv = ["lattice", "character", "--group", "builtin:Z2", "--subgroup", "full"]
print(sys.flags.optimize, main(argv))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(artifact.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert run.stdout.split() == ["1", "1"], run.stderr
    assert "check failed: normalization must preserve the cocycle identity" in run.stderr


def wall_exponents(q, p):
    """U's table and the wall cocycle's exponents: phi = omega**e, omega = exp(2 pi i / p)."""
    phi = wall_cocycle(near_field(q))
    e = np.rint(np.angle(phi.table) * p / (2 * np.pi)).astype(np.int64) % p
    assert dist(np.exp(2j * np.pi * e / p), phi.table) < 1e-9
    return phi.subgroup.as_group.mul, e


def reference_failures(mul, e, p):
    """Test-only |U|^3 reference: the identity on every triple (x, a, y) of the
    clean table, and, since the identity is linear in e, fails[d, k, l] = whether
    adding d to e[k, l] breaks it at some triple (one pass over all triples)."""
    n = len(mul)
    x, a, y = np.indices((n, n, n), dtype=np.int32).reshape(3, -1)
    cells = np.stack([x * n + a, mul[x, a] * n + y, a * n + y, x * n + mul[a, y]])
    signs = np.array([1, 1, -1, -1])[:, None]
    assert not ((signs * e.ravel()[cells]).sum(axis=0) % p).any()
    count = sum(signs[j] * (cells == cells[j]) for j in range(4))  # of each cell in its triple
    fails = np.zeros((p, n * n), dtype=bool)
    for d in range(1, p):
        fails[d, cells[(count * d) % p != 0]] = True
    return fails.reshape(p, n, n)


@pytest.mark.parametrize("q, p", [(3, 3), (4, 2), (5, 5)])
def test_exact_exponent_test_agrees_with_the_full_scan_on_every_corruption(q, p):
    # every entry is corrupted once, by a shift d that cycles through 1..p-1
    mul, e = wall_exponents(q, p)
    assert cocycles._exponent_identity_failure(mul, e, p) is None
    fails = reference_failures(mul, e, p)
    n = len(mul)
    for k in range(n):
        for l in range(n):
            d = 1 + (k * n + l) % (p - 1)
            bad = e.copy()
            bad[k, l] = (bad[k, l] + d) % p
            got = cocycles._exponent_identity_failure(mul, bad, p)
            assert (got is not None) == fails[d, k, l], (d, k, l)
            if got is not None:
                x, a, y = got
                assert (bad[x, a] + bad[mul[x, a], y] - bad[a, y] - bad[x, mul[a, y]]) % p


def test_wall_cocycle_never_runs_the_float_scan(monkeypatch):
    def refuse(mul, table):
        raise AssertionError("the |U|^3 float scan ran on the wall cocycle")

    monkeypatch.setattr(cocycles, "_identity_residual", refuse)
    for q in (2, 3, 4, 5, 7):
        wall_cocycle(near_field(q))


def test_wall_cocycle_reports_a_failing_triple(monkeypatch):
    trace, check, seen = cocycles.absolute_trace, cocycles._exponent_identity_failure, []

    def skewed(h):
        tr = trace(h).copy()
        tr[2] = (tr[2] + 1) % 3  # no longer additive, so no longer a cocycle
        return tr

    def spy(mul, e, p):
        seen.append((mul, e))
        return check(mul, e, p)

    monkeypatch.setattr(cocycles, "absolute_trace", skewed)
    monkeypatch.setattr(cocycles, "_exponent_identity_failure", spy)
    with pytest.raises(CocycleIdentityFailure, match="exponents differ mod 3") as err:
        wall_cocycle(near_field(3))
    (mul, e), = seen
    x, a, y = err.value.triple
    assert (e[x, a] + e[mul[x, a], y] - e[a, y] - e[x, mul[a, y]]) % 3
