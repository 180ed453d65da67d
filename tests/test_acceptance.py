"""Acceptance suite: one timed pass/fail line per criterion.

Each criterion runs against frozen oracle values at its stated tolerance and
time budget.  Criterion 1 carries a strict xfail twin: four entries of the
frozen reference S-matrix for the S3 double disagree with the Verlinde- and
unitarity-consistent computation, so the verbatim comparison is expected to
fail while the 60 remaining entries (and every structural property) pass.
"""

import time

import numpy as np
import pytest

from artifact.characters import character_table
from artifact.cocycles import bicharacter_cocycle, validate, wall_cocycle
from artifact.condensation import (
    UWallSpec,
    boundary_character,
    condense,
    diagonal_wall,
    equivalence_check,
    tunnel,
)
from artifact.groups import (
    affine_group,
    alternating,
    conjugacy_data,
    cyclic,
    direct_product,
    full_subgroup,
    generated_subgroup,
    near_field,
    symmetric,
    trivial_subgroup,
)
from artifact.lattice import (
    build_patch,
    bulk_relation_report,
    lattice_boundary_character,
    make_ribbon,
    minimal_boundary_patch,
    wall_relation_report,
)
from artifact.modular import (
    affine_cf_anyons,
    charge_conjugation_matrix,
    is_modular_invariant,
    modular_data,
    search_transposition_invariants,
    transposition_matrix,
    verify_theorem_b1,
)
from artifact.quantum_double import (
    anyon_character,
    anyon_dual,
    anyon_op,
    anyons,
    centralizer,
    dg_decompose,
    fusion_verlinde,
    kind,
    product_anyon,
    s_matrix,
    t_vector,
    tensor_character,
)
from artifact.serialize import group_exponent

from conftest import dist, reference_characters, sweep_groups


def stamp(num, elapsed, budget, detail):
    print(f"criterion {num:>2}: PASS in {elapsed:6.2f}s (budget {budget:.0f}s) - {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


# frozen reference S-matrix (times 6) for the S3 double, anyon order
# (e,r0) (e,r1) (e,r2) (c1,r0) (c1,r1) (c3,r0) (c3,r1) (c3,r2)
S3_REFERENCE_6S = np.array(
    [
        [1, 1, 2, 3, 3, 2, 2, 2],
        [1, 1, 2, -3, -3, 2, 2, 2],
        [2, 2, 4, 0, 0, -2, -2, -2],
        [3, -3, 0, 3, -3, 0, 0, 0],
        [3, -3, 0, -3, 3, 0, 0, 0],
        [2, 2, -2, 0, 0, 4, -2, -2],
        [2, 2, -2, 0, 0, -2, 4, -2],
        [2, 2, -2, 0, 0, -2, -2, 4],
    ],
    dtype=float,
)

# frozen reference fusion rules for the S3 double, same label order A..H
S3_REFERENCE_FUSION = [
    ["A", "B", "C", "D", "E", "F", "G", "H"],
    ["B", "A", "C", "E", "D", "F", "G", "H"],
    ["C", "C", "ABC", "DE", "DE", "GH", "FH", "FG"],
    ["D", "E", "DE", "ACFGH", "BCFGH", "DE", "DE", "DE"],
    ["E", "D", "DE", "BCFGH", "ACFGH", "DE", "DE", "DE"],
    ["F", "F", "GH", "DE", "DE", "ABF", "CH", "CG"],
    ["G", "G", "FH", "DE", "DE", "CH", "ABG", "CF"],
    ["H", "H", "FG", "DE", "DE", "CG", "CF", "ABH"],
]


@pytest.mark.xfail(
    strict=True,
    reason="four entries of the frozen reference disagree with the unitary, "
    "Verlinde-consistent S-matrix; the companion test pins down the "
    "transposed 2x2 block and the agreement on the other 60 entries",
)
def test_criterion_01_s3_reference_s_matrix_verbatim():
    t0 = time.perf_counter()
    s6 = 6 * s_matrix(symmetric(3))
    d = dist(s6, S3_REFERENCE_6S)
    elapsed = time.perf_counter() - t0
    print(
        f"criterion  1: XFAIL in {elapsed:6.2f}s (budget 1s) - frozen reference "
        f"deviates by {d:.0f} on the (c3,r1)/(c3,r2) diagonal block"
    )
    assert d < 1e-9


def test_criterion_01_s3_s_matrix_agreement_outside_flagged_block():
    t0 = time.perf_counter()
    s6 = 6 * s_matrix(symmetric(3))
    mismatch = np.abs(s6 - S3_REFERENCE_6S) > 1e-9
    # exactly the 2x2 block on the last two mixed anyons disagrees
    assert np.array_equal(np.argwhere(mismatch), np.array([[6, 6], [6, 7], [7, 6], [7, 7]]))
    # computed block is the transpose-flip of the reference block
    assert dist(s6[6:8, 6:8], np.array([[-2, 4], [4, -2]])) < 1e-9
    assert dist(S3_REFERENCE_6S[6:8, 6:8], np.array([[4, -2], [-2, 4]])) < 1e-9
    # the reference equals the computed matrix with rows 6 and 7 swapped, so
    # symmetry and unitarity hold for both and do not discriminate; the
    # modular relation (ST)^3 proportional to S^2 does
    s = s6 / 6
    ref = S3_REFERENCE_6S / 6
    assert dist(s @ np.conj(s.T), np.eye(8)) < 1e-10
    assert dist(ref @ np.conj(ref.T), np.eye(8)) < 1e-10

    def modular_relation_deviation(mat):
        t = t_vector(symmetric(3))
        st = mat * t[None, :]
        cube = st @ st @ st
        ss = mat @ mat
        scale = cube[0, 0] / ss[0, 0]
        return dist(cube, scale * ss)

    assert modular_relation_deviation(s) < 1e-9
    assert modular_relation_deviation(ref) > 1e-1
    elapsed = time.perf_counter() - t0
    stamp(1, elapsed, 1.0, "60 of 64 reference entries at 1e-9; 2x2 block flagged")


def test_criterion_02_s3_fusion_table_and_double_oracle():
    t0 = time.perf_counter()
    g = symmetric(3)
    objs = anyons(g)
    letters = "ABCDEFGH"
    expected = np.zeros((8, 8, 8))
    for i in range(8):
        for j in range(8):
            for ch in S3_REFERENCE_FUSION[i][j]:
                expected[i, j, letters.index(ch)] = 1
    n = fusion_verlinde(g)
    assert dist(n, np.round(n.real)) < 1e-9  # integer exact
    assert dist(n, expected) < 1e-9
    # double oracle: tensor product characters decompose to the same table
    chars = [anyon_character(g, x) for x in objs]
    for i in range(8):
        for j in range(8):
            m = dg_decompose(tensor_character(chars[i], chars[j]))
            assert dist(m, expected[i, j]) < 1e-8
    elapsed = time.perf_counter() - t0
    stamp(2, elapsed, 1.0, "64 reference fusion entries via Verlinde and via characters")


def test_criterion_03_extreme_boundaries_condense_as_expected():
    t0 = time.perf_counter()
    for g in (cyclic(2), symmetric(3), alternating(4)):
        objs = anyons(g)
        dims = np.array([x.dim for x in objs])
        # smooth boundary K = G: trivial-centralizer-irrep anyons, multiplicity 1
        rep = condense(g, full_subgroup(g))
        m = np.round(rep.multiplicities.real).astype(int)
        assert dist(rep.multiplicities, m) < 1e-8
        assert m.tolist() == [1 if x.pi == 0 else 0 for x in objs]
        assert int(m @ dims) == g.order
        # rough boundary K = {e}: chargeons, multiplicity = irrep dimension
        rep = condense(g, trivial_subgroup(g))
        m = np.round(rep.multiplicities.real).astype(int)
        assert dist(rep.multiplicities, m) < 1e-8
        assert m.tolist() == [x.dim if x.class_rep == 0 else 0 for x in objs]
        assert int(m @ dims) == g.order
    # the dimension count also holds for intermediate boundaries
    s3 = symmetric(3)
    k3 = generated_subgroup(s3, [next(x for x in range(6) if s3.element_order(x) == 3)])
    k2 = generated_subgroup(s3, [next(x for x in range(6) if s3.element_order(x) == 2)])
    a4 = alternating(4)
    v4 = generated_subgroup(a4, [x for x in range(12) if a4.element_order(x) == 2])
    for g, k in ((s3, k3), (s3, k2), (a4, v4)):
        rep = condense(g, k)
        m = np.round(rep.multiplicities.real).astype(int)
        dims = np.array([x.dim for x in anyons(g)])
        assert dist(rep.multiplicities, m) < 1e-8 and (m >= 0).all()
        assert int(m @ dims) == g.order and m[0] == 1
    elapsed = time.perf_counter() - t0
    stamp(3, elapsed, 5.0, "Z2, S3, A4 extreme boundaries + dimension counts")


def test_criterion_04_affine_wall_induces_the_cf_transposition():
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5):
        phi = wall_cocycle(near_field(q))
        u = phi.subgroup
        gg = u.parent
        ga, gb = gg.meta["product_of"]
        eq = equivalence_check(ga, gb, UWallSpec(u, phi))
        assert eq.verdict == "equivalence" and eq.is_permutation
        objs = anyons(ga)
        index = {x.label: i for i, x in enumerate(objs)}
        m = np.zeros((len(objs), len(objs)))
        for i in range(len(objs)):
            m[i, index[anyon_op(ga, objs[eq.targets[i]]).label]] = 1
        c, f = affine_cf_anyons(ga, q)
        assert kind(c) == "chargeon" and kind(f) == "fluxion"
        data = modular_data(ga)
        p = transposition_matrix(data, c, f)
        j = charge_conjugation_matrix(ga)
        # auto-equivalence = transposition composed with charge conjugation
        assert dist(m, p @ j) < 1e-12
        assert dist(p @ j, j @ p) < 1e-12
        if q == 3:
            # all objects self-dual: the map is exactly the (C, F) swap
            assert dist(j, np.eye(len(objs))) < 1e-12
            assert dist(m, p) < 1e-12
        # wall algebra character identity against the two reference sums
        refs = reference_characters(ga, c, f, product=gg)
        chi = boundary_character(gg, u, phi)
        assert dist(chi.values, refs["dual"].values - refs["swap"].values) < 1e-8
    elapsed = time.perf_counter() - t0
    stamp(4, elapsed, 60.0, "q in {2,3,4,5}: map = PJ, q=3 exactly (C,F), character at 1e-8")


def test_criterion_05_diagonal_wall_is_transparent():
    t0 = time.perf_counter()
    for g in (cyclic(2), symmetric(3), cyclic(4)):
        eq = equivalence_check(g, g, diagonal_wall(g))
        assert eq.verdict == "equivalence" and eq.is_permutation
        objs = anyons(g)
        for i, target in enumerate(eq.targets):
            assert anyon_op(g, objs[target]) == objs[i]
    elapsed = time.perf_counter() - t0
    stamp(5, elapsed, 30.0, "Z2, S3, Z4 diagonal walls act as X -> X^op")


A6_ZA_REFERENCE_ROWS = {
    (1, 1, 1, 1, 1),
    (1, 1, -1, -1, 1),
    (1, 1, 1, -1, -1),
    (1, 1, -1, 1, -1),
    (2, -2, 0, 0, 0),
}


def test_criterion_06_a6_transposition_search():
    t0 = time.perf_counter()
    g = alternating(6)
    hits = search_transposition_invariants(g)
    got = [(h.x.label, h.y.label, h.kinds) for h in hits]
    assert got == [
        ("(c3,r0)", "(c3,r3)", ("fluxion", "mixed")),
        ("(c3,r1)", "(c3,r2)", ("mixed", "mixed")),
    ]
    assert not any(h.kinds == ("chargeon", "chargeon") for h in hits)
    for h in hits:
        data = modular_data(g)
        verdict = is_modular_invariant(transposition_matrix(data, h.x, h.y), data)
        assert verdict.ok
    # both hits sit on the order-45 class of double transpositions
    cdata = conjugacy_data(g)
    a = 3
    assert all(h.x.class_rep == a and h.y.class_rep == a for h in hits)
    assert len(cdata.classes[cdata.class_of[a]]) == 45
    # centralizer of a: order 8, five classes, table matches the reference rows
    z = centralizer(g, a)
    assert z.order == 8
    zt = character_table(z.as_group)
    zdata = conjugacy_data(z.as_group)
    sizes = [len(c) for c in zdata.classes]
    orders = [z.as_group.element_order(int(r)) for r in zdata.reps]
    assert sorted(zip(sizes, orders)) == [(1, 1), (1, 2), (2, 2), (2, 2), (2, 4)]
    # canonical column order: identity, central involution, the two
    # involution pair classes, then the order-4 class
    ident = next(i for i in range(5) if sizes[i] == 1 and orders[i] == 1)
    central = next(i for i in range(5) if sizes[i] == 1 and orders[i] == 2)
    invs = [i for i in range(5) if sizes[i] == 2 and orders[i] == 2]
    four = next(i for i in range(5) if orders[i] == 4)
    perm = [ident, central, invs[0], invs[1], four]
    rows = {
        tuple(int(np.round(v.real)) for v in zt.table[r, perm]) for r in range(5)
    }
    assert rows == A6_ZA_REFERENCE_ROWS
    # paired irreps agree on the order-4 class and differ on the involutions
    vals4 = np.round(zt.table[:, four].real).astype(int)
    assert vals4[0] == vals4[3] == 1 and vals4[1] == vals4[2] == -1
    elapsed = time.perf_counter() - t0
    stamp(6, elapsed, 120.0, "exactly the two flagged pairs; Z(a) table matches")


def test_criterion_07_affine_structure_reports():
    t0 = time.perf_counter()
    specs = [
        near_field(2),
        near_field(3),
        near_field(4),
        near_field(5),
        near_field(9, kind="dickson9"),
    ]
    step_names = {
        "b_dim_pi_equals_class_size",
        "c_class_plus_identity_is_subgroup",
        "d_other_irreps_constant_on_class",
        "e_pi_vanishes_off_closure_and_is_minus_one_on_class",
        "f_centralizer_order",
        "g_centralizer_equals_closure",
        "h_centralizer_elementary_abelian",
    }
    for h in specs:
        rep = verify_theorem_b1(h)
        assert set(rep.steps) == step_names
        assert all(rep.steps.values()), f"{h.label}: {rep.steps}"
        assert rep.invariant.ok
        assert rep.ok
    elapsed = time.perf_counter() - t0
    stamp(7, elapsed, 120.0, "steps (b)-(h) plus invariance for F2 F3 F4 F5 D9")


def test_criterion_08_operator_relation_suites():
    t0 = time.perf_counter()
    z2, s3 = cyclic(2), symmetric(3)
    assert len(build_patch(z2, 4, 3).edges) == 17 <= 20
    assert len(build_patch(s3, 3, 2).edges) == 7 <= 7

    reports = {}
    reports["bulk Z2 (17 edges)"] = bulk_relation_report(z2, states=16, seed=0)
    reports["bulk S3 (7 edges)"] = bulk_relation_report(s3, states=16, seed=0)
    reports["wall Z2 / K = Z2"] = wall_relation_report(
        z2, full_subgroup(z2), states=16, seed=0
    )
    k3 = generated_subgroup(s3, [next(x for x in range(6) if s3.element_order(x) == 3)])
    reports["wall S3 / K = Z3"] = wall_relation_report(s3, k3, states=16, seed=0)
    z22 = direct_product(cyclic(2), cyclic(2))
    kf = full_subgroup(z22)
    b = np.array(
        [[(-1.0) ** ((x >> 1) * (y & 1)) for y in range(4)] for x in range(4)],
        dtype=complex,
    )
    reports["wall Z2xZ2 / bilinear"] = wall_relation_report(
        z22, kf, bicharacter_cocycle(kf, b), states=16, seed=0
    )

    worst = 0.0
    for label, checks in reports.items():
        peak = max(r for _, r in checks)
        worst = max(worst, peak)
        assert peak < 1e-8, f"{label}: residual {peak:.2e}"

    # the phased boundary identities and both inner-product statements ran
    bulk_names = [name for name, _ in reports["bulk Z2 (17 edges)"]]
    assert "ribbon deformation on the disk state" in bulk_names
    assert "<F^{h,g}> = delta_{h,e}/|G| on the disk state" in bulk_names
    assert "<psi^{h,g}|psi^{h',g'}> = delta delta / |G|" in bulk_names
    wall_names = [name for name, _ in reports["wall S3 / K = Z3"]]
    for required in (
        "F~^{k,g} F~^{k',g'} = delta phi(k,k') F~^{kk',g}",
        "T~^{k,gm} = phi(m,k)phi(mk,m^-1) T~^{mkm^-1,g}",
        "T~^{k,g} T~^{k',g} = phi(k,k') T~^{kk',g}",
        "T~^{k,g} T~^{k',g'} = 0 off the coset",
        "(T~^{k,g})^+ = T~^{k^-1,g}",
        "<F~^{k,g}> = delta_{k,e}/|G| on the ground state",
        "<psi~^{k,gi}|psi~^{k',gj}> = (|K|/|G|) delta delta",
    ):
        assert required in wall_names, required
    elapsed = time.perf_counter() - t0
    stamp(8, elapsed, 300.0, f"5 suites, 16 random states each, worst residual {worst:.1e}")


def test_criterion_09_lattice_character_matches_algebra():
    t0 = time.perf_counter()
    z2 = cyclic(2)
    cases = [(z2, trivial_subgroup(z2), None), (z2, full_subgroup(z2), None)]
    z22 = direct_product(cyclic(2), cyclic(2))
    kf = full_subgroup(z22)
    b = np.array(
        [[(-1.0) ** ((x >> 1) * (y & 1)) for y in range(4)] for x in range(4)],
        dtype=complex,
    )
    cases.append((z22, kf, bicharacter_cocycle(kf, b)))
    for g, k, phi in cases:
        patch = minimal_boundary_patch(g, k, phi)
        rib = make_ribbon(patch, ((1, 0), None), "wv")
        measured = lattice_boundary_character(patch, rib)
        algebraic = boundary_character(g, k, phi)
        assert dist(measured.values, algebraic.values) < 1e-6

    # worked example: the twisted Z2xZ2 condensation equals the folded q=2
    # wall answer, entry for entry, and its decomposition is the tunneling
    # matrix of that wall
    wall_phi = wall_cocycle(near_field(2))
    gp = wall_phi.subgroup.parent
    ga, gb = gp.meta["product_of"]
    chi_wall = boundary_character(gp, wall_phi.subgroup, wall_phi)
    chi_direct = boundary_character(z22, kf, bicharacter_cocycle(kf, b))
    assert np.array_equal(gp.mul, z22.mul)  # same element indexing
    assert dist(chi_wall.values, chi_direct.values) < 1e-8
    rep = condense(gp, wall_phi.subgroup, wall_phi)
    tm = tunnel(ga, gb, UWallSpec(wall_phi.subgroup, wall_phi))
    objs = anyons(gp)
    index = {x.label: i for i, x in enumerate(objs)}
    ax, bx = anyons(ga), anyons(gb)
    folded_mult = np.zeros((len(ax), len(bx)))
    for i, x in enumerate(ax):
        for j, y in enumerate(bx):
            pa = product_anyon(gp, x, anyon_op(gb, y))
            folded_mult[i, j] = np.round(rep.multiplicities[index[pa.label]].real)
    assert dist(folded_mult, tm.n) < 1e-9
    elapsed = time.perf_counter() - t0
    stamp(9, elapsed, 300.0, "3 boundary configs at 1e-6 + folded-wall example")


def test_criterion_10_property_sweep():
    t0 = time.perf_counter()
    count = 0
    for g in sweep_groups():
        assert g.order <= 72
        count += 1
        objs = anyons(g)
        dims = np.array([x.dim for x in objs])
        assert objs[0].label == "(e,r0)" and dims[0] == 1
        s = s_matrix(g)
        t = t_vector(g)
        n = fusion_verlinde(g)
        assert dist(s, s.T) < 1e-10
        assert dist(s @ np.conj(s.T), np.eye(len(objs))) < 1e-8
        assert dist(s[0], dims / g.order) < 1e-9
        # S^2 is the dual permutation
        index = {x.label: i for i, x in enumerate(objs)}
        perm = np.zeros((len(objs), len(objs)))
        for i, x in enumerate(objs):
            perm[i, index[anyon_dual(g, x).label]] = 1
        assert dist(s @ s, perm) < 1e-8
        # twists are roots of unity of exponent dividing the group exponent
        assert dist(t ** group_exponent(g), np.ones(len(objs))) < 1e-8
        assert dist(np.abs(t), np.ones(len(objs))) < 1e-10
        # Verlinde numbers are non-negative integers with vacuum unit
        assert dist(n, np.round(n.real)) < 1e-7
        assert n.real.min() > -1e-7
        assert dist(n[0], np.eye(len(objs))) < 1e-7
        # characters are independent of the conjugating transversal
        stack = np.stack([anyon_character(g, x).values for x in anyons(g)])
        conj = g.conj_table()
        rng = np.random.default_rng(g.order)
        for x in rng.integers(0, g.order, size=3):
            moved = stack[:, conj[x], :][:, :, conj[x]]
            assert dist(moved, stack) < 1e-9
    assert count == 25
    elapsed = time.perf_counter() - t0
    stamp(10, elapsed, 120.0, f"{count} groups of order <= 72, all S/T/fusion properties")


def test_criterion_10_cocycle_gauge_properties():
    # companion sweep: normalization and gauge invariance of the pairing
    from artifact.cocycles import normalize, phase, trivial_cocycle

    t0 = time.perf_counter()
    boundaries = [
        full_subgroup(direct_product(cyclic(2), cyclic(2))),
        full_subgroup(cyclic(4)),
        full_subgroup(symmetric(3)),
    ]
    cocycles = [trivial_cocycle(k) for k in boundaries]
    cocycles += [wall_cocycle(near_field(q)) for q in (2, 3, 4, 5)]
    rng = np.random.default_rng(17)
    for phi in cocycles:
        k = phi.subgroup
        kg = k.as_group
        normed, alpha = normalize(phi)
        again, alpha2 = normalize(normed)
        assert dist(again.table, normed.table) < 1e-10
        assert dist(alpha2, np.ones(k.order)) < 1e-10
        # the pairing is gauge invariant; phase reads it on the commuting pairs only
        base = phase(phi)[2]
        assert dist(phase(normed)[2], base) < 1e-9
        # a random coboundary twist leaves the commuting-pair phase alone
        beta = np.exp(2j * np.pi * rng.random(k.order))
        beta[0] = 1.0
        twisted = validate(
            phi.table * beta[:, None] * beta[None, :] / beta[kg.mul], k
        )
        assert dist(phase(twisted)[2], base) < 1e-9
    elapsed = time.perf_counter() - t0
    stamp(10, elapsed, 60.0, "normalize idempotent, pairing gauge invariant (7 cocycles)")
