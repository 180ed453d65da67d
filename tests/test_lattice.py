"""Exact state-vector checks for the lattice model and its boundary."""

import gc
import inspect
import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from artifact import errors, lattice
from artifact.characters import ClassFunction
from artifact.cocycles import bicharacter_cocycle
from artifact.errors import (
    ConditionMismatch,
    DimensionCap,
    GroupMismatch,
    InvalidRibbon,
    NotInSubgroup,
    ZeroProjection,
)
from artifact.groups import (
    cosets,
    cyclic,
    direct_product,
    full_subgroup,
    generated_subgroup,
    symmetric,
    trivial_subgroup,
)
from artifact.lattice import (
    LatticeState,
    _gram,
    apply_face,
    apply_invariant_op,
    apply_ribbon,
    apply_vertex,
    apply_wall_face,
    apply_wall_vertex,
    build_patch,
    bulk_relation_report,
    disk_state,
    face_projector,
    ground_state,
    hamiltonian_terms,
    inner,
    lattice_boundary_character,
    make_ribbon,
    minimal_boundary_patch,
    random_state,
    vertex_projector,
    wall_relation_report,
)
from artifact.quantum_double import pair_orbits

from conftest import dist, list_boundary_character


def dense_operator(patch, apply_fn):
    """Matrix of a state map in the computational basis."""
    n = patch.size
    m = np.zeros((n, n), dtype=complex)
    for b in range(n):
        amps = np.zeros(n, dtype=complex)
        amps[b] = 1.0
        out = apply_fn(LatticeState(patch, amps.reshape(patch.dims)))
        m[:, b] = out.amplitudes.ravel()
    return m


class StateMap:
    """A relation-suite map for tests: fn on a state, declaring `axes` as the axes it reads."""

    def __init__(self, axes, fn):
        self.axes, self.fn = list(axes), fn

    def __call__(self, state):
        return self.fn(state)


def joint_fixed_space_dimension(patch):
    terms = hamiltonian_terms(patch)
    blocks = [dense_operator(patch, fn) - np.eye(patch.size) for _, _, fn in terms]
    stack = np.vstack(blocks)
    svals = np.linalg.svd(stack, compute_uv=False)
    return int(np.sum(svals < 1e-9)), terms


def test_patch_shapes():
    z2 = cyclic(2)
    assert len(build_patch(z2, 4, 3).edges) == 17
    assert len(build_patch(z2, 3, 2).edges) == 7
    patch = build_patch(z2, 3, 2)
    assert patch.dims == (2,) * 7
    assert patch.size == 128
    snow = minimal_boundary_patch(z2, full_subgroup(z2))
    assert len(snow.edges) == 7


def test_projectors_are_idempotent_and_commute():
    g = symmetric(3)
    k = generated_subgroup(g, [next(x for x in range(6) if g.element_order(x) == 3)])
    patch = minimal_boundary_patch(g, k)
    rng = np.random.default_rng(2)
    st = random_state(patch, rng)
    v = patch.ham_vertices[0]
    f = patch.faces[0]
    pv = vertex_projector(patch, st, v)
    assert dist(vertex_projector(patch, pv, v).amplitudes, pv.amplitudes) < 1e-12
    pf = face_projector(patch, st, f)
    assert dist(face_projector(patch, pf, f).amplitudes, pf.amplitudes) < 1e-12
    # the two projectors commute
    ab = face_projector(patch, vertex_projector(patch, st, v), f)
    ba = vertex_projector(patch, face_projector(patch, st, f), v)
    assert dist(ab.amplitudes, ba.amplitudes) < 1e-12


def _orbit_cases():
    """(patch, state, vertices): S3 3x2 and Z2 4x3 with their bulk vertices; the minimal
    S3/full, S3/Z3, Z2/full and bilinear Z2xZ2 patches with their bulk and wall vertices;
    S3 3x2 restricted to the star of (1, 0) and the bilinear wall restricted to the wall
    star of (1, 0), each with a product state on it."""
    rng = np.random.default_rng(11)
    bulk = build_patch(symmetric(3), 3, 2)
    z2 = cyclic(2)
    bilinear = minimal_boundary_patch(*_z22_bilinear())
    patches = [bulk, build_patch(z2, 4, 3), _s3_wall("full")[0], _s3_wall("Z3")[0],
               minimal_boundary_patch(z2, full_subgroup(z2)), bilinear]
    for patch in patches:
        yield patch, random_state(patch, rng), [v for v in sorted(patch._star) if v in patch.ham_wall_vertices
                                                or not any(patch.edges[a].wall for a, _ in patch.star(v))]
    for patch, v in ((bulk, (1, 0)), (bilinear, (1, 0))):
        support = frozenset(a for a, _ in patch.star(v))
        sub = lattice._restrict(patch, support)
        vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) if a in support else None
              for a, d in enumerate(sub.dims)]
        yield sub, lattice._product(sub, vs), [v]


def test_the_orbit_projector_is_the_average_of_the_vertex_operators():
    # the orbit sum adds the |G| images of each orbit representative in the order
    # of the _Sum of apply_vertex maps, so it differs from that sum only in the
    # rounding of the other configurations' orders (none on Z2, where a two-term
    # sum commutes), and every configuration reads its orbit's one value.  At a
    # wall the |K| images carry their cocycle phases, the representatives (solid
    # edge e) read the _Sum of apply_wall_vertex maps exactly, and every other
    # configuration reads its representative's value over its phase
    for patch, psi, vertices in _orbit_cases():
        for v in vertices:
            if v in patch.ham_wall_vertices:
                n, solid = patch.boundary.order, lattice._wall_star(patch, v)[0][0]
                out = lattice._Op(patch, lattice._wall_orbit, (v,))(psi).amplitudes
                ref = lattice._Sum(tuple(lattice._Op(patch, lattice._wall_vertex_op, (v, k)) for k in range(n)))(psi)
                ref = ref.amplitudes / n
                assert np.array_equal(np.take(out, 0, axis=solid), np.take(ref, 0, axis=solid)), v
                assert dist(out, ref) <= 1e-15, v
                for k in range(n):
                    image = apply_wall_vertex(patch, LatticeState(psi.patch, out), v, k).amplitudes
                    assert dist(image, out) <= 1e-15, (v, k)
                continue
            n = patch.group.order
            out = vertex_projector(patch, psi, v).amplitudes
            ref = lattice._Sum(tuple(lattice._Op(patch, lattice._vertex_op, (v, g)) for g in range(n)))(psi)
            ref = ref.amplitudes / n
            if n == 2:
                assert np.array_equal(out, ref), v
            assert dist(out, ref) <= 1e-15, v
            for g in range(n):
                assert np.array_equal(apply_vertex(patch, LatticeState(psi.patch, out), v, g).amplitudes, out), (v, g)
        # every vertex and wall average of the Hamiltonian is one orbit sum
        for kind, _, proj in hamiltonian_terms(patch):
            assert kind == "face" or proj.build is {"vertex": lattice._orbit, "wall": lattice._wall_orbit}[kind]


def test_no_projector_of_the_ground_or_disk_state_is_a_sum(monkeypatch):
    # every face, vertex and wall projector is one compiled operator: _Sum serves
    # only the summed words of the probes
    passes, project = [], lattice._project_pass
    monkeypatch.setattr(lattice, "_project_pass", lambda patch, rng, terms: (
        passes.append(list(terms)) or project(patch, rng, terms)))
    patches = [build_patch(symmetric(3), 3, 2), _s3_wall("full")[0], minimal_boundary_patch(*_z22_bilinear())]
    for patch in patches:
        disk_state(patch)
        ground_state(patch)
        assert all(isinstance(proj, lattice._Op) for _, _, proj in hamiltonian_terms(patch))
    assert len(passes) == 2 * len(patches) and all(passes)
    assert all(isinstance(proj, lattice._Op) for terms in passes for proj in terms)


def _pinned_operators(patch, ribbons):
    """(builder, key) for every operator of the patch's sites and ribbons: vertex,
    face, wall vertex and wall face at every label, both projector layouts, and every
    ribbon and (on a wall) T~ label."""
    n, nk = patch.group.order, (patch.boundary.order if patch.boundary is not None else 0)
    for v in sorted(patch._star):
        if v in patch.ham_wall_vertices:
            yield lattice._wall_orbit, (v,)
            for k in range(nk):
                yield from ((lattice._wall_vertex_op, (v, k)), (lattice._wall_face_op, (v, k)))
        elif not any(patch.edges[a].wall for a, _ in patch.star(v)):
            yield lattice._orbit, (v,)
            yield from ((lattice._vertex_op, (v, g)) for g in range(n))
    for i, j in patch.faces:
        for base in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
            yield from ((lattice._face_op, ((base, (i, j)), h)) for h in range(n))
    fluxes = range(n) if patch.boundary is None else patch.boundary.members
    for spec in ribbons:
        yield from ((lattice._ribbon_op, (spec, int(h), g)) for h in fluxes for g in range(n))
        if patch.boundary is not None:
            yield lattice._orbit, spec.end
            yield from ((lattice._invariant_op, (spec, int(k), g)) for k in fluxes for g in range(n))


def test_the_declared_axes_are_enough_to_compile_every_operator():
    # a probe restricts the patch to the axes its operators declare: on every
    # pinned patch, each operator compiles on that restriction to the same axes
    walls = [("S3/full", "full", None), ("S3/trivial", "trivial", None), ("Z2/full", "full", cyclic(2))]
    cases = _equivalence_cases() + [(f"wall {label}", patch, [rib]) for label, boundary, group in walls
                                    for patch, rib in [_s3_wall(boundary, group)]]
    for label, patch, ribbons in cases:
        ops = list(_pinned_operators(patch, ribbons))
        assert {build for build, _ in ops} >= {lattice._orbit, lattice._face_op, lattice._ribbon_op}, label
        for build, key in ops:
            axes = lattice._op(patch, build, *key).axes
            sub = lattice._restrict(patch, frozenset(axes))
            assert lattice._op(sub, build, *key).axes == axes, (label, build.__name__, key)


def test_a_wrong_holonomy_conjugation_is_refused(monkeypatch):
    # the character reads hol(src_t(r)) from a table over (t, hol(r)); a holonomy
    # whose last edge, which enters the site's vertex against its direction, is
    # read uninverted is no conjugate of hol(r), so building that table raises
    # (not asserted, so under python -O too)
    patch, rib = _s3_wall("full")
    holonomy = lattice._holonomy

    def wrong(patch, site):
        axis, sign = lattice._face_cycle(patch, site[1], site[0])[-1]
        assert sign == -1
        x, mul = lattice._coords(patch, [axis])[axis], patch.group.mul
        return mul[mul[holonomy(patch, site), x], x]  # hol x^-1 -> hol x

    monkeypatch.setattr(lattice, "_holonomy", wrong)
    with pytest.raises(ConditionMismatch, match="conjugate the holonomy"):
        lattice_boundary_character(patch, rib)


def test_bulk_disk_state_spans_the_full_projector_kernel():
    # the truncated Hamiltonian leaves rim edges free; adding every rim star
    # pins the 3x2 patch down to the unique closed-string superposition
    z2 = cyclic(2)
    patch = build_patch(z2, 3, 2)
    ham_dim, terms = joint_fixed_space_dimension(patch)
    assert ham_dim == 32
    verts = sorted({v for e in patch.edges for v in (e.tail, e.head)})
    disk_projs = [lambda s, f=f: face_projector(patch, s, f) for f in patch.faces]
    disk_projs += [lambda s, v=v: vertex_projector(patch, s, v) for v in verts]
    blocks = [dense_operator(patch, fn) - np.eye(patch.size) for fn in disk_projs]
    svals = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    assert int(np.sum(svals < 1e-9)) == 1
    gs = disk_state(patch)
    assert abs(gs.norm() - 1) < 1e-12
    for fn in disk_projs:
        assert dist(fn(gs).amplitudes, gs.amplitudes) < 1e-10


def test_wall_ground_state_is_stabilized():
    z2 = cyclic(2)
    # snowflake Hamiltonians keep rim edges free, so the fixed space is
    # degenerate; ground_state must land inside it and stay normalized
    for k, expected_dim in ((trivial_subgroup(z2), 8), (full_subgroup(z2), 16)):
        patch = minimal_boundary_patch(z2, k)
        dim, terms = joint_fixed_space_dimension(patch)
        assert dim == expected_dim
        gs = ground_state(patch)
        assert abs(gs.norm() - 1) < 1e-12
        for _, _, fn in terms:
            assert dist(fn(gs).amplitudes, gs.amplitudes) < 1e-10


def test_ground_state_draws_one_random_state_before_it_raises(monkeypatch):
    # the projectors commute: a state that projects to zero once would on every draw
    patch = build_patch(cyclic(2), 2, 2)
    draws = []

    def counted(patch, rng):
        draws.append(rng)
        return random_state(patch, rng)

    monkeypatch.setattr(lattice, "random_state", counted)
    monkeypatch.setitem(errors.TOL, "nonzero", math.nan)  # NaN fails every comparison
    with pytest.raises(ZeroProjection):
        ground_state(patch)
    assert len(draws) == 1


def test_random_state_is_seed_deterministic():
    patch = build_patch(cyclic(2), 3, 2)
    a = random_state(patch, np.random.default_rng(9))
    b = random_state(patch, np.random.default_rng(9))
    assert dist(a.amplitudes, b.amplitudes) == 0.0
    assert abs(a.norm() - 1) < 1e-12


def test_inner_product_sesquilinearity():
    patch = build_patch(cyclic(2), 3, 2)
    rng = np.random.default_rng(4)
    a = random_state(patch, rng)
    b = random_state(patch, rng)
    assert abs(inner(a, b) - np.conj(inner(b, a))) < 1e-12
    assert abs(inner(a, a) - 1) < 1e-12


def test_bulk_relation_report_small():
    checks = bulk_relation_report(cyclic(2), states=3, seed=5)
    assert len(checks) >= 16
    names = [name for name, _ in checks]
    assert len(set(names)) == len(names)
    worst = max(r for _, r in checks)
    assert worst < 1e-8


def test_wall_relation_report_small():
    g = symmetric(3)
    k = generated_subgroup(g, [next(x for x in range(6) if g.element_order(x) == 3)])
    checks = wall_relation_report(g, k, states=3, seed=5)
    worst = max(r for _, r in checks)
    assert worst < 1e-8


def _both_suites():
    z22, kf, phi = _z22_bilinear()
    return (lambda: bulk_relation_report(cyclic(2), states=4, seed=0),
            lambda: wall_relation_report(z22, kf, phi, states=4, seed=0))


def _replace_shared_record(monkeypatch, key, wrong_fn):
    """Both suites read the shared record `key` with its dims and the
    (words[, adjoint]) of wrong_fn(patch, rib, v)."""
    shared = lattice._shared_identities

    def wrong(patch, rib, v):
        records = shared(patch, rib, v)
        records[key] = (records[key][0], *wrong_fn(patch, rib, v))
        return records

    monkeypatch.setattr(lattice, "_shared_identities", wrong)


def _only_the_wrong_row_fails(monkeypatch, key, rows, wrong_fn):
    """Replace the shared record `key` by wrong_fn(patch, rib, v) in both
    suites: the suite's row of that record (rows: bulk, wall) must exceed
    1e-8 while every other row keeps its bits."""
    suites = dict(zip(rows, _both_suites()))
    right = {row: run() for row, run in suites.items()}
    _replace_shared_record(monkeypatch, key, wrong_fn)
    for row, run in suites.items():
        checks = run()
        moved = [name for (name, r), (_, r0) in zip(checks, right[row]) if r != r0]
        assert moved == [row] and dict(checks)[row] > 1e-8, row


def _vertex_map(patch, v):
    """k -> the record map of the (wall) vertex operator A_v^k, and the label group's mul."""
    if patch.boundary is None:
        return lambda k: lattice._Op(patch, lattice._vertex_op, (v, k)), patch.group.mul
    return lambda k: lattice._Op(patch, lattice._wall_vertex_op, (v, k)), patch.boundary.as_group.mul


def test_a_wrong_shared_identity_fails_in_both_suites(monkeypatch):
    # both suites read F F from the one shared record: make its words the false
    # F^{k,g} F^{k,g} = F^{k,g}
    def ff(patch, rib, v):
        flux = range(patch.group.order) if patch.boundary is None else patch.boundary.members
        f = lambda k, g: lattice._Op(patch, lattice._ribbon_op, (rib, int(flux[k]), g))
        return (lambda k, g, k2, g2: ([f(k, g), f(k, g)], [f(k, g)], 1.0),)

    _only_the_wrong_row_fails(monkeypatch, "F F", ("F^{h,g} F^{h',g'} = delta_{g,g'} F^{hh',g}",
                                                   "F~^{k,g} F~^{k',g'} = delta phi(k,k') F~^{kk',g}"), ff)


def _rank_one_aa(entangled):
    """A A whose right-hand side gains the rank-one |chi><chi|, chi = entangled(patch, psi),
    through a map that declares the vertex star as its axes."""
    def aa(patch, rib, v):
        a, kmul = _vertex_map(patch, v)

        def rank_one(psi):
            chi = entangled(patch, psi)
            return LatticeState(psi.patch, inner(chi, psi) * chi.amplitudes)
        chi = StateMap(a(0).axes, rank_one)
        return (lambda k, l: ([a(k), a(l)], [lattice._Sum((a(kmul[k, l]), chi))], 1.0),)
    return aa


def test_a_rank_one_wrong_identity_fails_in_both_suites(monkeypatch):
    # chi is the GHZ state (|0..0> + |1..1>) / sqrt 2 on the axes the record
    # touches, built on the probe's restriction: the residual becomes |<chi|psi>|,
    # which a product state psi leaves nonzero on almost every draw
    support = []

    def ghz(patch, psi):
        amps = np.zeros(psi.patch.dims, dtype=complex)
        amps[(0,) * amps.ndim] = amps[tuple(min(d - 1, 1) for d in amps.shape)] = 2**-0.5
        support.append(sum(d > 1 for d in amps.shape))
        return LatticeState(psi.patch, amps)

    _only_the_wrong_row_fails(monkeypatch, "A A", ("A_v^g A_v^h = A_v^{gh}", "wall A^k A^l = A^{kl}"),
                              _rank_one_aa(ghz))
    # every run is on the declared vertex star, so every chi is entangled across it
    assert support and min(support) >= 2


def test_a_full_patch_state_read_inside_a_probe_is_refused(monkeypatch):
    # a probe state lives on a restriction of the patch, so a map that reads an
    # entangled state of the full patch (its disk or ground state) is refused
    # rather than checked on the wrong state
    full = lambda patch, psi: disk_state(patch) if patch.boundary is None else ground_state(patch)
    _replace_shared_record(monkeypatch, "A A", _rank_one_aa(full))
    for run in _both_suites():
        with pytest.raises(GroupMismatch):
            run()


def test_a_wrong_adjoint_record_fails_in_both_suites(monkeypatch):
    # every k of Z2 and Z2xZ2 is its own inverse, so the false right-hand side
    # A^{k k1} takes a fixed k1 != e: (A^k)^+ = A^{k k1}, through the adjoint law
    def a_dagger(patch, rib, v):
        a, kmul = _vertex_map(patch, v)
        return lambda k: ([a(k)], [a(kmul[k, 1])], 1.0), True

    _only_the_wrong_row_fails(monkeypatch, "A^+", ("(A_v^g)^+ = A_v^{g^-1}", "wall (A^k)^+ = A^{k^-1}"),
                              a_dagger)


def test_a_map_reading_outside_its_declared_axes_is_refused(monkeypatch):
    # a face record that declares three of its four cycle edges: the probe's
    # restriction collapses the fourth, which the face's builder reads.  That is
    # an internal bug, raised (not asserted, so under python -O too) as
    # ConditionMismatch before any residual is returned, and the refused
    # operator is not cached
    face_op = lattice._face_op
    monkeypatch.setattr(lattice, "_face_op", lambda patch, site, h: (
        lambda op: op._replace(axes=op.axes[:3]))(face_op(patch, site, h)))
    for run in _both_suites():
        with pytest.raises(ConditionMismatch, match="declared support"):
            run()
    patch = build_patch(cyclic(2), 3, 2)
    face = lattice._Op(patch, lattice._face_op, (((1, 0), (1, 0)), 0))
    face(random_state(patch, np.random.default_rng(0)))  # warm the cache with the full-patch operator
    before = set(patch._cache)
    with pytest.raises(ConditionMismatch, match="declared support"):
        lattice._run_probes(patch, np.random.default_rng(0), 1, [("B", (), lambda: ([face], [face], 1.0))])
    assert set(patch._cache) == before


def _gram_cases():
    """(patch, ribbon, builder, labels, apply) for every caller of `_gram`: the n²
    bulk ribbons on Z2 and S3, and on the S3/Z3 and S3/full walls the K x G
    vacuum ribbons and the T~ basis (k in K, g over the coset representatives)."""
    for group in (cyclic(2), symmetric(3)):
        patch = build_patch(group, 3, 2)
        labels = [(h, g) for h in range(group.order) for g in range(group.order)]
        yield patch, make_ribbon(patch, ((1, 0), (1, 0)), "fv"), lattice._ribbon_op, labels, apply_ribbon
    for boundary in ("Z3", "full"):
        patch, rib = _s3_wall(boundary)
        mem, reps = patch.boundary.members, cosets(patch.group, patch.boundary)
        yield patch, rib, lattice._ribbon_op, [(int(k), g) for k in mem for g in range(6)], apply_ribbon
        yield patch, rib, lattice._invariant_op, [(int(k), int(r)) for k in mem for r in reps], apply_invariant_op


def _pairwise_gram(psi, images):
    # pairwise-summed products: np.vdot's own rounding is larger than the bound
    return np.array([[np.sum(np.conj(a.amplitudes) * b.amplitudes) for b in images] for a in (psi, *images)])


@pytest.mark.parametrize("block_bytes", [errors.BLOCK_BYTES, 16 * 37 * 7])
def test_gram_matches_pairwise_inner(monkeypatch, block_bytes):
    # 16 * 37 * 7 bytes: chunks of 37 columns for the 7 rows of an S3 sector
    # with six live operators, ragged against its 46,656-column sectors
    monkeypatch.setattr(errors, "BLOCK_BYTES", block_bytes)
    for patch, rib, build, labels, apply in _gram_cases():
        ops = [lattice._op(patch, build, rib, *key) for key in labels]
        assert patch.size > np.prod(patch.dims[:ops[0].last + 1])  # several trailing slices
        psi = random_state(patch, np.random.default_rng(4))
        gram = _gram(patch, psi, rib, ops)
        ref = _pairwise_gram(psi, [apply(patch, rib, psi, *key) for key in labels])
        assert gram.shape == (len(labels) + 1, len(labels))
        assert dist(gram, ref) <= 1e-15
        assert dist(_gram(patch, psi, rib, ops, vacuum=True), ref[:1]) <= 1e-15  # row 0 alone
        # operators nonzero in no common charge sector: both Grams hold exact zeros there
        assert np.all(gram[ref == 0] == 0)
        if build is lattice._ribbon_op:  # F^{h,g} lives in sector g alone
            charge = np.array([g for _, g in labels])
            assert np.all(ref[1:][charge[:, None] != charge[None, :]] == 0)


def test_a_ribbon_crossing_sectors_is_summed_exactly(monkeypatch):
    # F^{1,1} made to keep one configuration of charge 0 as well, so it is
    # nonzero in sectors 0 and 1: each sector's block gathers it, and the Gram,
    # a sum over sectors that partition the span, is the pairwise sum
    z2 = cyclic(2)
    patch = build_patch(z2, 3, 2)
    rib = make_ribbon(patch, ((1, 0), (1, 0)), "fv")
    psi = random_state(patch, np.random.default_rng(0))
    ribbon = lattice._ribbon_op

    def leaky(patch, spec, h, g):
        op = ribbon(patch, spec, h, g)
        if (h, g) == (1, 1):
            coef = op.coef.copy()
            coef.flat[np.flatnonzero(coef == 0)[0]] = 1
            op = op._replace(coef=coef)
        return op

    monkeypatch.setattr(lattice, "_ribbon_op", leaky)
    labels = [(h, g) for h in range(2) for g in range(2)]
    gram = _gram(patch, psi, rib, [lattice._op(patch, leaky, rib, h, g) for h, g in labels])
    ref = _pairwise_gram(psi, [apply_ribbon(patch, rib, psi, h, g) for h, g in labels])
    assert ref[1 + 3, 0] != 0  # <F^{1,1} psi|F^{0,0} psi> meets in sector 0
    assert dist(gram, ref) <= 1e-15


def test_gram_deformation_is_the_largest_state_distance(monkeypatch):
    # the bulk report's deformation row, on a random state in place of the disk state
    z2 = cyclic(2)
    patch = build_patch(z2, 4, 3)
    rib = make_ribbon(patch, ((3, 1), (2, 1)), "vfv")
    alt = make_ribbon(patch, ((3, 1), (2, 1)), "fvvfvvf")
    draw = lambda patch, seed=0: random_state(patch, np.random.default_rng(7))
    monkeypatch.setattr(lattice, "disk_state", draw)
    deformation = dict(bulk_relation_report(z2, states=1))["ribbon deformation on the disk state"]
    psi = draw(patch)
    ref = max(np.linalg.norm(apply_ribbon(patch, rib, psi, h, g).amplitudes
                             - apply_ribbon(patch, alt, psi, h, g).amplitudes)
              for h in range(2) for g in range(2))
    assert ref > 0.1  # a random state is not deformation invariant
    assert abs(deformation - ref) <= 1e-14


def test_a_nan_distance_reads_nan_in_the_wall_charge_row(monkeypatch):
    # the charge and flux row folds its distances like the probe rows: NaN is not dropped
    z2 = cyclic(2)
    monkeypatch.setattr(lattice, "_dist", lambda a, b, scale=1.0: float("nan"))
    row = dict(wall_relation_report(z2, full_subgroup(z2), states=1))["basis carries charge g and flux gkg^-1 at s1"]
    assert math.isnan(row)


STATE_BYTES_S3_3X2 = 16 * 6**7  # one state vector on the 3x2 and the minimal S3 patch


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bulk_s3_report_holds_at_most_three_states():
    # a vertex projector holds its input, its output and one orbit column; the
    # sector Gram one charge sector's buffer beside the disk state
    peak = _traced_peak(lambda: bulk_relation_report(symmetric(3), states=1))
    assert peak <= 3 * STATE_BYTES_S3_3X2, f"peak {peak / STATE_BYTES_S3_3X2:.2f} states"


def test_a_sector_gather_reads_its_coefficient_at_its_positions():
    # bulk S3's "fv" ribbon spans axes 0..5, all 46,656 lead configurations; a
    # gather at one charge sector's 7,776 span positions reads shift and
    # coefficient there alone, so beside its output it makes nothing as large
    # as a span-sized complex array
    patch = build_patch(symmetric(3), 3, 2)
    rib = make_ribbon(patch, ((1, 0), (1, 0)), "fv")
    op = lattice._op(patch, lattice._ribbon_op, rib, 2, 1)
    first, last, coef = op.first, op.last, op.coef
    span = patch.dims[first:last + 1]
    assert first == 0 and np.prod(span) == 46_656 and coef.size == 6  # the coefficient varies on one axis
    pos = np.flatnonzero(np.broadcast_to(coef.reshape(coef.shape[first:last + 1]) != 0, span))
    amps = random_state(patch, np.random.default_rng(0)).amplitudes.reshape(1, 46_656, -1)
    full = lattice._gather(patch, op, amps).reshape(46_656, -1)  # also caches the span index
    out = []
    peak = _traced_peak(lambda: out.append(lattice._gather(patch, op, amps, pos)))
    assert pos.size == 7_776 and np.array_equal(out[0].reshape(pos.size, -1), full[pos])
    assert peak - out[0].nbytes < 16 * 46_656, f"{peak - out[0].nbytes} bytes beside the output"


def test_s3_full_lattice_character_holds_at_most_four_states():
    # the ground state's wall projectors hold three states; the character loop
    # the ground state, one basis state and one holonomy class of its layout
    s3 = symmetric(3)
    patch = minimal_boundary_patch(s3, full_subgroup(s3))
    assert patch.size * 16 == STATE_BYTES_S3_3X2
    rib = make_ribbon(patch, ((1, 0), None), "wv")
    peak = _traced_peak(lambda: lattice_boundary_character(patch, rib))
    assert peak <= 4 * STATE_BYTES_S3_3X2, f"peak {peak / STATE_BYTES_S3_3X2:.2f} states"


def test_s3_full_wall_report_holds_at_most_six_states():
    # the ground-state rows run once whatever `states`: the vacuum row and the
    # T~ Gram hold one charge sector's buffer at a time, and the charge/flux rows
    # one basis state with its A_{s1} image, the T~ state it must equal and their
    # difference
    s3 = symmetric(3)
    peak = _traced_peak(lambda: wall_relation_report(s3, full_subgroup(s3), states=1))
    assert peak <= 6 * STATE_BYTES_S3_3X2, f"peak {peak / STATE_BYTES_S3_3X2:.1f} states"


def _s3_wall(boundary, group=None):
    """The minimal S3 (or `group`) patch with the full, the trivial or the Z3 wall, and its canonical ribbon."""
    g = symmetric(3) if group is None else group
    k = {"full": full_subgroup, "trivial": trivial_subgroup}.get(boundary, lambda g: generated_subgroup(
        g, [next(x for x in range(6) if g.element_order(x) == 3)]))(g)
    patch = minimal_boundary_patch(g, k)
    return patch, make_ribbon(patch, ((1, 0), None), "wv")


@pytest.mark.parametrize("boundary", ["full", "Z3"])
def test_streamed_character_equals_the_list_based_loop(boundary):
    patch, rib = _s3_wall(boundary)
    chi = lattice_boundary_character(patch, rib, seed=3)
    ref = list_boundary_character(patch, rib, seed=3)
    assert np.array_equal(chi.orbit_values, ref.orbit_values)


@pytest.mark.parametrize("boundary, group", [("full", symmetric(3)), ("Z3", symmetric(3)),
                                             ("trivial", symmetric(3)), ("full", cyclic(2))],
                         ids=["full", "Z3", "trivial", "Z2-full"])
def test_character_matches_the_face_and_vertex_operator_route(monkeypatch, boundary, group):
    # chi(g h*) = |G/K| sum_b <b|A^g B^h b> with B^h and A^g applied as operators
    # and each term an inner product: the same sums in another order, so equal
    # to rounding
    patch, rib = _s3_wall(boundary, group)
    g0, k, (v1, f1) = patch.group, patch.boundary, rib.end
    n, reps = g0.order, cosets(g0, k)
    psi = ground_state(patch, seed=3)
    values = np.zeros((n, n), dtype=np.complex128)
    for m in range(k.order):
        for gi in reps:
            b = apply_invariant_op(patch, rib, psi, int(k.members[m]), int(gi))
            for h in range(n):
                mb = apply_face(patch, b, (v1, f1), h)
                for g in range(n):
                    values[g, h] += inner(b, apply_vertex(patch, mb, v1, g))
    ref = ClassFunction.from_dense(g0, len(reps) * values, pair_orbits(g0))
    # the character reads one orbit layout per basis state: no vertex operator is applied
    calls = []
    monkeypatch.setattr(lattice, "apply_vertex", lambda *args: calls.append(args))
    chi = lattice_boundary_character(patch, rib, seed=3)
    assert dist(chi.orbit_values, ref.orbit_values) <= 1e-14 and not calls


def _cached_arrays(patch):
    return [a for op in patch._cache.values()
            for a in (op if isinstance(op, tuple) else (op,)) if isinstance(a, np.ndarray)]


def test_compiled_gathers_cache_no_state_sized_index():
    g = symmetric(3)
    patch = build_patch(g, 3, 2)
    psi = random_state(patch, np.random.default_rng(0))
    rib = make_ribbon(patch, ((1, 0), (1, 0)), "fv")
    for v in sorted(patch._star):
        for a in range(g.order):
            apply_vertex(patch, psi, v, a)
    for h in range(g.order):
        for a in range(g.order):
            apply_ribbon(patch, rib, psi, h, a)
    arrays = _cached_arrays(patch)
    assert arrays
    assert max(a.size for a in arrays) < patch.size
    assert sum(a.nbytes for a in arrays) < psi.amplitudes.nbytes == 4_478_976


def test_lattice_boundary_character_z2_frozen_values():
    z2 = cyclic(2)
    for k, expected in (
        (trivial_subgroup(z2), np.array([[2, 0], [0, 0]])),
        (full_subgroup(z2), np.ones((2, 2))),
    ):
        patch = minimal_boundary_patch(z2, k)
        rib = make_ribbon(patch, ((1, 0), None), "wv")
        # insensitive to the ground-state seed despite the degenerate kernel
        for seed in (0, 3):
            chi = lattice_boundary_character(patch, rib, seed=seed)
            assert dist(chi.values, expected) < 1e-6


# --- per-axis reference kernels ------------------------------------------------------
# The simulator's operators before they were compiled into one monomial gather:
# one np.take per edge, moveaxis masks, and per-prefix ribbon buckets.


def _ref_take(amps, axis, source):
    return np.take(amps, source, axis=axis)


def _ref_scale(amps, axis, vec):
    shape = [1] * amps.ndim
    shape[axis] = len(vec)
    return amps * vec.reshape(shape)


def _ref_face_cycle(patch, face, base):
    i, j = face
    cs = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
    k = cs.index(tuple(base))
    cs = cs[k:] + cs[:k]
    out = []
    for t in range(4):
        a, b = cs[t], cs[(t + 1) % 4]
        if (a, b) in patch._axis:
            out.append((patch._axis[(a, b)], 1))
        else:
            out.append((patch._axis[(b, a)], -1))
    return out


def _ref_edge_values(patch, axis):
    if patch.edges[axis].wall:
        return patch.boundary.members
    return np.arange(patch.group.order)


def _ref_wall_star(patch, v):
    marks = {}
    for axis, sign in patch.star(v):
        marks[patch.edges[axis].mark] = (axis, sign)
    return marks["solid"], marks["dotted"], marks[None]


def ref_face(patch, amps, site, h):
    base, face = site
    g = patch.group
    cycle = _ref_face_cycle(patch, face, base)
    acc = None
    for axis, sign in cycle:
        vals = _ref_edge_values(patch, axis)
        vals = vals if sign == 1 else g.inv[vals]
        acc = vals if acc is None else g.mul[acc[..., None], vals]
    axes = [a for a, _ in cycle]
    moved = np.moveaxis(amps.copy(), axes, range(4))
    mask = acc == h
    moved *= mask.reshape(mask.shape + (1,) * (moved.ndim - 4))
    return np.moveaxis(moved, range(4), axes)


def ref_vertex(patch, amps, v, g):
    gt = patch.group
    for axis, sign in patch.star(v):
        idx = np.arange(gt.order)
        source = gt.mul[gt.inv[g], idx] if sign == 1 else gt.mul[idx, g]
        amps = _ref_take(amps, axis, source)
    return amps


def ref_wall_vertex(patch, amps, v, k):
    kg = patch.boundary.as_group
    phi = patch.cocycle.table
    solid, dotted, internal = _ref_wall_star(patch, v)
    for (axis, sign), positive in ((solid, True), (dotted, False)):
        idx = np.arange(kg.order)
        if sign == 1:
            source = kg.mul[kg.inv[k], idx]
            vals = source
        else:
            source = kg.mul[idx, k]
            vals = kg.inv[source]
        phase = phi[k, vals]
        amps = _ref_scale(_ref_take(amps, axis, source), axis, phase if positive else 1 / phase)
    axis, sign = internal
    gt = patch.group
    gk = int(patch.boundary.members[k])
    idx = np.arange(gt.order)
    source = gt.mul[gt.inv[gk], idx] if sign == 1 else gt.mul[idx, gk]
    return _ref_take(amps, axis, source)


def ref_wall_face(patch, amps, v, k):
    (axis, _), _, _ = _ref_wall_star(patch, v)
    mask = np.zeros(patch.boundary.order)
    mask[k] = 1.0
    return _ref_scale(amps, axis, mask)


def ref_ribbon(patch, spec, amps, h, g):
    gt = patch.group
    buckets = {gt.identity: amps}
    for tri in spec.triangles:
        if tri.kind == "direct":
            vals = _ref_edge_values(patch, tri.axis)
            vals = vals if tri.sign == 1 else gt.inv[vals]
            new = {}
            for u, a in buckets.items():
                moved = np.moveaxis(a, tri.axis, 0)
                for z in range(patch.dims[tri.axis]):
                    nu = int(gt.mul[u, vals[z]])
                    if nu not in new:
                        new[nu] = np.zeros_like(a)
                    np.moveaxis(new[nu], tri.axis, 0)[z] = moved[z]
            buckets = new
        elif tri.kind == "dual":
            idx = np.arange(gt.order)
            for u, a in buckets.items():
                m = int(gt.mul[gt.mul[gt.inv[u], h], u])
                source = gt.mul[gt.inv[m], idx] if tri.sign == 1 else gt.mul[idx, m]
                buckets[u] = _ref_take(a, tri.axis, source)
        else:
            kk = int(patch.boundary.position[h])
            kg = patch.boundary.as_group
            idx = np.arange(kg.order)
            phase = patch.cocycle.table[idx, kk]
            for u, a in buckets.items():
                buckets[u] = _ref_scale(_ref_take(a, tri.axis, kg.mul[idx, kk]), tri.axis, phase)
    return buckets.get(g, np.zeros_like(amps))


def _s3_z3():
    g = symmetric(3)
    return g, generated_subgroup(g, [next(x for x in range(6) if g.element_order(x) == 3)])


def _s3_full():
    g = symmetric(3)
    return g, full_subgroup(g)


def _z22_bilinear():
    g = direct_product(cyclic(2), cyclic(2))
    k = full_subgroup(g)
    b = np.array([[(-1.0) ** ((x >> 1) * (y & 1)) for y in range(4)] for x in range(4)],
                 dtype=complex)
    return g, k, bicharacter_cocycle(k, b)


def _equivalence_cases():
    """(label, patch, ribbons) for the patches of the criterion-8 suites."""
    s3 = symmetric(3)
    bulk_s3 = build_patch(s3, 3, 2)
    z2 = cyclic(2)
    bulk_z2 = build_patch(z2, 4, 3)
    g, k = _s3_z3()
    wall_s3 = minimal_boundary_patch(g, k)
    z22, kf, phi = _z22_bilinear()
    wall_z22 = minimal_boundary_patch(z22, kf, phi)
    return [
        ("bulk S3", bulk_s3, [make_ribbon(bulk_s3, ((1, 0), (1, 0)), "fv")]),
        ("bulk Z2", bulk_z2, [make_ribbon(bulk_z2, ((3, 1), (2, 1)), "vfv"),
                              make_ribbon(bulk_z2, ((3, 1), (2, 1)), "fvvfvvf")]),
        ("wall S3 / Z3", wall_s3, [make_ribbon(wall_s3, ((1, 0), None), "wv")]),
        ("wall Z2xZ2 / bilinear", wall_z22, [make_ribbon(wall_z22, ((1, 0), None), "wv")]),
    ]


@pytest.mark.parametrize("case", range(4))
def test_compiled_operators_match_per_axis_kernels(case):
    label, patch, ribbons = _equivalence_cases()[case]
    n = patch.group.order
    psi = random_state(patch, np.random.default_rng(case))
    amps = psi.amplitudes

    def close(new, ref):
        assert new.amplitudes.flags.c_contiguous, label
        assert new.amplitudes.shape == patch.dims
        assert dist(new.amplitudes, ref) <= 1e-14, label

    wall_vs = set(patch.ham_wall_vertices)
    for v in sorted(patch._star):
        if v in wall_vs:
            for k in range(patch.boundary.order):
                close(apply_wall_vertex(patch, psi, v, k), ref_wall_vertex(patch, amps, v, k))
                close(apply_wall_face(patch, psi, v, k), ref_wall_face(patch, amps, v, k))
        elif not any(patch.edges[a].wall for a, _ in patch.star(v)):
            for g in range(n):
                close(apply_vertex(patch, psi, v, g), ref_vertex(patch, amps, v, g))
    for i, j in patch.faces:
        for base in ((i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)):
            for h in range(n):
                close(apply_face(patch, psi, (base, (i, j)), h),
                      ref_face(patch, amps, (base, (i, j)), h))
    fluxes = range(n) if patch.boundary is None else patch.boundary.members
    for spec in ribbons:
        for h in fluxes:
            for g in range(n):
                close(apply_ribbon(patch, spec, psi, int(h), g),
                      ref_ribbon(patch, spec, amps, int(h), g))
    if len(ribbons) == 2:
        # same start, different paths: a cache key without the spec would alias them
        rib, alt = ribbons
        assert rib.start == alt.start
        assert max(dist(apply_ribbon(patch, rib, psi, h, g).amplitudes,
                        apply_ribbon(patch, alt, psi, h, g).amplitudes)
                   for h in range(n) for g in range(n)) > 1e-3
    if patch.boundary is not None:
        gt, sub, phi = patch.group, patch.boundary, patch.cocycle.table
        kg = sub.as_group
        for k in range(sub.order):
            for g in range(n):
                ref = 0
                for l in range(sub.order):
                    lg = sub.members[l]
                    flux = int(gt.mul[gt.mul[lg, sub.members[k]], gt.inv[lg]])
                    charge = int(gt.mul[lg, gt.inv[g]])
                    ref = ref + phi[l, k] * phi[kg.mul[l, k], kg.inv[l]] * ref_ribbon(
                        patch, ribbons[0], amps, flux, charge)
                close(apply_invariant_op(patch, ribbons[0], psi, int(sub.members[k]), g), ref)

    # every compiled array cached on the patch is frozen
    arrays = _cached_arrays(patch)
    assert len(arrays) > len(ribbons)
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.flat[0] = arr.flat[0]


def test_invariant_op_is_one_compiled_gather(monkeypatch):
    # T~^{k,g} = sum_l phi(l,k) phi(lk,l^-1) F^{lkl^-1, lg^-1}: term l keeps the
    # configurations with charge l g^-1, so T~ is one monomial map, compiled once
    # per (spec, k, g) and applied by one gather, with no ribbon term cached
    s3 = symmetric(3)
    patch = minimal_boundary_patch(s3, full_subgroup(s3))
    rib = make_ribbon(patch, ((1, 0), None), "wv")
    psi = random_state(patch, np.random.default_rng(0))
    gathers, gather = [], lattice._gather
    monkeypatch.setattr(lattice, "_gather", lambda *args: gathers.append(args[1]) or gather(*args))
    labels = [(int(k), g) for k in patch.boundary.members for g in range(s3.order)]
    compiled = {(lattice._invariant_op, patch.dims, rib, k, g) for k, g in labels}
    for expected in (compiled, set()):  # the second sweep compiles nothing
        before = set(patch._cache)
        for k, g in labels:
            apply_invariant_op(patch, rib, psi, k, g)
        assert {key for key in set(patch._cache) - before if key[0] != "span"} == expected
    assert len(gathers) == 2 * len(labels)
    assert all(op is patch._cache[(lattice._invariant_op, patch.dims, rib, k, g)]
               for op, (k, g) in zip(gathers, labels * 2))


CHARGE_ROW = "basis carries charge g and flux gkg^-1 at s1"


@pytest.mark.parametrize("wall", [_s3_z3, _s3_full, _z22_bilinear],
                         ids=["S3/Z3", "S3/full", "Z2xZ2 bilinear"])
def test_the_charge_row_is_exact(wall):
    # the ground state is exactly constant on the orbits of A_{s1}, so
    # A_{s1}^m T~^{k,g}|gs> and T~^{k,mg}|gs> read the same amplitudes
    assert dict(wall_relation_report(*wall(), states=1))[CHARGE_ROW] == 0.0


def test_the_charge_row_sees_a_wrong_charge_label(monkeypatch):
    # T~ built with its charge label inverted: A_{s1}^m T~^{k,e} = T~^{k,m} is
    # not T~^{k,m^-1} on the full S3 wall, whose non-central k tell them apart
    # (on S3/Z3 the label only matters through its coset, which inversion keeps)
    patch = _s3_wall("full")[0]
    invariant = lattice._invariant_op
    monkeypatch.setattr(lattice, "_invariant_op", lambda patch, spec, k, g: invariant(
        patch, spec, k, int(patch.group.inv[g])))
    assert dict(wall_relation_report(patch.group, patch.boundary, states=1))[CHARGE_ROW] > 0.1


def test_overlapping_invariant_terms_are_refused(monkeypatch):
    # every term made to keep the charge-e configurations: the terms' masks
    # overlap, an internal bug raised (not asserted, so under python -O too) as
    # ConditionMismatch, and the refused operator is not cached
    s3 = symmetric(3)
    patch = minimal_boundary_patch(s3, full_subgroup(s3))
    rib = make_ribbon(patch, ((1, 0), None), "wv")
    psi = random_state(patch, np.random.default_rng(0))
    apply_invariant_op(patch, rib, psi, 0, 0)  # warm the cache with a valid operator
    before = set(patch._cache)
    ribbon = lattice._ribbon_op
    monkeypatch.setattr(lattice, "_ribbon_op", lambda patch, spec, h, g: ribbon(patch, spec, h, 0))
    with pytest.raises(ConditionMismatch, match="disjoint"):
        apply_invariant_op(patch, rib, psi, 0, 1)
    assert set(patch._cache) == before


def product_state(patch, rng, support=None):
    """Reference draw: per axis in axis order, d real then d imaginary normals,
    normalized, and the state is their product broadcast axis by axis.  With a
    `support`, only its axes enter the product and the others keep one value."""
    nd, ref = len(patch.dims), np.ones([1] * len(patch.dims))
    for axis, d in enumerate(patch.dims):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        if support is None or axis in support:
            ref = ref * (v / np.linalg.norm(v)).reshape([-1 if b == axis else 1 for b in range(nd)])
    return ref


@pytest.mark.parametrize("group, width, height", [(symmetric(3), 3, 2), (cyclic(2), 4, 3)])
def test_random_state_matches_the_complex_sum_formula(group, width, height):
    patch = build_patch(group, width, height)
    for seed in range(3):
        ref = product_state(patch, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        amps = random_state(patch, rng).amplitudes
        assert np.array_equal(amps, ref)
        assert amps.flags.c_contiguous
        # the draw takes exactly 2 * sum(dims) normals from the generator
        assert rng.bit_generator.state == _advanced(seed, 2 * sum(patch.dims))
        assert abs(np.linalg.norm(amps) - 1) < 1e-12


def _advanced(seed, normals):
    rng = np.random.default_rng(seed)
    rng.standard_normal(normals)
    return rng.bit_generator.state


def test_lattice_error_paths_cache_nothing():
    g, k = _s3_z3()
    wall = minimal_boundary_patch(g, k)
    rib = make_ribbon(wall, ((1, 0), None), "wv")
    bulk = build_patch(cyclic(2), 3, 2)
    bulk_rib = make_ribbon(bulk, ((1, 0), (1, 0)), "fv")
    psi = random_state(wall, np.random.default_rng(0))
    chi = random_state(bulk, np.random.default_rng(0))
    apply_wall_vertex(wall, psi, (1, 0), 1)  # warm the caches with valid operators
    apply_ribbon(bulk, bulk_rib, chi, 1, 0)
    before = {id(p): set(p._cache) for p in (wall, bulk)}
    transposition = next(x for x in range(6) if g.element_order(x) == 2)
    with pytest.raises(NotInSubgroup):
        apply_vertex(wall, psi, (1, 0), 1)
    with pytest.raises(NotInSubgroup):
        vertex_projector(wall, psi, (1, 0))
    with pytest.raises(NotInSubgroup):
        apply_ribbon(wall, rib, psi, transposition, 0)
    with pytest.raises(InvalidRibbon):
        apply_invariant_op(bulk, bulk_rib, chi, 0, 0)
    for moves in ("fq", "wv", "ff" * 4, "v"):
        with pytest.raises(InvalidRibbon):
            make_ribbon(bulk, ((1, 0), (1, 0)), moves)
    with pytest.raises(DimensionCap):
        build_patch(symmetric(4), 3, 2)
    assert {id(p): set(p._cache) for p in (wall, bulk)} == before


# --- probe draws ---------------------------------------------------------------------


def test_probes_see_the_draws_in_a_fixed_order():
    # per identity, per state: the 2 * sum(dims) normals of one random_state draw,
    # then its labels, all from the one generator; each draw reads its words
    # once and runs once, on the product of the vectors of the axes its maps
    # declare, here face (1, 0)'s
    patch = build_patch(cyclic(2), 3, 2)
    site = ((1, 0), (1, 0))
    face = [a for a, _ in lattice._face_cycle(patch, (1, 0), (1, 0))]
    dims = [(), (2,), (3, 5)]
    rng, words_read, seen = np.random.default_rng(3), [], []

    def record(i):
        def words(*labels):
            words_read.append((i, labels))

            def probe(psi):
                seen.append((i, labels, psi.amplitudes.tobytes(), rng.bit_generator.state))
                return apply_face(patch, psi, site, 0)
            return [StateMap(face, probe)], [lattice._Op(patch, lattice._face_op, (site, 0))], 1.0
        return words

    records = [(f"p{i}", d, record(i)) for i, d in enumerate(dims)]
    assert lattice._run_probes(patch, rng, 4, records) == [(f"p{i}", 0.0) for i in range(3)]
    rng, ref = np.random.default_rng(3), []
    for i, d in enumerate(dims):
        for _ in range(4):
            amps = product_state(patch, rng, support=face)
            labels = tuple(int(rng.integers(n)) for n in d)
            ref.append((i, labels, amps.tobytes(), rng.bit_generator.state))
    assert seen == ref and words_read == [(i, labels) for i, labels, _, _ in ref]


@pytest.mark.parametrize("run", [
    lambda: bulk_relation_report(cyclic(2), states=3, seed=0),
    lambda: wall_relation_report(*_s3_z3(), states=3, seed=0),
], ids=["bulk Z2", "wall S3 / K = Z3"])
def test_each_probe_draw_is_one_random_state_call(monkeypatch, run):
    # each probe takes from the generator what one random_state call would, and
    # then its labels: replaying the report's generator as random_state + labels
    # per probe gives every probe's labels and the generator's end state; each
    # draw reads its words once and runs its law once; random_state itself runs
    # once, for the disk-state or ground-state tail
    calls, seen, laws, probed = [], [], [], []
    draw, law, run_probes = lattice.random_state, lattice._law, lattice._run_probes

    def counted(patch, rng):
        calls.append(rng)
        return draw(patch, rng)

    def labelled(words):
        def read(*labels):
            seen.append(tuple(labels))
            return words(*labels)
        return read

    def recorded(patch, rng, states, records):
        start = rng.bit_generator.state
        checks = run_probes(patch, rng, states, [(n, d, labelled(w), *adj) for n, d, w, *adj in records])
        probed.append((patch, start, states, [d for _, d, *_ in records], rng.bit_generator.state))
        return checks

    monkeypatch.setattr(lattice, "random_state", counted)
    monkeypatch.setattr(lattice, "_law", lambda *args: laws.append(args) or law(*args))
    monkeypatch.setattr(lattice, "_run_probes", recorded)
    run()
    [(patch, start, states, dims, end)] = probed
    assert len(calls) == 1 and len(seen) == len(laws) == states * len(dims) == 3 * len(dims)
    rng, ref = np.random.default_rng(), []
    rng.bit_generator.state = start
    for d in dims:
        for _ in range(states):
            draw(patch, rng)
            ref.append(tuple(int(rng.integers(n)) for n in d))
    assert seen == ref
    assert rng.bit_generator.state == end


@pytest.mark.parametrize("run", [
    lambda: bulk_relation_report(cyclic(2), states=1, seed=0),
    lambda: bulk_relation_report(symmetric(3), states=1, seed=0),
    lambda: wall_relation_report(*_s3_z3(), states=1, seed=0),
], ids=["bulk Z2", "bulk S3", "wall S3 / K = Z3"])
def test_restricted_residuals_equal_the_full_patch_residuals(monkeypatch, run):
    # psi = psi_S (x) psi_R with |psi_R| = 1, and the operators act on the axes S
    # only: each record's residual on the restriction is its law on the full
    # product state of the same draw, and so is |lhs psi|, which is not near zero
    captured, run_probes = [], lattice._run_probes
    monkeypatch.setattr(lattice, "_run_probes", lambda patch, rng, states, records: captured.append(
        (patch, records)) or [(name, 0.0) for name, *_ in records])
    run()
    [(patch, records)] = captured
    lhs_norms = []
    for seed in range(2):
        for name, dims, words, *adjoint in records:
            lhs_only = lambda *labels, words=words: (words(*labels)[0], [], 0.0)
            for check in ((name, dims, words, *adjoint), (name, dims, lhs_only)):
                [(_, restricted)] = run_probes(patch, np.random.default_rng(seed), 1, [check])
                rng = np.random.default_rng(seed)
                psi = random_state(patch, rng)
                full = lattice._law(psi, *check[2](*[int(rng.integers(d)) for d in dims]), *check[3:])
                assert abs(restricted - full) <= 1e-14, name
            lhs_norms.append(full)
    assert np.median(lhs_norms) > 0.05


def test_coords_refuses_an_axis_the_restriction_collapsed():
    patch = build_patch(symmetric(3), 3, 2)
    sub = lattice._restrict(patch, frozenset({0, 5}))
    assert sub.dims == (6, 1, 1, 1, 1, 6, 1) and sub.edges is patch.edges
    assert sub._cache is patch._cache
    assert [x.shape for x in lattice._coords(sub, [0, 5]).values()] == [
        (6, 1, 1, 1, 1, 1, 1), (1, 1, 1, 1, 1, 6, 1)]
    with pytest.raises(ConditionMismatch, match=r"axes \[1, 6\] outside"):
        lattice._coords(sub, [0, 1, 5, 6])
    # a one-valued wall axis (K trivial) is not collapsed: it has no other value
    z2 = cyclic(2)
    wall = minimal_boundary_patch(z2, trivial_subgroup(z2))
    assert set(lattice._coords(lattice._restrict(wall, frozenset()), [0, 1])) == {0, 1}
    # the restriction shares its patch's compile cache and holds no reference back to it
    parent = weakref.ref(patch)
    del patch
    gc.collect()
    assert parent() is None and sub.size == 36


def test_a_wall_report_leaves_the_callers_arrays_writeable():
    # a restriction is built per probe run and shares the patch's compile cache,
    # so probing freezes no array of the subgroup or the cocycle passed in
    g, k, phi = _z22_bilinear()
    wall_relation_report(g, k, phi, states=1, seed=0)
    assert k.members.flags.writeable and k.position.flags.writeable and phi.table.flags.writeable


def test_operators_act_on_states_of_their_patch_or_its_restrictions():
    z2 = cyclic(2)
    patch, other = build_patch(z2, 3, 2), build_patch(z2, 3, 2)
    star = frozenset(a for a, _ in patch.star((1, 1)))
    sub = lattice._restrict(patch, star)
    psi = random_state(sub, np.random.default_rng(0))
    out = apply_vertex(patch, psi, (1, 1), 1)
    assert out.patch is sub and dist(out.amplitudes, ref_vertex(patch, psi.amplitudes, (1, 1), 1)) == 0
    full = random_state(patch, np.random.default_rng(0))
    assert apply_vertex(patch, full, (1, 1), 1).patch is patch
    # an operator of one patch refuses the state of another, even an equal one
    for state in (random_state(other, np.random.default_rng(0)),
                  random_state(lattice._restrict(other, star), np.random.default_rng(0))):
        with pytest.raises(GroupMismatch):
            apply_vertex(patch, state, (1, 1), 1)
        with pytest.raises(GroupMismatch):
            apply_face(patch, state, ((1, 0), (1, 0)), 0)


@pytest.mark.parametrize("states", [0, -1])
def test_a_report_without_probe_states_is_refused(states):
    # with no probe state no identity is checked, so neither report may come out green
    z2 = cyclic(2)
    for run in (lambda: bulk_relation_report(z2, states=states),
                lambda: wall_relation_report(z2, full_subgroup(z2), states=states)):
        with pytest.raises(ValueError, match="at least one probe state"):
            run()


def test_a_nan_residual_is_reported_not_dropped():
    # the probe state on the empty support is the one amplitude 1, so the
    # residual |c psi| is |c|
    patch = build_patch(cyclic(2), 2, 2)
    factors = iter([0.5, math.nan, 0.25])
    scaled = StateMap([], lambda psi: LatticeState(psi.patch, next(factors) * psi.amplitudes))
    records = [("nan", (), lambda: ([scaled], [], 0.0))]
    [(name, worst)] = lattice._run_probes(patch, np.random.default_rng(0), 3, records)
    assert name == "nan" and math.isnan(worst)


def test_a_failing_check_propagates_after_the_third_call():
    patch = build_patch(cyclic(2), 3, 2)
    calls = []

    def fails_on_the_third(psi):
        calls.append(psi)
        if len(calls) == 3:
            raise ZeroDivisionError("probe failed")
        return psi

    def never(psi):
        raise AssertionError("an identity after the failing one was checked")

    records = [("ok", (), lambda: ([], [], 1.0)),
               ("fails", (2,), lambda label: ([StateMap([], fails_on_the_third)], [], 1.0)),
               ("never", (), lambda: ([StateMap([], never)], [], 1.0))]
    with pytest.raises(ZeroDivisionError, match="probe failed"):
        lattice._run_probes(patch, np.random.default_rng(0), 4, records)
    assert len(calls) == 3


def test_every_public_lattice_function_runs_on_the_calling_thread(monkeypatch):
    # the benchmark's span recorder keeps one span stack, which a second thread would corrupt
    threads = {}

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in list(vars(lattice).items()):
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == lattice.__name__:
            monkeypatch.setattr(lattice, name, recorded(name, fn))
    lattice.bulk_relation_report(symmetric(3), states=1)
    assert {"apply_vertex", "apply_face", "apply_ribbon", "random_state"} <= set(threads)
    assert set().union(*threads.values()) == {threading.get_ident()}
