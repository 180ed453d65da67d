"""Exact state-vector simulator of the quantum double Hamiltonian with boundary.

The state lives on a small planar patch of a square lattice: one tensor axis
per edge, bulk edges carrying the group algebra and wall edges carrying the
algebra of the boundary subgroup.  Every vertex, face, wall and ribbon
operator is monomial: on the few axes it touches it sends a configuration x to
coef[x] * old[source(x)], a permutation times a cocycle phase or a 0/1 mask.
So is the boundary-invariant T~^{k,g}, a phased sum of ribbons whose charge
masks are disjoint.  Each (operator, site, label) is compiled once into one
record (`_Compiled`) that carries the axes it reads and the public function
that runs it, cached on the patch and applied by one kernel.  A gather's offset
is flat within the span of its axes, so it takes whole blocks of the state and
its index has one entry per span configuration, not one per amplitude.  Every
vertex projector, wall included, is one phased orbit sum (`_layout`): A_v^g acts
freely on one edge of the star (a wall's A^k on its solid edge), so A_v
averages each orbit.  Ribbon operators, composed of elementary triangle
actions, provide the independent numeric route to the boundary algebra
character.  State norms and inner products are einsums in one fixed order.

The relation suites probe each identity on seeded random product states,
drawn from one generator in a fixed order (identity by identity, each state
before its labels) on the calling thread.  An identity is a record whose
labels give words lhs and rhs and a scale; `_law` checks lhs = scale rhs, or
with the adjoint flag lhs^+ = rhs / conj(scale).  A word's maps are data that
declare their axes before they run: `_Op` is one operator, whose record gives
its axes and runs it, and `_Sum` a sum of maps over one label, which serves
only the probes' summed words (sum_h B, sum_g F).  The operators are local:
with S the union of those axes and psi = psi_S (x) psi_R,
||(lhs - c rhs) psi|| = ||(lhs - c rhs)_S psi_S|| ||psi_R|| with ||psi_R|| = 1,
so each draw runs once, on the patch restricted to S.  The scale takes no
state operation and lhs runs before rhs, innermost map first, so each residual
keeps the bits of one fixed sequence of apply_* calls.  The disk-state and
ground-state statements and the boundary character stay on the full patch: every
Gram and vacuum row by charge sector (`_gram`), the character by one orbit
layout of each basis state.
The identities both suites state are written once, in `_shared_identities`:
the bulk suite is the wall suite with K = G and phi = 1.

Geometry conventions.  Vertices sit at integer points (i, j); bulk horizontal
edges point right, vertical edges point up, and wall edges (the j = 0 row of a
boundary patch) point left.  Face (i, j) is the unit square with lower-left
corner (i, j); its cycle is traversed counterclockwise.  A site is a pair
(vertex, face) with the vertex on the face's corner, or (vertex, None) for a
wall site whose face is the outer region.  Every ribbon move consumes the
counterclockwise-last edge of the current site's cycle: a "v" move walks it to
the neighbouring vertex, an "f" move crosses it into the neighbouring face,
and a leading "w" move on a wall site crosses the site's solid wall edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import prod
from typing import NamedTuple

import numpy as np

from .characters import ClassFunction
from .cocycles import TwoCocycle, normalize, trivial_cocycle
from .errors import (
    TOL,
    ConditionMismatch,
    DimensionCap,
    GroupMismatch,
    InvalidRibbon,
    NotInSubgroup,
    SubgroupMismatch,
    ZeroProjection,
    _blocks,
    _cached,
    _check,
)
from .groups import GroupTable, Subgroup, cosets
from .quantum_double import pair_orbits

AMPLITUDE_CAP = 2**22


@dataclass(frozen=True)
class Edge:
    tail: tuple[int, int]
    head: tuple[int, int]
    wall: bool = False
    mark: str | None = None  # "solid" / "dotted" on wall edges


@dataclass(frozen=True, eq=False)
class LatticePatch:
    group: GroupTable
    boundary: Subgroup | None
    cocycle: TwoCocycle | None
    edges: tuple[Edge, ...]
    dims: tuple[int, ...]
    faces: tuple[tuple[int, int], ...]
    ham_vertices: tuple[tuple[int, int], ...]
    ham_wall_vertices: tuple[tuple[int, int], ...]
    _axis: dict = field(repr=False)
    _star: dict = field(repr=False)
    _cache: dict = field(repr=False, default_factory=dict)

    @property
    def size(self) -> int:
        return int(np.prod(self.dims))

    def star(self, v) -> list[tuple[int, int]]:
        """Incident edges as (axis, +1 out of v / -1 into v)."""
        return self._star[tuple(v)]


@dataclass(eq=False)
class LatticeState:
    patch: LatticePatch
    amplitudes: np.ndarray

    def norm(self) -> float:
        return _norm(self.amplitudes)


def _norm(x: np.ndarray) -> float:
    """||x||, one einsum over the float64 view: one summation order at any BLAS thread count."""
    r = x.reshape(-1).view(np.float64)
    return float(np.sqrt(np.einsum("i,i->", r, r)))


def inner(a: LatticeState, b: LatticeState) -> complex:
    if a.patch is not b.patch:
        raise GroupMismatch("states live on different patches")
    return complex(np.einsum("i,i->", np.conj(a.amplitudes.reshape(-1)), b.amplitudes.reshape(-1)))


def _assemble(g, boundary, cocycle, edges) -> LatticePatch:
    if boundary is not None:
        if boundary.parent is not g:
            raise SubgroupMismatch("boundary subgroup must live in the bulk group")
        if cocycle is None:
            cocycle = trivial_cocycle(boundary)
        if not np.array_equal(cocycle.subgroup.members, boundary.members):
            raise SubgroupMismatch("cocycle is not defined on the boundary subgroup")
        # The boundary operators assume the gauge with phi(k, k^-1) = 1 and
        # phi(k^-1, l^-1) = phi(l, k)^-1; boundary observables only depend on
        # the cocycle class, so swap in the equivalent normalized table.
        cocycle = normalize(cocycle)[0]
    dims = tuple(boundary.order if e.wall else g.order for e in edges)
    if prod(dims) > AMPLITUDE_CAP:
        raise DimensionCap(f"state would need {prod(dims)} > {AMPLITUDE_CAP} amplitudes")
    axis = {(e.tail, e.head): i for i, e in enumerate(edges)}
    star: dict = {}
    for i, e in enumerate(edges):
        star.setdefault(e.tail, []).append((i, 1))
        star.setdefault(e.head, []).append((i, -1))
    corners = lambda i, j: [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
    linked = lambda cs: all((a, b) in axis or (b, a) in axis for a, b in zip(cs, cs[1:] + cs[:1]))
    vertices = sorted(star)
    faces = tuple(v for v in vertices if linked(corners(*v)))
    ham_vertices = tuple(v for v in vertices if len(star[v]) == 4)
    wall_vs = tuple(v for v in vertices if boundary is not None and len(star[v]) == 3
                    and sum(edges[a].wall for a, _ in star[v]) == 2)
    return LatticePatch(g, boundary, cocycle, tuple(edges), dims, faces, ham_vertices, wall_vs, axis, star)


def build_patch(g: GroupTable, width: int, height: int, boundary: Subgroup | None = None,
                cocycle: TwoCocycle | None = None) -> LatticePatch:
    """Rectangular patch with width x height vertices.

    With a boundary the bottom row is the wall: those horizontal edges carry
    the subgroup algebra, point left, and alternate solid/dotted marks (edge
    (i,0)-(i+1,0) is solid for odd i, so a wall vertex at odd i has its solid
    edge on the right).  Only complete stars and plaquettes become Hamiltonian
    terms; rim edges are left unconstrained."""
    if width < 2 or height < 2:
        raise DimensionCap("patch needs at least 2x2 vertices")
    edges = []
    for j in range(height):
        for i in range(width - 1):
            if boundary is not None and j == 0:
                mark = "solid" if i % 2 == 1 else "dotted"
                edges.append(Edge((i + 1, 0), (i, 0), wall=True, mark=mark))
            else:
                edges.append(Edge((i, j), (i + 1, j)))
    for j in range(height - 1):
        for i in range(width):
            edges.append(Edge((i, j), (i, j + 1)))
    return _assemble(g, boundary, cocycle, edges)


def minimal_boundary_patch(
    g: GroupTable, boundary: Subgroup, cocycle: TwoCocycle | None = None
) -> LatticePatch:
    """Seven-edge patch: the smallest geometry whose Hamiltonian contains a
    complete wall site, a complete interior star and a complete plaquette.

    The wall site sits at (1,0) (dotted edge left, solid edge right), the
    interior site at vertex (1,1) with face (1,0); the canonical ribbon between
    them is make_ribbon(patch, ((1,0), None), "wv")."""
    edges = [
        Edge((1, 0), (0, 0), wall=True, mark="dotted"),
        Edge((2, 0), (1, 0), wall=True, mark="solid"),
        Edge((1, 0), (1, 1)),
        Edge((2, 0), (2, 1)),
        Edge((1, 1), (2, 1)),
        Edge((0, 1), (1, 1)),
        Edge((1, 1), (1, 2)),
    ]
    return _assemble(g, boundary, cocycle, edges)


def random_state(patch: LatticePatch, rng: np.random.Generator) -> LatticeState:
    """A random product state: per axis in axis order, d real then d imaginary
    standard normals from rng, normalized, and their tensor product.

    E[psi psi^+] = I / size, the second moment of a complex Gaussian state,
    and product states span the space, so an identity that fails on some
    state fails on almost every draw."""
    return _product(patch, [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in patch.dims])


def _product(patch: LatticePatch, vs) -> LatticeState:
    """The tensor product of the normalized vectors vs, one per axis (None: collapsed, 1), by a left fold."""
    head = np.ones(())
    for v in (v for v in vs if v is not None):
        head = np.multiply.outer(head, v / np.linalg.norm(v))
    return LatticeState(patch, head.astype(np.complex128, copy=False).reshape(patch.dims))


def _restrict(patch: LatticePatch, support: frozenset) -> LatticePatch:
    """The patch with every axis outside `support` collapsed to one value, sharing the
    patch's edges and compile cache but holding no reference to the patch."""
    return replace(patch, dims=tuple(d if a in support else 1 for a, d in enumerate(patch.dims)))


# --- local operators ---------------------------------------------------------


def _coords(patch: LatticePatch, axes) -> dict[int, np.ndarray]:
    """Open grid of the local configurations on `axes`: per axis its values,
    shaped to broadcast against the state.  An axis a restriction collapsed lies
    outside the support its probe declared, an internal bug, so it is refused."""
    collapsed = sorted(a for a in axes if patch.dims[a] < len(_edge_values(patch, a)))
    if collapsed:
        raise ConditionMismatch(f"an operator reads axes {collapsed} outside its probe's declared support")
    nd = len(patch.dims)
    return {a: np.arange(patch.dims[a]).reshape([-1 if b == a else 1 for b in range(nd)])
            for a in axes}


class _Compiled(NamedTuple):
    """What every operator builder returns: the `axes` it reads, run(patch, state, *key) applying
    build(patch, *key) by its public function, and a gather (shift), mask (coef) or orbit sum (src)."""
    axes: tuple
    run: object
    first: int
    last: int
    shift: np.ndarray | None = None
    coef: np.ndarray | None = None
    src: np.ndarray | None = None
    owner: np.ndarray | None = None
    back: np.ndarray | None = None


def _compile(patch: LatticePatch, run, x, source=None, coef=None) -> _Compiled:
    """Compiled operator new[x] = coef[x] * old[source(x)] on the axes of the grid `x`.

    `source` maps each moved axis to its source values on `x`; shift is the flat offset of
    source(x) from x within the span first..last of x's axes, varying on the moved axes
    only (None: nothing moves), and coef the broadcast coefficient (None: all ones)."""
    first, last, shift = min(x), max(x), None
    if source is not None:
        span = patch.dims[first:last + 1]
        stride = np.cumprod((1,) + span[:0:-1])[::-1]
        shift = sum(((source[a] - x[a]) * int(stride[a - first]) for a in source),
                    np.zeros((1,) * len(patch.dims), dtype=np.int64))  # no moved axis: shift 0
        shift = shift.reshape(shift.shape[first:last + 1])
    if coef is not None:
        coef = np.array(coef, dtype=np.complex128)
    return _Compiled(tuple(x), run, first, last, shift, coef)


def _op(patch: LatticePatch, build, *key):
    """build(patch, *key), compiled on first use and cached on the patch, per dims."""
    return _cached(patch._cache, (build, patch.dims, *key), build, patch, *key)


def _gather(patch: LatticePatch, op, amps: np.ndarray, pos=None, at=None) -> np.ndarray:
    """The one gather kernel: coef * amps[source] for a compiled gather `op`.

    `amps` runs over axes 0..last, then one trailing extent of any size (the
    rest of the state, or a slice of it); so does the result.  Blocks
    (lead, span, trailing) are taken along the span at its positions plus the
    shift, one arange per span cached on the patch: no state-sized index.
    With `pos`, flat positions within the span, only those are made, under
    every lead value: the result is (lead, len(pos), trailing), read through
    `at`, pos's index into each broadcast shape (`_at`), which callers share."""
    first, last, shift, coef = op.first, op.last, op.shift, op.coef
    dims = patch.dims[first:last + 1]
    span = _cached(patch._cache, ("span", dims), lambda: np.arange(prod(dims)).reshape(dims))
    blocks = amps.reshape(prod(patch.dims[:first]), span.size, -1)
    if pos is not None:
        at = {} if at is None else at
        new = np.take(blocks, pos + _at(shift, dims, pos, at), axis=1)
        return np.multiply(new, _at(coef.reshape(coef.shape[first:last + 1]), dims, pos, at)[:, None], out=new)
    new = np.take(blocks, (span + shift).reshape(-1), axis=1)
    new = new.reshape(*patch.dims[:last + 1], -1)
    if coef is not None:
        new *= coef.reshape(*coef.shape[:last + 1], 1)  # coef lives on the span
    return new


def _at(a: np.ndarray, dims, pos: np.ndarray, at: dict) -> np.ndarray:
    """a, broadcast over the span `dims`, at its flat positions pos: read by a's own index, kept in `at`."""
    if a.shape not in at:
        index = np.zeros_like(pos)
        for stride, d in zip(np.cumprod((1,) + dims[:0:-1])[::-1], a.shape):
            index = index * d + pos // stride % d  # a unit axis adds 0
        at[a.shape] = index
    return a.reshape(-1)[at[a.shape]]


def _apply(patch: LatticePatch, state: LatticeState, build, *key) -> LatticeState:
    """The one entry behind every operator and projector, compiled on the state's patch,
    `patch` or a restriction of it: a mask is one broadcast multiply, a gather one
    `_gather`, and an orbit sum adds the phased columns in label order (`_layout`)."""
    if state.patch.edges is not patch.edges:
        raise GroupMismatch("the state lives on another patch")
    patch = state.patch
    op = _op(patch, build, *key)
    if op.src is not None:
        blocks = state.amplitudes.reshape(prod(patch.dims[:op.first]), prod(patch.dims[op.first:op.last + 1]), -1)
        terms = (np.take(blocks, s, axis=1) for s in op.src)
        if op.coef is not None:
            terms = map(np.multiply, op.coef[:, :, None], terms)
        new = np.take(sum(terms, next(terms)) / len(op.src), op.owner, axis=1)
        if op.back is not None:
            new *= op.back[:, None]
        return LatticeState(patch, new.reshape(patch.dims))
    if op.shift is None:
        return LatticeState(patch, state.amplitudes * op.coef)
    return LatticeState(patch, _gather(patch, op, state.amplitudes).reshape(patch.dims))


class _Op(NamedTuple):
    """The state map of the operator build(patch, *key), as data: its compiled record
    on the patch declares the axes it reads before it runs, and runs it."""
    patch: LatticePatch
    build: object
    key: tuple

    @property
    def axes(self) -> tuple:
        return _op(self.patch, self.build, *self.key).axes

    def __call__(self, state: LatticeState) -> LatticeState:
        return _op(self.patch, self.build, *self.key).run(self.patch, state, *self.key)


class _Sum(NamedTuple):
    """The state map sum_i map_i of its maps, summed in order."""
    maps: tuple

    @property
    def axes(self) -> frozenset:
        return frozenset().union(*(m.axes for m in self.maps))

    def __call__(self, state: LatticeState) -> LatticeState:
        acc = np.zeros_like(state.amplitudes)
        for m in self.maps:
            acc += m(state).amplitudes  # one map's output alive at a time
        return LatticeState(state.patch, acc)


def _face_cycle(patch: LatticePatch, face, base) -> list[tuple[int, int]]:
    """Edges of the face as (axis, +-1 traversal sign), counterclockwise from base."""
    i, j = face
    cs = [(i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)]
    if tuple(base) not in cs:
        raise InvalidRibbon(f"vertex {base} is not a corner of face {face}")
    k = cs.index(tuple(base))
    cs = cs[k:] + cs[:k]
    return [(patch._axis[(a, b)], 1) if (a, b) in patch._axis else (patch._axis[(b, a)], -1)
            for a, b in zip(cs, cs[1:] + cs[:1])]


def _edge_values(patch: LatticePatch, axis: int) -> np.ndarray:
    """Axis values as bulk group elements (wall axes map through the subgroup)."""
    return patch.boundary.members if patch.edges[axis].wall else np.arange(patch.group.order)


def _act(gt: GroupTable, g, x, sign: int):
    """Source values of the left action by g on an edge: new[z] = old[g^-1 z]
    when the edge leaves the acting vertex, old[z g] when it enters."""
    return gt.mul[gt.inv[g], x] if sign == 1 else gt.mul[x, g]


def _holonomy(patch: LatticePatch, site):
    """The site's face holonomy, based at its vertex, on an open grid over the cycle's axes."""
    gt = patch.group
    cycle = _face_cycle(patch, site[1], site[0])
    x = _coords(patch, [a for a, _ in cycle])
    hol = gt.identity
    for axis, sign in cycle:
        vals = _edge_values(patch, axis)[x[axis]]
        hol = gt.mul[hol, vals if sign == 1 else gt.inv[vals]]
    return hol


def _face_op(patch: LatticePatch, site, h: int):
    x = _coords(patch, [a for a, _ in _face_cycle(patch, site[1], site[0])])
    return _compile(patch, lambda *a: apply_face(*a), x, coef=_op(patch, _holonomy, site) == h)


def apply_face(patch: LatticePatch, state: LatticeState, site, h: int) -> LatticeState:
    """B_s^h: keep configurations whose face holonomy, based at the site's
    vertex, equals h."""
    base, face = site
    return _apply(patch, state, _face_op, (tuple(base), tuple(face)), int(h))


def face_projector(patch: LatticePatch, state: LatticeState, face) -> LatticeState:
    return apply_face(patch, state, ((face[0], face[1]), face), patch.group.identity)


def _vertex_op(patch: LatticePatch, v, g: int, fixed=()):
    star = patch.star(v)
    if any(patch.edges[a].wall for a, _ in star):
        raise NotInSubgroup("use apply_wall_vertex at wall vertices")
    x = _coords(patch, [a for a, _ in star] + list(fixed))  # the span also covers the unmoved axes `fixed`
    return _compile(patch, lambda *a: apply_vertex(*a), x, {a: _act(patch.group, g, x[a], sign) for a, sign in star})


def apply_vertex(patch: LatticePatch, state: LatticeState, v, g: int) -> LatticeState:
    """A_v^g: left-multiply outgoing edges, right-divide incoming ones.

    Only bulk vertices; wall vertices use apply_wall_vertex."""
    return _apply(patch, state, _vertex_op, tuple(v), int(g))


def _layout(patch: LatticePatch, a0: int, order: int, label_op, run) -> _Compiled:
    """P = sum_t A^t / order, A^t = label_op(t) for a group acting freely on axis a0, as an
    orbit sum: at the representatives r, x_{a0} = e, (P psi)[r] = sum_t c_t(r) psi[src_t(r)] /
    order, src[t] the int32 span positions and coef[t] the phases (None: all 1).  The A^t
    form a representation, so A^s P = P: x = src_s(r) in column owner[x] reads (P psi)[r]
    back[x], back = 1 / c_s(r).  Each label is compiled in turn and read at the r alone."""
    src, phase = [], []
    for t in range(order):
        op = label_op(t)
        dims = patch.dims[op.first:op.last + 1]
        if t == 0:  # label 0 is the identity: its sources are the representatives
            pos, at = np.take(np.arange(prod(dims)).reshape(dims), 0, axis=a0 - op.first).reshape(-1), {}
        src.append(pos + _at(op.shift, dims, pos, at))
        if op.coef is not None:
            phase.append(_at(op.coef.reshape(op.coef.shape[op.first:op.last + 1]), dims, pos, at))
    src, coef, back = np.stack(src).astype(np.int32), None, None
    owner = np.empty(prod(dims), dtype=np.int32)
    owner[src] = np.arange(pos.size)
    if phase:
        coef, back = np.stack(phase), np.empty(prod(dims), dtype=np.complex128)
        back[src] = 1 / coef
    return _Compiled(op.axes, run, op.first, op.last, coef=coef, src=src, owner=owner, back=back)


def _orbit(patch: LatticePatch, v, face=None) -> _Compiled:
    """A_v's orbit sum: A_v^t acts freely on the star's first edge; with a face the span covers its cycle too."""
    cycle = () if face is None else tuple(a for a, _ in _face_cycle(patch, face, v))
    return _layout(patch, patch.star(v)[0][0], patch.group.order, lambda t: _vertex_op(patch, v, t, cycle),
                   lambda p, s, v, face=None: vertex_projector(p, s, v))


def _by_holonomy(patch: LatticePatch, v, face):
    """v's orbit layout over the face's cycle as (state shape (lead, span, trailing), src, ends, conj):
    the r run by their holonomy k at (v, face), class k ending at ends[k], hol(src_t(r)) = conj[t, k], checked."""
    op, n = _op(patch, _orbit, v, face), patch.group.order
    dims = patch.dims[op.first:op.last + 1]
    hol = _op(patch, _holonomy, (tuple(v), tuple(face)))
    hol = _at(hol.reshape(hol.shape[op.first:op.last + 1]), dims, op.src, {})  # at each source
    order = np.argsort(hol[0], kind="stable")
    src, hol = op.src[:, order], hol[:, order]
    conj = np.zeros((n, n), dtype=np.int64)
    conj[:, hol[0]] = hol
    _check("A_v^t must conjugate the holonomy at its site", np.count_nonzero(conj[:, hol[0]] != hol), 0)
    return (prod(patch.dims[:op.first]), prod(dims), -1), src, np.cumsum(np.bincount(hol[0], minlength=n)), conj


def vertex_projector(patch: LatticePatch, state: LatticeState, v) -> LatticeState:
    """A_v = sum_g A_v^g / |G| at a bulk vertex as one orbit sum (`_orbit`), exactly constant on orbits."""
    return _apply(patch, state, _orbit, tuple(v))


def _wall_star(patch: LatticePatch, v):
    """The wall site's solid, dotted and internal edges as (axis, sign)."""
    marks = {patch.edges[axis].mark: (axis, sign) for axis, sign in patch.star(v)}
    if set(marks) != {"solid", "dotted", None}:
        raise InvalidRibbon(f"vertex {v} is not a complete wall site")
    return marks["solid"], marks["dotted"], marks[None]


def _wall_vertex_op(patch: LatticePatch, v, k: int):
    kg = patch.boundary.as_group
    solid, dotted, (axis, sign) = _wall_star(patch, v)
    x = _coords(patch, [solid[0], dotted[0], axis])
    src = {axis: _act(patch.group, int(patch.boundary.members[k]), x[axis], sign)}
    coef = 1.0
    for (a, s), positive in ((solid, True), (dotted, False)):
        src[a] = _act(kg, k, x[a], s)
        # the phase reads the pre-action value; incoming edges read it inverted
        phase = patch.cocycle.table[k, src[a] if s == 1 else kg.inv[src[a]]]
        coef = coef * (phase if positive else 1 / phase)
    return _compile(patch, lambda *a: apply_wall_vertex(*a), x, src, coef)


def _wall_orbit(patch: LatticePatch, v) -> _Compiled:
    """The wall projector's orbit sum: A^k acts freely on the solid edge, with its cocycle phase."""
    return _layout(patch, _wall_star(patch, v)[0][0], patch.boundary.order, lambda k: _wall_vertex_op(patch, v, k),
                   lambda p, s, v: _apply(p, s, _wall_orbit, v))


def apply_wall_vertex(patch: LatticePatch, state: LatticeState, v, k: int) -> LatticeState:
    """Boundary vertex operator: the subgroup action on all three edges with
    the cocycle phase attached positively on the solid edge and negatively on
    the dotted one (incoming edges read their value inverted)."""
    return _apply(patch, state, _wall_vertex_op, tuple(v), int(k))


def _wall_face_op(patch: LatticePatch, v, k: int):
    (axis, _), _, _ = _wall_star(patch, v)
    x = _coords(patch, [axis])
    return _compile(patch, lambda *a: apply_wall_face(*a), x, coef=x[axis] == k)


def apply_wall_face(patch: LatticePatch, state: LatticeState, v, k: int) -> LatticeState:
    """B_s^k at a wall site: keep configurations whose solid edge reads k."""
    return _apply(patch, state, _wall_face_op, tuple(v), int(k))


def hamiltonian_terms(patch: LatticePatch):
    """Commuting projectors of the truncated Hamiltonian as (kind, site, map), each
    map one operator as data (`_Op`)."""
    return ([("vertex", v, _Op(patch, _orbit, (v,))) for v in patch.ham_vertices]
            + [("face", f, _Op(patch, _face_op, ((f, f), patch.group.identity))) for f in patch.faces]
            + [("wall", v, _Op(patch, _wall_orbit, (v,))) for v in patch.ham_wall_vertices])


def _project_pass(patch: LatticePatch, rng, terms) -> LatticeState:
    """One random state through every projector, normalized.  The projectors
    commute, so their product P is the projector onto the joint +1 space.
    Product states span the space, so when that space is not empty P is
    nonzero on almost every product state, and a state projecting to zero
    means the space is empty: a second draw would fail as well."""
    state = random_state(patch, rng)
    for proj in terms:
        state = proj(state)
    n = state.norm()
    _check("random state projected to numerical zero", TOL["nonzero"] - n, 0.0, ZeroProjection)
    state.amplitudes /= n
    return state


def ground_state(patch: LatticePatch, seed: int = 0) -> LatticeState:
    """One pass of the commuting projectors over a seeded random state."""
    return _project_pass(patch, np.random.default_rng(seed), [t[2] for t in hamiltonian_terms(patch)])


def disk_state(patch: LatticePatch, seed: int = 0) -> LatticeState:
    """Reference state projected by every face and every vertex, rim included.

    Partial rim stars still carry a group action, so their averages are valid
    commuting projectors even though the truncated Hamiltonian omits them.
    The extra constraints pin the state of a bulk patch down to the unique
    closed-string superposition, which makes this the right state for
    deformation (path independence) and seed-independence checks."""
    projs = [_Op(patch, _face_op, ((f, f), patch.group.identity)) for f in patch.faces]
    projs += [_Op(patch, _wall_orbit if v in patch.ham_wall_vertices else _orbit, (v,)) for v in sorted(patch._star)
              if v in patch.ham_wall_vertices or not any(patch.edges[a].wall for a, _ in patch.star(v))]
    return _project_pass(patch, np.random.default_rng(seed), projs)


# --- ribbons -------------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    kind: str  # "direct" | "dual" | "wall"
    axis: int
    sign: int  # direct: +1 walk along edge direction; dual: +1 edge leaves the vertex


@dataclass(frozen=True)
class RibbonSpec:
    sites: tuple  # visited (vertex, face-or-None) pairs, length = len(triangles)+1
    triangles: tuple[Triangle, ...]

    @property
    def start(self):
        return self.sites[0]

    @property
    def end(self):
        return self.sites[-1]


def _other_face(patch: LatticePatch, axis: int, face) -> tuple[int, int] | None:
    e = patch.edges[axis]
    (x1, y1), (x2, y2) = e.tail, e.head
    if y1 == y2:  # horizontal edge: faces above and below
        i = min(x1, x2)
        options = [(i, y1), (i, y1 - 1)]
    else:  # vertical edge: faces right and left
        j = min(y1, y2)
        options = [(x1, j), (x1 - 1, j)]
    options = [f for f in options if f != tuple(face)]
    return options[0] if options and options[0] in patch.faces else None


def make_ribbon(patch: LatticePatch, start, moves: str) -> RibbonSpec:
    """Build a ribbon from a site and a move string ("w" wall crossing, "v"
    vertex walk, "f" face crossing).  Each move consumes the
    counterclockwise-last edge of the current site; edges are never reused."""
    v, f = tuple(start[0]), start[1]
    sites = [(v, f)]
    triangles: list[Triangle] = []
    used: set[int] = set()
    for pos, mv in enumerate(moves):
        if mv == "w":
            if pos != 0 or f is not None:
                raise InvalidRibbon("wall crossing is only allowed as the first move")
            (axis, sign), _, _ = _wall_star(patch, v)
            if sign != -1:
                raise InvalidRibbon("the site's solid edge must point into the wall vertex")
            new_f = _other_face(patch, axis, (None, None))
            if new_f is None:
                raise InvalidRibbon("no face above the solid edge")
            triangles.append(Triangle("wall", axis, -1))
            f = new_f
        elif mv in ("v", "f"):
            if f is None:
                raise InvalidRibbon("ribbon at a wall site must start with 'w'")
            axis, _ = _face_cycle(patch, f, v)[-1]
            e = patch.edges[axis]
            triangles.append(Triangle("direct" if mv == "v" else "dual", axis, 1 if e.tail == v else -1))
            if mv == "v":
                v = e.head if e.tail == v else e.tail
            else:
                new_f = _other_face(patch, axis, f)
                if new_f is None:
                    raise InvalidRibbon(f"no face across edge {axis} from {f}")
                f = new_f
        else:
            raise InvalidRibbon(f"unknown move {mv!r}")
        if axis in used:
            raise InvalidRibbon("ribbon would reuse an edge")
        used.add(axis)
        sites.append((v, f))
    if len(triangles) < 2:
        raise InvalidRibbon("ribbon needs at least two triangles")
    if sites[0] == sites[-1]:
        raise InvalidRibbon("ribbon endpoints must differ")
    return RibbonSpec(tuple(sites), tuple(triangles))


def _ribbon_op(patch: LatticePatch, spec: RibbonSpec, h: int, g: int):
    gt = patch.group
    x = _coords(patch, [t.axis for t in spec.triangles])
    u, src, coef = gt.identity, {}, 1.0
    for tri in spec.triangles:
        a = tri.axis
        if tri.kind == "direct":
            vals = _edge_values(patch, a)[x[a]]
            u = gt.mul[u, vals if tri.sign == 1 else gt.inv[vals]]
        elif tri.kind == "dual":
            src[a] = _act(gt, gt.mul[gt.mul[gt.inv[u], h], u], x[a], tri.sign)
        else:
            if patch.boundary is None:
                raise InvalidRibbon("wall ribbon on a patch without boundary")
            kk = int(patch.boundary.position[h])
            if kk < 0:
                raise NotInSubgroup(f"flux {h} is outside the boundary subgroup")
            src[a] = patch.boundary.as_group.mul[x[a], kk]
            coef = patch.cocycle.table[x[a], kk]
    return _compile(patch, lambda p, s, r, *labels: apply_ribbon(p, r, s, *labels), x, src, coef * (u == g))


def apply_ribbon(patch: LatticePatch, spec: RibbonSpec, state: LatticeState, h: int, g: int) -> LatticeState:
    """Ribbon operator with flux h and charge label g, one monomial map on the
    ribbon's edges.

    Along the triangles, u is the prefix product of the walked (direct) edge
    values.  A dual triangle multiplies its crossed edge at the vertex end by
    the conjugated flux u^-1 h u; the wall triangle right-divides the solid
    edge by h and carries its cocycle phase.  Configurations with final
    u != g are projected out."""
    return _apply(patch, state, _ribbon_op, spec, int(h), int(g))


def _invariant_op(patch: LatticePatch, spec: RibbonSpec, k: int, g: int):
    """T~^{k,g} as one gather: term l keeps the configurations with final charge
    u = l g^-1, so each configuration takes shift and weight * coef from the one
    term that keeps it; two terms keeping one configuration is an internal bug."""
    if spec.triangles[0].kind != "wall":
        raise InvalidRibbon("invariant operators need a ribbon starting at the wall")
    sub, gt, phi = patch.boundary, patch.group, patch.cocycle.table
    kk = int(sub.position[k])
    if kk < 0:
        raise NotInSubgroup(f"label {k} is outside the boundary subgroup")
    kg, shift, coef, hits = sub.as_group, 0, 0, 0
    for l in range(sub.order):
        lg = int(sub.members[l])
        flux = int(gt.mul[gt.mul[lg, k], gt.inv[lg]])
        term = _ribbon_op(patch, spec, flux, int(gt.mul[lg, gt.inv[g]]))
        hit = (term.coef != 0).reshape(term.coef.shape[term.first:term.last + 1])  # coef lives on the span
        hits, shift = hits + hit, np.where(hit, term.shift, shift)
        coef = coef + phi[l, kk] * phi[kg.mul[l, kk], kg.inv[l]] * term.coef
    _check("T~ ribbon terms must keep disjoint configurations", int(np.max(hits)) - 1, 0)
    return term._replace(run=lambda p, s, r, *labels: apply_invariant_op(p, r, s, *labels), shift=shift, coef=coef)


def apply_invariant_op(patch: LatticePatch, spec: RibbonSpec, state: LatticeState, k: int,
                       g: int) -> LatticeState:
    """Boundary-invariant ribbon combination for k in the wall subgroup:
    the phased sum over conjugations sum_l phi(l,k) phi(lk,l^-1) F^{lkl^-1, l g^-1}.
    Each term's charge mask u = l g^-1 is disjoint from the others, so the sum
    is itself monomial: one compiled gather (`_invariant_op`)."""
    return _apply(patch, state, _invariant_op, spec, int(k), int(g))


def lattice_boundary_character(patch: LatticePatch, spec: RibbonSpec, seed: int = 0) -> ClassFunction:
    """Boundary algebra character extracted numerically from the lattice, directly
    comparable to the algebraic one.

    The invariant ribbon operators on the ground state span the excitation space,
    and chi(g h*) = sum_b <b|A^g B^h b> at the ribbon's end site is read from one
    orbit layout U of each basis state b (`_orbit`): A^{g^-1} takes column t to
    t g^-1, so <b|A^g B^h b> sums M_k[t g^-1, t] over the (k, t) with conj[t, k] = h,
    M_k = conj(U_k) U_k^T the Gram of the representatives of holonomy k."""
    if patch.boundary is None:
        raise SubgroupMismatch("character extraction needs a boundary patch")
    v1, f1 = spec.end
    if v1 not in patch.ham_vertices or f1 not in patch.faces:
        raise InvalidRibbon("ribbon must end at a complete interior site")
    gt, sub, n, reps = patch.group, patch.boundary, patch.group.order, cosets(patch.group, patch.boundary)
    shape, src, ends, conj = _by_holonomy(patch, v1, f1)
    g, t = np.arange(n)[:, None], np.arange(n)[None, :]
    psi = ground_state(patch, seed=seed)
    values = np.zeros((n, n), dtype=np.complex128)
    # one basis state at a time; each entry still sums over the basis in order
    for k in range(sub.order):
        for gi in reps:
            b = apply_invariant_op(patch, spec, psi, int(sub.members[k]), int(gi)).amplitudes.reshape(shape)
            for c, (lo, hi) in enumerate(zip([0, *ends[:-1]], ends)):  # holonomy class c
                u = np.take(b, src[:, lo:hi], axis=1).swapaxes(0, 1).reshape(n, -1)
                np.add.at(values, (g, conj[t, c]), (np.conj(u) @ u.T)[gt.mul[t, gt.inv[g]], t])
            del b, u  # freed before the next basis state is made
    return ClassFunction.from_dense(gt, len(reps) * values, pair_orbits(gt))


# --- relation suite -----------------------------------------------------------------

def _dist(a: LatticeState, b: LatticeState, scale: complex = 1.0) -> float:
    """||a - scale b||, with at most one temporary of the state's size."""
    if scale == 0:
        return _norm(a.amplitudes)
    if scale == 1:
        return _norm(a.amplitudes - b.amplitudes)
    t = scale * b.amplitudes
    return _norm(np.subtract(a.amplitudes, t, out=t))


def _gram(patch: LatticePatch, state: LatticeState, spec: RibbonSpec, ops, vacuum: bool = False) -> np.ndarray:
    """gram[0, j] = <state|op_j state> and gram[1 + i, j] = <op_i state|op_j state>
    for compiled gathers `ops` on the ribbon `spec`; with `vacuum`, row 0 alone.

    The charge sectors of `spec`, the span positions where F^{e,c} is nonzero,
    partition the span, so the Gram is a sum of one block per sector: state and
    the ops nonzero there, gathered at its positions under every lead value and
    trailing slice, conj(buf[rows]) @ buf[1:].T over column blocks added with
    Neumaier's compensation so the rounding does not grow with the block count.
    Ops nonzero in no common sector meet in an exact zero."""
    first, last = ops[0].first, ops[0].last
    dims = patch.dims[first:last + 1]
    nonzero = lambda op: op.coef.reshape(op.coef.shape[first:last + 1]) != 0  # broadcast over the span
    masks = [nonzero(op) for op in ops]
    blocks = state.amplitudes.reshape(prod(patch.dims[:first]), prod(dims), -1)
    gram = np.zeros((1 if vacuum else len(ops) + 1, len(ops)), dtype=np.complex128)
    for c in range(patch.group.order):
        sector = nonzero(_op(patch, _ribbon_op, spec, patch.group.identity, c))
        live = np.array([j for j, m in enumerate(masks) if np.any(m & sector)], dtype=int)
        pos, at = np.flatnonzero(np.broadcast_to(sector, dims)), {}
        buf = np.empty((live.size + 1, blocks.shape[0] * pos.size * blocks.shape[2]), dtype=np.complex128)
        buf[0] = blocks[:, pos].ravel()
        for i, j in enumerate(live, 1):
            buf[i] = _gather(patch, ops[j], blocks, pos, at).ravel()
        rows = np.r_[0, live + 1][:len(gram)]
        total, comp = np.zeros((2, rows.size, 2 * live.size))
        for cols in _blocks(buf.shape[1], 16 * len(buf)):
            part = (np.conj(buf[:rows.size, cols]) @ buf[1:, cols].T).view(np.float64)
            new = total + part
            comp += np.where(np.abs(total) >= np.abs(part), (total - new) + part, (part - new) + total)
            total[...] = new
        del buf  # freed before the next sector's buffer is made
        gram[np.ix_(rows, live)] += (total + comp).view(np.complex128)
    return gram


def _word(maps, psi: LatticeState) -> LatticeState:
    """The product of the state maps `maps` on psi, the last map acting first."""
    for m in reversed(maps):
        psi = m(psi)
    return psi


def _law(psi: LatticeState, lhs, rhs, scale, adjoint: bool = False) -> float:
    """||lhs psi - scale rhs psi||, or with `adjoint` |<psi|lhs psi> - <rhs psi|psi> / scale|,
    the residual of lhs^+ = rhs / conj(scale); lhs runs before rhs."""
    if adjoint:
        return abs(inner(psi, _word(lhs, psi)) - inner(_word(rhs, psi), psi) / scale)
    return _dist(_word(lhs, psi), _word(rhs, psi), scale)


def _shared_identities(patch: LatticePatch, rib: RibbonSpec, v) -> dict:
    """The identities both relation suites state, written once: {key: (dims, words[, adjoint])},
    a relation record but its name.  On a bulk patch labels k run over G with
    flux k, the start-site operators are A and B of the ribbon's start, and
    every phase is 1.  On a boundary patch k runs over the subgroup K with flux
    members[k], the start-site operators are the wall vertex and wall face, and
    the phases come from the patch's normalized cocycle: the bulk statements
    are the wall ones at K = G, phi = 1.  `v` is the vertex of the A A = A pair."""
    g, s0, s1 = patch.group, rib.start, rib.end
    n, mul, inv = g.order, g.mul, g.inv
    op = lambda build, *key: _Op(patch, build, key)
    if patch.boundary is None:
        kg, flux, phi = g, range(n), lambda a, b: 1.0
        vertex, face0 = _vertex_op, lambda k: op(_face_op, s0, k)
    else:
        table = patch.cocycle.table
        kg, flux, phi = patch.boundary.as_group, patch.boundary.members, lambda a, b: table[a, b]
        vertex, face0 = _wall_vertex_op, lambda k: op(_wall_face_op, s0[0], k)
    nk, kmul, kinv = kg.order, kg.mul, kg.inv
    f = lambda k, gg: op(_ribbon_op, rib, int(flux[k]), gg)
    a = lambda w, k: op(vertex, w, k)
    a1 = lambda m: op(_vertex_op, s1[0], m)
    b1 = lambda m: op(_face_op, s1, m)
    return {
        "A A": ((nk, nk), lambda k, l: ([a(v, k), a(v, l)], [a(v, kmul[k, l])], 1.0)),
        "A^+": ((nk,), lambda k: ([a(v, k)], [a(v, kinv[k])], 1.0), True),
        "F F": ((nk, n, nk, n), lambda k, gg, k2, g2: ([f(k, gg), f(k2, g2)], [f(kmul[k, k2], gg)],
                                                      phi(k, k2) if gg == g2 else 0.0)),
        "F^+": ((nk, n), lambda k, gg: ([f(k, gg)], [f(kinv[k], gg)], np.conj(phi(k, kinv[k]))), True),
        "A_s0 F": ((nk, nk, n), lambda l, k, gg: (
            [a(s0[0], l), f(k, gg)], [f(kmul[kmul[l, k], kinv[l]], mul[flux[l], gg]), a(s0[0], l)],
            phi(l, k) * phi(kmul[l, k], kinv[l]))),
        "B_s0 F": ((nk, nk, n), lambda m, k, gg: (
            [face0(m), f(k, gg)], [f(k, gg), face0(kmul[m, k])], 1.0)),
        "A_s1 F": ((n, nk, n), lambda m, k, gg: ([a1(m), f(k, gg)], [f(k, mul[gg, inv[m]]), a1(m)], 1.0)),
        "B_s1 F": ((n, nk, n), lambda m, k, gg: (
            [b1(m), f(k, gg)], [f(k, gg), b1(mul[mul[inv[gg], inv[flux[k]]], mul[gg, m]])], 1.0)),
    }


def _run_probes(patch: LatticePatch, rng, states: int, records: list) -> list:
    """[(name, worst residual over `states` probes), ...] for the records
    (name, dims, words[, adjoint]): words(*labels) is (lhs, rhs, scale), lhs and
    rhs lists of state maps, with one label drawn below each entry of dims.

    The draws come from `rng` alone, in a fixed order: records in the order
    given, `states` draws each, and each draw is the normals of one
    random_state followed by its labels.  A draw reads its words once; S is
    the union of the axes their maps declare, less the one-valued axes, and the
    law runs once, on the product of the draw's vectors on S over the patch
    restricted to S (`_coords` refuses a map that reads outside S).  A NaN
    residual is reported as NaN.  `states < 1` would check nothing: refused."""
    if states < 1:
        raise ValueError(f"a relation suite needs at least one probe state, got {states}")
    checks = []
    for name, dims, words, *adjoint in records:
        residuals = []
        for _ in range(states):
            vs = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in patch.dims]
            lhs, rhs, scale = words(*[int(rng.integers(d)) for d in dims])
            support = frozenset(a for m in lhs + rhs for a in m.axes if patch.dims[a] > 1)
            sub = _restrict(patch, support)
            psi = _product(sub, [v if a in support else None for a, v in enumerate(vs)])
            residuals.append(_law(psi, lhs, rhs, scale, *adjoint))
        checks.append((name, float(np.max(residuals))))
    return checks


def bulk_relation_report(g: GroupTable, states: int = 16, seed: int = 0):
    """Residuals of the bulk operator identities, [(name, residual), ...].

    Each identity is probed on `states` seeded random product states, on the
    axes its operators touch, labels redrawn per state; the residual is the max
    over probes.  The statements the wall suite also makes come from
    `_shared_identities`.  Vacuum and Gram statements run once on the full
    patch's smooth disk state, all labels swept; `_gram` runs by charge sector,
    so it holds about (n + 1)/n states, not n² states.  The patch is 4x3 when
    the amplitude cap allows, otherwise 3x2; only the larger patch admits two
    ribbons with shared endpoints, so only it has the deformation checks."""
    try:
        patch, wide = build_patch(g, 4, 3), True
    except DimensionCap:
        patch, wide = build_patch(g, 3, 2), False
    n, mul, inv = g.order, g.mul, g.inv
    v0, v1, site = (1, 0), (1, 1), ((1, 0), (1, 0))
    corners = [(2, 0), (2, 1), (1, 1)]
    if wide:
        rib = make_ribbon(patch, ((3, 1), (2, 1)), "vfv")
        alt = make_ribbon(patch, ((3, 1), (2, 1)), "fvvfvvf")
    else:
        rib = make_ribbon(patch, ((1, 0), (1, 0)), "fv")
        alt = None
    shared = _shared_identities(patch, rib, v1)
    face = lambda h: _Op(patch, _face_op, (site, h))
    vert = lambda w, h: _Op(patch, _vertex_op, (w, h))
    ribbon = lambda h, gg, spec=rib: _Op(patch, _ribbon_op, (spec, h, gg))
    summed = lambda maps: _Sum(tuple(maps))
    probes = [
        ("A_v^g A_v^h = A_v^{gh}", *shared["A A"]),
        ("(A_v^g)^+ = A_v^{g^-1}", *shared["A^+"]),
        ("B_s^h B_s^h' = delta B_s^h", (n, n),
         lambda a, b: ([face(a), face(b)], [face(a)], 1.0 if a == b else 0.0)),
        ("sum_h B_s^h = 1", (), lambda: ([summed([face(h) for h in range(n)])], [], 1.0)),
        ("A_v^g B_s^h = B_s^{ghg^-1} A_v^g (base corner)", (n, n), lambda a, b: (
            [vert(v0, a), face(b)], [face(mul[mul[a, b], inv[a]]), vert(v0, a)], 1.0)),
        ("[A_w^g, B_s^h] = 0 (other corners)", (len(corners), n, n), lambda w, a, b: (
            [vert(corners[w], a), face(b)], [face(b), vert(corners[w], a)], 1.0)),
        ("[A_v, A_w] = 0 (adjacent vertices)", (n, n), lambda a, b: (
            [vert(v1, a), vert(v0, b)], [vert(v0, b), vert(v1, a)], 1.0)),
        ("F^{h,g} F^{h',g'} = delta_{g,g'} F^{hh',g}", *shared["F F"]),
        ("(F^{h,g})^+ = F^{h^-1,g}", *shared["F^+"]),
        ("sum_g F^{e,g} = 1", (), lambda: ([summed([ribbon(0, gg) for gg in range(n)])], [], 1.0)),
        ("A_{s0}^k F^{h,g} = F^{khk^-1,kg} A_{s0}^k", *shared["A_s0 F"]),
        ("B_{s0}^k F^{h,g} = F^{h,g} B_{s0}^{kh}", *shared["B_s0 F"]),
        ("A_{s1}^k F^{h,g} = F^{h,gk^-1} A_{s1}^k", *shared["A_s1 F"]),
        ("B_{s1}^k F^{h,g} = F^{h,g} B_{s1}^{g^-1h^-1gk}", *shared["B_s1 F"]),
    ]
    if alt is not None:
        mid_vertices = [(3, 0), (2, 0), (1, 0)]
        mid_faces = [_Op(patch, _face_op, ((f, f), g.identity)) for f in [(2, 0), (1, 0)]]
        probes += [
            ("[F, A_t^k] = 0 at intermediate vertices", (len(mid_vertices), n, n, n), lambda w, k, h, gg: (
                [vert(mid_vertices[w], k), ribbon(h, gg, alt)],
                [ribbon(h, gg, alt), vert(mid_vertices[w], k)], 1.0)),
            ("[F, B_t^e] = 0 at crossed faces", (len(mid_faces), n, n), lambda w, h, gg: (
                [mid_faces[w], ribbon(h, gg, alt)], [ribbon(h, gg, alt), mid_faces[w]], 1.0)),
        ]

    # the disk-state statements run first and are reported after the probes
    psi = disk_state(patch, seed=seed)
    gram = _gram(patch, psi, rib, [_op(patch, _ribbon_op, rib, h, gg) for h in range(n) for gg in range(n)])
    tail = [] if alt is None else [("ribbon deformation on the disk state", max(
        _dist(apply_ribbon(patch, rib, psi, h, gg), apply_ribbon(patch, alt, psi, h, gg))
        for h in range(n) for gg in range(n)))]
    del psi
    tail.append(("<F^{h,g}> = delta_{h,e}/|G| on the disk state",
                 float(np.max(np.abs(gram[0] - (np.arange(n * n) < n) / n)))))
    tail.append(("<psi^{h,g}|psi^{h',g'}> = delta delta / |G|",
                 float(np.max(np.abs(gram[1:] - np.eye(n * n) / n)))))
    return _run_probes(patch, np.random.default_rng(seed), states, probes) + tail


def wall_relation_report(g: GroupTable, boundary: Subgroup, cocycle: TwoCocycle | None = None,
                         states: int = 16, seed: int = 0):
    """Residuals of the boundary operator identities on the snowflake patch.

    Same probing scheme as the bulk report, and the statements both suites
    make come from the same `_shared_identities`; the cocycle-phased
    identities use the patch's normalized table.  The ground-state statements
    run once on the full patch, all labels swept: the K x G vacuum row and the
    T~ basis Gram by charge sector (`_gram`), the basis flux by holonomy."""
    patch = minimal_boundary_patch(g, boundary, cocycle)
    rib = make_ribbon(patch, ((1, 0), None), "wv")
    sub, phit = patch.boundary, patch.cocycle.table
    kg, mem, nk, n, mul, inv = sub.as_group, sub.members, sub.order, g.order, g.mul, g.inv
    v0, v1, f1 = (1, 0), (1, 1), (1, 0)
    reps = [int(r) for r in cosets(g, sub)]
    shared = _shared_identities(patch, rib, v0)
    t = lambda k, gg: _Op(patch, _invariant_op, (rib, int(mem[k]), gg))
    wall_a = lambda k: _Op(patch, _wall_vertex_op, (v0, k))
    wall_b = lambda k: _Op(patch, _wall_face_op, (v0, k))
    terms = [term[2] for term in hamiltonian_terms(patch)]
    probes = [
        ("wall A^k A^l = A^{kl}", *shared["A A"]),
        ("wall (A^k)^+ = A^{k^-1}", *shared["A^+"]),
        ("wall B^l A^k = A^k B^{lk}", (nk, nk), lambda a, b: (
            [wall_b(b), wall_a(a)], [wall_a(a), wall_b(kg.mul[b, a])], 1.0)),
        ("hamiltonian projectors commute", (len(terms), len(terms)), lambda i, j: (
            [terms[i], terms[j]], [terms[j], terms[i]], 1.0)),
        ("wall A^l F~^{k,g} = phi(l,k)phi(lk,l^-1) F~^{lkl^-1,lg} A^l", *shared["A_s0 F"]),
        ("wall B^m F~^{k,g} = F~^{k,g} B^{mk}", *shared["B_s0 F"]),
        ("F~^{k,g} F~^{k',g'} = delta phi(k,k') F~^{kk',g}", *shared["F F"]),
        ("(F~^{k,g})^+ = phi(k,k^-1)^-1 F~^{k^-1,g}", *shared["F^+"]),
        ("A_{s1}^m F~^{k,g} = F~^{k,gm^-1} A_{s1}^m", *shared["A_s1 F"]),
        ("B_{s1}^m F~^{k,g} = F~^{k,g} B_{s1}^{g^-1h^-1gm}", *shared["B_s1 F"]),
        ("[T~^{k,g}, wall A^m] = 0", (nk, nk, n),
         lambda m, k, gg: ([wall_a(m), t(k, gg)], [t(k, gg), wall_a(m)], 1.0)),
        ("T~^{k,gm} = phi(m,k)phi(mk,m^-1) T~^{mkm^-1,g}", (nk, nk, n), lambda m, k, gg: (
            [t(k, mul[gg, mem[m]])], [t(kg.mul[kg.mul[m, k], kg.inv[m]], gg)],
            phit[m, k] * phit[kg.mul[m, k], kg.inv[m]])),
        ("T~^{k,g} T~^{k',g} = phi(k,k') T~^{kk',g}", (nk, nk, n), lambda k, k2, gg: (
            [t(k, gg), t(k2, gg)], [t(kg.mul[k, k2], gg)], phit[k, k2])),
        *([("T~^{k,g} T~^{k',g'} = 0 off the coset", (nk, nk, len(reps), nk, nk, len(reps) - 1),
            lambda k, k2, i, m, m2, step: ([t(k, mul[reps[i], mem[m]]),
                                           t(k2, mul[reps[(i + 1 + step) % len(reps)], mem[m2]])],
                                          [], 0.0))] if len(reps) > 1 else []),
        ("(T~^{k,g})^+ = T~^{k^-1,g}", (nk, n), lambda k, gg: ([t(k, gg)], [t(kg.inv[k], gg)], 1.0), True),
    ]

    # the ground-state statements run first and are reported after the probes
    gs = ground_state(patch, seed=seed)
    vacuum = _gram(patch, gs, rib, [_op(patch, _ribbon_op, rib, int(h), gg) for h in mem for gg in range(n)], True)[0]
    tail = [("<F~^{k,g}> = delta_{k,e}/|G| on the ground state",
             float(np.max(np.abs(vacuum - (np.arange(nk * n) < n) / n))))]
    basis = [(k, gi) for k in range(nk) for gi in reps]
    gram = _gram(patch, gs, rib, [_op(patch, _invariant_op, rib, int(mem[k]), gi) for k, gi in basis])
    tail.append(("<psi~^{k,gi}|psi~^{k',gj}> = (|K|/|G|) delta delta",
                 float(np.max(np.abs(gram[1:] - np.eye(len(basis)) * nk / n)))))
    # one basis state held at a time: its charge by A_{s1}, its flux as its norm off one holonomy bin
    err = 0.0
    for k, gi in basis:
        st = t(k, gi)(gs)
        err = float(np.max([err, *(_dist(apply_vertex(patch, st, v1, m), t(k, mul[m, gi])(gs)) for m in range(n)),
                            _dist(st, apply_face(patch, st, (v1, f1), mul[mul[gi, mem[k]], inv[gi]]))]))
    tail.append(("basis carries charge g and flux gkg^-1 at s1", err))
    del gs, st
    return _run_probes(patch, np.random.default_rng(seed), states, probes) + tail
