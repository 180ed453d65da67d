"""Group tables, conjugacy bookkeeping, near-fields, and affine groups."""

import numpy as np
import pytest

from artifact import errors, groups
from artifact.errors import (
    AxiomFailure,
    NotAField,
    NotAssociative,
    NotLatinSquare,
    NotPrimePower,
    NotSubgroup,
    SizeExceeded,
)
from artifact.groups import (
    affine_group,
    alternating,
    conjugacy_data,
    cosets,
    cyclic,
    direct_product,
    from_cayley,
    full_subgroup,
    generated_subgroup,
    is_right_distributive,
    near_field,
    subgroup,
    symmetric,
    trivial_subgroup,
    validate_near_field,
)
from artifact.cocycles import wall_subgroup
from artifact.quantum_double import centralizer

from conftest import dist


def centralizer_members(g, x):
    """Sorted elements commuting with x."""
    conj = g.conj_table()
    return np.nonzero(conj[:, x] == x)[0]


def test_cyclic_is_modular_addition():
    g = cyclic(6)
    i, j = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
    assert np.array_equal(g.mul, (i + j) % 6)
    assert np.array_equal(g.inv, (-np.arange(6)) % 6)
    assert g.identity == 0
    assert g.is_abelian()


def test_symmetric_group_basics():
    g = symmetric(4)
    assert g.order == 24
    assert not g.is_abelian()
    # every row and column of mul is a permutation
    for r in range(24):
        assert sorted(g.mul[r]) == list(range(24))
        assert sorted(g.mul[:, r]) == list(range(24))
    orders = sorted({g.element_order(x) for x in range(24)})
    assert orders == [1, 2, 3, 4]


def test_power_table_lists_powers_up_to_the_exponent():
    for g in (cyclic(1), cyclic(12), symmetric(4), alternating(5), affine_group(near_field(9))):
        powers = g.power_table()
        orders = [g.element_order(x) for x in range(g.order)]
        assert len(powers) == int(np.lcm.reduce(orders))
        assert np.array_equal(powers[0], np.zeros(g.order))
        for j in range(1, len(powers)):
            assert np.array_equal(powers[j], g.mul[powers[j - 1], np.arange(g.order)])
        assert not powers.flags.writeable and g.power_table() is powers


def test_alternating_group_orders():
    assert alternating(4).order == 12
    assert alternating(5).order == 60
    # A4 has no element of order 6
    assert {alternating(4).element_order(x) for x in range(12)} == {1, 2, 3}


# A Latin square with identity 0 that is not associative: the octonion-like 5-loop
FIVE_LOOP = np.array(
    [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
)


def test_from_cayley_roundtrip_and_rejects_bad_table():
    g = cyclic(5)
    h = from_cayley(g.mul, label="Z5-copy")
    assert np.array_equal(h.mul, g.mul)
    assert np.array_equal(h.inv, g.inv)
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(Exception):
        from_cayley(bad)
    with pytest.raises(ValueError, match="square"):
        from_cayley(5)  # a 0-d table
    # associativity failure with valid latin rows
    with pytest.raises(NotAssociative):
        from_cayley(FIVE_LOOP)


# the block tests below count int64 table entries, 8 bytes each
@pytest.mark.parametrize("block_entries", [None, 25])  # 25: one x at a time on the 5-loop
def test_from_cayley_reports_the_first_non_associative_triple(monkeypatch, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(errors, "BLOCK_BYTES", 8 * block_entries)
    loop = FIVE_LOOP
    first = tuple(int(i) for i in np.argwhere(loop[loop, :] != loop[:, loop])[0])
    assert first[0] > 0
    with pytest.raises(NotAssociative) as err:
        from_cayley(loop)
    assert err.value.triple == first


def first_non_associative(mul):
    """First (x, y, z) in scan order with (xy)z != x(yz), one x at a time."""
    for x in range(len(mul)):
        bad = np.argwhere(mul[mul[x]] != mul[x][mul])
        if bad.size:
            return (x, int(bad[0, 0]), int(bad[0, 1]))
    return None


@pytest.mark.parametrize("block_entries", [None, 360 * 360])  # 360^2: one x per block
def test_from_cayley_rejects_a6_with_an_intercalate_swapped(monkeypatch, block_entries):
    # mul[1, 1] = mul[5, 10] and mul[1, 10] = mul[5, 1]: swapping the 2x2
    # subsquare keeps every line a permutation and breaks associativity
    table = alternating(6).mul.copy()
    (r1, r5), (c1, c10) = (1, 5), (1, 10)
    assert table[r1, c1] == table[r5, c10] and table[r1, c10] == table[r5, c1]
    table[[r1, r1, r5, r5], [c1, c10, c1, c10]] = table[[r1, r1, r5, r5], [c10, c1, c10, c1]]
    idx = np.arange(360)
    assert (np.sort(table, axis=0) == idx[:, None]).all() and (np.sort(table, axis=1) == idx).all()
    if block_entries is not None:
        monkeypatch.setattr(errors, "BLOCK_BYTES", 8 * block_entries)
    first = first_non_associative(table)
    assert first is not None
    with pytest.raises(NotAssociative) as err:
        from_cayley(table)
    assert err.value.triple == first


def test_light_test_checks_every_generator():
    # Z2 x FIVE_LOOP with the Z2 digit last: the first generator 1 = (e, 1) lies in
    # the nucleus and passes, so only a later generator can expose the loop
    z2 = np.array([[0, 1], [1, 0]])
    mul = (FIVE_LOOP[:, None, :, None] * 2 + z2[None, :, None, :]).reshape(10, 10)
    x, a, y = groups._light_test(mul, lambda a: mul[mul[:, a]] != mul[:, mul[a]])
    assert a > 1 and mul[mul[x, a], y] != mul[x, mul[a, y]]
    assert not (mul[mul[:, 1]] != mul[:, mul[1]]).any()
    with pytest.raises(NotAssociative) as err:
        from_cayley(mul)
    assert err.value.triple == first_non_associative(mul)


def test_light_test_passes_groups_with_few_generators():
    for g in (cyclic(12), symmetric(5), alternating(6), affine_group(near_field(9))):
        mul = g.mul
        assert groups._light_test(mul, lambda a: mul[mul[:, a]] != mul[:, mul[a]]) is None
    # the generators drawn are exactly the ones a failing law is asked about
    asked = []
    assert groups._light_test(symmetric(4).mul, lambda a: asked.append(a) or np.zeros((24, 24), bool)) is None
    assert 1 <= len(asked) <= 1 + np.log2(24) and asked == sorted(asked)


@pytest.mark.parametrize(
    "target, source, first",
    [
        # each copy breaks one row and one column; the scan is row 0, column 0, row 1, ...
        ((2, 2), (2, 3), ("row", 2)),
        ((3, 1), (2, 1), ("column", 1)),
        ((1, 4), (1, 3), ("row", 1)),
        ((4, 3), (4, 1), ("column", 3)),
    ],
)
@pytest.mark.parametrize("block_entries", [None, 10])  # 10: lines checked two at a time
def test_from_cayley_reports_the_first_bad_line(monkeypatch, target, source, first, block_entries):
    if block_entries is not None:
        monkeypatch.setattr(errors, "BLOCK_BYTES", 8 * block_entries)
    table = cyclic(5).mul.copy()
    table[target] = table[source]
    with pytest.raises(NotLatinSquare) as info:
        from_cayley(table)
    assert (info.value.kind, info.value.index) == first


@pytest.mark.parametrize("build, n", [(symmetric, k) for k in range(1, 6)] + [(alternating, k) for k in range(1, 6)])
def test_permutation_tables_match_tuple_composition(build, n):
    g = build(n)
    perms = g.meta["permutations"]
    index = {p: i for i, p in enumerate(perms)}
    expected = [[index[tuple(p[k] for k in q)] for q in perms] for p in perms]
    assert np.array_equal(g.mul, expected)


def test_direct_product_structure():
    a, b = cyclic(2), cyclic(3)
    g = direct_product(a, b)
    assert g.order == 6
    assert g.is_abelian()
    assert g.meta["product_of"] == (a, b)
    # encoding pairs (i, j) as i * |b| + j
    for i in range(2):
        for j in range(3):
            for k in range(2):
                for l in range(3):
                    left = g.mul[i * 3 + j, k * 3 + l]
                    assert left == a.mul[i, k] * 3 + b.mul[j, l]


def test_conjugacy_data_partition_and_centralizers():
    g = symmetric(4)
    data = conjugacy_data(g)
    sizes = sorted(len(c) for c in data.classes)
    assert sizes == [1, 3, 6, 6, 8]
    assert sum(sizes) == 24
    # class_of is consistent with the classes and reps are minimal members
    for ci, members in enumerate(data.classes):
        assert all(data.class_of[m] == ci for m in members)
        assert data.reps[ci] == min(members)
    # orbit-stabilizer: |class| * |centralizer| = |G|
    for ci, members in enumerate(data.classes):
        z = centralizer_members(g, int(data.reps[ci]))
        assert len(members) * len(z) == g.order
    # transversal conjugates the rep onto each member
    for ci, members in enumerate(data.classes):
        r = int(data.reps[ci])
        for m in members:
            t = int(data.transversal[m])
            assert g.conj(t, r) == m


def test_subgroup_and_cosets():
    g = symmetric(3)
    k = generated_subgroup(g, [next(x for x in range(6) if g.element_order(x) == 3)])
    assert k.order == 3
    assert sorted(k.members.tolist()) == k.members.tolist()
    reps = cosets(g, k)
    assert len(reps) == 2
    seen = set()
    for r in reps:
        seen.update(int(g.mul[r, m]) for m in k.members)
    assert seen == set(range(6))
    assert trivial_subgroup(g).order == 1
    assert full_subgroup(g).order == 6
    with pytest.raises(NotSubgroup):
        subgroup(g, [0, 3])  # a 3-cycle without its inverse is not closed


@pytest.mark.parametrize("members", [
    [], [0, 3, 4, 3, 0, 4], [4, 0, 3], [[0, 3], [4, 0]], [-1, 0, 3, 4], [0, 3, 4, 6], [3, 4], [0, 3, 3], 0,
], ids=["empty", "duplicates", "unsorted", "nested", "negative", "out-of-range", "no-identity", "not-closed",
        "scalar"])
def test_subgroup_reads_members_as_the_sorted_distinct_entries(members):
    # the same members, or the same error, as when np.unique has already sorted and deduplicated them
    def outcome(m):
        try:
            k = subgroup(symmetric(3), m)
        except NotSubgroup as exc:
            return type(exc), str(exc)
        return k.members.dtype, k.members.tolist()

    assert outcome(members) == outcome(np.unique(np.asarray(members, dtype=np.int64)))


def test_subgroup_as_group_matches_parent_multiplication():
    g = alternating(4)
    k = generated_subgroup(g, [x for x in range(12) if g.element_order(x) == 2])
    assert k.order == 4  # the Klein four normal subgroup
    for i in range(4):
        for j in range(4):
            parent = g.mul[k.members[i], k.members[j]]
            assert k.members[k.as_group.mul[i, j]] == parent
    assert k.as_group.is_abelian()


def test_subgroups_are_not_revalidated(monkeypatch):
    """A subset holding e and closed under products and inverses is a group as it
    stands: subgroup() checks that much and builds no table through _validate_table."""
    g, gg, h = alternating(4), direct_product(symmetric(3), cyclic(4)), near_field(5)
    validated = []
    real = groups._validate_table
    monkeypatch.setattr(groups, "_validate_table", lambda mul, label: validated.append(label) or real(mul, label))
    subs = [
        generated_subgroup(g, [x for x in range(12) if g.element_order(x) == 2]),
        subgroup(gg, np.arange(24)),
        centralizer(g, 1),
        centralizer(gg, 5),
        wall_subgroup(h),
    ]
    assert validated == ["Aff(F5)"]  # only the affine group wall_subgroup builds from scratch
    for k in subs:
        assert np.array_equal(k.as_group.inv, np.argmax(k.as_group.mul == 0, axis=1))
        assert np.array_equal(k.members[k.as_group.mul], k.parent.mul[np.ix_(k.members, k.members)])


def product_subgroup_cases():
    s3z4 = direct_product(symmetric(3), cyclic(4))
    # (transposition, 1), (transposition, 2) generate Z2 x Z4; (3-cycle, 1) generates Z12
    yield s3z4, generated_subgroup(s3z4, [1 * 4 + 1, 1 * 4 + 2]).members
    yield s3z4, generated_subgroup(s3z4, [3 * 4 + 1]).members
    yield s3z4, np.arange(24)
    a4a4 = direct_product(alternating(4), alternating(4))
    yield a4a4, np.arange(12) * 12 + np.arange(12)
    for q in (2, 3, 4, 5):
        u = wall_subgroup(near_field(q))
        yield u.parent, u.members


@pytest.mark.parametrize("case", range(8))
def test_product_subgroups_are_assembled_from_the_factor_tables(case):
    built, members = list(product_subgroup_cases())[case]
    a, b = built.meta["product_of"]
    gg = direct_product(a, b)
    k = subgroup(gg, members)
    assert callable(gg._mul)  # the product table was never built
    expected = np.searchsorted(k.members, built.mul[np.ix_(k.members, k.members)])
    assert np.array_equal(k.as_group.mul, expected)
    assert np.array_equal(k.as_group.inv, np.searchsorted(k.members, built.inv[k.members]))


def test_product_subgroup_rejects_what_the_table_rejects():
    gg = direct_product(symmetric(3), cyclic(4))
    with pytest.raises(NotSubgroup, match="not closed: 5 \\* 5 = 2 is outside"):
        subgroup(gg, [0, 5])  # (e, 1) + (e, 1) = (e, 2)
    assert callable(gg._mul)
    with pytest.raises(NotSubgroup, match="not closed: 5 \\* 5 = 2 is outside"):
        subgroup(from_cayley(gg.mul), [0, 5])


def test_field_near_field_tables():
    for q in (2, 3, 4, 5, 7, 8, 9):
        h = near_field(q)
        validate_near_field(h)
        assert is_right_distributive(h)
        # fields are also left distributive
        for x in range(q):
            for y in range(q):
                for z in range(q):
                    assert h.mul[x, h.add[y, z]] == h.add[h.mul[x, y], h.mul[x, z]]
    with pytest.raises(NotPrimePower):
        near_field(6)


def test_factor_prime_power():
    # trial division stops at sqrt(q), so the prime 2^31 - 1 is factored at once
    for q, pd in ((2, (2, 1)), (4, (2, 2)), (9, (3, 2)), (121, (11, 2)), (125, (5, 3)), (2**31 - 1, (2**31 - 1, 1))):
        assert groups._factor_prime_power(q) == pd
    for q in (0, 1, 6, 12, 2 * (2**31 - 1)):
        with pytest.raises(NotPrimePower):
            groups._factor_prime_power(q)


# (construction, entries of the largest array it allocates)
CAPPED = [
    (lambda: cyclic(12), 12**2),
    (lambda: near_field(4), 4**3),
    (lambda: affine_group(near_field(5)), 20**2),
    (lambda: wall_subgroup(near_field(3)), 18**2),
    (lambda: direct_product(cyclic(2), cyclic(3)).mul, 6**2),
]


@pytest.mark.parametrize("case", range(len(CAPPED)),
                         ids=["cyclic", "near_field", "affine_group", "wall_subgroup", "direct_product"])
def test_the_size_cap_admits_its_own_size_and_refuses_one_more(case, monkeypatch):
    build, entries = CAPPED[case]
    monkeypatch.setattr(groups, "MAX_ENTRIES", entries)
    build()
    monkeypatch.setattr(groups, "MAX_ENTRIES", entries - 1)
    with pytest.raises(SizeExceeded, match=f"would take {entries} array entries"):
        build()


def test_dickson_near_field_is_not_a_field():
    h = near_field(9, kind="dickson9")
    validate_near_field(h)
    # left distributivity is the axiom; right distributivity must fail somewhere
    assert not is_right_distributive(h)
    broken = any(
        h.mul[h.add[y, z], x] != h.add[h.mul[y, x], h.mul[z, x]]
        for x in range(9)
        for y in range(9)
        for z in range(9)
    )
    assert broken
    # multiplication on nonzero elements is still a group, and it is nonabelian
    nz = h.mul[1:, 1:]
    assert sorted(nz[0].tolist()) == list(range(1, 9))
    assert not np.array_equal(nz, nz.T)
    # additive structure has characteristic 3: x + x + x = 0
    for x in range(1, 9):
        assert h.add[h.add[x, x], x] == 0


def test_validate_near_field_rejects_tampered_table():
    h = near_field(4)
    bad_mul = h.mul.copy()
    bad_mul[2, 3], bad_mul[2, 2] = bad_mul[2, 2], bad_mul[2, 3]
    from artifact.groups import NearFieldSpec

    tampered = NearFieldSpec(q=4, add=h.add, mul=bad_mul, label="bad4")
    with pytest.raises(AxiomFailure):
        validate_near_field(tampered)


def test_affine_group_sizes_and_encoding():
    for q in (2, 3, 4, 5, 7, 8):
        h = near_field(q)
        g = affine_group(h)
        assert g.order == q * (q - 1)
        assert g.identity == 0
    # q = 2 gives the two element group
    g2 = affine_group(near_field(2))
    assert np.array_equal(g2.mul, cyclic(2).mul)


def test_affine_group_law_matches_composition():
    # x -> alpha x + a composed with x -> beta x + b is x -> (alpha beta) x + (alpha b + a)
    h = near_field(5)
    g = affine_group(h)
    q = 5

    def enc(a, alpha):
        return a * (q - 1) + (alpha - 1)

    def apply(a, alpha, x):
        return int(h.add[h.mul[alpha, x], a])

    rng = np.random.default_rng(7)
    for _ in range(40):
        a, b = rng.integers(0, q, size=2)
        alpha, beta = rng.integers(1, q, size=2)
        prod = g.mul[enc(a, alpha), enc(b, beta)]
        for x in range(q):
            assert apply(a, alpha, apply(b, beta, x)) == apply(
                prod // (q - 1), prod % (q - 1) + 1, x
            )


def test_dickson_affine_group_differs_from_field_version():
    g_field = affine_group(near_field(9))
    g_dickson = affine_group(near_field(9, kind="dickson9"))
    assert g_field.order == 72 and g_dickson.order == 72
    n_field = len(conjugacy_data(g_field).classes)
    n_dickson = len(conjugacy_data(g_dickson).classes)
    assert n_field != n_dickson
