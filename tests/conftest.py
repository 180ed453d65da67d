"""Shared helpers for the test suite."""

import numpy as np

from artifact.groups import affine_group, alternating, cyclic, direct_product, near_field, symmetric


def dist(a, b):
    """Max absolute entrywise difference."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def sweep_groups():
    """The 25 groups of order <= 72 of the criterion-10 property sweep."""
    for n in (1, 2, 3, 4, 5, 6, 8, 9, 12):
        yield cyclic(n)
    yield symmetric(3)
    yield symmetric(4)
    yield alternating(4)
    yield alternating(5)
    yield direct_product(cyclic(2), cyclic(2))
    yield direct_product(cyclic(2), cyclic(4))
    yield direct_product(cyclic(3), cyclic(3))
    yield direct_product(cyclic(2), symmetric(3))
    for q in (2, 3, 4, 5, 7, 8, 9):
        yield affine_group(near_field(q))
    yield affine_group(near_field(9, kind="dickson9"))
