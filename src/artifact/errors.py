"""Exception types shared across the package, and its numerical checks.

Every validation failure carries enough context (indices, names) to locate
the first offending element, triple, or axiom.  A numerical check raises
through _check, against an entry of TOL, and fails on NaN.  A loop whose
temporaries grow with its input runs over the slices of _blocks, and every
per-group or per-patch memo, and the per-(n, e) memo of characters._PRIMES
(the prime and roots of unity that every group of order n and exponent e
shares, and those of each snapped S), is read and written by _cached.
"""

import dataclasses
import math

import numpy as np

# Every numerical tolerance of the package, keyed by the quantity it bounds.
TOL = {
    "character": 1e-8,  # float character values and modular invariance; default of --tol
    "match": 1e-6,  # a computed value taken for a known one: a table row, the chargeon's -1
    "nonzero": 1e-12,  # least magnitude counted as nonzero: a projected lattice state's norm
    "multiplicity": 1e-4,  # anyon multiplicities off integers
    "phase": 1e-9,  # unit phases: cocycle identity and gauge, twists, roots of unity
    "normalized": 1e-8,  # the cocycle identity after gauge normalization
    "reassembly": 1e-8,  # relative to max(1, max |target|)
}

# Bytes of temporaries per block of every blocked loop; a block this size stays in a core's L2.
BLOCK_BYTES = 1 << 19


class ArtifactError(Exception):
    """Base class for all package errors."""


# --- group construction -----------------------------------------------------

class NotAssociative(ArtifactError):
    def __init__(self, x: int, y: int, z: int):
        super().__init__(f"associativity fails at triple ({x}, {y}, {z})")
        self.triple = (x, y, z)


class NoIdentity(ArtifactError):
    pass


class NoInverse(ArtifactError):
    def __init__(self, x: int):
        super().__init__(f"element {x} has no two-sided inverse")
        self.element = x


class NotLatinSquare(ArtifactError):
    def __init__(self, kind: str, index: int):
        super().__init__(f"{kind} {index} is not a permutation of the element set")
        self.kind = kind
        self.index = index


class SizeExceeded(ArtifactError):
    pass


class NotPrimePower(ArtifactError):
    pass


class AxiomFailure(ArtifactError):
    def __init__(self, axiom: str, detail: str = ""):
        super().__init__(f"near-field axiom failed: {axiom}" + (f" ({detail})" if detail else ""))
        self.axiom = axiom


class NotSubgroup(ArtifactError):
    pass


class GroupMismatch(ArtifactError):
    pass


class SubgroupMismatch(ArtifactError):
    pass


# --- character theory and modular data --------------------------------------

class NumericalDegeneracy(ArtifactError):
    pass


class NonIntegerMultiplicity(ArtifactError):
    pass


class SizeMismatch(ArtifactError):
    pass


# --- cocycles ----------------------------------------------------------------

class CocycleIdentityFailure(ArtifactError):
    def __init__(self, k: int, l: int, m: int, detail: str = ""):
        suffix = f": {detail}" if detail else ""
        super().__init__(f"cocycle identity fails at triple ({k}, {l}, {m}){suffix}")
        self.triple = (k, l, m)


class NotAField(ArtifactError):
    pass


class NotAbelian(ArtifactError):
    pass


class NotBimultiplicative(ArtifactError):
    pass


# --- condensation / wall checks ----------------------------------------------

class ConditionMismatch(ArtifactError):
    """Two independent verification routes disagree; indicates an internal bug."""


# --- lattice ------------------------------------------------------------------

class DimensionCap(ArtifactError):
    pass


class ZeroProjection(ArtifactError):
    pass


class InvalidRibbon(ArtifactError):
    pass


class NotInSubgroup(ArtifactError):
    pass


# --- numerical checks -----------------------------------------------------------

def _check(what: str, residual, tol: float, error=ConditionMismatch) -> None:
    """Raise error unless residual <= tol; NaN fails."""
    if not residual <= tol:
        raise error(f"{what} (residual {residual:.3e}, tol {tol:.1e})")


def _places(tol: float) -> int:
    """Decimal places that resolve tol, for a rounding that stands in for a comparison
    (9 for TOL["phase"])."""
    return round(-math.log10(tol))


def _integers(raw: np.ndarray, what: str, tol: float, error) -> np.ndarray:
    """Nearest integers to raw as int64, checked within tol.  raw is overwritten
    with its off-integer part (no temporary of its size)."""
    n = np.rint(raw.real)
    raw.real -= n
    _check(what, float(np.max(np.abs(raw))), tol, error)
    return n.astype(np.int64)


def _reassembles(what: str, back: np.ndarray, target: np.ndarray, error=ConditionMismatch) -> None:
    """back must equal target within TOL["reassembly"] times max(1, max |target|)."""
    scale = max(1.0, float(np.max(np.abs(target))))
    _check(what, float(np.max(np.abs(back - target))), TOL["reassembly"] * scale, error)


# --- blocked loops and memos -----------------------------------------------------

def _blocks(n: int, item_bytes: int) -> list[slice]:
    """Slices covering range(n), each of at most BLOCK_BYTES // item_bytes items and at least one."""
    step = max(1, BLOCK_BYTES // item_bytes)
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _cached(cache: dict, key, build, *args):
    """cache[key], built as build(*args) on first use and shared by every later call,
    so every array in it is made read-only.  A cached value never holds the cache's
    owner (group or patch), so a dropped owner frees its cache by reference counting;
    the module-level prime memo has no owner and holds only ints and root arrays."""
    if key not in cache:
        cache[key] = _read_only(build(*args))
    return cache[key]


def _read_only(value):
    """value, with every array in it, through tuples, lists and dataclass fields, read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif isinstance(value, (tuple, list)):
        for item in value:
            _read_only(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _read_only(getattr(value, f.name))
    return value
