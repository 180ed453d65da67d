"""Exact anyon data for quantum doubles of finite groups, cross-checked on a lattice.

Names live in the submodules, e.g. `from artifact.groups import symmetric`.
Importing the package loads the library modules below; `artifact.serialize`
and `artifact.cli` (the `qdouble` front end) load when imported.
"""

from . import characters, cocycles, condensation, errors, groups, lattice, modular, quantum_double
