"""Simulation laboratory for adiabatic evolutionary quantum systems (AEQSs).

An AEQS decides a language by the location of the ground state of a final
Hamiltonian that is generated, symbol by symbol, from an input string by a
quantum quasi-automaton.  This package provides:

- ``linalg``    complex dense/sparse kernels (the one sparse matrix type,
  eigensolvers, unitary exponentials),
- ``qqa``       quasi-automaton levels and Hamiltonian generation,
- ``aeqs``      AEQS instances/families, the ground-state decision rule,
  spectral diagnostics, and closure combinators,
- ``evolve``    discrete adiabatic evolution (midpoint, step-factored, and
  phase-shift propagators) with per-step traces,
- ``gallery``   six worked language constructions paired with classical
  membership oracles,
- ``compilers`` translation of measure-once and garbage-tape quantum finite
  automata into AEQS families,
- ``cli``       command-line front end.
"""

from . import linalg, qqa, aeqs, evolve, gallery, compilers, specdoc

__all__ = ["linalg", "qqa", "aeqs", "evolve", "gallery", "compilers", "specdoc"]
__version__ = "0.1.0"
