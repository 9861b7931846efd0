"""Coded-caching workbench for location-based content on a ring of edge caches.

The package is organised around seven modules:

* :mod:`ringcache.model` -- the cyclic demand structure (regions, demand
  sets, demand vectors) and all shared index arithmetic.
* :mod:`ringcache.schemes` -- achievable schemes as (placement, delivery,
  decode) triples, both symbolic and bit-exact, plus their worst-case load.
* :mod:`ringcache.bounds` -- closed-form optimal loads, cut-set bounds and
  order-optimality gap checks, all in exact rational arithmetic.
* :mod:`ringcache.converse` -- genie-aided inequality families, the exact
  rational LP they induce, symmetrisation, and weighted-sum certificates.
* :mod:`ringcache.exactlp` -- the exact dual simplex on integer tableaus
  that solves those LPs from the all-slack basis, and re-optimises warm
  after added rows or moved right-hand sides.
* :mod:`ringcache.verify` -- the acceptance battery: the eight criteria
  checked over an instance sweep.
* :mod:`ringcache.cli` -- command-line front end (tradeoff curves,
  simulation, LP verification, gap check, acceptance battery).
"""

from ringcache.model import (
    BudgetExceededError,
    DemandError,
    DemandStructure,
    InvalidInstanceError,
    ProblemInstance,
    build_demand_structure,
    cyclic_mod,
    enumerate_demands,
)

__all__ = [
    "BudgetExceededError",
    "DemandError",
    "DemandStructure",
    "InvalidInstanceError",
    "ProblemInstance",
    "build_demand_structure",
    "cyclic_mod",
    "enumerate_demands",
]

__version__ = "0.1.0"
