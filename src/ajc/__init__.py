"""Augmented jump chain toolkit for non-autonomous Markov jump processes.

Represents a jump process with a piecewise-constant time-dependent
generator as an autonomous Markov chain on space-time, assembles the
Ulam-Galerkin jump operator in closed, factored form, and solves propagation,
Koopman, committor and coherence problems on it.
"""

from .generator import (
    CSR,
    GridPotential,
    InvalidProtocol,
    RateMatrixSequence,
    TimeGrid,
    Violation,
    four_neighbor_adjacency,
    sqra_rates,
)
from .jumpchain import SpaceTimePoint, TrajectorySample, sample_trajectory
from .galerkin import (
    JumpMatrix,
    SpaceTimeIndexer,
    assemble,
)
from .operators import (
    NonConvergence,
    SpaceTimeVector,
    apply_adjoint,
    embed_spacelike,
    jump_activity,
    koopman_solve,
    reconstruct_propagator,
    synchronize,
)
from .committor import (
    EmptyTarget,
    SpaceTimeSet,
    coherence_defect,
    committor_solve,
)
from .oracle import (
    convergence_study,
    exact_propagator,
    expm,
)

__version__ = "0.1.0"

__all__ = [
    "CSR", "GridPotential", "InvalidProtocol", "RateMatrixSequence", "TimeGrid", "Violation",
    "four_neighbor_adjacency", "sqra_rates",
    "SpaceTimePoint", "TrajectorySample", "sample_trajectory",
    "JumpMatrix", "SpaceTimeIndexer", "assemble",
    "NonConvergence", "SpaceTimeVector", "apply_adjoint", "embed_spacelike", "jump_activity",
    "koopman_solve", "reconstruct_propagator", "synchronize",
    "EmptyTarget", "SpaceTimeSet", "coherence_defect", "committor_solve",
    "convergence_study", "exact_propagator", "expm",
]
