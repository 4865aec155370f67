"""Maximum-rate irregular LDPC degree distributions for the binary erasure
channel, via an exact sum-of-squares reformulation of the density-evolution
constraint, with independent verification by the closed-form erasure
threshold and a discretized-LP baseline.
"""

from .ensemble import (
    DegreeDistribution,
    EnsembleSpec,
    capacity_gap,
    check_de_feasible,
    design_rate,
    stability_lambda2_bound,
)
from .poly import Polynomial
from .solver import ConicProblem, ConicSolution, solve

__all__ = [
    "DegreeDistribution",
    "EnsembleSpec",
    "Polynomial",
    "ConicProblem",
    "ConicSolution",
    "capacity_gap",
    "check_de_feasible",
    "design_rate",
    "solve",
    "stability_lambda2_bound",
]

__version__ = "0.1.0"
