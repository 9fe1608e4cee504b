"""Redundancy metrics for linear Gaussian factor graphs.

The package measures how redundantly a state estimate is supported by groups
of measurement factors. It provides information-form Gaussian primitives, a
supplemented linear factor graph, the antichain lattice used by partial
information decomposition, two specific-quality metrics with exact
two-source and Monte Carlo redundancies, and a 2D landmark SLAM simulation
study that compares redundancy against worst-case trajectory error.
"""
from __future__ import annotations

__version__ = "0.1.0"

from .gauss import (
    GaussianBelief,
    NotPositiveDefiniteError,
    cholesky_pd,
    check_symmetric,
    schur_complement,
)
from .factor_graph import LinearFactor, SupplementedGraph
from .lattice import (
    Antichain,
    antichain_leq,
    bivariate_atoms,
    enumerate_antichains,
    validate_antichain,
)
from .metrics import (
    QualityKind,
    RedundancyEstimate,
    SpecificQuality,
    quality,
    quality_info,
    redundancy_mc,
    redundancy_mc_info,
    redundancy_pair_info,
    wb_coefficients_info,
    wass_coefficients_info,
)
from .se2 import Pose2, wrap_angle
from .sim2d import SimConfig, SimWorld, simulate_world
from .alignment import wc_ate

__all__ = [
    "Antichain",
    "GaussianBelief",
    "LinearFactor",
    "NotPositiveDefiniteError",
    "Pose2",
    "QualityKind",
    "RedundancyEstimate",
    "SimConfig",
    "SimWorld",
    "SpecificQuality",
    "SupplementedGraph",
    "antichain_leq",
    "bivariate_atoms",
    "check_symmetric",
    "cholesky_pd",
    "enumerate_antichains",
    "quality",
    "quality_info",
    "redundancy_mc",
    "redundancy_mc_info",
    "redundancy_pair_info",
    "schur_complement",
    "simulate_world",
    "validate_antichain",
    "wb_coefficients_info",
    "wass_coefficients_info",
    "wc_ate",
    "wrap_angle",
]
