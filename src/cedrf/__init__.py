"""Distortion-rate analysis for Gaussian vector sources observed through noise.

Computes the optimal indirect distortion-rate function and the
compress-and-estimate distortion-rate function for a Gaussian vector
source seen through a noisy linear channel, together with their equality
region and closed-form gap bounds, and verifies every closed form against
independent matrix-form and Monte Carlo oracles.
"""

from .drf import (
    AmGmBounds,
    DistortionPoint,
    EqualityRegion,
    am_gm_pair,
    ce_drf,
    equality_region,
    gap,
    gap_2d,
    gap_lower_bound,
    gap_upper_bound,
    idrf,
    max_gap_2d,
    sweep,
)
from .linalg import Matrix
from .oracle import (
    CEMatrixParts,
    McEstimate,
    McEstimates,
    ce_matrix_form,
    ce_matrix_forms,
    ce_matrix_parts,
    mc_ce,
    mc_estimates,
    mc_idrf,
    mc_mmse,
)
from .spectral import ObservationModel, Spectrum, whiten
from .waterfill import WaterfillResult, active_count, rate_allocation, rate_thresholds, water_level

__version__ = "0.1.0"

__all__ = [
    "AmGmBounds",
    "CEMatrixParts",
    "DistortionPoint",
    "EqualityRegion",
    "Matrix",
    "McEstimate",
    "McEstimates",
    "ObservationModel",
    "Spectrum",
    "WaterfillResult",
    "active_count",
    "am_gm_pair",
    "ce_drf",
    "ce_matrix_form",
    "ce_matrix_forms",
    "ce_matrix_parts",
    "equality_region",
    "gap",
    "gap_2d",
    "gap_lower_bound",
    "gap_upper_bound",
    "idrf",
    "max_gap_2d",
    "mc_ce",
    "mc_estimates",
    "mc_idrf",
    "mc_mmse",
    "rate_allocation",
    "rate_thresholds",
    "sweep",
    "water_level",
    "whiten",
]
