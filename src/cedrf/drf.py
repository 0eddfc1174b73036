"""Distortion-rate curves for remote Gaussian vector sources.

The optimal indirect distortion-rate function ``idrf`` (encoder knows the
joint source/observation statistics), the compress-and-estimate curve
``ce_drf`` (encoder compresses the observation for its own quadratic
distortion, decoder estimates the source), the rate region where the two
coincide, closed-form upper/lower bounds on their gap, the complete
two-component characterization, and the arithmetic/geometric mean bounds
those results rest on.

All rates are bits per source vector; distortions are normalized by the
source dimension so the zero-rate value is 1.

Curves and bounds are evaluated a whole rate grid at a time: active counts
and water levels come from :func:`waterfill._levels`, the partial sums
over the active components from prefix sums that add left to right, and
every power of two from the C library's ``pow``.  The
one-rate functions (:func:`idrf`, :func:`ce_drf`, the gap and its bounds)
evaluate that grid at a single rate, so they equal :func:`sweep` bit for
bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from . import waterfill
from .spectral import (
    ObservationModel,
    Spectrum,
    conditional_spectrum,
    observation_spectrum,
    prefix_sums,
)

#: Leading weights ``lam/(lam+s2)^2`` within this relative distance of the
#: first one count as tied in :func:`equality_region`.  Eigenvalues that are
#: equal in exact arithmetic come back from the SVD a few ulps apart;
#: this absorbs that with about five orders of magnitude to spare.
TIE_RTOL = 1e-10

#: The two-component forms accept ``lambda1/(lambda1+s2)^2`` up to this much
#: (relative) above ``lambda2/(lambda2+s2)^2``, so the condition's boundary
#: case, equal weights, is not rejected for the rounding of the two quotients.
CONDITION_2D_RTOL = 1e-12


class ConditionViolated(ValueError):
    """The two-component scenario restriction does not hold."""


class NonPositiveInput(ValueError):
    """Mean/bound computations require strictly positive values."""


class InvalidGrid(ValueError):
    """A rate grid must be non-empty, non-negative, and increasing."""


class DistortionPoint(NamedTuple):
    """Both distortion-rate curves and the gap bounds evaluated at one rate."""

    R: float
    d_idrf: float
    d_ce: float
    gap: float
    gap_ub: float
    gap_lb: float
    k_idrf: int
    k_ce: int
    theta_idrf: float
    theta_ce: float


@dataclass(frozen=True)
class EqualityRegion:
    """Rates up to ``R_limit`` where compress-and-estimate is optimal.

    ``r0`` is the length of the leading block of eigenvalues sharing the
    maximal value of ``lam / (lam + sigma2)^2``; ``unconditional`` means
    the two curves coincide at every rate.
    """

    r0: int
    R_limit: float
    unconditional: bool


class AmGmBounds(NamedTuple):
    am: float
    gm: float
    reverse_bound: float
    lower_bound: float


# ---------------------------------------------------------------------------
# spectral-level evaluators (shared by the model-level operations and the
# two-component forms)
# ---------------------------------------------------------------------------


def _ce_weights(obs: Spectrum, cond: Spectrum) -> np.ndarray:
    """``lam/(lam+s2)^2`` per component, formed as ``cond/obs``.

    Nothing is squared, so a weight underflows or overflows only where its
    value itself lies outside double precision.
    """
    return cond.arrays[1] / obs.arrays[1]


def _idrf_grid(cond: Spectrum, M: int, R: np.ndarray) -> tuple[np.ndarray, ...]:
    """Distortions, active counts and water levels of the optimal scheme."""
    k, theta = waterfill._levels(cond, R)
    return 1.0 - (cond.arrays[2][k] - k * theta) / M, k, theta


def _ce_grid(obs: Spectrum, cond: Spectrum, M: int, R: np.ndarray) -> tuple[np.ndarray, ...]:
    """Distortions, active counts and water levels of compress-and-estimate."""
    k, theta = waterfill._levels(obs, R)
    kept = cond.arrays[2][k] - theta * prefix_sums(_ce_weights(obs, cond))[k]
    return 1.0 - kept / M, k, theta


def _gap_bounds_grid(model: ObservationModel, R: np.ndarray, k_idrf: np.ndarray,
                     k_ce: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gap_upper_bound` and :func:`gap_lower_bound` over a grid, given both active counts."""
    s2, L = model.sigma2, model.L
    g = model.gram.values
    with np.errstate(over="ignore"):  # above DBL_MAX / 2 bits, -inf: the decay is 2^-inf = 0
        exponent = -2.0 * R / L
    decay = waterfill._exp2(exponent)
    scale = (L / model.M) * (g[0] + s2) / (4.0 * s2)
    if math.isfinite(scale):
        upper = scale * decay
    else:  # only the prefactor overflows: move its binary exponent into the decay's
        (mg, eg), (ms, es) = math.frexp(g[0] + s2), math.frexp(s2)
        t = np.minimum(exponent + (eg - es - 2), 1100.0)  # past 2^1100 the bound is inf anyway
        high = np.where(t > 1000.0, 100.0, 0.0)  # pow raises past 2^1023: take 2^100 out
        with np.errstate(over="ignore"):
            upper = (L / model.M) * (mg / ms) * waterfill._exp2(t - high) * waterfill._exp2(high)
    if L < 2 or model.conditional.rank == 0:
        return upper, np.zeros_like(R)
    f1 = math.sqrt(g[0]) / (g[0] + s2)
    f2 = math.sqrt(g[1]) / (g[1] + s2)
    valid = (R > model.observation.thresholds[1]) & (k_idrf >= k_ce)
    return upper, np.where(valid, (g[L - 1] + s2) / model.M * (f1 - f2) ** 2 * decay, 0.0)


def _points(model: ObservationModel, grid: np.ndarray) -> list[DistortionPoint]:
    """Every :class:`DistortionPoint` field on a validated grid, one column at a time."""
    d_i, k_i, theta_i = _idrf_grid(model.conditional, model.M, grid)
    d_c, k_c, theta_c = _ce_grid(model.observation, model.conditional, model.M, grid)
    upper, lower = _gap_bounds_grid(model, grid, k_i, k_c)
    diff = d_c - d_i
    gap = np.where(diff > 0.0, diff, 0.0)
    columns = (grid, d_i, d_c, gap, upper, lower, k_i, k_c, theta_i, theta_c)
    return list(map(DistortionPoint, *(c.tolist() for c in columns)))


def _point(model: ObservationModel, R: float) -> DistortionPoint:
    """The sweep at the single rate ``R``."""
    return _points(model, np.array([waterfill._check_rate(R)]))[0]


# ---------------------------------------------------------------------------
# main operations
# ---------------------------------------------------------------------------


def idrf(model: ObservationModel, R: float) -> float:
    """Minimum distortion at rate ``R`` with full statistics at the encoder.

    Piecewise closed form via water-filling over the estimate spectrum:
    ``1 - (1/M) sum_{l<=k} lam_l/(lam_l+s2) + (k/M) theta``.  Equals 1 at
    ``R = 0``, decreases to the estimation floor as ``R`` grows.
    """
    return _point(model, R).d_idrf


def ce_drf(model: ObservationModel, R: float) -> float:
    """Distortion of compress-and-estimate coding at rate ``R``.

    Water-filling runs over the observation spectrum (the encoder is blind
    to the source), then the decoder estimates:
    ``1 - (1/M) sum_{l<=k} lam_l/(lam_l+s2) + (theta/M) sum_{l<=k} lam_l/(lam_l+s2)^2``.
    Never below :func:`idrf`.
    """
    return _point(model, R).d_ce


def equality_region(model: ObservationModel) -> EqualityRegion:
    """Largest leading block and rate limit where both curves coincide."""
    cond = model.conditional
    if cond.rank == 0:  # both curves are 1 at every rate
        return EqualityRegion(r0=model.r, R_limit=math.inf, unconditional=True)
    r0 = 1
    c = _ce_weights(model.observation, cond)
    for l in range(1, model.r):
        if abs(c[l] - c[0]) <= TIE_RTOL * c[0]:
            r0 = l + 1
        else:
            break
    limit_cond = cond.thresholds[r0] if r0 <= cond.rank else math.inf
    limit = min(model.observation.thresholds[r0], limit_cond)
    return EqualityRegion(r0=r0, R_limit=limit, unconditional=limit == math.inf)


def gap(model: ObservationModel, R: float) -> float:
    """Distortion penalty of encoder ignorance, ``ce_drf - idrf``, clamped at 0."""
    return _point(model, R).gap


def gap_upper_bound(model: ObservationModel, R: float) -> float:
    """Closed-form upper bound ``(L/M) (lam_1+s2)/(4 s2) 2^{-2R/L}`` on the gap."""
    return _point(model, R).gap_ub


def gap_lower_bound(model: ObservationModel, R: float) -> float:
    """Closed-form lower bound on the gap.

    Returns ``(lam_L+s2)/M (sqrt(lam_1)/(lam_1+s2) - sqrt(lam_2)/(lam_2+s2))^2 2^{-2R/L}``
    when the bound is valid: beyond the second activation rate of the
    observation spectrum, provided the optimal scheme activates at least as
    many components as the blind one.  The derivation compares the blind
    scheme against rate allocated evenly over its own active set, which is
    only an admissible allocation in that regime; outside it (including the
    single-observation case and rates where pure-noise components are
    active) the gap can approach zero while the expression stays positive,
    so the trivial bound 0 is returned instead.
    """
    return _point(model, R).gap_lb


def _check_condition_2d(lambda1: float, lambda2: float, sigma2: float) -> tuple[Spectrum, Spectrum]:
    """The observation and estimate spectra of a two-component pair that meets the condition."""
    if not (math.isfinite(lambda1) and math.isfinite(lambda2)) or lambda1 < lambda2 or lambda2 < 0:
        raise ValueError(
            f"eigenvalues must satisfy lambda1 >= lambda2 >= 0, got {lambda1!r}, {lambda2!r}"
        )
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be a positive finite real, got {sigma2!r}")
    gram = Spectrum.from_values((lambda1, lambda2))
    obs, cond = observation_spectrum(gram, sigma2), conditional_spectrum(gram, sigma2)
    a1, a2 = _ce_weights(obs, cond).tolist()
    if a1 > a2 * (1.0 + CONDITION_2D_RTOL):
        raise ConditionViolated(
            "two-component form requires lambda1/(lambda1+s2)^2 <= lambda2/(lambda2+s2)^2; "
            f"got {a1:.6g} > {a2:.6g}"
        )
    return obs, cond


def gap_2d(lambda1: float, lambda2: float, sigma2: float, R: float) -> float:
    """Gap for two sources observed through two components, in closed form.

    Three regions: zero up to the second activation rate of the estimate
    spectrum, an explicit square up to the second activation rate of the
    observation spectrum, and the general spectral difference beyond that.
    Agrees with :func:`gap` on the matching diagonal model everywhere.
    """
    waterfill._check_rate(R)
    obs, cond = _check_condition_2d(lambda1, lambda2, sigma2)
    (c1, c2), (o1, o2) = cond.values, obs.values
    # c2 = 0: the estimate spectrum's second component never activates
    if c2 == 0.0 or R <= 0.5 * math.log2(c1 / c2) + waterfill.BOUNDARY_SLACK:
        return 0.0
    if R <= 0.5 * math.log2(o1 / o2) + waterfill.BOUNDARY_SLACK:
        return 0.5 * (math.sqrt(c1) * 2.0 ** (-R) - math.sqrt(c2)) ** 2
    rate = np.array([R], dtype=np.float64)
    diff = float(_ce_grid(obs, cond, 2, rate)[0][0] - _idrf_grid(cond, 2, rate)[0][0])
    return max(0.0, diff)


def max_gap_2d(lambda1: float, lambda2: float, sigma2: float) -> tuple[float, float]:
    """Location and value of the largest two-component gap.

    The maximum sits at the second activation rate of the observation
    spectrum: ``(1/2)(lam_2+s2)(sqrt(lam_1)/(lam_1+s2) - sqrt(lam_2)/(lam_2+s2))^2``.
    """
    o1, o2 = _check_condition_2d(lambda1, lambda2, sigma2)[0].values
    f1 = math.sqrt(lambda1) / o1
    f2 = math.sqrt(lambda2) / o2
    return 0.5 * math.log2(o1 / o2), 0.5 * o2 * (f1 - f2) ** 2


def am_gm_pair(values: Iterable[float]) -> AmGmBounds:
    """Arithmetic and geometric means with the two bounds the gap results use.

    ``reverse_bound = gm + ((n-1)/n) max|a_i - a_j|`` bounds the arithmetic
    mean from above; ``lower_bound = gm + (1/n)(sqrt(max) - sqrt(min))^2``
    bounds it from below.
    """
    vals = [float(v) for v in values]
    if not vals:
        raise NonPositiveInput("values must be a non-empty list of positive reals")
    for v in vals:
        if not math.isfinite(v) or v <= 0.0:
            raise NonPositiveInput(f"values must be positive finite reals, got {v!r}")
    n = len(vals)
    am = math.fsum(vals) / n
    gm = 2.0 ** (math.fsum(math.log2(v) for v in vals) / n)
    hi, lo = max(vals), min(vals)
    reverse_bound = gm + (n - 1) / n * (hi - lo)
    lower_bound = gm + (math.sqrt(hi) - math.sqrt(lo)) ** 2 / n
    return AmGmBounds(am, gm, reverse_bound, lower_bound)


def sweep(model: ObservationModel, R_grid: Sequence[float]) -> list[DistortionPoint]:
    """Evaluate both curves, the gap, and its bounds on an increasing rate grid."""
    grid = np.asarray(R_grid, dtype=np.float64)
    if grid.ndim != 1:
        raise InvalidGrid("rate grid must be one-dimensional")
    if grid.size == 0:
        raise InvalidGrid("rate grid is empty")
    if grid[0] < 0.0 or not np.isfinite(grid).all():
        raise InvalidGrid("rates must be finite and non-negative")
    if (grid[1:] <= grid[:-1]).any():
        raise InvalidGrid("rates must be strictly increasing")
    return _points(model, grid)
