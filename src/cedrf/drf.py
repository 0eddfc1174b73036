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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from . import waterfill
from .spectral import ObservationModel, Spectrum


class ConditionViolated(ValueError):
    """The two-component scenario restriction does not hold."""


class NonPositiveInput(ValueError):
    """Mean/bound computations require strictly positive values."""


class InvalidGrid(ValueError):
    """A rate grid must be non-empty, non-negative, and increasing."""


@dataclass(frozen=True)
class DistortionPoint:
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
# exact two-component forms, which build their spectra without round-off)
# ---------------------------------------------------------------------------


def _idrf_level(cond: Spectrum, R: float) -> tuple[int, float]:
    """Water level of the estimate spectrum; ``(0, 0.0)`` when it is all zero."""
    return waterfill.water_level(cond, R) if cond.rank > 0 else (0, 0.0)


def _idrf_at(cond: Spectrum, M: int, k: int, theta: float) -> float:
    return 1.0 - (sum(cond.values[:k]) - k * theta) / M


def _ce_at(cond_vals: Sequence[float], quad_vals: Sequence[float],
           M: int, k: int, theta: float) -> float:
    return 1.0 - (sum(cond_vals[:k]) - theta * sum(quad_vals[:k])) / M


def _idrf_spectral(cond: Spectrum, M: int, R: float) -> float:
    return _idrf_at(cond, M, *_idrf_level(cond, R))


def _ce_spectral(obs: Spectrum, cond_vals: Sequence[float], quad_vals: Sequence[float],
                 M: int, R: float) -> float:
    return _ce_at(cond_vals, quad_vals, M, *waterfill.water_level(obs, R))


def _quad_values(model: ObservationModel) -> list[float]:
    s2 = model.sigma2
    return [g / ((g + s2) * (g + s2)) for g in model.gram.values]


# ---------------------------------------------------------------------------
# main operations
# ---------------------------------------------------------------------------


def idrf(model: ObservationModel, R: float) -> float:
    """Minimum distortion at rate ``R`` with full statistics at the encoder.

    Piecewise closed form via water-filling over the estimate spectrum:
    ``1 - (1/M) sum_{l<=k} lam_l/(lam_l+s2) + (k/M) theta``.  Equals 1 at
    ``R = 0``, decreases to the estimation floor as ``R`` grows.
    """
    return _idrf_spectral(model.conditional, model.M, R)


def ce_drf(model: ObservationModel, R: float) -> float:
    """Distortion of compress-and-estimate coding at rate ``R``.

    Water-filling runs over the observation spectrum (the encoder is blind
    to the source), then the decoder estimates:
    ``1 - (1/M) sum_{l<=k} lam_l/(lam_l+s2) + (theta/M) sum_{l<=k} lam_l/(lam_l+s2)^2``.
    Never below :func:`idrf`.
    """
    return _ce_spectral(model.observation, model.conditional.values,
                        _quad_values(model), model.M, R)


def equality_region(model: ObservationModel) -> EqualityRegion:
    """Largest leading block and rate limit where both curves coincide."""
    g = model.gram.values
    s2 = model.sigma2
    r0 = 1
    if model.gram.rank == 0:
        r0 = model.r
    else:
        c1 = g[0] / ((g[0] + s2) * (g[0] + s2))
        for l in range(1, model.r):
            cl = g[l] / ((g[l] + s2) * (g[l] + s2))
            if abs(cl - c1) <= 1e-10 * c1:
                r0 = l + 1
            else:
                break
    limit_obs = waterfill.rate_thresholds(model.observation)[r0]
    if model.conditional.rank == 0 or r0 > model.conditional.rank:
        limit_cond = math.inf
    else:
        limit_cond = waterfill.rate_thresholds(model.conditional)[r0]
    return EqualityRegion(
        r0=r0,
        R_limit=min(limit_obs, limit_cond),
        unconditional=(r0 == model.L == model.M),
    )


def gap(model: ObservationModel, R: float) -> float:
    """Distortion penalty of encoder ignorance, ``ce_drf - idrf``, clamped at 0."""
    return max(0.0, ce_drf(model, R) - idrf(model, R))


def gap_upper_bound(model: ObservationModel, R: float) -> float:
    """Closed-form upper bound ``(L/M) (lam_1+s2)/(4 s2) 2^{-2R/L}`` on the gap."""
    waterfill._check_rate(R)
    s2 = model.sigma2
    lam1 = model.gram.values[0]
    return (model.L / model.M) * (lam1 + s2) / (4.0 * s2) * 2.0 ** (-2.0 * R / model.L)


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
    waterfill._check_rate(R)
    if model.L < 2 or model.conditional.rank == 0:
        return 0.0
    if R <= waterfill.rate_thresholds(model.observation)[1]:
        return 0.0
    k_ce = waterfill.active_count(model.observation, R)
    if waterfill.active_count(model.conditional, R) < k_ce:
        return 0.0
    g = model.gram.values
    s2 = model.sigma2
    f1 = math.sqrt(g[0]) / (g[0] + s2)
    f2 = math.sqrt(g[1]) / (g[1] + s2)
    lam_last = g[model.L - 1]
    return (lam_last + s2) / model.M * (f1 - f2) ** 2 * 2.0 ** (-2.0 * R / model.L)


def _check_condition_2d(lambda1: float, lambda2: float, sigma2: float) -> None:
    if not (math.isfinite(lambda1) and math.isfinite(lambda2)) or lambda1 < lambda2 or lambda2 < 0:
        raise ValueError(
            f"eigenvalues must satisfy lambda1 >= lambda2 >= 0, got {lambda1!r}, {lambda2!r}"
        )
    if not (math.isfinite(sigma2) and sigma2 > 0):
        raise ValueError(f"sigma2 must be a positive finite real, got {sigma2!r}")
    a1 = lambda1 / (lambda1 + sigma2) ** 2
    a2 = lambda2 / (lambda2 + sigma2) ** 2
    if a1 > a2 * (1.0 + 1e-12):
        raise ConditionViolated(
            "two-component form requires lambda1/(lambda1+s2)^2 <= lambda2/(lambda2+s2)^2; "
            f"got {a1:.6g} > {a2:.6g}"
        )


def _spectra_2d(lambda1: float, lambda2: float, sigma2: float):
    gram = Spectrum.from_values((lambda1, lambda2))
    obs = Spectrum((lambda1 + sigma2, lambda2 + sigma2), 2)
    cond = Spectrum(
        (lambda1 / (lambda1 + sigma2), lambda2 / (lambda2 + sigma2)), gram.rank
    )
    quad = [lambda1 / (lambda1 + sigma2) ** 2, lambda2 / (lambda2 + sigma2) ** 2]
    return obs, cond, quad


def gap_2d(lambda1: float, lambda2: float, sigma2: float, R: float) -> float:
    """Gap for two sources observed through two components, in closed form.

    Three regions: zero up to the second activation rate of the estimate
    spectrum, an explicit square up to the second activation rate of the
    observation spectrum, and the general spectral difference beyond that.
    Agrees with :func:`gap` on the matching diagonal model everywhere.
    """
    waterfill._check_rate(R)
    _check_condition_2d(lambda1, lambda2, sigma2)
    if lambda1 == 0.0:
        return 0.0
    c1 = lambda1 / (lambda1 + sigma2)
    c2 = lambda2 / (lambda2 + sigma2)
    if c2 == 0.0:
        r2_cond = math.inf
    else:
        r2_cond = 0.5 * math.log2(c1 / c2)
    if R <= r2_cond + waterfill.BOUNDARY_SLACK:
        return 0.0
    r2_obs = 0.5 * math.log2((lambda1 + sigma2) / (lambda2 + sigma2))
    if R <= r2_obs + waterfill.BOUNDARY_SLACK:
        return 0.5 * (math.sqrt(c1) * 2.0 ** (-R) - math.sqrt(c2)) ** 2
    obs, cond, quad = _spectra_2d(lambda1, lambda2, sigma2)
    d_ce = _ce_spectral(obs, cond.values, quad, 2, R)
    d_idrf = _idrf_spectral(cond, 2, R)
    return max(0.0, d_ce - d_idrf)


def max_gap_2d(lambda1: float, lambda2: float, sigma2: float) -> tuple[float, float]:
    """Location and value of the largest two-component gap.

    The maximum sits at the second activation rate of the observation
    spectrum: ``(1/2)(lam_2+s2)(sqrt(lam_1)/(lam_1+s2) - sqrt(lam_2)/(lam_2+s2))^2``.
    """
    _check_condition_2d(lambda1, lambda2, sigma2)
    r_star = 0.5 * math.log2((lambda1 + sigma2) / (lambda2 + sigma2))
    f1 = math.sqrt(lambda1) / (lambda1 + sigma2)
    f2 = math.sqrt(lambda2) / (lambda2 + sigma2)
    g_star = 0.5 * (lambda2 + sigma2) * (f1 - f2) ** 2
    return r_star, g_star


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
    if n <= 20:
        gm = math.prod(vals) ** (1.0 / n)
    else:
        gm = 2.0 ** (math.fsum(math.log2(v) for v in vals) / n)
    hi, lo = max(vals), min(vals)
    reverse_bound = gm + (n - 1) / n * (hi - lo)
    lower_bound = gm + (math.sqrt(hi) - math.sqrt(lo)) ** 2 / n
    return AmGmBounds(am, gm, reverse_bound, lower_bound)


def sweep(model: ObservationModel, R_grid: Sequence[float]) -> list[DistortionPoint]:
    """Evaluate both curves, the gap, and its bounds on an increasing rate grid."""
    grid = [float(r) for r in R_grid]
    if not grid:
        raise InvalidGrid("rate grid is empty")
    if grid[0] < 0.0 or not all(math.isfinite(r) for r in grid):
        raise InvalidGrid("rates must be finite and non-negative")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InvalidGrid("rates must be strictly increasing")
    cond = model.conditional
    obs = model.observation
    quad = _quad_values(model)
    points = []
    for r in grid:
        k_i, theta_i = _idrf_level(cond, r)
        k_c, theta_c = waterfill.water_level(obs, r)
        d_i = _idrf_at(cond, model.M, k_i, theta_i)
        d_c = _ce_at(cond.values, quad, model.M, k_c, theta_c)
        points.append(
            DistortionPoint(
                R=r,
                d_idrf=d_i,
                d_ce=d_c,
                gap=max(0.0, d_c - d_i),
                gap_ub=gap_upper_bound(model, r),
                gap_lb=gap_lower_bound(model, r),
                k_idrf=k_i,
                k_ce=k_c,
                theta_idrf=theta_i,
                theta_ce=theta_c,
            )
        )
    return points
