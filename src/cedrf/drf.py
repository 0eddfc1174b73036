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

Each curve is the estimation floor plus what compressing each component
adds.  With ``c = lam/(lam+s2)``, ``o = lam + s2`` and ``r`` positive ``c_l``,
``M d = (M - r) + sum_{l<=r} s2/o_l + sum_l t_l``: ``t_l = min(c_l, theta)``
for the optimal scheme, which water-fills ``c``, and ``c_l min(o_l, theta)/o_l``
for compress-and-estimate, which water-fills ``o``.  The first two terms are
the model's ``floor_sum`` ``F`` (:func:`spectral.spectra`) and no term is
negative, so nothing cancels.  One kernel, :func:`_curves`, evaluates both a
whole rate grid at a time: active counts, water levels ``theta = v_k 2^x``
and their powers of two ``2^x`` come from :func:`waterfill._levels`, every
power of two from the C library's ``pow``.  The sums are constant on each
piece of the grid where a count ``k`` holds, so the kernel builds them once
per count and adds each rate's own share: ``M d_idrf = F + S_i`` with
``S_i = k theta + T[k]``, and ``M d_ce = F + S_c`` with ``S_c = 2^x H[k] +
T[min(k, r)]``, where ``T[m] = sum_{l>m} c_l`` and ``H[k] = sum_{l<=min(k,r)}
c_l (o_k/o_l)``.  Each term is at most its ``c_l``: no ``c/o`` weight is
formed, and ``theta_ce``, subnormal where ``sigma2`` is, enters no sum.  Both
curves are bounded by 1, as the exact ones are.  The gap is ``max(S_c - S_i,
0)/M``: the floor, which would cancel it, is never added.  Where ``(k_idrf, k_ce) = (2, 1)``,
``S_c - S_i = c_1 2^-2R + c_2 - 2 sqrt(c_1 c_2) 2^-R`` is formed as the paper's square
``(sqrt(c_1) 2^-R - sqrt(c_2))^2``, which cancels nothing.  Each gap bound is
a prefactor held as ``frexp`` parts times ``2^{-2R/L}``, put together by one
``ldexp`` (:func:`_gap_bounds_grid`).  A spectrum's ``values`` and
``thresholds`` are read-only arrays; scalar code takes Python floats from
them first.  The one-rate functions (:func:`idrf`, :func:`ce_drf`, the gap
and its bounds) evaluate that grid at a single rate, so they equal
:func:`sweep` bit for bit.  Weights ``w = lam/(lam+s2)^2`` are compared as ratios of the spectra
(:func:`_weight_ratio`): the tie rule and the 2-D condition ``w_1 <= w_2`` read one quotient.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Sequence

import numpy as np

from . import linalg, waterfill
from .spectral import ObservationModel, Spectrum, spectra

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


class EqualityRegion(NamedTuple):
    """Rates up to ``R_limit`` where compress-and-estimate is optimal.

    ``r0`` is the length of the leading block of weights ``lam / (lam + sigma2)^2`` that tie
    with the first, compared as ratios of the spectra (:func:`_tie_block`);
    ``unconditional`` means the two curves coincide at every rate.
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


def _curves(obs: Spectrum, cond: Spectrum, floor_sum: float, M: int,
            R: np.ndarray) -> tuple[np.ndarray, ...]:
    """Both schemes' ``(d_idrf, d_ce, gap, k_idrf, k_ce, theta_idrf, theta_ce)`` on a non-decreasing
    grid of valid rates, from the sums ``S_i``, ``S_c`` of the module docstring.

    ``T`` is summed from its smallest term up and ``H`` left to right; ``H`` is built for the
    counts from the first rate's to the last's alone.  The ``(2, 1)`` rows' gap is the square.
    """
    k_i, theta_i, _ = waterfill._levels(cond, R)
    k_c, theta_c, power = waterfill._levels(obs, R)
    r, c, o = cond.rank, cond.values, obs.values
    tail = np.zeros(r + 1)  # T[m], m = 0..r
    np.add.accumulate(c[:r][::-1], out=tail[:r][::-1])
    k0, k1 = int(k_c[0]), int(k_c[-1])
    w = min(k1, r)
    # [j, m]: the first m terms of H[k0 + j], summed; past that count, m > k0 + j, the
    # ratios exceed 1, unread, and stay finite: the rank rule keeps o_1/o_r below 1e32
    head = np.zeros((k1 - k0 + 1, w + 1))
    np.add.accumulate(o[k0 - 1:k1, None] / o[:w] * c[:w], axis=1, out=head[:, 1:])
    m = np.minimum(k_c, r)
    d_i = k_i * theta_i + tail[k_i]
    d_c = head[k_c - k0, m] * power + tail[m]
    gap = np.maximum(d_c - d_i, 0.0)
    square = (k_i == 2) & (k_c == 1)
    if square.any():  # k_idrf = 2 needs rank 2
        x = math.sqrt(c[0]) * waterfill._exp2(-R[square]) - math.sqrt(c[1])
        gap[square] = x * x
    return (np.minimum((d_i + floor_sum) / M, 1.0), np.minimum((d_c + floor_sum) / M, 1.0),
            gap / M, k_i, k_c, theta_i, theta_c)


def _lower_prefactor(lam: Sequence[float], obs: Sequence[float], M: int) -> tuple[float, int]:
    """``(lam_L + s2)/M (f_1 - f_2)^2`` as ``(m, e)``, its value ``m 2^e``, with ``obs = lam + s2``
    and ``f = sqrt(lam)/(lam + s2)`` of the two leading components."""
    mf, ef = math.frexp(math.sqrt(lam[0]) / obs[0] - math.sqrt(lam[1]) / obs[1])
    mo, eo = math.frexp(obs[-1])
    return mo / M * (mf * mf), eo + 2 * ef


def _gap_bounds_grid(model: ObservationModel, R: np.ndarray, k_idrf: np.ndarray,
                     k_ce: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`gap_upper_bound` and :func:`gap_lower_bound` over a grid, given both active counts.

    Each bound is a prefactor, held as ``frexp`` parts ``(m, e)``, times
    ``2^x``, ``x = max(-2R/L, -4000)`` (below, both are 0), split once by
    :func:`waterfill._split` into ``2^x = head 2^whole``: the bound is
    ``ldexp(m head, whole + e)``, inf or subnormal only where its value is.
    """
    L, M, o = model.L, model.M, model.observation.values.tolist()
    with np.errstate(over="ignore"):  # -2R is -inf past DBL_MAX/2, clamped; upper may be inf
        head, whole = waterfill._split(np.maximum(-2.0 * R / L, -4000.0))
        (mo, eo), (ms, es) = math.frexp(o[0]), math.frexp(model.sigma2)
        upper = np.ldexp(L / M * mo / ms * head, whole + (eo - es - 2))
    if L < 2:  # no second component; at rank 0 the prefactor is 0 and k_idrf < k_ce
        return upper, np.zeros_like(R)
    m, e = _lower_prefactor(model.gram.values.tolist(), o, M)
    return upper, np.where((k_ce >= 2) & (k_idrf >= k_ce), np.ldexp(m * head, whole + e), 0.0)


def _columns(model: ObservationModel, grid: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every :class:`DistortionPoint` field on a validated grid, as one array per field.

    Each rate's entries depend on that rate alone, so a rate's row is the
    same bits in any grid that holds it.
    """
    d_i, d_c, gap, k_i, k_c, theta_i, theta_c = _curves(model.observation, model.conditional,
                                                        model.floor_sum, model.M, grid)
    upper, lower = _gap_bounds_grid(model, grid, k_i, k_c)
    return grid, d_i, d_c, gap, upper, lower, k_i, k_c, theta_i, theta_c


def _points(model: ObservationModel, grid: np.ndarray) -> list[DistortionPoint]:
    """The rows of :func:`_columns`, one :class:`DistortionPoint` per rate."""
    return list(map(DistortionPoint, *(c.tolist() for c in _columns(model, grid))))


def _point(model: ObservationModel, R: float) -> DistortionPoint:
    """The sweep at the single rate ``R``."""
    return _points(model, np.array([waterfill._check_rate(R)]))[0]


# ---------------------------------------------------------------------------
# main operations
# ---------------------------------------------------------------------------


def idrf(model: ObservationModel, R: float) -> float:
    """Minimum distortion at rate ``R`` with full statistics at the encoder.

    The estimation floor plus ``(1/M) sum_l min(c_l, theta)``, ``theta`` the water level
    of the estimate spectrum ``c = lam/(lam+s2)``.  Equals 1 within an ulp at ``R = 0``,
    decreases to the floor as ``R`` grows.
    """
    return _point(model, R).d_idrf


def ce_drf(model: ObservationModel, R: float) -> float:
    """Distortion of compress-and-estimate coding at rate ``R``.

    Water-filling runs over the observation spectrum ``o = lam + s2`` (the
    encoder is blind to the source), then the decoder estimates: the
    estimation floor plus ``(1/M) sum_l c_l min(o_l, theta)/o_l``,
    ``c = lam/(lam+s2)``.  Never below :func:`idrf`.
    """
    return _point(model, R).d_ce


def _weight_ratio(o: Sequence[float], c: Sequence[float], l: int) -> float:
    """``rho_l = w_l/w_1 = (o_1/o_l)(c_l/c_1)`` of ``w = c/o`` from ``frexp`` parts, which no scale
    moves (logs, :func:`spectral._log2_ratio`, would add ``u`` per octave they span); 0 where
    ``c_l`` is; past ``2^1000`` (the exponent's cap) it is only far above 1."""
    (p, i), (q, j), (r, k), (t, m) = map(math.frexp, (o[0], c[l], o[l], c[0]))
    return math.ldexp(p * q / (r * t), min(i + j - k - m, 1000))


def _tie_block(obs: Spectrum, cond: Spectrum, lam: Sequence[float], n: int) -> int:
    """Length of the leading block of weights ``w = lam/(lam+s2)^2`` that tie with the first.

    With ``rho_l = w_l/w_1`` of :func:`_weight_ratio`, ``w_l`` ties when
    ``|rho_l - 1| <= a_1 + rho_l a_l``, ``|w_l - w_1| <= nu_1 + nu_l`` by ``w_1``: ``a_l = nu_l/w_l
    = 2 (delta/s_l) |1 - 2 c_l| + 5u`` is the first-order relative error of ``w_l``, ``u = eps/2``,
    ``s_l = sqrt(lam_l)``, ``delta = n eps s_1`` the error of ``s`` (:func:`linalg.noise_level`,
    ``n`` the matrix's larger side; 0 for exact values), ``dw/ds = (2 w/s)(1 - 2 c)``, ``5u`` the
    rounding of ``s^2``, ``lam + s2`` (twice), ``lam / obs`` (:func:`spectral.spectra`) and ``rho``.
    ``a_l <= 3`` as ``s_l > delta``, ``rho_l < lam_1/lam_l``; past rank, ``w = 0``.
    """
    o, c, eps = obs.values.tolist(), cond.values.tolist(), sys.float_info.epsilon
    delta = linalg.noise_level(math.sqrt(lam[0]), n)
    def a(l: int) -> float:
        return 2.0 * delta / math.sqrt(lam[l]) * abs(1.0 - 2.0 * c[l]) + 2.5 * eps
    def tied(l: int) -> bool:
        rho = _weight_ratio(o, c, l)
        return abs(rho - 1.0) <= a(0) + rho * a(l)
    return next((l for l in range(1, cond.rank) if not tied(l)), cond.rank)


def equality_region(model: ObservationModel) -> EqualityRegion:
    """Largest leading block and rate limit where both curves coincide."""
    cond = model.conditional
    if cond.rank == 0:  # both curves are 1 at every rate
        return EqualityRegion(r0=model.r, R_limit=math.inf, unconditional=True)
    r0 = _tie_block(model.observation, cond, model.gram.values.tolist(), max(model.M, model.L))
    limit = min(float(model.observation.thresholds[r0]), float(cond.thresholds[r0]))
    return EqualityRegion(r0=r0, R_limit=limit, unconditional=limit == math.inf)


def gap(model: ObservationModel, R: float) -> float:
    """Distortion penalty of encoder ignorance, ``ce_drf - idrf``, clamped at 0: the difference
    of the two curves' sums before the floor is added (:func:`_curves`), so it does not cancel."""
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


def _check_condition_2d(lambda1: float, lambda2: float,
                        sigma2: float) -> tuple[tuple[float, float], Spectrum, Spectrum, float]:
    """The pair as floats, both spectra and the floor sum of an exact two-component pair that
    meets ``w_1 <= w_2``, read as ``rho = w_2/w_1 >= 1`` (:func:`_weight_ratio`).  A pair that
    fails it by a tie (:func:`_tie_block`) passes, and so does one whose weights are both 0."""
    lam = l1, l2 = linalg.real("lambda1", lambda1), linalg.real("lambda2", lambda2)
    if not (math.isfinite(l1) and math.isfinite(l2)) or l1 < l2 or l2 < 0:
        raise ValueError(
            f"eigenvalues must satisfy lambda1 >= lambda2 >= 0, got {lambda1!r}, {lambda2!r}"
        )
    obs, cond, floor_sum = spectra(Spectrum(lam), linalg.real("sigma2", sigma2), 2)
    rho = _weight_ratio(obs.values.tolist(), cond.values.tolist(), 1) if cond.rank else 1.0
    if rho < 1.0 and _tie_block(obs, cond, lam, 0) < 2:
        raise ConditionViolated("two-component form requires w_1 <= w_2, w = lam/(lam+sigma2)^2; "
                                f"got rho = w_2/w_1 = {rho!r}")
    return lam, obs, cond, floor_sum


def gap_2d(lambda1: float, lambda2: float, sigma2: float, R: float) -> float:
    """Gap for two sources observed through two components, in closed form.

    The gap of :func:`_curves` at the one rate ``R``; on a diagonal model whose ``gram.values``
    are exactly ``(lambda1, lambda2)``, it equals :func:`gap` bit for bit.
    """
    R = waterfill._check_rate(R)
    _, obs, cond, floor_sum = _check_condition_2d(lambda1, lambda2, sigma2)
    return float(_curves(obs, cond, floor_sum, 2, np.array([R]))[2][0])


def max_gap_2d(lambda1: float, lambda2: float, sigma2: float) -> tuple[float, float]:
    """Location and value of the largest two-component gap.

    The maximum sits at the second activation rate of the observation
    spectrum, its ``thresholds[1]``, and is the lower bound's prefactor at
    ``L = M = 2``: ``(1/2)(lam_2+s2)(sqrt(lam_1)/(lam_1+s2) - sqrt(lam_2)/(lam_2+s2))^2``.
    """
    lam, obs, _, _ = _check_condition_2d(lambda1, lambda2, sigma2)
    return float(obs.thresholds[1]), math.ldexp(*_lower_prefactor(lam, obs.values, 2))


def am_gm_pair(values: Sequence[float]) -> AmGmBounds:
    """Arithmetic and geometric means with the two bounds the gap results use.

    ``reverse_bound = gm + ((n-1)/n) max|a_i - a_j|`` bounds the arithmetic
    mean from above; ``lower_bound = gm + (1/n)(sqrt(max) - sqrt(min))^2``
    bounds it from below.  Every positive finite list gives finite means.
    The values are summed scaled by ``2^-e``, where no ``n`` of them can
    overflow; ``e > 0`` only when the largest is within a factor ``2n`` of
    overflow, so elsewhere the mean keeps the bits of ``fsum(values) / n``.
    The log-mean sums ``frexp`` exponents and mantissa logs, so ``gm`` keeps
    its relative accuracy at any scale; the orders the exact values keep,
    ``gm <= am <= reverse_bound <= DBL_MAX`` and ``lower_bound <= am``, are
    imposed on the rounded ones: an ulp's move, or an overflowed
    ``reverse_bound``'s from inf to ``DBL_MAX``.
    """
    vals = linalg.vector("values", values).tolist()
    if not vals:
        raise NonPositiveInput("values must be a non-empty list of positive reals")
    for v in vals:
        if not math.isfinite(v) or v <= 0.0:
            raise NonPositiveInput(f"values must be positive finite reals, got {v!r}")
    n = len(vals)
    hi, lo = max(vals), min(vals)
    e = max(math.frexp(hi)[1] + n.bit_length() - 1024, 0)
    am = math.ldexp(math.fsum(math.ldexp(v, -e) for v in vals) / n, e)
    mantissas, exponents = zip(*map(math.frexp, vals))
    q = -(-sum(exponents) // n)  # so rest is in (-2, 0), and 2^rest 2^q cannot overflow
    rest = math.fsum([*map(math.log2, mantissas), sum(exponents) - q * n]) / n
    gm = min(math.ldexp(2.0 ** rest, q), am)
    reverse_bound = min(max(gm + (n - 1) / n * (hi - lo), am), sys.float_info.max)
    lower_bound = min(gm + (math.sqrt(hi) - math.sqrt(lo)) ** 2 / n, am)
    return AmGmBounds(am, gm, reverse_bound, lower_bound)


def _check_grid(R_grid: Sequence[float]) -> np.ndarray:
    """``R_grid`` read by :func:`waterfill._check_rates`, if non-empty and strictly increasing."""
    try:
        grid = waterfill._check_rates(R_grid, "R_grid")
    except ValueError as exc:
        raise InvalidGrid(str(exc)) from exc
    if grid.size == 0:
        raise InvalidGrid("rate grid is empty")
    if (grid[1:] <= grid[:-1]).any():
        raise InvalidGrid("rates must be strictly increasing")
    return grid


def sweep(model: ObservationModel, R_grid: Sequence[float]) -> list[DistortionPoint]:
    """Evaluate both curves, the gap, and its bounds on an increasing rate grid."""
    return _points(model, _check_grid(R_grid))
