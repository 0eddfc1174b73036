"""Generative checks that a sweep and the one-rate functions agree bit for bit,
and that the curves match the 60-digit closed forms of ``mp_reference``.

Models are drawn with L, M <= 8: dense, low-rank, and diagonal with
repeated and zero entries (exactly tied and rank-deficient spectra).  Each
grid holds every finite threshold of both spectra and the threshold +-1 ulp,
where the active count changes.

Grid evaluation is pointwise: a rate's closed forms, and its rows of the
compress-and-estimate test channel, are the same bits in every grid that
holds it.  ``verify`` rests on that, reading each check's rates from one
grid of all of them.
"""

import contextlib
import functools
import io
import json
import math
import operator
import sys
import tempfile
import warnings
from bisect import bisect_left
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mp_reference
from test_cli import BYTE_MODELS, _assert_sweep_reads_back, _reference_sweep

from cedrf import cli, drf, oracle, waterfill
from cedrf.linalg import Matrix
from cedrf.spectral import ObservationModel


@st.composite
def models(draw, max_dim=8, sigma2s=st.sampled_from([0.01, 0.1, 1.0, 10.0])):
    l_dim, m = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    sigma2 = draw(sigma2s)
    kind = draw(st.sampled_from(["dense", "low-rank", "diagonal"]))
    if kind == "diagonal":
        r = min(l_dim, m)
        diag = draw(st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5, 4.0]), min_size=r, max_size=r))
        a = np.zeros((l_dim, m))
        a[range(r), range(r)] = diag
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "low-rank" and min(l_dim, m) > 1:
            rank = draw(st.integers(1, min(l_dim, m) - 1))
            a = rng.uniform(-2.0, 2.0, (l_dim, rank)) @ rng.uniform(-2.0, 2.0, (rank, m))
        else:
            a = rng.uniform(-2.0, 2.0, (l_dim, m))
    return ObservationModel(Matrix(a), sigma2)


def boundary_grid(model, extra):
    rates = set(extra)
    for spectrum in (model.observation, model.conditional):
        for t in spectrum.thresholds:
            if not math.isfinite(t):
                continue
            rates.update((t, np.nextafter(t, -math.inf), np.nextafter(t, math.inf)))
    return sorted(float(r) for r in rates if r >= 0.0)


def reference_count(spectrum, r):
    """The number of thresholds strictly below ``r``, by bisection."""
    if spectrum.rank == 0:
        return 0
    k = bisect_left(spectrum.thresholds, r)
    return min(max(k, 1), spectrum.rank)


def reference_level(spectrum, k, r):
    """``lam_k 2^{2 (R_k - R) / k}`` one rate at a time, in scalar arithmetic."""
    if k == 0:
        return 0.0
    return spectrum.values[k - 1] * 2.0 ** (2.0 * (spectrum.thresholds[k - 1] - r) / k)


def left_sum(values):
    return functools.reduce(operator.add, values, 0.0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(models(), st.lists(st.floats(0.0, 30.0), max_size=12))
def test_sweep_equals_one_rate_functions(model, extra):
    obs, cond, M = model.observation, model.conditional, model.M
    rank = cond.rank
    c, o = cond.values[:rank].tolist(), obs.values.tolist()
    assert model.floor_sum == math.fsum([M - rank, *(model.sigma2 / v for v in o[:rank])])
    for pt in drf.sweep(model, boundary_grid(model, extra)):
        r = pt.R
        assert (pt.k_idrf, pt.theta_idrf) == waterfill.water_level(cond, r)
        assert (pt.k_ce, pt.theta_ce) == waterfill.water_level(obs, r)
        alloc = waterfill.rate_allocation(cond, r)
        assert (alloc.k, alloc.theta) == (pt.k_idrf, pt.theta_idrf)
        alloc = waterfill.rate_allocation(obs, r)
        assert (alloc.k, alloc.theta) == (pt.k_ce, pt.theta_ce)
        assert pt.k_idrf == waterfill.active_count(cond, r) == reference_count(cond, r)
        assert pt.k_ce == waterfill.active_count(obs, r) == reference_count(obs, r)
        assert pt.theta_idrf == reference_level(cond, pt.k_idrf, r)
        assert pt.theta_ce == reference_level(obs, pt.k_ce, r)
        assert pt.d_idrf == drf.idrf(model, r)
        assert pt.d_ce == drf.ce_drf(model, r)
        # the floor plus each curve's per-piece sum, at most 1, indices from 0: T[m] = sum_{l>=m}
        # c_l from the smallest term up, H[k] = sum_{l<min(k,r)} c_l (o_{k-1}/o_l) left to right
        def tail(m):
            return left_sum(reversed(c[m:]))
        F, k, m = model.floor_sum, pt.k_ce, min(pt.k_ce, rank)
        s_i = pt.k_idrf * pt.theta_idrf + tail(pt.k_idrf)
        assert pt.d_idrf == min((F + s_i) / M, 1.0)
        power = 2.0 ** (2.0 * (obs.thresholds.tolist()[k - 1] - r) / k)
        head = left_sum([v * (o[k - 1] / w) for v, w in zip(c[:m], o)])
        s_c = power * head + tail(m)
        assert pt.d_ce == min((F + s_c) / M, 1.0)
        # the gap is the sums' difference, before the floor is added, and where the counts are
        # (2, 1) that difference as the paper's square (sqrt(c_1) 2^-R - sqrt(c_2))^2; it stays
        # within rounding of the printed curves' difference: two roundings in each curve (the
        # sum, the division), one in their difference and two in the gap, 5u (d_ce + d_idrf)
        # in all, u = eps/2, plus whatever the clamp at 1 takes off either curve
        if (pt.k_idrf, pt.k_ce) == (2, 1):
            x = math.sqrt(c[0]) * 2.0 ** -r - math.sqrt(c[1])
            assert pt.gap == drf.gap(model, r) == x * x / M
        else:
            assert pt.gap == drf.gap(model, r) == max(0.0, s_c - s_i) / M
        clamped = sum(max((F + s) / M - 1.0, 0.0) for s in (s_c, s_i))
        slack = 2.5 * sys.float_info.epsilon * (pt.d_ce + pt.d_idrf) + clamped
        assert abs(pt.gap - max(0.0, pt.d_ce - pt.d_idrf)) <= slack, pt
        assert pt.gap_ub == drf.gap_upper_bound(model, r)
        assert pt.gap_lb == drf.gap_lower_bound(model, r)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(models())
def test_curves_are_continuous_across_every_threshold(model):
    # with no slack the count flips exactly at a computed threshold; the water
    # level is continuous there, so at t, t +- 1 ulp and t + 1e-12 of every
    # finite threshold the bound sandwich holds at verify's 1e-10, and between
    # neighbouring rates each curve moves by no more than its slope allows,
    # |dd/dR| <= 2 ln2 theta W_k / (k M) <= 2 ln2 / M, plus a few ulps
    past = [t + 1e-12 for s in (model.observation, model.conditional)
            for t in s.thresholds.tolist() if math.isfinite(t)]
    points = drf.sweep(model, boundary_grid(model, past))
    for pt in points:
        assert max(pt.gap_lb - pt.gap, pt.gap - pt.gap_ub, pt.d_idrf - pt.d_ce) <= 1e-10, pt
    for a, b in zip(points, points[1:]):
        slope = 2.0 * math.log(2.0) * (b.R - a.R) / model.M + 4.0 * sys.float_info.epsilon
        assert abs(b.d_idrf - a.d_idrf) <= slope and abs(b.d_ce - a.d_ce) <= slope, (a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(models(), st.integers(-480, 480), st.lists(st.floats(0.0, 30.0), max_size=8))
def test_power_of_two_twins_give_the_same_bits(model, j, extra):
    # (2^j A, 4^j sigma2) scales the singular values, lam, lam + sigma2 and the
    # weights by exact powers of two, and leaves lam / (lam + sigma2) alone: every
    # _columns field keeps its bits, but theta_ce, which is exactly 4^j times its base's
    # where the twin's value is normal.  Past |j| of about 456 LAPACK would rescale A by a
    # factor that is not a power of two, unless the model factors A at unit scale
    twin = ObservationModel(Matrix(np.ldexp(model.A.data, j)), math.ldexp(model.sigma2, 2 * j))
    grid = np.array(boundary_grid(model, extra))
    base, scaled = drf._columns(model, grid), drf._columns(twin, grid)
    for name, b, t in zip(drf.DistortionPoint._fields, base, scaled, strict=True):
        if name == "theta_ce":
            normal = np.abs(t) >= sys.float_info.min
            b, t = np.ldexp(b, 2 * j)[normal], t[normal]
        assert b.tobytes() == t.tobytes(), (name, j)
    # the oracles read the model's SVD: its U and V keep their bits, its s scales exactly
    assert (oracle.ce_matrix_forms(twin, cli._ORACLE_RATES)
            == oracle.ce_matrix_forms(model, cli._ORACLE_RATES)), j
    runs = [oracle.mc_estimates(m, 1000, 7, ce_rates=cli._MC_RATES, idrf_rates=cli._MC_RATES,
                                mmse=True) for m in (model, twin)]
    base_mc, twin_mc = ([(e.mean, e.stderr) for e in (*r.ce, *r.idrf, r.mmse)] for r in runs)
    assert base_mc == twin_mc, j


@st.composite
def tall_models(draw):
    """L >= M, a quarter of them rank-deficient, sigma2 log-uniform in [1e-12, 10]."""
    m = draw(st.integers(1, 5))
    l_dim = draw(st.integers(m, 6))
    rank = m if m == 1 or draw(st.integers(0, 3)) else draw(st.integers(1, m - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(l_dim, rank)) @ rng.normal(size=(rank, m))
    return ObservationModel(Matrix(a), 10.0 ** draw(st.floats(-12.0, 1.0)))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(tall_models())
def test_curves_keep_their_order(model):
    # mmse_floor <= d_idrf <= d_ce <= 1 at every rate; the structural zeros of
    # A A^T (L > M) must count as exact zeros, or d_ce falls below d_idrf,
    # and even below 0, at small sigma2
    slack = 1e-12
    floor = model.mmse_floor
    for pt in drf.sweep(model, np.linspace(0.0, 60.0, 241)):
        assert floor - slack <= pt.d_idrf <= pt.d_ce + slack, pt
        assert pt.d_ce <= 1.0 + slack, pt


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(models(), st.lists(st.floats(0.0, 30.0), max_size=12))
def test_curves_do_not_increase_with_rate(model, extra):
    # verify's monotonicity tolerance, on a grid through every threshold
    grid = sorted(set(boundary_grid(model, extra)) | set(np.linspace(0.0, 30.0, 121).tolist()))
    points = drf.sweep(model, grid)
    for a, b in zip(points, points[1:]):
        assert b.d_idrf - a.d_idrf <= 1e-12, (a, b)
        assert b.d_ce - a.d_ce <= 1e-12, (a, b)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(models(), st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=12))
def test_curves_coincide_on_the_equality_region(model, fractions):
    # verify's equality tolerance on (0, min(R_limit, 12)], its thresholds included
    cap = min(drf.equality_region(model).R_limit, 12.0)
    rates = {cap * f for f in (*fractions, *np.linspace(0.0, 1.0, 41)[1:].tolist())}
    rates.update(r for r in boundary_grid(model, ()) if 0.0 < r <= cap)
    grid = sorted(r for r in rates if r > 0.0)
    for pt in drf.sweep(model, grid):
        assert abs(pt.d_ce - pt.d_idrf) <= 1e-10, pt


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(models(max_dim=5, sigma2s=st.floats(-6.0, 6.0).map(lambda e: 10.0 ** e)),
       st.lists(st.floats(0.0, 30.0), max_size=8), st.data())
def test_grid_evaluation_is_pointwise(model, extra, data):
    # every finite threshold of both spectra and the rates 1e-13 either side
    # of it, split at random into up to three sub-grids: each sub-grid's rows
    # of the union's evaluation must equal the sub-grid's own, bit for bit
    rates = set(extra)
    for spectrum in (model.observation, model.conditional):
        finite = [t for t in spectrum.thresholds if math.isfinite(t)]
        rates.update(t + d for t in finite for d in (-1e-13, 0.0, 1e-13))
    union = np.array(sorted(r for r in rates if r >= 0.0))
    labels = data.draw(st.lists(st.integers(0, 2), min_size=union.size, max_size=union.size))
    columns = drf._columns(model, union)
    parts = oracle._ce_grid(model, union.tolist())
    for label in set(labels):
        sub = [r for r, n in zip(union.tolist(), labels) if n == label]
        at = np.searchsorted(union, sub)
        assert list(map(drf.DistortionPoint, *(c[at].tolist() for c in columns))) == \
            drf.sweep(model, sub)
        rows, own = oracle._rows(parts, at), oracle._ce_grid(model, sub)
        # so one stacked SVD of the union serves every rate: its decoders and forms too
        for field in ("gain", "distortion", "channel", "noise_cov", "decoder", "d_ce"):
            assert np.array_equal(getattr(rows, field), getattr(own, field)), field
        assert rows.d_ce.tolist() == oracle.ce_matrix_forms(model, sub)
        maps = [oracle._error_maps(p.decoder, p.channel, p.noise_cov, model.L) for p in (rows, own)]
        for a, b in zip(*maps, strict=True):
            assert np.array_equal(a, b)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.one_of(models().map(lambda m: {"A": m.A.data.tolist(), "sigma2": m.sigma2}),
                 st.just(BYTE_MODELS["infinite gap bound"])),
       st.floats(0.0, 1e3), st.floats(1e-6, 1e3), st.integers(2, 64),
       st.sampled_from(["csv", "json"]), st.booleans())
def test_sweep_files_equal_the_reference_bytes(doc, low, span, steps, fmt, nats):
    # the column writer against drf.sweep's rows, written one % per row (CSV) or by one
    # orjson.dumps (JSON); a JSON file also reads back strictly, bit for bit
    with tempfile.TemporaryDirectory() as d:
        path, out = Path(d) / "model.json", Path(d) / "sweep.out"
        path.write_text(json.dumps(doc))
        argv = ["sweep", str(path), "--min", repr(low), "--max", repr(low + span),
                "--steps", str(steps), "--out", str(out), "--format", fmt] + ["--nats"] * nats
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        grid = np.linspace(low, low + span, steps)
        model = cli.load_model(path)
        assert out.read_bytes() == _reference_sweep(model, grid, fmt, nats).encode()
        if fmt == "json":
            _assert_sweep_reads_back(out.read_bytes(), model, grid, nats)


#: Largest relative error of ``idrf``, ``ce_drf`` and ``mmse_floor`` against
#: ``mp_reference``: each is the floor sum plus non-negative terms, so none cancels
REFERENCE_RTOL = 1e-14

#: Largest error of the gap against ``mp_reference``, in units of ``eps (S_c + S_i) / M``,
#: the size of the two per-count sums it is the difference of.  Measured on 1,000 models of
#: ``seeded_models`` at R = 0..60 in steps of 0.5 (121,000 points): the 99.9th percentile is
#: 13.3 and the worst 17.1, so 32 leaves a factor of about 2.
GAP_K = 32.0


def _rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


@st.composite
def wide_models(draw):
    """L, M in 1..6, singular values log-uniform in 1e+-4 under random rotations,
    sigma2 log-uniform in [1e-12, 1e3]."""
    l_dim, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = min(l_dim, m)
    s = np.sort(10.0 ** rng.uniform(-4.0, 4.0, r))[::-1]
    a = (_rotation(rng, l_dim)[:, :r] * s) @ _rotation(rng, m)[:r]
    return ObservationModel(Matrix(a), 10.0 ** draw(st.floats(-12.0, 3.0)))


def assert_matches_reference(model, rates):
    """``idrf``, ``ce_drf`` at each rate and ``mmse_floor`` within ``REFERENCE_RTOL`` relative,
    and the gap within ``GAP_K eps (S_c + S_i) / M``, the sums taken from the reference too.

    The reference gap is the difference of two 60-digit curves, so it carries their rounding,
    ``10^-60`` each; where the true gap is 0 and the sums are tiny, that is all it shows.
    """
    gram, s2, M = model.gram.values.tolist(), model.sigma2, model.M
    eps, noise = sys.float_info.epsilon, 2.0 * 10.0 ** -mp_reference.DPS
    def close(got, want, what):
        assert abs(got - float(want)) <= REFERENCE_RTOL * abs(float(want)), (what, got, want)
    close(model.mmse_floor, mp_reference.mmse_floor(gram, s2, M), "mmse_floor")
    for pt in drf.sweep(model, rates):
        close(pt.d_idrf, mp_reference.idrf(gram, s2, M, pt.R), ("idrf", pt.R))
        close(pt.d_ce, mp_reference.ce_drf(gram, s2, M, pt.R), ("ce_drf", pt.R))
        want = mp_reference.gap(gram, s2, M, pt.R)
        s_i, s_c = mp_reference.sums(gram, s2, M, pt.R)
        bound = GAP_K * eps * float((s_i + s_c) / M) + noise
        assert abs(pt.gap - float(want)) <= bound, ("gap", pt.R, pt.gap, want, bound)


def seeded_models(n):
    """``n`` models from ``default_rng(0)``: ``L``, ``M`` in 1..6, singular values log-uniform
    in 1e+-4 under random rotations, ``sigma2`` log-uniform in [1e-6, 1e3]."""
    rng = np.random.default_rng(0)
    for _ in range(n):
        l_dim, m = (int(v) for v in rng.integers(1, 7, size=2))
        r = min(l_dim, m)
        s = np.sort(10.0 ** rng.uniform(-4.0, 4.0, r))[::-1]
        a = (_rotation(rng, l_dim)[:, :r] * s) @ _rotation(rng, m)[:r]
        yield ObservationModel(Matrix(a), 10.0 ** rng.uniform(-6.0, 3.0))


#: Largest error of the gap on the ``(k_idrf, k_ce) = (2, 1)`` piece against ``mp_reference``,
#: in units of ``eps (a + b) |a - b| / M``, ``a = sqrt(c_1) 2^-R``, ``b = sqrt(c_2)``: the
#: conditioning of the square ``(a - b)^2``.  Measured on the 15,005 such rows of 400
#: ``seeded_models`` at R = 0..60 in steps of 0.05: the worst is 2.25 (p99 1.39); the same
#: quantity as the difference ``S_c - S_i`` of the two sums reaches 633.
SQUARE_K = 8.0


def test_the_square_piece_matches_the_reference():
    # every fourth (2, 1) row of 200 seeded models, about 2,000 points; noise is the
    # reference gap's own rounding, as in assert_matches_reference
    grid, eps = np.arange(0.0, 60.0 + 1e-9, 0.05), sys.float_info.epsilon
    noise, rows = 2.0 * 10.0 ** -mp_reference.DPS, 0
    for model in seeded_models(200):
        R, _, _, gap, _, _, k_i, k_c = drf._columns(model, grid)[:8]
        c, gram, s2, M = model.conditional.values, model.gram.values.tolist(), model.sigma2, model.M
        for j in np.flatnonzero((k_i == 2) & (k_c == 1))[::4].tolist():
            rows += 1
            r = float(R[j])
            a, b = math.sqrt(c[0]) * 2.0 ** -r, math.sqrt(c[1])
            want = mp_reference.gap(gram, s2, M, r)
            bound = SQUARE_K * eps * (a + b) * abs(a - b) / M + noise
            assert abs(gap[j] - float(want)) <= bound, (r, gap[j], want, bound)
    assert rows > 1500


def test_no_gap_below_its_lower_bound():
    # gap >= gap_lb at every rate of 4,000 seeded models; on hundreds of them, most with
    # L = 2, a gap taken as the difference of the finished curves, floor included, would
    # cancel below the bound
    grid = np.linspace(0.0, 60.0, 1201)
    below = []
    for i, model in enumerate(seeded_models(4000)):
        _, _, _, gap, _, lower = drf._columns(model, grid)[:6]
        if (gap < lower).any():
            below.append((i, model.L, model.M))
    assert below == []


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(wide_models(), st.lists(st.floats(0.0, 60.0), max_size=6))
def test_curves_and_floor_match_the_reference(model, extra):
    # at random rates and at every threshold of both spectra, where the counts change
    assert_matches_reference(model, boundary_grid(model, extra))


@pytest.mark.parametrize("diag, sigma2, rates", [
    # floors near 1e-12 and 1e-18, where 1 - (1/M) sum c_l would cancel, and the paper's example
    ((2.0, math.sqrt(2.0), 1.0), 1e-12, range(0, 61)),
    ((829.35, 202.82), 1e-13, [68.23]),
    ((math.sqrt(20.0), math.sqrt(0.5)), 1.0, [0.0, 1.0, 40.0, 50.0, 60.0]),
    # subnormal sigma2, where the compress-and-estimate water level is subnormal too
    ((1e-160, 4e-161), 1e-320, range(0, 61)),
    ((1e-155, 5e-156), 1e-310, range(0, 61)),
])
def test_curves_near_the_floor_match_the_reference(diag, sigma2, rates):
    assert_matches_reference(ObservationModel(Matrix(np.diag(diag)), sigma2), [float(r) for r in rates])


@pytest.mark.parametrize("diag, sigma2", [((1e-155, 5e-156), 1e-310), ((1e-160, 4e-161), 1e-320)])
def test_subnormal_sigma2_gives_finite_curves_with_no_warning(diag, sigma2):
    # the weights lam/(lam+s2)^2 are past double precision here, and no curve forms them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = ObservationModel(Matrix(np.diag(diag)), sigma2)
        points = drf.sweep(model, np.linspace(0.0, 60.0, 121))
    assert all(math.isfinite(v) for pt in points for v in pt[:4]), points
