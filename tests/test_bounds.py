"""Bound formulas, their identities, the chain audit, and the optimizer."""

import itertools
import math
import os
import random
import signal
import struct
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcover import _forked, bounds
from qcover import (
    BoundParams,
    InfeasibleParamsError,
    classic_bound,
    closed_form_bound,
    closed_form_chain_check,
    feasibility,
    nested_parametric_bound,
    optimize_parametric_bound,
    parametric_bound,
)
from qcover.bounds import (
    BOUND_TABLE_HEADER,
    _bound_factored,
    _bound_geometric,
    _feasibility_tail,
    _golden_min_x,
    _golden_min_y,
    _inner_min_estimate,
    _ratio_pow,
    bound_table_rows,
    floor_div_real,
    require_feasible,
)

from oracles import (
    golden_min,
    mp_chain_check,
    mp_classic_bound,
    mp_closed_form_bound,
    mp_inner_argmin,
    mp_nested_bound,
    mp_optimal_bound,
    mp_parametric_bound,
    recurrence_depth,
    recurrence_limit,
    reference_golden_min_y,
    reference_optimize_parametric_bound,
    sample_feasible_params,
    simulate_constant_recurrence,
    telescoped_error_bound,
)


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def chain_params(R):
    y = R * math.log(R) + 1.0
    x = R * math.log(y) + 2.0 * math.log(R)
    return x, y


# ---------------------------------------------------------------------------
# feasibility
# ---------------------------------------------------------------------------


def test_feasibility_boundary_is_one():
    y = 2.0
    p = BoundParams(R=3, x=3 * math.log(y), y=y)
    assert feasibility(p) == 1.0


@pytest.mark.parametrize("R", [6, 17, 100])
def test_feasibility_at_chain_params_is_inverse_square(R):
    x, y = chain_params(R)
    t = feasibility(BoundParams(R=R, x=x, y=y))
    assert rel_err(t, R**-2.0) < 1e-9


# ---------------------------------------------------------------------------
# parametric bound
# ---------------------------------------------------------------------------


def test_parametric_bound_simple_value():
    # R=1, y=2, x=ln4: the tail factor is 1 + 1/(4/2 - 1) = 2, so the whole
    # expression collapses to 4*ln(4)
    p = BoundParams(R=1, x=math.log(4), y=2.0)
    assert rel_err(parametric_bound(p), 4 * math.log(4)) < 1e-14
    assert rel_err(parametric_bound(p), 5.545177444479562) < 1e-12
    assert rel_err(parametric_bound(p), float(mp_parametric_bound(1, math.log(4), 2))) < 1e-13


def test_parametric_bound_matches_high_precision_oracle():
    rng = random.Random(101)
    for _ in range(200):
        R, x, y = sample_feasible_params(rng, r_max=60, margin_lo=0.05)
        got = parametric_bound(BoundParams(R=R, x=x, y=y))
        want = float(mp_parametric_bound(R, x, y))
        assert rel_err(got, want) < 1e-11, (R, x, y)


def test_parametric_bound_forms_agree():
    rng = random.Random(7)
    for _ in range(1000):
        R, x, y = sample_feasible_params(rng)
        assert rel_err(_bound_factored(R, x, y), _bound_geometric(R, x, y)) <= 1e-12


def test_parametric_bound_limit_for_large_x():
    # as x grows with y fixed, the tail factor vanishes and the bound tends
    # to x * (y/(y-1))^R
    R, y = 4, 3.0
    for x, tol in [(20.0, 1e-6), (40.0, 1e-14)]:
        p = BoundParams(R=R, x=x, y=y)
        plain = x * (y / (y - 1.0)) ** R
        assert rel_err(parametric_bound(p), plain) < tol


def test_parametric_bound_increases_toward_feasibility_boundary():
    R, y = 5, 2.0
    floor_x = R * math.log(y)
    values = [
        parametric_bound(BoundParams(R=R, x=floor_x + eps, y=y))
        for eps in (2.0, 1.0, 0.5, 0.1, 0.01, 1e-4)
    ]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] > 1e4  # blowing up as t -> 1


def test_parametric_bound_rejects_infeasible():
    with pytest.raises(InfeasibleParamsError):
        parametric_bound(BoundParams(R=2, x=2 * math.log(3), y=3.0))
    with pytest.raises(InfeasibleParamsError):
        BoundParams(R=0, x=1.0, y=2.0)
    with pytest.raises(InfeasibleParamsError):
        BoundParams(R=2, x=-1.0, y=2.0)
    with pytest.raises(InfeasibleParamsError):
        BoundParams(R=2, x=1.0, y=0.5)
    # an infinite x, y or mu_star would print Infinity, which is not JSON
    non_finite = ({"x": math.inf}, {"x": math.nan}, {"y": math.inf}, {"R1": 1, "mu_star": math.inf})
    for kwargs in non_finite:
        with pytest.raises(InfeasibleParamsError, match="finite"):
            BoundParams(**{"R": 2, "x": 4.0, "y": 2.0, **kwargs})
    with pytest.raises(InfeasibleParamsError, match="finite x"):
        require_feasible(2, math.inf, 2.0)


def test_bound_past_the_double_range():
    # e^x * y^-R - 1 overflows at x = 800: the tail factor is 1, t is 0
    p = BoundParams(R=2, x=800.0, y=2.0)
    assert parametric_bound(p) == 3200.0 and feasibility(p) == 0.0
    assert feasibility(BoundParams(R=2, x=4.0, y=1e308)) == math.inf
    # a zero gap is x rounded onto the boundary, where the bound is inf
    assert _feasibility_tail(0.0) == math.inf
    assert _bound_factored(2**60, 2**60 * math.log(2.0) + 1e-9, 2.0) == math.inf


def test_R_past_the_double_range_is_rejected():
    # one rule for every entry point: R must convert to a float
    for R in (10**400, 2**1024 - 2**970):
        with pytest.raises(InfeasibleParamsError, match="converts to a double"):
            BoundParams(R=R, x=1500.0, y=2.0)
        with pytest.raises(InfeasibleParamsError, match="converts to a double"):
            next(bound_table_rows(1, R))
        with pytest.raises(InfeasibleParamsError, match="converts to a double"):
            closed_form_chain_check(R)
        with pytest.raises(InfeasibleParamsError, match="converts to a double"):
            optimize_parametric_bound(R)
    # the largest R that converts is accepted; R^2 past the range is no error
    BoundParams(R=2**1024 - 2**970 - 1, x=1500.0, y=2.0)
    assert closed_form_chain_check(10**200) == "t"


# ---------------------------------------------------------------------------
# nested bound
# ---------------------------------------------------------------------------


def test_nested_reduces_to_parametric_bit_for_bit():
    rng = random.Random(13)
    for _ in range(300):
        R, x, y = sample_feasible_params(rng)
        if R < 2:
            continue
        p0 = BoundParams(R=R, x=x, y=y, R1=0, mu_star=1.0)
        assert nested_parametric_bound(p0) == parametric_bound(BoundParams(R=R, x=x, y=y))


def test_nested_bound_example_value():
    # R=2, R1=1, y=2, x=ln16, mu=1: (1/2)*2*2*(4/3)*ln16 = (8/3)*ln16
    p = BoundParams(R=2, x=math.log(16), y=2.0, R1=1, mu_star=1.0)
    got = nested_parametric_bound(p)
    assert rel_err(got, (8.0 / 3.0) * math.log(16)) < 1e-14
    assert rel_err(got, 7.39356992597275) < 1e-13
    assert rel_err(got, float(mp_nested_bound(2, 1, math.log(16), 2, 1))) < 1e-13


def test_nested_bound_linear_in_mu():
    base = BoundParams(R=3, x=4.0, y=2.0, R1=1, mu_star=1.0)
    double = BoundParams(R=3, x=4.0, y=2.0, R1=1, mu_star=2.0)
    assert nested_parametric_bound(double) == 2.0 * nested_parametric_bound(base)


def test_nested_bound_mu_defaults():
    p0 = BoundParams(R=4, x=6.0, y=2.0, R1=0)
    assert nested_parametric_bound(p0) == nested_parametric_bound(
        BoundParams(R=4, x=6.0, y=2.0, R1=0, mu_star=1.0)
    )
    p1 = BoundParams(R=4, x=6.0, y=2.0, R1=1)
    mu1 = optimize_parametric_bound(1).bound
    expected = nested_parametric_bound(BoundParams(R=4, x=6.0, y=2.0, R1=1, mu_star=mu1))
    assert rel_err(nested_parametric_bound(p1), expected) < 1e-12


def test_nested_bound_rejects_bad_inner_radius():
    with pytest.raises(InfeasibleParamsError):
        BoundParams(R=3, x=4.0, y=2.0, R1=3)
    with pytest.raises(InfeasibleParamsError):
        BoundParams(R=3, x=4.0, y=2.0, R1=-1)


# ---------------------------------------------------------------------------
# closed-form and classic bounds
# ---------------------------------------------------------------------------


def test_closed_form_bound_values():
    assert rel_err(closed_form_bound(6), 40.651906045065284) < 1e-9
    assert rel_err(closed_form_bound(6), float(mp_closed_form_bound(6))) < 1e-12
    expected_100 = math.exp((1.8 + math.log(math.log(100))) / math.log(100)) * 100 * math.log(100)
    assert rel_err(closed_form_bound(100), expected_100) < 1e-12
    assert rel_err(closed_form_bound(100), 948.4581704747035) < 1e-9
    with pytest.raises(InfeasibleParamsError):
        closed_form_bound(5)


def test_closed_form_bound_monotone():
    values = [closed_form_bound(R) for R in range(6, 10_001)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_classic_bound_values():
    assert rel_err(classic_bound(2, 6), 41.115410845506104) < 1e-9
    assert rel_err(classic_bound(2, 6), float(mp_classic_bound(2, 6))) < 1e-12
    assert classic_bound(3, 6) == 2.0 * classic_bound(2, 6)
    assert classic_bound(7, 11) == 2.0 * classic_bound(2, 11)
    with pytest.raises(InfeasibleParamsError):
        classic_bound(2, 2)
    with pytest.raises(InfeasibleParamsError):
        classic_bound(1, 6)


def test_new_bound_beats_classic_everywhere():
    assert all(closed_form_bound(R) < classic_bound(2, R) for R in range(6, 10_001))
    assert all(closed_form_bound(R) < classic_bound(3, R) for R in range(6, 10_001))


# ---------------------------------------------------------------------------
# chain check
# ---------------------------------------------------------------------------


def test_chain_check_holds_at_six_and_large():
    for R in (6, 7, 50, 10_000):
        assert closed_form_chain_check(R) is None, R
        oracle = mp_chain_check(R)
        assert oracle.bound <= oracle.closed_form


def test_chain_check_reports_failure_at_five():
    assert closed_form_chain_check(5) == "i"
    oracle = mp_chain_check(5)
    assert oracle.lhs_i > oracle.rhs_i
    assert oracle.closed_form is None  # not claimed below six


def test_chain_check_step_values_at_six():
    oracle = mp_chain_check(6)
    assert rel_err(float(oracle.t), 1 / 36) < 1e-9
    assert oracle.lhs_i < oracle.rhs_i
    assert oracle.ratio_pow <= oracle.ratio_pow_cap
    assert rel_err(float(oracle.bound), 32.21334194386763) < 1e-9


def test_chain_check_first_failure_matches_oracle():
    for R in [*range(2, 301), 10_000]:
        assert closed_form_chain_check(R) == mp_chain_check(R).failed_step, R


def test_chain_check_fails_step_t_where_the_chain_point_overflows():
    # y = R ln R + 1 and x overflow from about R = 2^1014.5; below that the
    # identity already fails in doubles
    for R in (2**1013, 2**1014, 2**1015, 2**1023, 2**1024 - 2**970 - 1):
        assert closed_form_chain_check(R) == "t", R


def test_chain_check_rejects_tiny_R():
    with pytest.raises(ValueError):
        closed_form_chain_check(1)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def test_optimizer_beats_simple_sample_at_R1():
    opt = optimize_parametric_bound(1)
    assert opt.bound <= 4 * math.log(4)
    assert 4.0 < opt.bound <= 4.911  # grid-scan reference value 4.91082
    assert rel_err(opt.bound, parametric_bound(BoundParams(R=1, x=opt.x, y=opt.y))) == 0.0


def test_optimizer_dominates_chain_params():
    for R in (6, 10):
        x, y = chain_params(R)
        reference = parametric_bound(BoundParams(R=R, x=x, y=y))
        opt = optimize_parametric_bound(R)
        assert opt.bound <= reference
        assert opt.bound <= closed_form_bound(R)
        assert feasibility(BoundParams(R=R, x=opt.x, y=opt.y)) < 1.0


def test_optimizer_dominates_random_feasible_samples():
    rng = random.Random(55)
    for R in (2, 7):
        opt = optimize_parametric_bound(R)
        for _ in range(50):
            y = 1.0 + math.exp(rng.uniform(math.log(1e-2), math.log(10.0 * R)))
            x = R * math.log(y) + math.exp(rng.uniform(math.log(0.05), math.log(10.0)))
            assert opt.bound <= parametric_bound(BoundParams(R=R, x=x, y=y))


def test_optimizer_matches_mp_optimal_bound():
    # the oracle's region is wider than the optimizer's in both x and y
    for R in (1, 2, 3, 6, 10, 50, 200):
        assert rel_err(optimize_parametric_bound(R).bound, float(mp_optimal_bound(R))) <= 1e-9


# at R = 10^8, 10^10 and 10^12 the bracket term dominates the estimates' error bounds
@pytest.mark.parametrize("R", [*range(1, 61), 100, 200, 1000, 10_000, 10**5, 10**6, 10**8, 10**10, 10**12,
                               10**15, 2**54])
def test_optimizer_equals_reference_float_for_float(R):
    assert optimize_parametric_bound(R) == reference_optimize_parametric_bound(R)


@settings(max_examples=400, deadline=None)
@given(
    # from 2^53 on, x = R*ln(y) + gap can round onto the boundary (gap 0)
    R=st.one_of(st.integers(1, 300), st.integers(300, 10**6), st.integers(2**53, 2**62)),
    # y - 1 at most 1e-14 saturates (y/(y-1))^R to inf once R > 22
    y_minus_1=st.one_of(st.floats(1e-15, 1e-14), st.floats(1e-14, 1e6)),
    # brackets from the feasibility boundary, and past 709 where expm1 overflows
    gap=st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(1e-9, 709.0),
                  st.floats(709.0, 1e5)),
    width=st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(1e-6, 1e3)),
)
@example(R=3, y_minus_1=1.0, gap=1e-12, width=1.0)
@example(R=3, y_minus_1=1.0, gap=0.0, width=0.0)
@example(R=3, y_minus_1=1.0, gap=700.0, width=100.0)
@example(R=10_000, y_minus_1=1e-15, gap=1e-9, width=200.0)
# x rounds onto the boundary: both points are at gap 0
@example(R=2**60, y_minus_1=1.0, gap=1e-9, width=1e-6)
# the optimizer's bracket at R = 2^55 is three ulps wide
@example(R=2**55, y_minus_1=7.4e17, gap=1e-9, width=20.0 * math.log(2**55 + 2.0))
def test_golden_min_x_equals_golden_min_of_bound_factored(R, y_minus_1, gap, width):
    y = 1.0 + y_minus_1
    floor_x = R * math.log(y)
    lo = floor_x + gap
    hi = lo + width
    got = _golden_min_x(floor_x, _ratio_pow(y, R), lo, hi)
    want = golden_min(lambda x: _bound_factored(R, x, y), lo, hi)
    assert got == want, (R, y, lo, hi, got, want)


def optimizer_u_range(R):
    y_hi = 10.0 * R * math.log(R + 2.0) + 10.0
    return math.log(1e-6), math.log(y_hi - 1.0)


#: the fixed relative margin by which the outer search once decided its
#: comparisons; the estimates' gaps to the inner values stay well under it
FIXED_MARGIN = 1e-9


@pytest.mark.parametrize("R", [1, 2, 3, 10, 100, 10**4, 10**6, 10**9, 10**12, 10**15])
def test_inner_min_estimate_is_within_a_hundredth_of_the_margin(R):
    x_span = 20.0 * math.log(R + 2.0)
    u_lo, u_hi = optimizer_u_range(R)
    finite = 0
    for k in range(200):
        y = 1.0 + math.exp(u_lo + (u_hi - u_lo) * k / 199)
        floor_x, rp = R * math.log(y), _ratio_pow(y, R)
        _, value = _golden_min_x(floor_x, rp, floor_x + 1e-9, floor_x + x_span)
        estimate = _inner_min_estimate(floor_x, rp, x_span)
        if rp == math.inf:
            assert value == estimate[0] == math.inf, (R, y)
        elif estimate is not None:
            assert rel_err(value, estimate[0]) <= FIXED_MARGIN / 100, (R, y, value, estimate)
            finite += 1
    assert finite >= 40  # not vacuous: 46 to 200 points at these R


def test_inner_min_estimate_stays_within_a_tenth_of_the_margin_at_every_scale():
    # from R near 10^10 the inner search stops within a few steps, once its
    # bracket is under 1e-10 of (a + b), so its value may lie up to about
    # 2e-10 above the optimum (6.4e-11 seen at R = 10^11)
    worst = 0.0
    for R in sorted({int(10 ** (k / 4)) for k in range(73)}):
        x_span = 20.0 * math.log(R + 2.0)
        u_lo, u_hi = optimizer_u_range(R)
        for k in range(50):
            y = 1.0 + math.exp(u_lo + (u_hi - u_lo) * k / 49)
            floor_x, rp = R * math.log(y), _ratio_pow(y, R)
            estimate = _inner_min_estimate(floor_x, rp, x_span)
            if estimate is not None and estimate[0] < math.inf:
                _, value = _golden_min_x(floor_x, rp, floor_x + 1e-9, floor_x + x_span)
                worst = max(worst, rel_err(value, estimate[0]))
    assert 1e-11 < worst <= FIXED_MARGIN / 10


def test_inner_min_estimate_is_within_half_its_error_bound_at_every_scale():
    # an outer comparison is decided from two estimates only when they
    # differ by more than the sum of their bounds eps, so each estimate
    # must lie within eps of the inner search's value; half of it leaves
    # room for the rounding of the comparison itself
    for R in sorted({int(10 ** (k / 4)) for k in range(73)}):
        x_span = 20.0 * math.log(R + 2.0)
        u_lo, u_hi = optimizer_u_range(R)
        finite = 0
        for k in range(60):
            y = 1.0 + math.exp(u_lo + (u_hi - u_lo) * k / 59)
            floor_x, rp = R * math.log(y), _ratio_pow(y, R)
            estimate = _inner_min_estimate(floor_x, rp, x_span)
            _, value = _golden_min_x(floor_x, rp, floor_x + 1e-9, floor_x + x_span)
            if rp == math.inf:
                assert value == estimate[0] == math.inf, (R, y)
            elif estimate is not None:
                g, eps = estimate
                assert rel_err(value, g) <= eps / 2, (R, y, value, g, eps)
                finite += 1
        # not vacuous: 13 to 60 points at each R up to 10^16; past 2^54,
        # x* - R ln y (about ln(R ln y)) is under an ulp of x*, so x* rounds
        # onto R ln y, out of the inner bracket, and no point has an estimate
        assert finite > 0 or R > 2**54, R


@settings(max_examples=150, deadline=None)
@given(
    R=st.one_of(st.integers(1, 10**6), st.integers(2**53, 2**62)),
    # a sub-bracket of the optimizer's u range, as fractions of it; 0 and 1
    # are its ends, so some brackets share one end with the range
    ends=st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                   st.one_of(st.just(1.0), st.floats(0.0, 1.0))),
)
@example(R=1000, ends=(0.0, 0.5))  # the power is inf at every point
@example(R=200, ends=(0.0, 1.0))
@example(R=2**60, ends=(0.0, 1.0))  # no finite value anywhere
def test_golden_min_y_equals_the_plain_search(R, ends):
    u_lo, u_hi = optimizer_u_range(R)
    lo, hi = (u_hi if t == 1.0 else u_lo + (u_hi - u_lo) * t for t in sorted(ends))
    assert _golden_min_y(R, lo, hi) == reference_golden_min_y(R, lo, hi), (R, lo, hi)


@pytest.mark.parametrize("R", [6, 200, 1000])
def test_optimizer_runs_at_most_60_inner_searches(R, monkeypatch):
    # the plain search runs 205 to 207 at these R; a fixed 1e-9 margin ran 89 to 92
    calls = []
    inner = bounds._golden_min_x
    monkeypatch.setattr(bounds, "_golden_min_x", lambda *args: calls.append(args) or inner(*args))
    optimize_parametric_bound(R)
    assert 0 < len(calls) <= 60


@pytest.mark.parametrize("R", [*range(1, 301), 10**4, 10**6, 10**9, 10**12, 2**54])
def test_no_outer_seed_in_the_left_half_can_win(R):
    # d ln g/du = (R/y)((y - 1)/x* - 1) for g = (y/(y-1))^R (1 + x*), and
    # y - 1 - x* is convex in y with one zero; so y - 1 < x* at u_mid means g
    # falls across the whole left half. A search there then loses to the
    # right half's, so it gives neither the result nor the polish's centre
    u_lo, u_hi = optimizer_u_range(R)
    u_mid = 0.5 * (u_lo + u_hi)
    y_mid = 1.0 + math.exp(u_mid)
    assert y_mid - 1.0 < mp_inner_argmin(R, y_mid), R
    left, _, _ = reference_golden_min_y(R, u_lo, u_mid)
    assert left > reference_golden_min_y(R, u_mid, u_hi)[0], R
    assert left > reference_optimize_parametric_bound(R).bound, R


@pytest.mark.parametrize("R", [1, 2, 6, 20, 100])
def test_inner_min_estimate_falls_across_the_left_half(R):
    x_span = 20.0 * math.log(R + 2.0)
    u_lo, u_hi = optimizer_u_range(R)
    u_mid = 0.5 * (u_lo + u_hi)
    values = []
    for k in range(100):
        y = 1.0 + math.exp(u_lo + (u_mid - u_lo) * k / 99)
        estimate = _inner_min_estimate(R * math.log(y), _ratio_pow(y, R), x_span)
        if estimate is not None:
            values.append(estimate[0])
    finite = [g for g in values if g < math.inf]
    assert len(finite) >= 30  # 38 at R = 100, 100 below it
    assert values == [math.inf] * (len(values) - len(finite)) + finite, R
    assert all(g > h for g, h in zip(finite, finite[1:])), R


@pytest.mark.parametrize("R", [1, 6, 200, 10**6])
def test_optimizer_runs_three_outer_searches(R, monkeypatch):
    # the whole u range, its right half, and a polish around the best point
    calls = []
    outer = bounds._golden_min_y
    monkeypatch.setattr(bounds, "_golden_min_y", lambda *args: calls.append(args) or outer(*args))
    optimize_parametric_bound(R)
    assert len(calls) == 3, calls


def test_optimizer_rejects_bad_R():
    with pytest.raises(InfeasibleParamsError):
        optimize_parametric_bound(0)


def test_optimizer_rejects_R_with_no_finite_bound():
    # from about 2^60, at every y either (y/(y-1))^R overflows or the x
    # bracket rounds onto R*ln(y)
    assert math.isfinite(optimize_parametric_bound(2**54).bound)
    assert math.isfinite(optimize_parametric_bound(2**55).bound)
    with pytest.raises(InfeasibleParamsError, match="finite in doubles"):
        optimize_parametric_bound(2**60)


# ---------------------------------------------------------------------------
# the density recurrence (constant-sequence oracle)
# ---------------------------------------------------------------------------


def test_recurrence_limit_bound_values():
    assert recurrence_limit(1.0, 0.0) == 1.0
    assert recurrence_limit(0.0, 0.9) == 0.0
    with pytest.raises(InfeasibleParamsError):
        recurrence_limit(1.0, 1.0)
    with pytest.raises(InfeasibleParamsError):
        recurrence_limit(1.0, -0.1)


def test_recurrence_limit_matches_parametric_bound():
    # with a = x*(y/(y-1))^R and b = e^-x*y^R the limit a/(1-b) is the bound
    rng = random.Random(19)
    for _ in range(100):
        R, x, y = sample_feasible_params(rng, r_max=40, margin_lo=0.05)
        a = x * math.exp(R * math.log1p(1.0 / (y - 1.0)))
        b = math.exp(R * math.log(y) - x)
        got = recurrence_limit(a, b)
        assert rel_err(got, parametric_bound(BoundParams(R=R, x=x, y=y))) < 1e-12


def test_simulate_recurrence_seeds_and_b_zero():
    s = simulate_constant_recurrence(3.0, 0.0, 2.5, 7.0, 20)
    assert s[1] == 7.0 and s[2] == 7.0  # floor(2/2.5) = 0 keeps the seed
    assert all(s[n] == 3.0 for n in range(3, 21))


def test_simulate_recurrence_converges_geometrically():
    s = simulate_constant_recurrence(1.0, 0.5, 2.0, 0.0, 2**10)
    assert abs(s[2**10] - 2.0) <= 2.0**-9
    assert abs(s[2**10] - 2.0) <= telescoped_error_bound(1.0, 0.5, 2.0, 0.0, 2**10)


def test_recurrence_depth_matches_iterated_floor():
    assert recurrence_depth(2**10, 2.0) == 10
    assert recurrence_depth(10, 1.5) == 4  # 10 -> 6 -> 4 -> 2 -> 1
    assert recurrence_depth(1, 2.0) == 0
    assert floor_div_real(10, 1.5) == 6


def test_telescoped_bound_holds_everywhere_constant_case():
    rng = random.Random(3)
    for k in range(20):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(0.05, 0.95)
        y = rng.uniform(1.2, 4.0)
        s_base = rng.choice([0.0, rng.uniform(0.0, 3.0)])
        limit = recurrence_limit(a, b)
        s = simulate_constant_recurrence(a, b, y, s_base, 512)
        for n in range(1, 513):
            slack = 1e-9 * (1.0 + limit)  # float accumulation headroom
            assert abs(s[n] - limit) <= telescoped_error_bound(a, b, y, s_base, n) + slack, (k, n)


def test_recurrence_spec_validation():
    with pytest.raises(InfeasibleParamsError):
        simulate_constant_recurrence(1.0, 1.2, 2.0, 0.0, 10)
    with pytest.raises(InfeasibleParamsError):
        simulate_constant_recurrence(1.0, 0.5, 1.0, 0.0, 10)


# ---------------------------------------------------------------------------
# bound table rows
# ---------------------------------------------------------------------------


def test_bound_table_rows_schema():
    rows = list(bound_table_rows(5, 7))
    assert len(rows) == 3
    assert len(BOUND_TABLE_HEADER) == len(rows[0]) == 9
    by_r = {row[0]: row for row in rows}
    assert math.isnan(by_r[5][5]) and math.isnan(by_r[5][8])  # no closed form below 6
    assert by_r[6][8] < 1.0  # ratio_new_over_ksv2
    for row in rows:
        assert row[1] < 1.0  # optimized parameters stay feasible
        assert row[4] <= row[6] or math.isnan(row[6])  # bound_opt <= cor_ksv_q2


# ---------------------------------------------------------------------------
# bound table helper process
# ---------------------------------------------------------------------------


def _bits(rows):
    """Each row as (R, the bytes of its 8 doubles): equal float for float, nan too."""
    return [(row[0], struct.pack("8d", *row[1:])) for row in rows]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Offers the table two CPUs and records each helper it forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    made = []
    fork_helper = _forked._fork_helper

    def recording(*args):
        made.append(fork_helper(*args))
        return made[-1]

    monkeypatch.setattr(_forked, "_fork_helper", recording)
    return made


def _serial_rows(monkeypatch, r_min, r_max):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return list(bound_table_rows(r_min, r_max))


def _table_until_error(r_min, r_max):
    rows = []
    with pytest.raises(InfeasibleParamsError) as error:
        for row in bound_table_rows(r_min, r_max):
            rows.append(row)
    return rows, str(error.value)


def test_table_rows_with_a_helper_equal_the_one_cpu_rows(monkeypatch, forks):
    parent, computed = os.getpid(), []
    table_row = bounds._table_row

    def counting(R):
        if os.getpid() == parent:
            computed.append(R)
        return table_row(R)

    monkeypatch.setattr(bounds, "_table_row", counting)
    rows = list(bound_table_rows(1, 300))
    assert len(forks) == 1 and forks[0] is not None
    assert len(computed) < 300  # the helper delivered the rest
    _no_child_left()
    assert [row[0] for row in rows] == list(range(1, 301))
    assert _bits(rows) == _bits(_serial_rows(monkeypatch, 1, 300))
    assert all(math.isnan(row[5]) for row in rows[:5]) and not math.isnan(rows[5][5])


@pytest.mark.parametrize("per_read_s", [0.0, math.inf])
def test_short_tables_on_both_sides_of_the_helper_start_rule(monkeypatch, forks, per_read_s):
    # clocks that make the rows look free (0.0) or endless (inf): a helper
    # still starts for every table of two rows or more, and for no other
    reads = itertools.count()

    def clock():
        n = next(reads)
        return 0.0 if n == 0 else per_read_s * n

    ranges = [(1, 1), (1, 2), (5, 7), (6, 9), (40, 44)]
    for r_min, r_max in ranges:
        with monkeypatch.context() as m:
            m.setattr(time, "perf_counter", clock)
            m.setattr(time, "monotonic", clock)
            rows = list(bound_table_rows(r_min, r_max))
        assert [row[0] for row in rows] == list(range(r_min, r_max + 1))
        assert _bits(rows) == _bits(_serial_rows(monkeypatch, r_min, r_max))
        assert len(forks) == (r_min < r_max) and None not in forks
        forks.clear()
    _no_child_left()


def test_a_table_with_a_helper_reads_no_clock(monkeypatch, forks):
    def no_clock():
        raise AssertionError("clock read")

    with monkeypatch.context() as m:
        m.setattr(time, "perf_counter", no_clock)
        m.setattr(time, "monotonic", no_clock)
        rows = list(bound_table_rows(1, 40))
    assert len(forks) == 1 and forks[0] is not None
    _no_child_left()
    assert _bits(rows) == _bits(_serial_rows(monkeypatch, 1, 40))


@pytest.mark.parametrize("fault", ["raise at once", "raise after 3 rows", "stall"])
def test_a_failing_helper_leaves_the_serial_rows(monkeypatch, forks, fault):
    parent, calls = os.getpid(), []
    outer = bounds._golden_min_y

    def failing(*args):
        if os.getpid() != parent:
            calls.append(args)
            if fault == "stall":
                time.sleep(60)
            if len(calls) > (9 if fault == "raise after 3 rows" else 0):  # 3 searches a row
                raise RuntimeError("helper fault")
        return outer(*args)

    monkeypatch.setattr(bounds, "_golden_min_y", failing)
    start = time.monotonic()
    rows = list(bound_table_rows(20, 60))
    assert time.monotonic() - start < 30
    assert len(forks) == 1 and forks[0] is not None
    _no_child_left()
    assert _bits(rows) == _bits(_serial_rows(monkeypatch, 20, 60))


@pytest.mark.parametrize("fault", [None, "raise at once"])
def test_a_table_where_sigchld_is_ignored(monkeypatch, forks, fault):
    # the kernel reaps the helper itself, so it may be gone before the kill
    parent, outer = os.getpid(), bounds._golden_min_y

    def failing(*args):
        if fault and os.getpid() != parent:
            raise RuntimeError("helper fault")
        return outer(*args)

    monkeypatch.setattr(bounds, "_golden_min_y", failing)
    handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        rows = list(bound_table_rows(20, 60))
    finally:
        signal.signal(signal.SIGCHLD, handler)
    assert len(forks) == 1 and forks[0] is not None
    _no_child_left()
    assert _bits(rows) == _bits(_serial_rows(monkeypatch, 20, 60))


def test_closing_the_table_early_leaves_no_child(monkeypatch, forks):
    rows = bound_table_rows(1, 300)
    assert next(rows)[0] == 1
    assert len(forks) == 1 and forks[0] is not None
    rows.close()
    _no_child_left()


def test_a_table_into_the_first_infinite_optimum_raises_as_serial(monkeypatch, forks, tmp_path, capsys):
    from qcover.cli import main

    def infinite(R):
        try:
            optimize_parametric_bound(R)
        except InfeasibleParamsError:
            return True
        return False

    lo, hi = 10**17, 2**59
    assert not infinite(lo) and infinite(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if infinite(mid) else (mid, hi)
    rows, error = _table_until_error(hi - 3, hi + 2)
    assert len(forks) == 1 and forks[0] is not None
    _no_child_left()
    assert [row[0] for row in rows] == [hi - 3, hi - 2, hi - 1]
    assert f"finite in doubles, got R={hi}" in error
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial_rows, serial_error = _table_until_error(hi - 3, hi + 2)
    assert _bits(rows) == _bits(serial_rows) and error == serial_error
    out = tmp_path / "table.csv"
    argv = ["bounds", "table", "--R-min", str(hi - 3), "--R-max", str(hi + 2), "--out", str(out)]
    assert main(argv) == 3
    assert not out.exists() and f"got R={hi}" in capsys.readouterr().err
    _no_child_left()
