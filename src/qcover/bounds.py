"""Upper bounds on the asymptotic density of radius-R covering codes.

The central object is the two-parameter bound

    x * (y/(y-1))^R * (1 + 1/(e^x * y^-R - 1)),     valid when e^-x * y^R < 1,

which is the limit a/(1-b) of the construction's density recurrence
s_n <= a + b * s_floor(n/y), with a = x*(y/(y-1))^R and b = e^-x * y^R.
Alongside it: its generalization that nests a smaller-radius density, two
closed forms (the refined R >= 6 bound and the classic benchmark it
improves on), a numeric audit of the inequality chain behind the refined
form, a nested golden-section optimizer over the feasible (x, y) region,
and the exact floor(n/y) the recursive construction splits by.

Powers of y/(y-1) are evaluated as exp(R * log1p(1/(y-1))) and the
feasibility factor through expm1 of the gap x - R*ln(y), which keeps both
algebraic forms of the bound accurate even next to the feasibility boundary
and for very large R. The optimizer's inner search over x is one fused loop
that computes R*ln(y) and the power once per y and evaluates each x inline,
in the same float operations as the plain factored form. Its outer search
over y decides a comparison from the closed-form inner optimum
(y/(y-1))^R * (1 + x*), x* - log1p(x*) = R*ln(y), when the two points'
estimates differ by more than the sum of their own error bounds, so each
goes as with both searches run, and the outputs are those of the plain
nested search; about 50 inner searches run per R up to 10^4. The public
bounds raise InfeasibleParamsError when the value, or R, is past the double
range; the optimizer's own evaluations saturate to inf instead.

The bound table's rows are independent optimizations. Where fork() exists
and at least two CPUs are available, bound_table_rows forks one helper
process (qcover._forked) that computes rows from the top of the range down
while the caller's process computes them from the bottom up. The rows are
those of the serial loop either way, and a helper that fails only leaves
more rows to the caller's process.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, NamedTuple, Optional

from .errors import InfeasibleParamsError


def _require_double_R(R: int) -> None:
    """Raise InfeasibleParamsError unless R converts to a float, as every formula needs."""
    try:
        float(R)
    except OverflowError:
        raise InfeasibleParamsError(
            f"requires R that converts to a double (R < 2^1024 - 2^970), got a {R.bit_length()}-bit R"
        ) from None


@dataclass(frozen=True)
class BoundParams:
    """Parameters (R, x, y) of the parametric bound, optionally with an inner
    radius R1 and the asymptotic density value to charge for it."""

    R: int
    x: float
    y: float
    R1: Optional[int] = None
    mu_star: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.R, int) or self.R < 1:
            raise InfeasibleParamsError(f"requires integer R >= 1, got {self.R!r}")
        _require_double_R(self.R)
        if not 0 < self.x < math.inf:
            raise InfeasibleParamsError(f"requires finite x > 0, got {self.x!r}")
        if not 1 < self.y < math.inf:
            raise InfeasibleParamsError(f"requires finite y > 1, got {self.y!r}")
        if self.R1 is not None and not 0 <= self.R1 < self.R:
            raise InfeasibleParamsError(f"requires 0 <= R1 < R, got R1={self.R1!r}")
        if self.mu_star is not None and not 1 <= self.mu_star < math.inf:
            raise InfeasibleParamsError(f"requires finite mu_star >= 1, got {self.mu_star!r}")


def feasibility(p: BoundParams) -> float:
    """The factor t = exp(-x) * y^R; the parametric bound needs t < 1.

    Saturates to inf past the double range.
    """
    try:
        return math.exp(p.R * math.log(p.y) - p.x)
    except OverflowError:
        return math.inf


def require_feasible(R: int, x: float, y: float) -> None:
    """Raise InfeasibleParamsError unless x is finite and x > R*ln(y), i.e. the factor t < 1."""
    if not x < math.inf:
        raise InfeasibleParamsError(f"requires finite x, got {x!r}")
    if not x > R * math.log(y):
        raise InfeasibleParamsError("requires x > R*ln(y) (equivalently exp(-x)*y^R < 1)")


def _ratio_pow(y: float, k: int) -> float:
    """(y/(y-1))^k without forming the ratio (stable for y near 1).

    Saturates to inf when the value exceeds the double range (y very close
    to 1 with large k), which keeps comparisons well-defined.
    """
    try:
        return math.exp(k * math.log1p(1.0 / (y - 1.0)))
    except OverflowError:
        return math.inf


def _feasibility_tail(gap: float) -> float:
    # 1 + 1/(e^x * y^-R - 1) for gap = x - R*ln(y), with the denominator
    # through expm1; a denominator past the double range leaves 1, and a
    # zero gap (x rounded onto R*ln(y)) gives inf. _golden_min_x inlines it.
    try:
        return 1.0 + 1.0 / math.expm1(gap)
    except OverflowError:
        return 1.0
    except ZeroDivisionError:
        return math.inf


def _bound_factored(R: int, x: float, y: float) -> float:
    return x * _ratio_pow(y, R) * _feasibility_tail(x - R * math.log(y))


def _bound_geometric(R: int, x: float, y: float) -> float:
    # a/(1-b) with a = x*(y/(y-1))^R and b = exp(-x)*y^R
    return x * _ratio_pow(y, R) / -math.expm1(R * math.log(y) - x)


def _require_finite(value: float, at: str) -> float:
    """Return ``value``, or raise InfeasibleParamsError if it overflowed the double range."""
    if not value < math.inf:
        raise InfeasibleParamsError(
            f"requires a bound within the double range; it overflows at {at}"
        )
    return value


def parametric_bound(p: BoundParams) -> float:
    """Evaluate the bound both ways, insist they agree, return the factored form.

    Raises InfeasibleParamsError when the bound is past the double range.
    """
    require_feasible(p.R, p.x, p.y)
    a = _require_finite(_bound_factored(p.R, p.x, p.y), f"R={p.R}, x={p.x!r}, y={p.y!r}")
    b = _bound_geometric(p.R, p.x, p.y)
    if not math.isclose(a, b, rel_tol=1e-9):
        raise ArithmeticError(f"bound forms disagree: {a!r} vs {b!r}")
    return a


def nested_parametric_bound(p: BoundParams) -> float:
    """The bound generalized with an inner radius R1 and its density mu_star.

    With R1 = 0 and mu_star = 1 this reduces to :func:`parametric_bound`
    bit for bit (the extra factors are exact 1.0 multiplications). When
    ``mu_star`` is omitted it defaults to 1 for R1 = 0 and to the optimized
    parametric bound at radius R1 otherwise. Raises InfeasibleParamsError
    when the bound, or one of its factors, is past the double range.
    """
    r1 = p.R1 if p.R1 is not None else 0  # BoundParams enforces 0 <= R1 < R
    mu = p.mu_star if p.mu_star is not None else default_mu_star(r1)
    require_feasible(p.R, p.x, p.y)
    at = f"R={p.R}, x={p.x!r}, y={p.y!r}, R1={r1}, mu_star={mu!r}"
    tail = _feasibility_tail(p.x - p.R * math.log(p.y))
    try:
        value = p.x * (1.0 / math.comb(p.R, r1)) * p.y**r1 * _ratio_pow(p.y, p.R - r1) * tail * mu
    except OverflowError:  # C(R, R1) or y^R1 past the double range
        value = math.inf
    return _require_finite(value, at)


def default_mu_star(R1: int) -> float:
    """The density charged for an inner radius R1 when none is given: 1 for
    R1 = 0, otherwise the optimized parametric bound at radius R1."""
    return 1.0 if R1 == 0 else optimize_parametric_bound(R1).bound


def closed_form_bound(R: int) -> float:
    """Closed-form upper bound exp((1.8 + ln ln R)/ln R) * R * ln R, valid for R >= 6."""
    if R < 6:
        raise InfeasibleParamsError(f"requires R >= 6, got {R}")
    ln_r = math.log(R)
    return math.exp((1.8 + math.log(ln_r)) / ln_r) * R * ln_r


def classic_bound(q: int, R: int) -> float:
    """The 25-year benchmark e*(R ln R + ln R + ln ln R + 2), doubled for q >= 3."""
    if q < 2:
        raise InfeasibleParamsError(f"requires q >= 2, got {q}")
    if R < 3:
        raise InfeasibleParamsError(f"requires R >= 3, got {R}")
    ln_r = math.log(R)
    value = math.e * (R * ln_r + ln_r + math.log(ln_r) + 2.0)
    return value if q == 2 else 2.0 * value


def _chain_params(R: int) -> tuple:
    """The chain's parameter point (x, y): y = R ln R + 1 and x = R ln y + 2 ln R,
    chosen so that the feasibility factor t is exactly R^-2."""
    ln_r = math.log(R)
    y = R * ln_r + 1.0
    return R * math.log(y) + 2.0 * ln_r, y


def closed_form_chain_check(R: int) -> Optional[str]:
    """Audit the inequality chain behind the closed-form bound at one R.

    Returns the first step that fails, or None when the chain holds. Steps,
    in order: the feasibility identity t = R^-2 at the chain's parameter
    point ("t"), the pivotal scalar inequality
    x * (1 + 1/(R^2 - 1)) < R * (ln R + ln ln R + 0.8) ("i"), the
    (y/(y-1))^R <= e^(1/ln R) cap ("ii"), and the parametric bound at that
    point being below the closed form ("iii", only claimed for R >= 6).
    Smaller R (>= 2) are accepted and simply reported.
    """
    if R < 2:
        raise ValueError(f"requires R >= 2 so that ln ln R and R^2 - 1 behave, got {R}")
    _require_double_R(R)
    ln_r = math.log(R)
    r_sq = float(R) * R  # past the double range: inf, not OverflowError
    x, y = _chain_params(R)
    # from about R = 2^1014.5, y = R ln R + 1 (and with it x) overflows, so
    # the identity cannot be checked in doubles: step (t) fails
    if not (math.isfinite(x) and math.isfinite(y)):
        return "t"
    # t inherits x's rounding error, about x * 2^-53, as a relative error, so
    # from about R = 10^6 this check can fail where the chain holds (at
    # R = 3e6, 1e8 and 1e12, say): a float check, not the chain's failure
    if not math.isclose(feasibility(BoundParams(R=R, x=x, y=y)), 1.0 / r_sq, rel_tol=1e-9):
        return "t"
    if not x * (1.0 + 1.0 / (r_sq - 1.0)) < R * (ln_r + math.log(ln_r) + 0.8):
        return "i"
    if not _ratio_pow(y, R) <= math.exp(1.0 / ln_r):
        return "ii"
    if R >= 6 and not _bound_factored(R, x, y) <= closed_form_bound(R):
        return "iii"
    return None


# ---------------------------------------------------------------------------
# Optimization over the feasible (x, y) region
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

def _golden_min_x(floor_x: float, rp: float, lo: float, hi: float) -> tuple:
    """Golden-section minimum of the factored bound over x on [lo, hi], fused.

    ``floor_x`` is R*ln(y) <= lo and ``rp`` is (y/(y-1))^R; returns the best
    evaluated (x, value). Each evaluation is :func:`_bound_factored`'s float
    operations in order, so the result is the generic search's over that
    function bit for bit; inlining saves two Python calls per evaluation. As
    a >= floor_x > 0, the stop test needs no abs(), and the loop's points,
    far more than an ulp above a, never reach a zero gap.
    """
    expm1 = math.expm1
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = c * rp * _feasibility_tail(c - floor_x)
    fd = d * rp * _feasibility_tail(d - floor_x)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(300):
        if b - a <= 1e-10 * (a + b + 1e-12):  # relative bracket width
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            try:
                fc = c * rp * (1.0 + 1.0 / expm1(c - floor_x))
            except OverflowError:
                fc = c * rp * 1.0
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            try:
                fd = d * rp * (1.0 + 1.0 / expm1(d - floor_x))
            except OverflowError:
                fd = d * rp * 1.0
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def _inner_min_estimate(floor_x: float, rp: float, x_span: float) -> Optional[tuple]:
    """Closed-form estimate g of :func:`_golden_min_x`'s value at one y and
    a bound eps on their relative difference: (g, eps), or None.

    At fixed y the bound is least at the x* with x - log1p(x) = L = R ln y
    (``floor_x``), where it is (y/(y-1))^R * (1 + x*). Newton steps from
    x0 = L + log1p(L) + 1, above x*, fall towards it, and a step under
    1e-15 * (1 + x) ends them, so rounding cannot make them cycle. Where
    ``rp`` is inf so is every value of the inner search, and g (eps 0).
    It is None where x* is outside the inner bracket (L + 1e-9, L + x_span],
    or from 1e300 on. eps: g and the value differ by about ten roundings,
    under 2e-15 (rp and L are shared); the search ends, at b - a <= 1e-10 (a + b) or
    before a step, with x* and a point evaluated in a bracket at most
    w = min(x_span, 2e-10 (L + x_span)) wide; g''/g = 1/x* at x*, so that
    value is about w^2/(2 x*) above the optimum at most, half the term.
    """
    if rp == math.inf:
        return math.inf, 0.0
    log1p = math.log1p
    x = floor_x + log1p(floor_x) + 1.0
    for _ in range(64):
        step = (x - log1p(x) - floor_x) * (1.0 + x) / x
        x -= step
        if not step > 1e-15 * (1.0 + x):
            break
    else:
        return None
    g = rp * (1.0 + x)
    if not (floor_x + 1e-9 < x <= floor_x + x_span and g < 1e300):
        return None
    w = min(x_span, 2e-10 * (floor_x + x_span))
    return g, 2e-15 + w * w / x


def _golden_min_y(R: int, lo: float, hi: float) -> tuple:
    """Golden-section minimum over u = ln(y - 1) on [lo, hi] of the inner
    minimum over x; returns (value, x, y) of the best point.

    Each point gets :func:`_inner_min_estimate`'s g and eps. A comparison
    with g(p) < g(q) (1 - eps(p) - eps(q)), or the reverse, is decided by
    them; any other runs both inner searches and compares their values. As
    each g is within eps of its value, each comparison goes as in the plain
    search that runs :func:`_golden_min_x` at every u, and a point left
    unsearched is beaten by one searched. So the first point of least
    value, and the result, are the plain search's.
    """
    x_span = 20.0 * math.log(R + 2.0)
    points: List[list] = []  # [estimate, then value; x once searched; y; u; R ln y; rp; eps]

    def point(u: float) -> list:
        y = 1.0 + math.exp(u)
        floor_x = R * math.log(y)
        rp = _ratio_pow(y, R)
        g, eps = _inner_min_estimate(floor_x, rp, x_span) or (None, 0.0)
        points.append([g, None, y, u, floor_x, rp, eps])
        return points[-1]

    def settle(p: list) -> None:  # the inner search, once per point
        if p[1] is None:
            p[1], p[0] = _golden_min_x(p[4], p[5], p[4] + 1e-9, p[4] + x_span)

    def less(p: list, q: list) -> bool:  # the plain search's value(p) < value(q)
        gp, gq = p[0], q[0]
        if gp is not None and gq is not None:
            keep = 1.0 - p[6] - q[6]
            if gp < gq * keep:
                return True
            if gq < gp * keep or gp == math.inf:  # both inf, which is exact
                return False
        settle(p)
        settle(q)
        return p[0] < q[0]

    a, b = lo, hi
    c = point(b - _INV_PHI * (b - a))
    d = point(a + _INV_PHI * (b - a))
    for _ in range(300):
        if abs(b - a) <= 1e-10 * (abs(a) + abs(b) + 1e-12):  # relative bracket width
            break
        if less(c, d):
            b, d = d[3], c
            c = point(b - _INV_PHI * (b - a))
        else:
            a, c = c[3], d
            d = point(a + _INV_PHI * (b - a))
    settle(c if less(c, d) else d)
    best = None
    for p in points:
        if (p[1] is not None or p[0] == math.inf) and (best is None or p[0] < best[0]):
            best = p
    settle(best)
    return best[0], best[1], best[2]


class OptimizationResult(NamedTuple):
    x: float
    y: float
    bound: float


def optimize_parametric_bound(R: int) -> OptimizationResult:
    """Approximately minimize the parametric bound over {y > 1, x > R*ln(y)}.

    Nested golden-section search: the outer pass moves ln(y - 1) over
    [ln 1e-6, ln(y_hi - 1)] with y_hi = 10 R ln(R + 2) + 10, and the inner
    pass moves x over (R ln y, R ln y + 20 ln(R + 2)] in one fused loop,
    :func:`_golden_min_x`, equal bit for bit to the generic search over the
    factored form. The outer pass, :func:`_golden_min_y`, decides a
    comparison from the closed-form inner optimum when the two estimates
    differ by more than the sum of their error bounds, and runs the inner
    searches only otherwise (47-52 times at R = 6, 200 and 1000, 90-100 at
    10^9 to 10^12), so the result is the plain nested search's, float for
    float. Two outer seeds, the whole range and its right half, plus a
    local polish hedge against flat valleys; for R >= 6 the chain point
    joins the pool, so the result can never lose to it. Raises
    InfeasibleParamsError when the best bound is inf, as from R near 2^60.
    """
    if R < 1:
        raise InfeasibleParamsError(f"requires R >= 1, got {R}")
    _require_double_R(R)
    y_hi = 10.0 * R * math.log(R + 2.0) + 10.0
    u_lo, u_hi = math.log(1e-6), math.log(y_hi - 1.0)
    u_mid = 0.5 * (u_lo + u_hi)
    candidates = [_golden_min_y(R, a, b) for a, b in ((u_lo, u_hi), (u_mid, u_hi))]
    if R >= 6:
        xc, yc = _chain_params(R)
        if 1.0 < yc < y_hi:
            candidates.append((_bound_factored(R, xc, yc), xc, yc))
    u0 = math.log(min(candidates)[2] - 1.0)
    candidates.append(_golden_min_y(R, max(u_lo, u0 - 2.0), min(u_hi, u0 + 2.0)))

    val, x, y = min(candidates)
    if not val < math.inf:
        raise InfeasibleParamsError(
            f"requires an R whose optimized bound is finite in doubles, got R={R}"
        )
    return OptimizationResult(x=x, y=y, bound=val)


# ---------------------------------------------------------------------------
# Recursion split
# ---------------------------------------------------------------------------


def floor_div_real(n: int, y: float) -> int:
    """Exact floor(n / y) for a positive real y (no double-rounding)."""
    return int(Fraction(n) / Fraction(y))


# ---------------------------------------------------------------------------
# Bound table (CSV schema used by the CLI)
# ---------------------------------------------------------------------------

BOUND_TABLE_HEADER = (
    "R",
    "t_feas",
    "x_opt",
    "y_opt",
    "bound_opt",
    "cor_new",
    "cor_ksv_q2",
    "cor_ksv_q3",
    "ratio_new_over_ksv2",
)


#: a row after its R, as the helper process sends it
_ROW = struct.Struct("8d")


def _table_row(R: int) -> tuple:
    opt = optimize_parametric_bound(R)
    t = feasibility(BoundParams(R=R, x=opt.x, y=opt.y))
    new = closed_form_bound(R) if R >= 6 else math.nan
    ksv2 = classic_bound(2, R) if R >= 3 else math.nan
    ksv3 = classic_bound(3, R) if R >= 3 else math.nan
    ratio = new / ksv2 if R >= 6 else math.nan
    return (R, t, opt.x, opt.y, opt.bound, new, ksv2, ksv3, ratio)


def bound_table_rows(r_min: int, r_max: int) -> Iterator[tuple]:
    """Yield one optimized-bound row per R, in ascending order; columns
    follow BOUND_TABLE_HEADER.

    Columns whose formula does not apply at small R hold nan. Rows are
    computed by :func:`qcover._forked.forked_rows`: on a host with two CPUs,
    a forked helper process computes them from r_max downward. The rows,
    and any InfeasibleParamsError, are the serial ones.
    """
    if r_min < 1 or r_max < r_min:
        raise ValueError(f"requires 1 <= r_min <= r_max, got [{r_min}, {r_max}]")
    _require_double_R(r_max)
    # a wrapper put around the optimizer, such as a tracer that counts its
    # calls, would see only this process's rows, so none is forked then
    may_fork = optimize_parametric_bound.__module__ == __name__
    # imported here, so that commands that never tabulate neither compile nor hold it
    from ._forked import forked_rows

    yield from forked_rows(_table_row, _ROW, r_min, r_max, may_fork)
