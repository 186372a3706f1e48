"""Acceptance criteria, one test per criterion.

Each test prints a single line "[criterion N] PASS/FAIL ..." (run pytest with
-s to see them on success) and enforces both the stated tolerance and the
stated runtime budget.
"""

import math
import random
import time

from qcover import (
    BoundParams,
    DominationFailure,
    HammingSpace,
    ball_volume,
    classic_bound,
    closed_form_bound,
    closed_form_chain_check,
    dominating_partial,
    minimal_covering_code,
    nested_parametric_bound,
    optimize_parametric_bound,
    parametric_bound,
    recursive_construct,
    verify_covering,
)
from qcover.bounds import _bound_factored, _bound_geometric

from oracles import (
    mp_classic_bound,
    mp_closed_form_bound,
    naive_minimal_size,
    nbar_of,
    recurrence_limit,
    sample_feasible_params,
    simulate_constant_recurrence,
    telescoped_error_bound,
)


def report(num, ok, elapsed, budget, detail):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num:2d}] {status} in {elapsed:.2f}s (budget {budget:g}s): {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.2f}s)"


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def chain_params(R):
    y = R * math.log(R) + 1.0
    x = R * math.log(y) + 2.0 * math.log(R)
    return x, y


def test_criterion_01_formula_identity():
    start = time.perf_counter()
    rng = random.Random("criterion-1")
    worst = 0.0
    for _ in range(10_000):
        R, x, y = sample_feasible_params(rng, r_max=500)
        worst = max(worst, rel_err(_bound_factored(R, x, y), _bound_geometric(R, x, y)))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12, elapsed, 1.0,
           f"two bound forms agree on 10^4 samples, worst rel diff {worst:.2e}")


def test_criterion_02_reduction_to_plain_bound():
    start = time.perf_counter()
    rng = random.Random("criterion-2")
    worst = 0.0
    for _ in range(1_000):
        R, x, y = sample_feasible_params(rng, r_max=500)
        nested = nested_parametric_bound(BoundParams(R=R, x=x, y=y, R1=0, mu_star=1.0))
        plain = parametric_bound(BoundParams(R=R, x=x, y=y))
        worst = max(worst, rel_err(nested, plain))
    elapsed = time.perf_counter() - start
    report(2, worst <= 1e-15, elapsed, 1.0,
           f"inner-radius-0 reduction on 10^3 samples, worst rel diff {worst:.2e}")


def test_criterion_03_chain_check_full_sweep():
    start = time.perf_counter()
    bad = None
    for R in range(6, 10_001):
        failed = closed_form_chain_check(R)
        # the check includes the t = R^-2 identity and the 0.8-constant
        # scalar inequality as its first two steps
        if failed is not None:
            bad = (R, failed)
            break
    elapsed = time.perf_counter() - start
    report(3, bad is None, elapsed, 10.0,
           f"inequality chain holds for every R in [6, 10^4] (first failure: {bad})")


def test_criterion_04_improvement_over_classic():
    start = time.perf_counter()
    ok6 = (
        rel_err(closed_form_bound(6), float(mp_closed_form_bound(6))) < 1e-6
        and rel_err(classic_bound(2, 6), float(mp_classic_bound(2, 6))) < 1e-6
        and rel_err(closed_form_bound(6), 40.651906045065284) < 1e-6
        and rel_err(classic_bound(2, 6), 41.115410845506104) < 1e-6
    )
    strict = all(closed_form_bound(R) < classic_bound(2, R) for R in range(6, 10_001))
    elapsed = time.perf_counter() - start
    report(4, ok6 and strict, elapsed, 5.0,
           "closed form beats the classic q=2 bound on all of [6, 10^4]; "
           f"at R=6: {closed_form_bound(6):.4f} < {classic_bound(2, 6):.4f}")


def test_criterion_05_optimizer_dominance():
    start = time.perf_counter()
    ok = True
    details = []
    for R in (6, 10, 20, 50, 100):
        x, y = chain_params(R)
        at_chain = parametric_bound(BoundParams(R=R, x=x, y=y))
        opt = optimize_parametric_bound(R)
        ok = ok and opt.bound <= at_chain and opt.bound <= closed_form_bound(R)
        details.append(f"R={R}:{opt.bound:.2f}<={at_chain:.2f}")
    elapsed = time.perf_counter() - start
    report(5, ok, elapsed, 5.0, "optimizer dominates the chain parameter point: "
           + " ".join(details))


def test_criterion_06_construction_sweep():
    start = time.perf_counter()
    rng = random.Random("criterion-6")
    failures = []
    total = 200
    for k in range(total):
        q = rng.choice([2, 3])
        n = rng.randint(1, 14)
        radius = rng.randint(1, 3)
        y = rng.uniform(1.3, 3.0)
        x = radius * math.log(y) + rng.uniform(0.3, 2.5)
        sp = HammingSpace(q, n)
        code, trace = recursive_construct(sp, radius, x, y, seed=k)
        if not verify_covering(code, radius).covered:
            failures.append(("uncovered", q, n, radius, y, x, k))
            continue
        for lv in trace.levels:
            if lv.k_size != lv.x_size * q**lv.r + lv.nbar_size * lv.k2_size:
                failures.append(("trace", q, n, radius, y, x, k))
    elapsed = time.perf_counter() - start
    report(6, not failures, elapsed, 120.0,
           f"{total}/200 constructions verified covering with exact trace "
           f"identities (failures: {failures[:3]})")


def test_criterion_07_domination_thresholds():
    start = time.perf_counter()
    rng = random.Random("criterion-7")
    runs, successes = 100, 0
    violations = []
    for k in range(runs):
        q = rng.choice([2, 3])
        n = rng.randint(6, 14) if q == 2 else rng.randint(4, 8)
        radius = rng.randint(1, 3)
        x = rng.uniform(1.0, 5.0)
        sp = HammingSpace(q, n)
        assert sp.size <= 1 << 14
        try:
            res = dominating_partial(sp, radius, x, seed=f"c7-{k}", max_trials=100)
        except DominationFailure:
            continue
        successes += 1
        m, d = sp.size, ball_volume(sp, radius) - 1
        size_cap = math.floor(x * m / (d + 1))
        miss_cap = math.ceil(math.exp(-x + (d + 1) / m) * m)
        independent = nbar_of(sp, radius, res.X.tolist())
        if (
            len(res.X) > size_cap
            or len(res.N_bar) > miss_cap
            or independent != frozenset(res.N_bar.tolist())
        ):
            violations.append((q, n, radius, x, k))
    elapsed = time.perf_counter() - start
    report(7, successes >= 95 and not violations, elapsed, 60.0,
           f"{successes}/100 runs met the domination thresholds within 100 "
           f"trials; threshold violations: {violations}")


def test_criterion_08_exact_solver_ground_truth():
    start = time.perf_counter()
    expected = {(2, 3, 1): 2, (2, 4, 1): 4, (2, 5, 1): 7, (3, 2, 1): 3}
    ok = True
    sizes = {}
    for (q, n, radius), want in expected.items():
        assert q**n <= 1 << 9
        got = minimal_covering_code(HammingSpace(q, n), radius).optimal_size
        oracle = naive_minimal_size(q, n, radius)
        sizes[(q, n, radius)] = got
        ok = ok and got == want == oracle
    elapsed = time.perf_counter() - start
    report(8, ok, elapsed, 60.0,
           f"minimal sizes match the subset-enumeration oracle: {sizes}")


def test_criterion_09_volume_ratio_asymptotics():
    start = time.perf_counter()

    def ratios(n):
        r = n // 2
        vn = ball_volume(HammingSpace(2, n), 3)
        return (
            vn / ball_volume(HammingSpace(2, r), 3),
            vn / ball_volume(HammingSpace(2, n - r), 3),
        )

    a4, b4 = ratios(10**4)
    a5, b5 = ratios(10**5)
    dev4 = max(abs(a4 / 8 - 1), abs(b4 / 8 - 1))
    dev5 = max(abs(a5 / 8 - 1), abs(b5 / 8 - 1))
    ok = dev4 < 0.01 and abs(a5 / 8 - 1) < abs(a4 / 8 - 1) and abs(b5 / 8 - 1) < abs(b4 / 8 - 1)
    elapsed = time.perf_counter() - start
    report(9, ok, elapsed, 1.0,
           f"split-volume ratios near 8: deviation {dev4:.2e} at n=1e4, {dev5:.2e} at n=1e5")


def test_criterion_10_asymptotic_claim_substituted():
    # The asymptotic statement itself (a limsup over n -> infinity) is not
    # empirically verifiable; what runs here is the substituted property: the
    # recurrence at equality with the construction's limiting (a, b) converges
    # to a/(1-b) geometrically, and finite-n construction densities are
    # reported next to the bound without asserting an inequality between them.
    start = time.perf_counter()
    R, y = 2, 2.0
    x = R * math.log(y) + 2.0
    a = x * math.exp(R * math.log1p(1.0 / (y - 1.0)))
    b = math.exp(R * math.log(y) - x)
    limit = recurrence_limit(a, b)
    s = simulate_constant_recurrence(a, b, y, 1.0, 4096)
    converged = all(
        abs(s[n] - limit) <= telescoped_error_bound(a, b, y, 1.0, n) + 1e-9 * (1 + limit)
        for n in (64, 256, 1024, 4096)
    )
    lines = []
    for n in (8, 10, 12):
        code, trace = recursive_construct(HammingSpace(2, n), R, x, y, seed=n)
        lines.append(f"n={n}: density {float(trace.density):.3f}")
    elapsed = time.perf_counter() - start
    report(10, converged, elapsed, 60.0,
           "asymptotic inequality NOT verifiable at finite n (limsup over n); "
           f"substitute: recurrence converges to the density bound a/(1-b) = "
           f"{limit:.3f}; finite-n densities reported without assertion: "
           f"{'; '.join(lines)}")


def test_criterion_11_recurrence_convergence():
    start = time.perf_counter()
    s = simulate_constant_recurrence(1.0, 0.5, 2.0, 0.0, 2**10)
    ok = abs(s[2**10] - 2.0) <= 2.0**-9
    rng = random.Random("criterion-11")
    for _ in range(20):
        a = rng.uniform(0.1, 5.0)
        b = rng.uniform(0.05, 0.95)
        y = rng.uniform(1.2, 4.0)
        s_base = rng.choice([0.0, rng.uniform(0.0, 3.0)])
        limit = recurrence_limit(a, b)
        seq = simulate_constant_recurrence(a, b, y, s_base, 512)
        slack = 1e-9 * (1.0 + limit)
        ok = ok and all(
            abs(seq[n] - limit) <= telescoped_error_bound(a, b, y, s_base, n) + slack
            for n in range(1, 513)
        )
    elapsed = time.perf_counter() - start
    report(11, ok, elapsed, 1.0,
           f"|s_N - 2| = {abs(s[2**10] - 2.0):.2e} <= 2^-9 and the telescoped "
           "bound held at every n for 20 random (a, b, y)")
