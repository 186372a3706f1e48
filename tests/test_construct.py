"""Direct sums, partial domination, and the recursive construction."""

import math
import random

import pytest

from qcover import (
    Code,
    DominationFailure,
    HammingSpace,
    InfeasibleParamsError,
    RegularGraphView,
    ball_volume,
    complete_graph_view,
    direct_sum,
    dominating_partial,
    empty_graph_view,
    greedy_ball_cover,
    greedy_dominating_partial,
    hamming_graph_view,
    index_word,
    nbar_of,
    recursive_construct,
    sphere_covering_lower_bound,
    verify_covering,
)
from qcover.bounds import floor_div_real
from oracles import set_greedy_ball_cover
from qcover.construct import (
    domination_size_cap,
    domination_threshold,
    dumps_trace,
)

from oracles import brute_distance


def two_cliques_view(half: int) -> RegularGraphView:
    """Two disjoint complete graphs on `half` vertices each (still regular)."""
    m = 2 * half

    def neighbors(v):
        lo = 0 if v < half else half
        return (u for u in range(lo, lo + half) if u != v)

    return RegularGraphView(m, half - 1, neighbors)


def test_direct_sum_examples():
    a = Code.from_words(HammingSpace(2, 1), [(0,)])
    b = Code.from_words(HammingSpace(2, 2), [(0, 1), (1, 0)])
    assert direct_sum(a, b).words == {(0, 0, 1), (0, 1, 0)}
    a2 = Code.from_words(HammingSpace(3, 1), [(0,), (1,)])
    b3 = Code.from_words(HammingSpace(3, 2), [(0, 0), (1, 1), (2, 2)])
    assert len(direct_sum(a2, b3)) == 6
    full1 = Code.from_words(HammingSpace(2, 1), [(0,), (1,)])
    assert direct_sum(full1, full1).words == {(0, 0), (0, 1), (1, 0), (1, 1)}
    with pytest.raises(ValueError):
        direct_sum(a, b3)


def test_hamming_graph_view_examples():
    g = hamming_graph_view(HammingSpace(2, 3), 1)
    assert (g.m, g.d) == (8, 3)
    g2 = hamming_graph_view(HammingSpace(2, 2), 2)
    assert (g2.m, g2.d) == (4, 3)  # complete graph
    g0 = hamming_graph_view(HammingSpace(3, 2), 0)
    assert (g0.m, g0.d) == (9, 0)
    assert list(g0.neighbors(4)) == []


def test_hamming_graph_neighbors_match_distance():
    sp = HammingSpace(3, 3)
    g = hamming_graph_view(sp, 2)
    for v in (0, 5, 26):
        got = sorted(g.neighbors(v))
        want = sorted(
            u
            for u in range(sp.size)
            if u != v and brute_distance(index_word(sp, u), index_word(sp, v)) <= 2
        )
        assert got == want
        assert len(got) == g.d


def test_dominating_partial_complete_graph():
    g = complete_graph_view(20)
    res = dominating_partial(g, 1.5, seed=2)
    assert len(res.X) == 1 and res.N_bar == frozenset()
    assert nbar_of(g, res.X) == frozenset()


def test_dominating_partial_empty_graph_vacuous_threshold():
    g = empty_graph_view(100)
    res = dominating_partial(g, 0.01, seed=4)
    # size floor(0.01*100/1) = 1; threshold ceil(e^0 * 100) = 100 admits any X
    assert len(res.X) <= 1
    assert len(res.N_bar) <= 100
    assert res.N_bar == nbar_of(g, res.X)


def test_dominating_partial_size_zero_is_vacuous():
    g = empty_graph_view(10)
    res = dominating_partial(g, 0.05, seed=0)
    assert res.X == frozenset() and res.N_bar == frozenset(range(10))
    assert res.trials_used == 0


def test_dominating_partial_hamming_example():
    g = hamming_graph_view(HammingSpace(2, 8), 1)
    assert (g.m, g.d) == (256, 8)
    assert domination_size_cap(g, 3.0) == 85
    assert domination_threshold(g, 3.0) == 14  # ceil(e^(-3+9/256)*256)
    res = dominating_partial(g, 3.0, seed=12)
    assert len(res.X) <= 85
    assert len(res.N_bar) <= 14
    assert res.N_bar == nbar_of(g, res.X)  # independent recomputation


def test_dominating_partial_deterministic():
    g = hamming_graph_view(HammingSpace(2, 7), 1)
    a = dominating_partial(g, 2.0, seed=99)
    b = dominating_partial(g, 2.0, seed=99)
    assert a == b
    assert dominating_partial(g, 2.0, seed=100) is not None  # other seeds work too


def test_dominating_partial_failure_carries_best_attempt():
    # Both sampled vertices land in one clique under this seed, so the other
    # clique (6 vertices) exceeds the threshold ceil(e^(-1.4+0.5)*12) = 5.
    g = two_cliques_view(6)
    with pytest.raises(DominationFailure) as info:
        dominating_partial(g, 1.4, seed=0, max_trials=1)
    best = info.value.best
    assert best is not None and len(best.N_bar) == 6
    assert best.N_bar == nbar_of(g, best.X)


def test_dominating_partial_rejects_nonpositive_x():
    with pytest.raises(InfeasibleParamsError):
        dominating_partial(complete_graph_view(4), 0.0)


def test_greedy_dominating_examples():
    assert greedy_dominating_partial(complete_graph_view(9), 1).N_bar == frozenset()
    res = greedy_dominating_partial(empty_graph_view(10), 4)
    assert len(res.N_bar) == 10 - 4
    g = hamming_graph_view(HammingSpace(2, 4), 1)
    assert greedy_dominating_partial(g, 4).N_bar == frozenset()


def test_greedy_ties_break_to_smallest_vertex():
    res = greedy_dominating_partial(empty_graph_view(5), 3)
    assert res.X == frozenset({0, 1, 2})


def test_greedy_beats_best_random_trial():
    rng = random.Random(77)
    for k in range(20):
        q = rng.choice([2, 3])
        n = rng.randint(3, 6)
        radius = rng.randint(1, 2)
        g = hamming_graph_view(HammingSpace(q, n), radius)
        budget = rng.randint(1, max(1, g.m // (g.d + 1) + 2))
        greedy_missed = len(greedy_dominating_partial(g, budget).N_bar)
        best_random = min(
            len(nbar_of(g, random.Random(f"rnd:{k}:{t}").sample(range(g.m), budget)))
            for t in range(20)
        )
        assert greedy_missed <= best_random


def test_greedy_ball_cover_is_covering():
    sp = HammingSpace(2, 6)
    words = greedy_ball_cover(sp, 1)
    code = Code.from_words(sp, words)
    assert verify_covering(code, 1).covered
    assert len(words) >= sphere_covering_lower_bound(sp, 1)


@pytest.mark.parametrize("q,n,radius", [
    (2, 3, 1), (2, 5, 0), (2, 6, 1), (2, 7, 2), (2, 8, 3), (2, 10, 3),
    (3, 4, 1), (3, 4, 4), (4, 3, 1), (5, 3, 2), (7, 3, 2), (16, 2, 1),
])
def test_greedy_ball_cover_matches_set_based_loop(q, n, radius):
    sp = HammingSpace(q, n)
    assert greedy_ball_cover(sp, radius) == set_greedy_ball_cover(sp, radius)


def test_floor_div_real_matches_exact_arithmetic():
    assert floor_div_real(14, 1.4) == 10
    assert floor_div_real(10, 1.5) == 6
    assert floor_div_real(1, 2.0) == 0
    assert floor_div_real(12, 2.0) == 6
    assert floor_div_real(7, 3.5) == 2


def test_construct_trivial_when_radius_swallows_space():
    sp = HammingSpace(3, 2)
    code, trace = recursive_construct(sp, 3, x=4.0, y=2.0)
    assert code.words == {(0, 0)}
    assert trace.density.exact == 1  # ball of radius >= n is the whole space
    assert trace.base.method == "trivial" and trace.levels == []


def test_construct_covers_and_traces_exactly():
    sp = HammingSpace(2, 12)
    x = 2 * math.log(2) + 2
    code, trace = recursive_construct(sp, 2, x, 2.0, seed=7)
    assert verify_covering(code, 2).covered
    assert trace.total_size == len(code)
    for lv in trace.levels:
        assert lv.r == floor_div_real(lv.n, 2.0)
        assert lv.r_prime == lv.n - lv.r
        assert lv.m == 2**lv.r_prime
        assert lv.d == ball_volume(HammingSpace(2, lv.r_prime), 2) - 1
        assert lv.k_size == lv.x_size * 2**lv.r + lv.nbar_size * lv.k2_size
    assert trace.levels[0].k_size == len(code)


def test_construct_deterministic_per_seed():
    sp = HammingSpace(3, 8)
    x = 1 * math.log(2) + 1.2
    a_code, a_trace = recursive_construct(sp, 1, x, 2.0, seed=5)
    b_code, b_trace = recursive_construct(sp, 1, x, 2.0, seed=5)
    assert a_code.words == b_code.words
    assert dumps_trace(a_trace) == dumps_trace(b_trace)


def test_construct_infeasible_parameters():
    sp = HammingSpace(2, 8)
    with pytest.raises(InfeasibleParamsError):
        recursive_construct(sp, 2, x=2 * math.log(2), y=2.0)  # x = R ln y exactly
    with pytest.raises(InfeasibleParamsError):
        recursive_construct(sp, 2, x=3.0, y=1.0)
    with pytest.raises(InfeasibleParamsError):
        recursive_construct(HammingSpace(2, 0), 1, x=2.0, y=2.0)


def test_construct_base_policy_exact():
    # y > n forces the recursion to stop at the root; exact solve takes over
    sp = HammingSpace(2, 5)
    code, trace = recursive_construct(sp, 1, x=4.0, y=8.0, base_policy="exact")
    assert len(code) == 7  # optimal size for this space
    assert verify_covering(code, 1).covered
    assert trace.levels == [] and trace.base.method == "exact"


def test_construct_base_policy_greedy():
    sp = HammingSpace(2, 5)
    code, trace = recursive_construct(sp, 1, x=4.0, y=8.0, base_policy="greedy")
    assert verify_covering(code, 1).covered
    assert trace.base.method == "greedy"


def test_construct_base_policy_trivial_errors_when_stopped_early():
    sp = HammingSpace(2, 5)
    with pytest.raises(InfeasibleParamsError):
        recursive_construct(sp, 1, x=4.0, y=8.0, base_policy="trivial")


def test_construct_base_policy_trivial_fine_when_recursion_reaches_bottom():
    sp = HammingSpace(2, 12)
    code, trace = recursive_construct(sp, 2, x=2 * math.log(2) + 2, y=2.0,
                                      base_policy="trivial", seed=7)
    assert verify_covering(code, 2).covered
    # the base stays unvisited when some level's miss set is empty
    assert trace.base is None or trace.base.method == "trivial"


def test_construct_small_sweep():
    rng = random.Random("construct-sweep")
    for k in range(30):
        q = rng.choice([2, 3])
        n = rng.randint(1, 10)
        radius = rng.randint(1, 3)
        y = rng.uniform(1.3, 3.0)
        x = radius * math.log(y) + rng.uniform(0.3, 2.5)
        sp = HammingSpace(q, n)
        code, trace = recursive_construct(sp, radius, x, y, seed=k)
        assert verify_covering(code, radius).covered, (q, n, radius, x, y, k)
        for lv in trace.levels:
            assert lv.k_size == lv.x_size * q**lv.r + lv.nbar_size * lv.k2_size
