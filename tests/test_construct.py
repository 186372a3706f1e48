"""Partial domination, the greedy ball cover, and the recursive construction."""

import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcover import (
    DominationFailure,
    HammingSpace,
    InfeasibleParamsError,
    SpaceTooLargeError,
    ball_volume,
    dominating_partial,
    greedy_ball_cover,
    recursive_construct,
    verify_covering,
)
from qcover.bounds import floor_div_real
import qcover.construct as construct_mod
from qcover.construct import (
    DominationResult,
    _level_words,
    domination_size_cap,
    domination_threshold,
    dumps_trace,
)
from qcover.hamming import uncovered_indices

from oracles import (
    nbar_of,
    set_greedy_ball_cover,
    sphere_covering_lower_bound,
    unique_indices,
    words_of,
)


def test_hamming_graph_view_examples():
    # The distance-<=R graph on [q]^n has m = q^n vertices and degree V - 1.
    sp = HammingSpace(2, 3)
    assert (sp.size, ball_volume(sp, 1) - 1) == (8, 3)
    assert domination_size_cap(8, 3, 2.0) == 4
    sp2 = HammingSpace(2, 2)
    assert ball_volume(sp2, 2) - 1 == 3  # complete graph
    # radius 0 is the empty graph: each chosen word covers only itself
    sp0 = HammingSpace(3, 2)
    res = dominating_partial(sp0, 0, 0.5, seed=1)
    assert len(res.X) == domination_size_cap(9, 0, 0.5) == 4
    assert frozenset(res.N_bar.tolist()) == frozenset(range(9)) - frozenset(res.X.tolist())


def test_domination_size_cap_without_float_overflow():
    # x * m overflows a float here; the cap is m once x >= d + 1
    for x in (4.0, 1e300, 1e308, math.inf):
        assert domination_size_cap(2**20, 3, x) == 2**20
    assert domination_size_cap(2**20, 3, 3.99) == math.floor(3.99 * 2**20 / 4)


def test_dominating_partial_complete_graph():
    # [20]^1 at radius 1 is the complete graph K_20
    sp = HammingSpace(20, 1)
    res = dominating_partial(sp, 1, 1.5, seed=2)
    assert len(res.X) == 1 and res.N_bar.size == 0
    assert nbar_of(sp, 1, res.X.tolist()) == frozenset()


def test_dominating_partial_empty_graph_vacuous_threshold():
    # [100]^1 at radius 0 is the empty graph on 100 vertices
    sp = HammingSpace(100, 1)
    res = dominating_partial(sp, 0, 0.01, seed=4)
    # size floor(0.01*100/1) = 1; threshold ceil(e^0 * 100) = 100 admits any X
    assert len(res.X) <= 1
    assert len(res.N_bar) <= 100
    assert frozenset(res.N_bar.tolist()) == nbar_of(sp, 0, res.X.tolist())


def test_dominating_partial_size_zero_is_vacuous():
    res = dominating_partial(HammingSpace(10, 1), 0, 0.05, seed=0)
    assert res.X.tolist() == [] and res.N_bar.tolist() == list(range(10))
    assert res.trials_used == 0


def test_dominating_partial_hamming_example():
    sp = HammingSpace(2, 8)
    m, d = sp.size, ball_volume(sp, 1) - 1
    assert (m, d) == (256, 8)
    assert domination_size_cap(m, d, 3.0) == 85
    assert domination_threshold(m, d, 3.0) == 14  # ceil(e^(-3+9/256)*256)
    res = dominating_partial(sp, 1, 3.0, seed=12)
    assert len(res.X) <= 85
    assert len(res.N_bar) <= 14
    # independent recomputation
    assert frozenset(res.N_bar.tolist()) == nbar_of(sp, 1, res.X.tolist())
    for idx in (res.X, res.N_bar):  # sorted, read-only int64 index arrays
        assert idx.dtype == np.int64 and not idx.flags.writeable
        assert np.all(idx[1:] > idx[:-1])


@pytest.mark.parametrize("q,n,radius,x", [(2, 5, 1, 2.0), (3, 4, 1, 2.0), (5, 3, 1, 2.0), (3, 5, 2, 1.5)])
def test_dominating_partial_nbar_beside_padding(q, n, radius, x):
    # q^n is not a multiple of 64, so the packed expansion's last uint64
    # holds padding bits, which must never show up in N_bar
    sp = HammingSpace(q, n)
    assert sp.size % 64
    for seed in range(5):
        res = dominating_partial(sp, radius, x, seed=seed)
        assert frozenset(res.N_bar.tolist()) == nbar_of(sp, radius, res.X.tolist())


@settings(max_examples=60, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    n=st.integers(1, 5),
    radius=st.integers(0, 3),
    x=st.floats(0.5, 4.0),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3, unique=True),
)
def test_dominating_partial_nbar_is_uncovered_indices(q, n, radius, x, seeds):
    # the per-level check a certificate verifier runs: N_bar is exactly
    # what X's radius balls miss
    sp = HammingSpace(q, n)
    for seed in seeds:
        res = dominating_partial(sp, radius, x, seed=seed)
        assert np.array_equal(res.N_bar, uncovered_indices(sp, res.X, radius))


def test_dominating_partial_deterministic():
    sp = HammingSpace(2, 7)
    a = dominating_partial(sp, 1, 2.0, seed=99)
    b = dominating_partial(sp, 1, 2.0, seed=99)
    assert (a.X.tolist(), a.N_bar.tolist(), a.trials_used) == (
        b.X.tolist(),
        b.N_bar.tolist(),
        b.trials_used,
    )
    assert dominating_partial(sp, 1, 2.0, seed=100) is not None  # other seeds work too


def test_dominating_partial_failure_carries_best_attempt():
    # The one trial's 9 words miss 28 of [2]^6 at radius 1, over the
    # threshold ceil(e^(-1+7/64)*64) = 27.
    sp = HammingSpace(2, 6)
    with pytest.raises(DominationFailure, match=r"<= 27 \(best attempt missed 28\)"):
        dominating_partial(sp, 1, 1.0, seed=1, max_trials=1)
    X = random.Random("dominate:1:0").sample(range(64), 9)
    assert len(nbar_of(sp, 1, X)) == 28
    assert dominating_partial(sp, 1, 1.0, seed=1).trials_used > 1


def test_dominating_partial_rejects_nonpositive_x():
    with pytest.raises(InfeasibleParamsError):
        dominating_partial(HammingSpace(4, 1), 1, 0.0)


def test_library_guard_messages_name_no_remedy_they_lack():
    # neither function takes a guard argument or has a sampled mode
    for call, needle in ((lambda: dominating_partial(HammingSpace(2, 27), 1, 2.0),
                          "2^27 = 134217728 exceeds the enumeration guard 67108864"),
                         (lambda: greedy_ball_cover(HammingSpace(2, 15), 1),
                          "2^15 = 32768 exceeds the enumeration guard 16384")):
        with pytest.raises(SpaceTooLargeError) as info:
            call()
        msg = str(info.value)
        assert needle in msg and "sampled" not in msg and "raise the guard" not in msg


def test_greedy_ball_cover_is_covering():
    sp = HammingSpace(2, 6)
    code = greedy_ball_cover(sp, 1)
    assert verify_covering(code, 1).covered
    assert len(code) >= sphere_covering_lower_bound(sp, 1)


@pytest.mark.parametrize("q,n,radius", [
    (2, 3, 1), (2, 5, 0), (2, 6, 1), (2, 7, 2), (2, 8, 3), (2, 10, 3),
    (3, 4, 1), (3, 4, 4), (4, 3, 1), (5, 3, 2), (7, 3, 2), (16, 2, 1),
])
def test_greedy_ball_cover_matches_set_based_loop(q, n, radius):
    sp = HammingSpace(q, n)
    assert set(words_of(greedy_ball_cover(sp, radius))) == set_greedy_ball_cover(sp, radius)


def test_floor_div_real_matches_exact_arithmetic():
    assert floor_div_real(14, 1.4) == 10
    assert floor_div_real(10, 1.5) == 6
    assert floor_div_real(1, 2.0) == 0
    assert floor_div_real(12, 2.0) == 6
    assert floor_div_real(7, 3.5) == 2


def test_construct_trivial_when_radius_swallows_space():
    sp = HammingSpace(3, 2)
    code, trace = recursive_construct(sp, 3, x=4.0, y=2.0)
    assert words_of(code) == [(0, 0)]
    assert trace.density == 1  # ball of radius >= n is the whole space
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


def test_construction_trace_is_frozen():
    _, trace = recursive_construct(HammingSpace(2, 8), 1, 2.0, 2.0, seed=3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        trace.total_size = 0
    assert trace.base is not None or trace.levels[-1].nbar_size == 0


def test_construct_deterministic_per_seed():
    sp = HammingSpace(3, 8)
    x = 1 * math.log(2) + 1.2
    a_code, a_trace = recursive_construct(sp, 1, x, 2.0, seed=5)
    b_code, b_trace = recursive_construct(sp, 1, x, 2.0, seed=5)
    assert a_code == b_code
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


@settings(max_examples=150, deadline=None)
@given(
    q=st.sampled_from([2, 3, 5]),
    r_prime=st.integers(0, 3),
    r=st.integers(0, 3),
    data=st.data(),
)
def test_level_words_equal_sort_and_dedup(q, r_prime, r, data):
    # every prefix goes to X, to N_bar or to neither, so the two are disjoint
    # and sorted, and either may be empty; K_r is any sorted subset of [q]^r
    roles = data.draw(st.lists(st.sampled_from("xn."), min_size=q**r_prime, max_size=q**r_prime))
    X = np.array([p for p, role in enumerate(roles) if role == "x"], dtype=np.int64)
    N_bar = np.array([p for p, role in enumerate(roles) if role == "n"], dtype=np.int64)
    k2 = np.array(sorted(data.draw(st.sets(st.integers(0, q**r - 1)))), dtype=np.int64)
    block = q**r
    parts = ((X[:, None] * block + np.arange(block)).ravel(), (N_bar[:, None] * block + k2).ravel())
    want = unique_indices(np.concatenate(parts))
    got = _level_words(X, N_bar, block, k2)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    assert len(got) == len(X) * block + len(N_bar) * len(k2)


def test_construct_rejects_overlapping_prefix_sets(monkeypatch):
    # X and N_bar are disjoint by construction; were a prefix in both, its
    # words would repeat, and Code (the one order check) rejects them
    real = construct_mod.dominating_partial

    def overlapping(space, radius, x, seed=0):
        res = real(space, radius, x, seed=seed)
        return DominationResult(res.X, np.union1d(res.N_bar, res.X[:1]), res.trials_used)

    monkeypatch.setattr(construct_mod, "dominating_partial", overlapping)
    with pytest.raises(ValueError, match="strictly increasing"):
        recursive_construct(HammingSpace(2, 12), 2, 2 * math.log(2) + 2, 2.0, seed=7)
