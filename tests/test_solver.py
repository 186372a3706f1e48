"""Exact solver against the naive subset-enumeration oracle."""

import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcover import (
    HammingSpace,
    SpaceTooLargeError,
    density,
    greedy_ball_cover,
    minimal_covering_code,
    verify_covering,
)

import qcover._subtree as subtree_mod
import qcover.solver as solver_mod
from qcover._subtree import _far_columns, _subtree_nodes
from qcover.solver import _ball_masks, _ball_rows, _ball_words

from oracles import (
    ball_masks,
    brute_distance,
    naive_lex_min_code,
    naive_minimal_size,
    reference_from_words,
    reference_minimal_covering_code,
    reference_subtree_nodes,
    sphere_covering_lower_bound,
    words_of,
)

KNOWN_OPTIMA = [
    (2, 3, 1, 2),
    (2, 4, 1, 4),
    (2, 5, 1, 7),
    (3, 2, 1, 3),
    (2, 1, 1, 1),
]


@pytest.mark.parametrize("q,n,radius,size", KNOWN_OPTIMA)
def test_known_optimal_sizes(q, n, radius, size):
    res = minimal_covering_code(HammingSpace(q, n), radius)
    assert res.status == "optimal"
    assert res.optimal_size == size == len(res.code)
    assert verify_covering(res.code, radius).covered


def test_lexicographically_smallest_optimum():
    res = minimal_covering_code(HammingSpace(2, 3), 1)
    assert res.canonical
    assert words_of(res.code) == [(0, 0, 0), (1, 1, 1)]
    res = minimal_covering_code(HammingSpace(3, 2), 1)
    assert words_of(res.code) == [(0, 0), (0, 1), (0, 2)]
    res = minimal_covering_code(HammingSpace(2, 4), 1)
    assert words_of(res.code) == [
        (0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]
    res = minimal_covering_code(HammingSpace(2, 5), 1)
    # frozen from the subset-enumeration oracle (lexicographically first
    # 7-subset through the zero word that covers)
    assert words_of(res.code) == [
        (0, 0, 0, 0, 0), (0, 0, 0, 0, 1), (0, 0, 0, 1, 0), (0, 1, 1, 1, 1),
        (1, 0, 1, 1, 1), (1, 1, 0, 1, 1), (1, 1, 1, 0, 0)]


def test_canonical_code_matches_unrestricted_lex_oracle():
    # the oracle enumerates all subsets, without the zero-word reduction
    for q, n, radius in [(2, 3, 1), (2, 4, 1), (3, 2, 1), (2, 4, 2), (3, 3, 1)]:
        res = minimal_covering_code(HammingSpace(q, n), radius)
        assert res.canonical
        want = naive_lex_min_code(q, n, radius, res.optimal_size)
        assert words_of(res.code) == want, (q, n, radius)


NAIVE_CASES = [(2, 3, 1), (2, 4, 1), (2, 5, 1), (3, 2, 1), (2, 4, 2),
               (2, 5, 2), (2, 6, 2), (3, 3, 1), (2, 3, 2), (2, 2, 1), (2, 6, 3)]


def test_matches_naive_oracle_on_small_spaces():
    for q, n, radius in NAIVE_CASES:
        assert q**n <= 1 << 9
        got = minimal_covering_code(HammingSpace(q, n), radius).optimal_size
        assert got == naive_minimal_size(q, n, radius), (q, n, radius)


@pytest.mark.parametrize("q,n,radius", NAIVE_CASES + [
    (2, 1, 1), (3, 4, 1), (3, 4, 2), (4, 3, 1), (2, 7, 1), (2, 8, 3)])
def test_matches_reference_solver_node_for_node(q, n, radius):
    # The same tree in the same order: answers, node counts and the
    # incumbent at every node budget equal those of one call per node.
    # Where the greedy incumbent is already optimal, only a pruned root
    # keeps the node counts equal.
    sp = HammingSpace(q, n)
    full = minimal_covering_code(sp, radius)
    assert full.to_json_dict() == reference_minimal_covering_code(sp, radius).to_json_dict()
    nodes = full.nodes
    for budget in sorted({0, 1, 2, 5, 17, 50, nodes // 3, max(nodes - 1, 0), nodes}):
        got = minimal_covering_code(sp, radius, node_budget=budget)
        want = reference_minimal_covering_code(sp, radius, node_budget=budget)
        assert got.to_json_dict() == want.to_json_dict(), (q, n, radius, budget)


@pytest.mark.parametrize("cost", [math.inf, -math.inf])
@pytest.mark.parametrize("q,n,radius", [(2, 5, 1), (3, 3, 1)])
def test_skipping_counts_changes_no_output(monkeypatch, q, n, radius, cost):
    # A skipped count leaves its subtree to the loop, which visits the same
    # nodes; so whether the rule that skips counts runs every count (loop
    # nodes weigh inf) or none (-inf), each budget keeps what one call per
    # node keeps
    calls = []

    def record(*args):
        calls.append(None)
        return _subtree_nodes(*args)

    monkeypatch.setattr(solver_mod, "_subtree_nodes", record)
    monkeypatch.setattr(solver_mod, "_LOOP_NODE_COST", cost)
    sp = HammingSpace(q, n)
    nodes = minimal_covering_code(sp, radius).nodes
    for budget in sorted({0, 1, 5, 50, 300, nodes // 3, nodes // 2, nodes - 1}) + [None]:
        got = minimal_covering_code(sp, radius, node_budget=budget)
        want = reference_minimal_covering_code(sp, radius, node_budget=budget)
        assert got.to_json_dict() == want.to_json_dict(), (cost, budget)
    assert bool(calls) == (cost > 0)


@pytest.mark.parametrize("q,n,radius", [(2, 4, 1), (2, 5, 1), (3, 3, 1), (2, 5, 2), (3, 4, 1)])
def test_every_node_budget_matches_reference_solver(q, n, radius):
    # Most budgets stop inside a last level, which a bulk count or the loop
    # settles; each must leave the incumbent and node count of one call per
    # node. (3, 4, 1) adds last levels that complete a cover, where a count
    # gives up and the loop settles each node.
    sp = HammingSpace(q, n)
    for budget in range(minimal_covering_code(sp, radius).nodes + 1):
        got = minimal_covering_code(sp, radius, node_budget=budget)
        want = reference_minimal_covering_code(sp, radius, node_budget=budget)
        assert got.to_json_dict() == want.to_json_dict(), budget


def _deadline_runs_out_at_every_read(monkeypatch, q, n, radius, reads):
    # The clock passes the start and set-up reads, then runs out at deadline
    # read j, which falls at node 256 j: a bulk count, a loop step or the
    # canonicalization pass stops there and keeps what one call per node
    # keeps with the node budget just below it.
    sp = HammingSpace(q, n)
    for j in reads:
        calls = []

        def clock():
            calls.append(None)
            return 10.0 if len(calls) > j + 1 else 0.0

        monkeypatch.setattr(time, "monotonic", clock)
        res = minimal_covering_code(sp, radius, time_budget=1.0)
        monkeypatch.undo()
        assert res.nodes == 256 * j, (q, n, radius, j)
        want = reference_minimal_covering_code(sp, radius, node_budget=res.nodes - 1)
        assert res.to_json_dict() == want.to_json_dict(), (q, n, radius, j)


@pytest.mark.parametrize("q,n,radius", [(2, 5, 1), (3, 3, 1), (2, 6, 2)])
def test_deadline_at_every_read_matches_reference_solver(monkeypatch, q, n, radius):
    nodes = minimal_covering_code(HammingSpace(q, n), radius).nodes
    _deadline_runs_out_at_every_read(monkeypatch, q, n, radius, range(1, nodes // 256 + 1))


def test_deadline_reads_across_an_incumbent_step(monkeypatch):
    # Read 213, at node 54,528, falls inside the last level that completes
    # the first 7-word cover, before that cover is kept; reads 200..229 span
    # the first pass's step from an incumbent of 8 to 7.
    _deadline_runs_out_at_every_read(monkeypatch, 2, 7, 2, range(200, 230))


def test_deadline_is_read_between_counts_that_give_up(monkeypatch):
    # Every count gives up, each after charging a node cap's worth of nodes
    # and none advancing ``nodes``; on [2]^12 at radius 1 the loop then runs
    # node by node. The rule that skips counts lets at most two run between
    # two deadline reads, and lets them run again as the loop makes up for
    # the waste.
    between = [0]  # counts since the last clock read

    def count(*args):
        between[-1] += 1
        return subtree_mod._COUNT_NODES, False

    def clock():  # passes the start and set-up reads and 1,024 deadline reads
        between.append(0)
        return 10.0 if len(between) > 1026 else 0.0

    monkeypatch.setattr(solver_mod, "_subtree_nodes", count)
    monkeypatch.setattr(time, "monotonic", clock)
    res = minimal_covering_code(HammingSpace(2, 12), 1, time_budget=1.0)
    monkeypatch.undo()
    assert res.status == "budget_exceeded" and res.nodes == 256 * 1024
    assert max(between) <= 2 and sum(between) >= 3, between


@lru_cache(maxsize=16)
def _cached_tables(q, n, radius):
    """The solver's ball tables: big-int masks, then what :func:`_subtree_nodes`
    reads: (W, q^n) ball columns, ball words and the beyond-2R columns (all
    zero where 2R >= n), as the solver builds them."""
    space = HammingSpace(q, n)
    rows = _ball_rows(space, radius)
    masks = _ball_masks(rows)
    far = _far_columns(space, rows, radius)
    return masks, (np.ascontiguousarray(rows.T), _ball_words(rows), far)


def _whole(got):
    """A :func:`_subtree_nodes` result as the oracle gives it: None where it gave up."""
    count, whole = got
    assert type(count) is int and count >= 0  # nodes lands in the solve JSON
    return count if whole else None


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def _subtrees(draw):
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.sampled_from(range(1, {2: 13, 3: 6, 4: 5}[q])))  # up to 64 64-bit words
    radius = draw(st.integers(0, n))
    masks, tables = _cached_tables(q, n, radius)
    words = tables[1]
    m = q**n
    full = (1 << m) - 1
    # a covered prefix, which puts the lowest uncovered word past the first
    # 64-bit words, a few balls, as on a search path, and a sparse random set
    covered = (1 << draw(st.integers(0, m - 1))) - 1
    covered |= draw(st.integers(0, full)) & draw(st.integers(0, full)) & draw(st.integers(0, full))
    for w in draw(st.lists(st.integers(0, m - 1), max_size=4)):
        covered |= masks[w]
    assume(covered != full)
    # slack 1..4, cut where the per-node oracle would take too long
    k = draw(st.integers(1, 4))
    while k > 1 and len(words[0]) ** k > 20000:
        k -= 1
    min_excl = draw(st.one_of(st.just(-1), st.integers(0, m - 1)))
    return masks, tables, covered, k, min_excl


@settings(max_examples=600, deadline=None)
@given(case=_subtrees())
def test_subtree_nodes_match_per_node_recursion(case):
    masks, tables, covered, k, min_excl = case
    got = _whole(_subtree_nodes(*tables, covered, k, min_excl))
    assert got == reference_subtree_nodes(masks, covered, k, min_excl)


def test_subtree_nodes_give_up_past_the_cap(monkeypatch):
    # K_2(6,1) = 12, so ten more codewords never complete a cover through the
    # zero word: the count is exact, and larger than the node cap
    masks, tables = _cached_tables(2, 6, 1)
    want = reference_subtree_nodes(masks, masks[0], 10, 4)
    assert want > subtree_mod._COUNT_NODES
    got, whole = _subtree_nodes(*tables, masks[0], 10, 4)
    assert not whole and subtree_mod._COUNT_NODES < got <= want  # what it had counted
    monkeypatch.setattr(subtree_mod, "_COUNT_NODES", want)
    assert _subtree_nodes(*tables, masks[0], 10, 4) == (want, True)


def _count_peak(tables, covered, k, min_excl):
    """The count of :func:`_subtree_nodes` and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        got = _whole(_subtree_nodes(*tables, covered, k, min_excl))
        return got, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


#: the words cap, and the last step
_COUNT_PEAK_BOUND = 8 * subtree_mod._COUNT_WORDS + (2 << 20)


def test_subtree_nodes_hold_little_memory_on_deep_trees():
    # 200 more codewords on [2]^10 leave so much slack that a smaller cover
    # lies deep below nearly every node; the count gives up once its pending
    # children pass the cap in words, instead of holding a block per level
    masks, tables = _cached_tables(2, 10, 1)
    got, peak = _count_peak(tables, masks[0], 200, -1)
    assert got is None
    assert peak < _COUNT_PEAK_BOUND


def test_subtree_nodes_steps_stay_within_the_words_cap_on_big_balls():
    # V = 386 and W = 16 on [2]^10 at radius 4: 128 rows of children would
    # be 790k words, so a step holds the 42 rows that fit in the words cap;
    # 256 of the zero word's 386 children pass, and make one block of the
    # second level. V = 299 and W = 64 on [2]^12 at radius 3: a step holds
    # 13 rows, 249k words. Where the zero word's ball and word 15 are left
    # uncovered and the zero word is excluded, its 298 neighbours make 298
    # last-level sets, whose children take 23 such steps; each step's
    # children are freed before the next step's are built.
    for q, n, radius, min_excl in [(2, 10, 4, -1), (2, 12, 3, 0)]:
        masks, tables = _cached_tables(q, n, radius)
        covered = masks[0]
        if min_excl == 0:  # every word but the zero word's ball and word 15
            covered = ((1 << q**n) - 1) & ~masks[0] & ~(1 << 15)
        got, peak = _count_peak(tables, covered, 2, min_excl)
        assert got == reference_subtree_nodes(masks, covered, 2, min_excl), n
        assert peak < _COUNT_PEAK_BOUND, n


def test_subtree_nodes_read_the_words_past_a_full_prefix():
    # Words below the lowest uncovered one fill whole uint64 words of every
    # covered set in the subtree, and the count leaves them out. [7]^3 has
    # 343 words in six uint64 words: a covered prefix of 320 words leaves
    # one, whose words lie past 255.
    masks, tables = _cached_tables(7, 3, 1)
    for prefix in (64, 256, 303, 320):
        for k in (1, 2, 3):
            for min_excl in (-1, prefix - 5, prefix + 3):
                covered = (1 << prefix) - 1
                got = _whole(_subtree_nodes(*tables, covered, k, min_excl))
                assert got == reference_subtree_nodes(masks, covered, k, min_excl), (prefix, k)


@pytest.mark.parametrize("q,n,radius", [(2, 5, 1), (2, 6, 1), (2, 7, 2)])
def test_canonical_pass_counts_no_subtree_holding_a_known_completion(monkeypatch, q, n, radius):
    # The canonicalization pass (min_excl >= 0) knows one completion of each
    # prefix and skips the counts of subtrees that hold it, which would meet
    # a completing node and give up; on these spaces no count gives up
    gave_up = []

    def record(*args):
        got = _subtree_nodes(*args)
        gave_up.append(not got[1] and args[-1] >= 0)
        return got

    monkeypatch.setattr(solver_mod, "_subtree_nodes", record)
    sp = HammingSpace(q, n)
    res = minimal_covering_code(sp, radius)
    assert gave_up and not any(gave_up)
    assert res.to_json_dict() == reference_minimal_covering_code(sp, radius).to_json_dict()


@pytest.mark.parametrize("q,n,radius", [(2, 5, 1), (2, 6, 1), (2, 7, 2)])
def test_solve_makes_the_same_counts_every_run(monkeypatch, q, n, radius):
    # Which subtrees are counted in bulk depends on the search alone: a second
    # solve whose counts that give up each take a millisecond longer makes
    # the same calls, so a rule that read the clock would fail here
    def calls(delay):
        made = []

        def record(balls, words, far, covered, k, min_excl):
            made.append((covered, k, min_excl))
            got = _subtree_nodes(balls, words, far, covered, k, min_excl)
            if not got[1]:
                time.sleep(delay)
            return got

        monkeypatch.setattr(solver_mod, "_subtree_nodes", record)
        minimal_covering_code(HammingSpace(q, n), radius)
        return made

    first = calls(0.0)
    assert first and calls(1e-3) == first


@pytest.mark.parametrize("q,n,radius", [(2, 6, 1), (2, 7, 2)])
def test_solve_leaves_the_recursion_limit_alone(monkeypatch, q, n, radius):
    # the search keeps its frames on a stack of its own, so the caller's
    # recursion limit holds throughout, counts and both passes included
    limits = []

    def record(*args):
        limits.append(sys.getrecursionlimit())
        return _subtree_nodes(*args)

    monkeypatch.setattr(solver_mod, "_subtree_nodes", record)
    caller = sys.getrecursionlimit()
    assert minimal_covering_code(HammingSpace(q, n), radius).status == "optimal"
    assert limits and set(limits) == {caller}


@pytest.mark.parametrize("budget", [500, 2000])
def test_deep_search_matches_reference_solver_node_for_node(budget):
    # greedy gives 135 words on [2]^10 at radius 1, and by 2,000 nodes the
    # search is 78 frames deep; the reference recurses once per node
    sp = HammingSpace(2, 10)
    got = minimal_covering_code(sp, 1, node_budget=budget)
    want = reference_minimal_covering_code(sp, 1, node_budget=budget)
    assert got.status == "budget_exceeded"
    assert got.to_json_dict() == want.to_json_dict()


def test_set_up_memory_at_k2_12_5():
    # V = 1586 on [2]^12: the ball words take 12.4 MiB, against 2 MiB for
    # each table of (q^n)^2 bits (the ball rows, their big-int masks and the
    # words beyond 2R). The peak comes while the words are unpacked, next to
    # the rows and masks; the beyond-2R table and its kernel steps follow,
    # under that peak, and built first they would add 2 MiB to it.
    m, v_ball = 1 << 12, 1586
    tracemalloc.start()
    try:
        res = minimal_covering_code(HammingSpace(2, 12), 5, node_budget=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.nodes == 2001
    assert peak < 2 * m * v_ball + 6 * m * m // 8


@pytest.mark.parametrize("q,n,radius", [
    (q, n, radius)
    for q in (2, 3, 4, 5) for n in range(9) if q**n <= 256 for radius in range(n + 2)])
def test_far_columns_match_brute_force(q, n, radius):
    # bits at or above q^n must stay clear: [3]^4 fills 17 bits of its
    # second word, and a set bit there would read as an uncovered word
    space = HammingSpace(q, n)
    far = _far_columns(space, _ball_rows(space, radius), radius)
    words = list(product(range(q), repeat=n))
    assert far.shape == ((q**n + 63) // 64, q**n)
    for w, word in enumerate(words):
        want = sum(1 << v for v, other in enumerate(words)
                   if brute_distance(word, other) > 2 * radius)
        assert int.from_bytes(far[:, w].tobytes(), "little") == want, w


def _last_level(q, n, radius, masks, covered, min_excl):
    """The last level below ``covered`` with two codewords to go.

    Returns one (every uncovered word within 2R of the lowest, some child
    completes the cover) pair per covered set on that level, by brute
    force, and whether a child of ``covered`` itself completes the cover.
    """
    words = list(product(range(q), repeat=n))
    m = q**n
    full = (1 << m) - 1
    low = _bits(full & ~covered)[0]
    rows, first = [], False
    for c in _bits(masks[low]):
        row = covered | masks[c]
        if c <= min_excl or row.bit_count() < m - masks[0].bit_count():
            continue
        first |= row == full
        if row != full:
            holes = _bits(full & ~row)
            near = all(brute_distance(words[holes[0]], words[u]) <= 2 * radius for u in holes)
            done = any(row | masks[d] == full for d in _bits(masks[holes[0]]) if d > min_excl)
            rows.append((near, done))
    return rows, first


# (q, n, R, kind, words, min_excl, a last-level child completes the cover).
# The K_2(7,2) sets are unions of balls, the first from a search, the second the
# canonical optimum without its codewords 15 and 123. On [3]^4 the uncovered
# words are the ball of 0001 and the words named: 1111, 1122 and 2211 lie
# within 2R = 2 of 1111 but no ball holds all three, while 1111 and 1122
# share the ball of 1112. [2]^10 at radius 3 (V*W = 2816) builds children
# for two covered sets per step, and the sets that complete the cover come
# after the first step: the greedy cover without its words 6 and 140.
def _ternary(*digits):
    return int("".join(map(str, digits)), 3)


_LAST_LEVEL_CASES = [
    (2, 7, 2, "balls", [25, 69, 126], -1, False),
    (2, 7, 2, "balls", [25, 69, 126], 16, False),
    (2, 7, 2, "balls", [0, 1, 2, 119, 124], -1, True),
    (2, 7, 2, "balls", [0, 1, 2, 119, 124], 14, True),
    (3, 4, 1, "holes", [_ternary(1, 1, 1, 1), _ternary(1, 1, 2, 2), _ternary(2, 2, 1, 1)],
     -1, False),
    (3, 4, 1, "holes", [_ternary(1, 1, 1, 1), _ternary(1, 1, 2, 2), _ternary(2, 2, 1, 1)],
     0, False),
    (3, 4, 1, "holes", [_ternary(1, 1, 1, 1), _ternary(1, 1, 2, 2)], -1, True),
    (3, 4, 1, "holes", [_ternary(1, 1, 1, 1), _ternary(1, 1, 2, 2)], 0, True),
    (2, 10, 3, "balls", [0, 9, 118, 127, 139, 241, 243, 773, 890, 899, 1020], -1, True),
    (2, 10, 3, "balls", [0, 9, 118, 127, 139, 241, 243, 773, 890, 899, 1020], 5, True),
]


@pytest.mark.parametrize("q,n,radius,kind,words,min_excl,completes", _LAST_LEVEL_CASES)
def test_subtree_nodes_settle_last_levels_by_distance(q, n, radius, kind, words, min_excl,
                                                      completes):
    # Two codewords to go, so the children of ``covered`` that pass the
    # counting bound make one last-level block. Some of its rows keep every
    # uncovered word within 2R of the lowest, so the distance test cannot
    # clear them; where one of those has a completing child the count is None.
    masks, tables = _cached_tables(q, n, radius)
    if kind == "balls":  # covered: the balls of ``words``
        covered = 0
        for c in words:
            covered |= masks[c]
    else:  # uncovered: the ball of word 1, and ``words``
        covered = ((1 << q**n) - 1) & ~masks[1] & ~sum(1 << w for w in words)
    rows, first = _last_level(q, n, radius, masks, covered, min_excl)
    assert not first and any(near for near, _ in rows)
    assert any(near and done for near, done in rows) == completes
    assert all(near for near, done in rows if done)  # the rule clears none of these
    got = _whole(_subtree_nodes(*tables, covered, 2, min_excl))
    assert got == reference_subtree_nodes(masks, covered, 2, min_excl)
    assert (got is None) == completes


def test_translation_preserves_covering():
    rng = random.Random(3)
    for _ in range(15):
        q = rng.choice([2, 3])
        n = rng.randint(2, 5)
        radius = rng.randint(1, 2)
        sp = HammingSpace(q, n)
        words = {tuple(rng.randrange(q) for _ in range(n))
                 for _ in range(rng.randint(2, 8))}
        code = reference_from_words(sp, words)
        covered = verify_covering(code, radius).covered
        shift = tuple(rng.randrange(q) for _ in range(n))
        moved = reference_from_words(
            sp, [tuple((a - b) % q for a, b in zip(w, shift)) for w in words])
        assert len(moved) == len(code)
        assert verify_covering(moved, radius).covered == covered


def test_optimum_sandwiched_between_bounds():
    # instances kept to small optima; branch-and-bound depth explodes otherwise
    cases = [(2, 4, 1), (2, 5, 1), (2, 5, 2), (2, 6, 2), (2, 6, 3),
             (3, 3, 1), (3, 4, 2), (2, 7, 3)]
    for q, n, radius in cases:
        sp = HammingSpace(q, n)
        res = minimal_covering_code(sp, radius)
        assert res.status == "optimal"
        greedy_size = len(greedy_ball_cover(sp, radius))
        assert sphere_covering_lower_bound(sp, radius) <= res.optimal_size <= greedy_size


def test_radius_zero_needs_whole_space():
    sp = HammingSpace(2, 3)
    res = minimal_covering_code(sp, 0)
    assert res.optimal_size == 8
    assert res.density == 1


def test_radius_at_least_n_needs_one_word():
    res = minimal_covering_code(HammingSpace(4, 3), 3)
    assert res.optimal_size == 1
    assert words_of(res.code) == [(0, 0, 0)]


def test_budget_exceeded_returns_covering_incumbent():
    res = minimal_covering_code(HammingSpace(2, 9), 1, node_budget=50)
    assert res.status == "budget_exceeded"
    assert not res.canonical
    assert verify_covering(res.code, 1).covered
    assert res.optimal_size >= sphere_covering_lower_bound(HammingSpace(2, 9), 1)


@pytest.mark.parametrize("q,n,radius", [
    (q, n, radius)
    for q in (2, 3, 4, 5) for n in range(5) if q**n <= 256 for radius in range(n + 2)])
def test_ball_masks_match_brute_force(q, n, radius):
    assert _ball_masks(_ball_rows(HammingSpace(q, n), radius)) == ball_masks(q, n, radius)[1]


def test_zero_time_budget_returns_covering_incumbent():
    sp = HammingSpace(2, 9)
    res = minimal_covering_code(sp, 1, time_budget=0)
    assert res.status == "budget_exceeded"
    assert res.nodes % 256 == 0  # the deadline is read every 256 nodes
    assert res.nodes == 0  # ... and once before the search, after the set-up
    assert not res.canonical
    assert verify_covering(res.code, 1).covered


@pytest.mark.parametrize("budgets", [
    {"node_budget": -1}, {"time_budget": -0.5}, {"time_budget": math.nan},
    {"time_budget": -math.inf}])
def test_rejects_negative_or_nan_budgets(budgets):
    with pytest.raises(ValueError, match="budget >= 0"):
        minimal_covering_code(HammingSpace(2, 4), 1, **budgets)


def test_accepts_zero_and_infinite_budgets():
    sp = HammingSpace(2, 4)
    assert minimal_covering_code(sp, 1, time_budget=math.inf).status == "optimal"
    res = minimal_covering_code(sp, 1, node_budget=0)
    assert res.status == "budget_exceeded" and res.nodes == 1
    assert minimal_covering_code(sp, 1, time_budget=0.0).status == "budget_exceeded"


def test_guard_rejects_large_spaces():
    with pytest.raises(SpaceTooLargeError):
        minimal_covering_code(HammingSpace(2, 13), 1)
    # explicit override is allowed (budgeted so it returns quickly)
    res = minimal_covering_code(HammingSpace(2, 13), 1, guard=1 << 13, node_budget=10)
    assert res.status == "budget_exceeded"


def test_minimal_density_values():
    for q, n, radius, want in [(2, 3, 1, 1), (3, 4, 4, 1), (2, 5, 1, Fraction(21, 16))]:
        res = minimal_covering_code(HammingSpace(q, n), radius)  # (3, 4, 4): radius = n
        assert res.status == "optimal" and res.density == want
    # an unproved incumbent's density is not the minimal density
    res = minimal_covering_code(HammingSpace(2, 9), 1, node_budget=50)
    assert res.status == "budget_exceeded"


def test_solver_density_matches_code():
    res = minimal_covering_code(HammingSpace(2, 4), 1)
    assert res.density == density(res.code, 1) == Fraction(5, 4)


def test_deterministic_across_runs():
    a = minimal_covering_code(HammingSpace(3, 3), 1)
    b = minimal_covering_code(HammingSpace(3, 3), 1)
    assert a.code == b.code
    assert a.nodes == b.nodes
