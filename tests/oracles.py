"""Independent oracles the library is checked against.

Most of these recompute results from first principles (exhaustive
enumeration, high-precision arithmetic) without touching the code paths
under test. The set-based greedy cover and the reference solver keep the
earlier, plainer forms of two library algorithms, so their fast forms can
be checked against them choice for choice and node for node.
"""

import math
import sys
import time
from heapq import heapify, heappop, heappush
from itertools import combinations, product

import mpmath as mp

from qcover.codes import Code, density
from qcover.hamming import ball_volume, check_radius, enumerate_ball, index_word, word_index
from qcover.solver import SolveResult, _greedy_cover

mp.mp.dps = 40


def brute_distance(u, v):
    assert len(u) == len(v)
    return sum(a != b for a, b in zip(u, v))


def brute_ball_count(q, n, radius, center=None):
    """Count words within ``radius`` of ``center`` by scanning the whole space."""
    if center is None:
        center = (0,) * n
    return sum(
        1 for w in product(range(q), repeat=n) if brute_distance(w, center) <= radius
    )


def brute_is_covering(q, n, radius, words):
    """Double loop over all words x all codewords."""
    words = list(words)
    for w in product(range(q), repeat=n):
        if not any(brute_distance(w, c) <= radius for c in words):
            return False
    return True


def ball_masks(q, n, radius):
    """Bitmask of each word's ball, indexing words in lexicographic order."""
    words = list(product(range(q), repeat=n))
    idx = {w: i for i, w in enumerate(words)}
    masks = []
    for w in words:
        m = 0
        for v in words:
            if brute_distance(w, v) <= radius:
                m |= 1 << idx[v]
        masks.append(m)
    return words, masks


def naive_lex_min_code(q, n, radius, size):
    """First covering subset of the given size in lexicographic order.

    Enumerates all subsets (no zero-word reduction), so it independently
    checks both the solver's symmetry argument and its canonicalization.
    """
    words, masks = ball_masks(q, n, radius)
    full = (1 << len(words)) - 1
    for comb in combinations(range(len(words)), size):
        acc = 0
        for c in comb:
            acc |= masks[c]
        if acc == full:
            return [words[i] for i in comb]
    return None


def naive_minimal_size(q, n, radius):
    """Smallest covering-code size by subset enumeration in increasing size.

    Fixes the zero word in the code: translating any cover by the negative of
    a codeword covering the zero word gives an equal-size cover through it
    (the translation-soundness test justifies this reduction independently).
    """
    words, masks = ball_masks(q, n, radius)
    m = len(words)
    full = (1 << m) - 1
    if masks[0] == full:
        return 1
    for size in range(2, m + 1):
        for rest in combinations(range(1, m), size - 1):
            acc = masks[0]
            for c in rest:
                acc |= masks[c]
                if acc == full:
                    break
            if acc == full:
                return size
    raise AssertionError("unreachable: the whole space always covers")


def set_greedy_ball_cover(space, radius):
    """Lazy-greedy ball cover over Python sets of word indices.

    Same heap and tie-breaks as the library's bitmask cover, but every ball
    is enumerated word by word, so the two must choose the same words.
    """
    m = space.size
    v_ball = ball_volume(space, radius)
    uncovered = set(range(m))
    balls = {}
    heap = [(-v_ball, i) for i in range(m)]
    heapify(heap)
    chosen = []
    while uncovered:
        neg_stale, cand = heappop(heap)
        ball = balls.get(cand)
        if ball is None:
            w = index_word(space, cand)
            ball = [word_index(space, u) for u in enumerate_ball(space, w, radius)]
            balls[cand] = ball
        gain = sum(1 for i in ball if i in uncovered)
        if gain == 0:
            continue
        if heap and gain < -heap[0][0]:
            heappush(heap, (-gain, cand))
            continue
        chosen.append(index_word(space, cand))
        uncovered.difference_update(ball)
    return frozenset(chosen)


class _BudgetHit(Exception):
    pass


def reference_minimal_covering_code(space, radius, *, time_budget=None, node_budget=None):
    """The exact solver as one recursive call per node, for node-for-node checks.

    Each node is counted by ``tick`` on entry and pruned by its own first
    lines. Ball masks come from the brute-force :func:`ball_masks`; only the
    greedy incumbent is shared with the library, so the search, its node
    count and its budget stops are checked independently.
    """
    check_radius(radius)
    start = time.monotonic()
    m = space.size
    v_ball = ball_volume(space, radius)

    def finish(words_idx, status, canonical, nodes):
        code = Code(space, words_idx)
        return SolveResult(
            optimal_size=len(code),
            code=code,
            density=density(code, radius),
            status=status,
            canonical=canonical,
            nodes=nodes,
            elapsed=time.monotonic() - start,
        )

    if v_ball >= m:
        return finish([0], "optimal", True, 0)
    if radius == 0:
        return finish(list(range(m)), "optimal", True, 0)

    _, masks = ball_masks(space.q, space.n, radius)
    full = (1 << m) - 1
    deadline = None if time_budget is None else start + time_budget

    state = {"nodes": 0, "best_size": 0, "best": []}
    incumbent = sorted(_greedy_cover(masks, full, v_ball))
    state["best_size"] = len(incumbent)
    state["best"] = incumbent

    members = {}

    def ball_members(w):
        got = members.get(w)
        if got is None:
            got = [i for i in range(m) if masks[w] >> i & 1]
            members[w] = got
        return got

    def tick():
        state["nodes"] += 1
        if node_budget is not None and state["nodes"] > node_budget:
            raise _BudgetHit
        if deadline is not None and state["nodes"] % 256 == 0 and time.monotonic() > deadline:
            raise _BudgetHit

    def dfs(covered, chosen):
        tick()
        if covered == full:
            if len(chosen) < state["best_size"]:
                state["best_size"] = len(chosen)
                state["best"] = sorted(chosen)
            return
        uncovered = full & ~covered
        lower = len(chosen) + -(-uncovered.bit_count() // v_ball)
        if lower >= state["best_size"]:
            return
        w = (uncovered & -uncovered).bit_length() - 1
        for c in ball_members(w):
            dfs(covered | masks[c], chosen + [c])

    def feasible(covered, k, min_excl):
        tick()
        if covered == full:
            return True
        if k <= 0:
            return False
        uncovered = full & ~covered
        if -(-uncovered.bit_count() // v_ball) > k:
            return False
        w = (uncovered & -uncovered).bit_length() - 1
        for c in ball_members(w):
            if c > min_excl and feasible(covered | masks[c], k - 1, min_excl):
                return True
        return False

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, m + 1000))
    try:
        try:
            dfs(masks[0], [0])
        except _BudgetHit:
            return finish(state["best"], "budget_exceeded", False, state["nodes"])

        target = state["best_size"]
        prefix = [0]
        covered = masks[0]
        try:
            while covered != full:
                remaining = target - len(prefix) - 1
                appended = False
                for v in range(prefix[-1] + 1, m):
                    grown = covered | masks[v]
                    if grown == covered:
                        continue
                    if feasible(grown, remaining, v):
                        prefix.append(v)
                        covered = grown
                        appended = True
                        break
                if not appended:
                    raise RuntimeError("canonicalization found no extension")
        except _BudgetHit:
            return finish(state["best"], "optimal", False, state["nodes"])
        return finish(prefix, "optimal", True, state["nodes"])
    finally:
        sys.setrecursionlimit(old_limit)


def mp_parametric_bound(R, x, y):
    """Factored-form bound at 40 decimal digits."""
    R, x, y = mp.mpf(R), mp.mpf(x), mp.mpf(y)
    g = (y / (y - 1)) ** R
    u = mp.e**x * y**(-R)
    return x * g * (1 + 1 / (u - 1))


def mp_nested_bound(R, R1, x, y, mu):
    x, y, mu = mp.mpf(x), mp.mpf(y), mp.mpf(mu)
    g = (mp.mpf(y) / (y - 1)) ** (R - R1)
    u = mp.e**x * y**(-mp.mpf(R))
    return x / mp.binomial(R, R1) * y**R1 * g * (1 + 1 / (u - 1)) * mu


def mp_closed_form_bound(R):
    R = mp.mpf(R)
    return mp.e ** ((mp.mpf("1.8") + mp.log(mp.log(R))) / mp.log(R)) * R * mp.log(R)


def mp_classic_bound(q, R):
    R = mp.mpf(R)
    v = mp.e * (R * mp.log(R) + mp.log(R) + mp.log(mp.log(R)) + 2)
    return v if q == 2 else 2 * v


def sample_feasible_params(rng, r_max=500, margin_lo=0.01, margin_hi=20.0):
    """One random feasible (R, x, y) with t = exp(-margin) bounded away from 1.

    Rejects draws whose (y/(y-1))^R exceeds ~e^600 so that bound values stay
    representable in binary64 and relative comparisons remain meaningful.
    """
    while True:
        R = rng.randint(1, r_max)
        y = 1.0 + math.exp(rng.uniform(math.log(1e-3), math.log(50.0)))
        if R * math.log1p(1.0 / (y - 1.0)) <= 600.0:
            break
    margin = math.exp(rng.uniform(math.log(margin_lo), math.log(margin_hi)))
    x = R * math.log(y) + margin
    return R, x, y
