"""Independent oracles the library is checked against.

Most of these recompute results from first principles (exhaustive
enumeration, high-precision arithmetic) without touching the code paths
under test. The set-based greedy cover and the reference solver keep the
earlier, plainer forms of two library algorithms, so their fast forms can
be checked against them choice for choice and node for node.
"""

import json
import math
import random
import sys
import time
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from pathlib import Path
from typing import NamedTuple, Optional

import mpmath as mp
import numpy as np

from qcover.bounds import OptimizationResult, _bound_factored, _chain_params
from qcover.codes import Code, CoverVerdict, SampleVerdict, code_from_dict, density
from qcover.errors import InfeasibleParamsError
from qcover.hamming import (
    DEFAULT_ENUMERATION_GUARD,
    HammingSpace,
    ball_volume,
    check_radius,
    index_word,
    indices_to_digits,
    word_index,
)
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


def nbar_of(space, radius, X):
    """Indices of the words farther than ``radius`` from every word indexed by X.

    Distance is translation-invariant, so the words within ``radius`` of c
    are c + b (mod q) for the words b of the zero word's ball, which one
    distance scan of the space finds.
    """
    q, n = space.q, space.n
    words = list(product(range(q), repeat=n))
    ball = [b for b in words if brute_distance(b, (0,) * n) <= radius]
    covered = set()
    for v in X:
        c = words[v]
        covered.update(tuple((s + t) % q for s, t in zip(c, b)) for b in ball)
    return frozenset(i for i, w in enumerate(words) if w not in covered)


def enumerate_space(space, limit=DEFAULT_ENUMERATION_GUARD):
    """Yield all words of the space in lexicographic order (guarded)."""
    space.check_enumerable(limit)
    return product(range(space.q), repeat=space.n)


def enumerate_ball(space, center, radius):
    """Yield every word within distance ``radius`` of ``center``, each exactly once.

    Generated by choosing the set of changed coordinates and then the
    replacement symbols, so no seen-set is needed and the total count is
    ``ball_volume(space, radius)``.
    """
    center = space.require_word(center)
    check_radius(radius)
    q, n = space.q, space.n
    for k in range(min(radius, n) + 1):
        for positions in combinations(range(n), k):
            for repl in product(range(q - 1), repeat=k):
                w = list(center)
                for p, off in zip(positions, repl):
                    # off in [0, q-2] selects one of the q-1 symbols != center[p]
                    w[p] = off if off < center[p] else off + 1
                yield tuple(w)


def ball_union(space, members, radius):
    """Indices of the words within ``radius`` of some member index, ball by ball.

    Each member's ball comes from :func:`enumerate_ball`; the baseline the
    library's radius-expansion kernel is checked against.
    """
    words = list(enumerate_space(space))
    index = {w: i for i, w in enumerate(words)}
    return frozenset(index[w] for i in members for w in enumerate_ball(space, words[i], radius))


def words_of(code):
    """The codewords as tuples in lexicographic order, one :func:`index_word` each."""
    return [index_word(code.space, int(i)) for i in code.indices]


def sphere_covering_lower_bound(space, radius):
    """ceil(q^n / V_q(n,R)): no covering code of this radius can be smaller."""
    return -(-space.size // ball_volume(space, radius))


def verify_covering_scan(code, radius, *, guard=DEFAULT_ENUMERATION_GUARD):
    """Test every word against every codeword, as a ``CoverVerdict``.

    Costs q^n * |K| distance computations; the baseline the library's
    expansion verifier is checked against.
    """
    check_radius(radius)
    sp = code.space
    words = words_of(code)
    for w in enumerate_space(sp, guard):
        if not any(brute_distance(w, c) <= radius for c in words):
            return CoverVerdict(False, w)
    return CoverVerdict(True)


def reference_verify_covering_sampled(code, radius, samples, seed=0):
    """The column scan ``verify_covering_sampled`` ran before it looked balls up.

    Each sample costs one vectorized distance test against the code's digit
    columns, whatever the radius; the same seeded stream, so the fast
    verifier must return the same ``SampleVerdict``.
    """
    check_radius(radius)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sp = code.space
    rng = random.Random(f"sampled-verify:{seed}")
    columns = np.ascontiguousarray(indices_to_digits(sp, code.indices).T)  # (n, |K|)
    dist_dtype = np.min_scalar_type(sp.n)
    for k in range(samples):
        w = tuple(rng.randrange(sp.q) for _ in range(sp.n))
        mismatched = columns != np.asarray(w, dtype=columns.dtype)[:, None]
        if not np.any(mismatched.sum(axis=0, dtype=dist_dtype) <= radius):
            return SampleVerdict(True, w, k + 1)
    return SampleVerdict(False, None, samples)


def reference_from_words(space, words):
    """The code of word tuples in any order, one at a time: ``require_word`` checks each."""
    return Code(space, sorted({word_index(space, w) for w in words}))


def unique_indices(indices):
    """Sorted distinct values of an index array, by one sort and a neighbour comparison.

    The generic sort-and-dedup every construction level once ran over its
    words; the prefix-order merge that replaced it must give the same array.
    """
    s = np.sort(indices)
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


def reference_code_from_dict(obj):
    """The per-word code-file parser the library's digit-matrix codec replaced.

    ``words`` must be a list and each word a string. A word splits into
    symbols by character for q <= 10 and on commas otherwise; every symbol
    must be ASCII decimal digits, and the tuple of their values must be a
    word of the space.
    """
    space = HammingSpace(obj["q"], obj["n"])
    if not isinstance(obj["words"], list):
        raise TypeError(f"code words must be a list, got {obj['words']!r}")
    words = []
    for text in obj["words"]:
        if not isinstance(text, str):
            raise TypeError(f"code words must be strings, got {text!r}")
        parts = list(text) if space.q <= 10 else (text.split(",") if text else [])
        if not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"{text!r} is not a word of [{space.q}]^{space.n}")
        words.append(tuple(int(p) for p in parts))
    return reference_from_words(space, words)


def json_read_code(path):
    """The code file reader with ``json`` for every layout: the block reader's oracle."""
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, dict) and "words" not in obj and isinstance(obj.get("code"), dict):
        obj = obj["code"]
    return code_from_dict(obj)


def json_dumps_code(code):
    """The code file as ``json``'s indenting encoder writes it, one word at a time.

    Each word comes from :func:`index_word` and is joined by hand; the
    layout the library's direct renderer must reproduce byte for byte.
    """
    sp = code.space
    sep = "" if sp.q <= 10 else ","
    words = [sep.join(map(str, index_word(sp, int(i)))) for i in code.indices]
    return json.dumps({"q": sp.q, "n": sp.n, "words": words}, sort_keys=True, indent=2) + "\n"


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


def reference_subtree_nodes(masks, covered, k, min_excl):
    """Nodes the solver's search visits below ``covered``, one call per node.

    The search branches on the lowest uncovered word and tries each word
    above ``min_excl`` whose ball holds it; a child is searched further,
    with one codeword fewer, when ``k - 1`` balls could still cover what it
    leaves (the counting bound). Returns None as soon as a child completes
    the cover, where the solver's visit order decides what happens next.
    """
    m = len(masks)
    full = (1 << m) - 1
    v_ball = masks[0].bit_count()

    def count(covered, k):
        uncovered = full & ~covered
        w = (uncovered & -uncovered).bit_length() - 1
        total = 0
        for c in range(min_excl + 1, m):
            if not masks[w] >> c & 1:
                continue
            total += 1
            child = covered | masks[c]
            if child == full:
                return None
            if -(-(full & ~child).bit_count() // v_ball) <= k - 1:
                below = count(child, k - 1)
                if below is None:
                    return None
                total += below
        return total

    return count(covered, k)


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


def mp_inner_argmin(R, y):
    """The x* > R ln y where the bound at fixed y is least, at 40 digits:
    x* - ln(1 + x*) = R ln y, i.e. x* = -1 - W_{-1}(-1/(e y^R))."""
    return -1 - mp.lambertw(-1 / (mp.e * mp.mpf(y) ** R), -1).real


def mp_optimal_bound(R):
    """Minimum of the parametric bound over {y > 1, x > R ln y}, at 40 digits.

    At fixed y the bound A x e^x / (e^x - y^R), with A = (y/(y-1))^R, is
    smallest where e^x = y^R (1 + x), i.e. at x* = -1 - W_{-1}(-1/(e y^R)),
    and its value there is A (1 + x*). The outer minimum over v = ln(y - 1)
    on [ln 1e-12, ln(2 y_hi)], with y_hi = 10 R ln(R + 2) + 10 the upper end
    of the library optimizer's y range, is bracketed by a grid scan and
    refined by golden-section search.
    """
    Rm = mp.mpf(R)

    def at(v):
        return (1 + mp.exp(-v)) ** Rm * (1 + mp_inner_argmin(Rm, 1 + mp.exp(v)))

    lo = mp.log(mp.mpf("1e-12"))
    hi = mp.log(2 * (10 * Rm * mp.log(Rm + 2) + 10))
    grid = 200
    vs = [lo + (hi - lo) * k / grid for k in range(grid + 1)]
    k = min(range(grid + 1), key=lambda i: at(vs[i]))
    a, b = vs[max(k - 1, 0)], vs[min(k + 1, grid)]
    inv_phi = (mp.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = at(c), at(d)
    while b - a > mp.mpf("1e-20"):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = at(d)
    return min(fc, fd)


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_min(f, lo, hi):
    """Golden-section minimum of f on [lo, hi]; returns the best evaluated point.

    The plain search the optimizer's inner and outer searches are checked
    against, kept here so that the check does not run the code it checks.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    best_x, best_f = (c, fc) if fc <= fd else (d, fd)
    for _ in range(300):
        if abs(b - a) <= 1e-10 * (abs(a) + abs(b) + 1e-12):  # relative bracket width
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
            if fc < best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
            if fd < best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def reference_golden_min_y(R, a, b):
    """The optimizer's outer search over u = ln(y - 1) on [a, b], plainly.

    The generic golden-section search runs a full inner search at every u,
    and that runs a full ``_bound_factored(R, x, y)`` call at every x; the
    inner search runs once more at the winning u. Returns (value, x, y).
    """
    x_span = 20.0 * math.log(R + 2.0)

    def best_x_for(y):
        floor_x = R * math.log(y)
        return golden_min(lambda x: _bound_factored(R, x, y), floor_x + 1e-9, floor_x + x_span)

    u, _ = golden_min(lambda u: best_x_for(1.0 + math.exp(u))[1], a, b)
    y = 1.0 + math.exp(u)
    x, val = best_x_for(y)
    return val, x, y


def reference_optimize_parametric_bound(R):
    """The optimizer as it was before its searches were fused and decided.

    Every point runs :func:`reference_golden_min_y`'s plain searches: the
    library's optimizer must return an equal result, float for float.
    """
    if R < 1:
        raise InfeasibleParamsError(f"requires R >= 1, got {R}")
    y_hi = 10.0 * R * math.log(R + 2.0) + 10.0
    u_lo, u_hi = math.log(1e-6), math.log(y_hi - 1.0)
    u_mid = 0.5 * (u_lo + u_hi)
    candidates = []

    def add_bracket(a, b):
        candidates.append(reference_golden_min_y(R, a, b))

    add_bracket(u_lo, u_hi)
    add_bracket(u_lo, u_mid)
    add_bracket(u_mid, u_hi)
    if R >= 6:
        xc, yc = _chain_params(R)
        if 1.0 < yc < y_hi:
            candidates.append((_bound_factored(R, xc, yc), xc, yc))
    _, _, y0 = min(candidates)
    u0 = math.log(y0 - 1.0)
    add_bracket(max(u_lo, u0 - 2.0), min(u_hi, u0 + 2.0))

    val, x, y = min(candidates)
    return OptimizationResult(x=x, y=y, bound=val)


class MpChain(NamedTuple):
    """The closed form's inequality chain at 40 digits; see :func:`mp_chain_check`."""

    R: int
    t: mp.mpf
    lhs_i: mp.mpf
    rhs_i: mp.mpf
    ratio_pow: mp.mpf
    ratio_pow_cap: mp.mpf
    bound: mp.mpf
    closed_form: Optional[mp.mpf]

    @property
    def failed_step(self):
        """First step that does not hold, in the order "t", "i", "ii", "iii", or None."""
        if not mp.almosteq(self.t, mp.mpf(1) / self.R**2, rel_eps=mp.mpf("1e-30")):
            return "t"
        if not self.lhs_i < self.rhs_i:
            return "i"
        if not self.ratio_pow <= self.ratio_pow_cap:
            return "ii"
        if self.closed_form is not None and not self.bound <= self.closed_form:
            return "iii"
        return None


def mp_chain_check(R):
    """Each quantity of the closed form's inequality chain, at 40 digits.

    At y = R ln R + 1 and x = R ln y + 2 ln R: the feasibility factor t
    (R^-2 exactly), both sides of the scalar inequality
    (R ln(R ln R + 1) + 2 ln R) * (1 + 1/(R^2 - 1)) < R (ln R + ln ln R + 0.8),
    (y/(y-1))^R and its cap e^(1/ln R), the parametric bound at (x, y), and
    the closed form (None below R = 6, where it is not claimed).
    """
    Rm = mp.mpf(R)
    ln_r = mp.log(Rm)
    y = Rm * ln_r + 1
    x = Rm * mp.log(y) + 2 * ln_r
    return MpChain(
        R=R,
        t=mp.exp(-x) * y**Rm,
        lhs_i=(Rm * mp.log(Rm * ln_r + 1) + 2 * ln_r) * (1 + 1 / (Rm**2 - 1)),
        rhs_i=Rm * (ln_r + mp.log(ln_r) + mp.mpf("0.8")),
        ratio_pow=(y / (y - 1)) ** Rm,
        ratio_pow_cap=mp.exp(1 / ln_r),
        bound=mp_parametric_bound(R, x, y),
        closed_form=mp_closed_form_bound(R) if R >= 6 else None,
    )


def recurrence_limit(a, b):
    """a / (1 - b): the limit of s_n = a + b * s_floor(n/y) for 0 <= b < 1."""
    if not 0 <= b < 1:
        raise InfeasibleParamsError(f"requires 0 <= b < 1, got b={b!r}")
    if a < 0:
        raise InfeasibleParamsError(f"requires a >= 0, got a={a!r}")
    return a / (1.0 - b)


@lru_cache(maxsize=None)
def _ratio(y):
    return Fraction(y).as_integer_ratio()


def _floor_div(n, y):
    """floor(n/y) in exact arithmetic, from y's integer ratio (cached per y)."""
    num, den = _ratio(y)
    return n * den // num


def simulate_constant_recurrence(a, b, y, s_base, N):
    """Run s_n = a + b * s_floor(n/y) at equality (the worst case) up to N.

    Returns a list of length N + 1 whose index n holds s_n (index 0 is nan).
    Indices whose floor(n/y) is 0 take the seed value s_base.
    """
    if not y > 1:
        raise InfeasibleParamsError(f"requires y > 1, got {y!r}")
    if not 0 <= b < 1:
        raise InfeasibleParamsError(f"requires 0 <= b < 1, got {b!r}")
    if N < 1:
        raise ValueError(f"requires N >= 1, got {N}")
    s = [math.nan] * (N + 1)
    for n in range(1, N + 1):
        k = _floor_div(n, y)
        s[n] = s_base if k == 0 else a + b * s[k]
    return s


def recurrence_depth(n, y):
    """Number of floor(n/y) applications until the index drops below y."""
    if n < 1:
        raise ValueError(f"requires n >= 1, got {n}")
    if not y > 1:
        raise InfeasibleParamsError(f"requires y > 1, got {y!r}")
    depth = 0
    while True:
        n = _floor_div(n, y)
        if n == 0:
            return depth
        depth += 1


def telescoped_error_bound(a, b, y, s_base, n):
    """Worst-case |s_n - a/(1-b)| of the constant recurrence at equality.

    Unrolling the recurrence telescopes the error geometrically:
    |s_n - L| = b^k * |s_base - L| <= b^k * (|s_base| + L) with L = a/(1-b)
    and k the exact recursion depth of n.
    """
    return b ** recurrence_depth(n, y) * (abs(s_base) + recurrence_limit(a, b))


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
