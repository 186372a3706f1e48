"""Exact minimum covering codes on tiny spaces via branch-and-bound set cover.

Every word's radius-R ball is one row of little-endian uint64 words, built
by a single call of the library's radius-expansion kernel on a bit-packed
identity, and one big-int bitmask over word indices read from that row. The
lazy-greedy cover over these masks (:func:`greedy_ball_cover`) is the first
incumbent; a deadline passed after this set-up returns it.

The search branches on the lexicographically smallest uncovered word (any
cover must contain a codeword in its ball) with counting-bound pruning,
fixing the zero word in the code up front: translating any cover moves a
codeword onto the zero word without changing its size, so an optimum
through the zero word always exists. A second pass canonicalizes the
answer to the lexicographically smallest optimal code.

Both passes run one search, a loop over an explicit stack of frames. A
frame holds a covered set and an iterator over its candidate codewords;
the codewords chosen down to the top frame are one list, and a size limit
bounds how many more a frame may add. The search starts from one frame
with one candidate. The first pass starts it at the zero word, with the
limit one below the greedy incumbent; each cover it finds becomes the
incumbent, the limit drops one below its size, and the search goes on.
The canonicalization pass grows its code a word at a time, and for each
candidate word asks the search for the first cover of the optimal size
through it.

A node is one candidate codeword tried, in either pass, whether it is then
pruned or branched on; the zero word at the root is the first. Because a
node is a step of the search and not a frame, ``nodes`` depends only on
the search tree and its visit order. Each child is counted and tested
against the counting bound in its parent's loop, so the pruned leaves
push no frame. On the last level a child passes only if it completes the
cover.

While the incumbent is fixed, the nodes of a subtree do not depend on the
order in which they are visited; only a node that completes the cover,
which improves the incumbent or proves feasibility, does. So a child that
passes, before it becomes a frame, has its whole subtree counted with
numpy (:func:`qcover._subtree._subtree_nodes`, which settles most of its
last level by a radius-2R test), and if no node in it completes the cover
the count goes to ``nodes`` in bulk, through the same budget checkpoints.
Otherwise, or past a cap on nodes or memory, the child becomes a frame
and the loop tries its candidates one by one, the last level's too.
Counts are skipped while the nodes counted by those that gave up exceed
the search's other nodes, each the loop visits weighed by its cost: so
counts that gave up take at most about half the search's time, and which
counts run depends on the search alone. The tree, its visit order,
``nodes`` and every output are the loop's alone.

The canonicalization pass knows one completion of the prefix it grows: at
first the first pass's optimum, then the cover its last search found,
each without the prefix. Those words pass the counting bound at every
level, so a count of a subtree that holds them would meet a completing
node and give up; such counts are skipped.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterator, List, Optional

import numpy as np

from ._subtree import _far_columns, _subtree_nodes
from .codes import Code, code_to_dict, density, density_to_dict
from .errors import SpaceTooLargeError
from .hamming import HammingSpace, ball_volume, check_radius, expand_within_radius

#: Largest q**n the exact solver accepts by default.
EXACT_SOLVER_GUARD = 1 << 12

#: Greedy full-space ball covers get their own, tighter guard: the ball
#: bitmasks take (q^n)^2 bits, so the cover is meant for base cases only.
GREEDY_COVER_GUARD = 1 << 14

#: The rule that skips counts weighs each node the search loop visits as
#: this many nodes counted in bulk. A loop node costs 12 to 27 on K_2(6,1)
#: and K_2(7,2), 6 on K_2(12,1) (2-vCPU x86-64); the weight errs high, toward
#: running counts, which save far more when they succeed.
_LOOP_NODE_COST = 32


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an exact solve.

    ``status`` is "optimal" when the search space was exhausted and
    "budget_exceeded" when a time or node budget lapsed first, in which case
    ``code`` is the best covering code found so far. ``canonical`` marks
    whether the code is the lexicographically smallest optimum (the
    canonicalization pass shares the budgets and can be cut short even when
    the size itself was proven).
    """

    optimal_size: int
    code: Code
    density: Fraction
    status: str
    canonical: bool
    nodes: int

    def to_json_dict(self) -> dict:
        return {
            "optimal_size": self.optimal_size,
            "status": self.status,
            "canonical": self.canonical,
            "nodes": self.nodes,
            "density": density_to_dict(self.density),
            "code": code_to_dict(self.code),
        }


class _BudgetHit(Exception):
    pass


def _ball_rows(space: HammingSpace, radius: int) -> np.ndarray:
    """The radius-``radius`` ball of every word, as (q^n, W) little-endian uint64 rows.

    Row i of a packed identity holds bit i alone, in W = ceil(m/64) words.
    One call of the expansion kernel grows every row at once, so row i ends
    up holding the words within ``radius`` of word i.
    """
    m = space.size
    i = np.arange(m)
    eye = np.zeros((m, (m + 63) // 64 * 8), dtype=np.uint8)
    eye[i, i >> 3] = 1 << (i & 7)
    return expand_within_radius(space, eye.view("<u8"), radius)


def _ball_words(balls: np.ndarray) -> np.ndarray:
    """Each ball's words, ascending, as a (q^n, V) table, from :func:`_ball_rows`.

    Entries take the smallest unsigned dtype that holds q^n - 1, and the rows
    are unpacked about 2^20 bits at a time, so the set-up stays near the
    size of the ball rows.
    """
    m = len(balls)
    words = np.empty((m, int(np.bitwise_count(balls[0]).sum())), dtype=np.min_scalar_type(m - 1))
    step = max(1, (1 << 20) // m)
    for i in range(0, m, step):
        bits = np.unpackbits(balls[i:i + step].view(np.uint8), axis=1, bitorder="little")
        words[i:i + step] = np.nonzero(bits)[1].reshape(len(bits), -1)
    return words


def _ball_masks(balls: np.ndarray) -> List[int]:
    """Each ball of :func:`_ball_rows` as a bitmask over word indices."""
    return [int.from_bytes(row.tobytes(), "little") for row in balls]


def _greedy_cover(masks: List[int], full: int, v_ball: int) -> List[int]:
    """Lazy-greedy cover over the precomputed ball masks (initial incumbent)."""
    uncovered = full
    heap = [(-v_ball, i) for i in range(len(masks))]
    heapify(heap)
    chosen: List[int] = []
    while uncovered:
        _, cand = heappop(heap)
        gain = (masks[cand] & uncovered).bit_count()
        if gain == 0:
            continue
        if heap and gain < -heap[0][0]:
            heappush(heap, (-gain, cand))
            continue
        chosen.append(cand)
        uncovered &= ~masks[cand]
    return chosen


def greedy_ball_cover(space: HammingSpace, radius: int) -> Code:
    """Greedy max-coverage over radius-``radius`` balls until the space is covered.

    The lazy-greedy cover over the bitmask balls: stale gains are upper
    bounds, so a popped candidate whose recomputed gain still tops the heap
    is a true argmax; ties go to the smallest word index.
    """
    space.check_enumerable(GREEDY_COVER_GUARD)
    v_ball = ball_volume(space, radius)
    masks = _ball_masks(_ball_rows(space, radius))
    chosen = _greedy_cover(masks, (1 << space.size) - 1, v_ball)
    return Code(space, np.sort(chosen))


def minimal_covering_code(
    space: HammingSpace,
    radius: int,
    *,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
    guard: int = EXACT_SOLVER_GUARD,
) -> SolveResult:
    """Compute a minimum covering code of [q]^n with the given radius.

    Deterministic: the optimal size is unique and, when the canonicalization
    pass completes, the returned code is the lexicographically smallest
    optimal code under sorted-codeword-sequence order.
    """
    check_radius(radius)
    if node_budget is not None and not node_budget >= 0:
        raise ValueError(f"requires node_budget >= 0, got {node_budget!r}")
    if time_budget is not None and not time_budget >= 0:
        raise ValueError(f"requires time_budget >= 0, got {time_budget!r}")
    if space.size > guard:
        raise SpaceTooLargeError(
            f"exact solver: q^n = {space.q}^{space.n} = {space.size} exceeds the solver "
            f"guard {guard}; raise the guard explicitly (qcover solve --max-space)"
        )

    start = time.monotonic()
    m = space.size
    v_ball = ball_volume(space, radius)

    def finish(words_idx: List[int], status: str, canonical: bool, nodes: int) -> SolveResult:
        code = Code(space, words_idx)  # every caller passes increasing indices
        return SolveResult(
            optimal_size=len(code),
            code=code,
            density=density(code, radius),
            status=status,
            canonical=canonical,
            nodes=nodes,
        )

    # One ball swallows the space: the zero word alone is the optimum.
    if v_ball >= m:
        return finish([0], "optimal", True, 0)
    # Radius zero: the only cover is the whole space.
    if radius == 0:
        return finish(list(range(m)), "optimal", True, 0)

    balls = _ball_rows(space, radius)
    masks = _ball_masks(balls)
    words = _ball_words(balls)
    far = _far_columns(space, balls, radius)
    balls = np.ascontiguousarray(balls.T)  # the columns _subtree_nodes reads
    full = (1 << m) - 1
    deadline = None if time_budget is None else start + time_budget

    best = sorted(_greedy_cover(masks, full, v_ball))
    # the set-up above grows as m^2 bits; a deadline it used up ends the run
    if deadline is not None and time.monotonic() > deadline:
        return finish(best, "budget_exceeded", False, 0)
    nodes = 0
    # Budgets are checked when ``nodes`` reaches ``checkpoint``: one past the
    # node budget, or the next multiple of 256 while a deadline is set.

    def next_checkpoint() -> int:
        at = sys.maxsize if deadline is None else (nodes // 256 + 1) * 256
        return at if node_budget is None else min(at, node_budget + 1)

    checkpoint = next_checkpoint()

    def check_budgets() -> None:
        nonlocal checkpoint
        if node_budget is not None and nodes > node_budget:
            raise _BudgetHit
        if deadline is not None and nodes % 256 == 0 and time.monotonic() > deadline:
            raise _BudgetHit
        checkpoint = next_checkpoint()

    def advance(to: int) -> None:
        """Count nodes up to ``to``, checking budgets at each checkpoint passed."""
        nonlocal nodes
        while checkpoint <= to:
            nodes = checkpoint
            check_budgets()
        nodes = to

    members: List[Optional[List[int]]] = [None] * m
    # Counts that give up are wasted work: where most subtrees hold a smaller
    # cover or pass a cap (K_2(12,1), say), 256 nodes could take minutes
    # between two deadline reads. So a count is skipped while ``wasted``, the
    # nodes counts that gave up had counted, exceeds ``bulk``, those of counts
    # that did not, plus _LOOP_NODE_COST for each node the loop visited.
    wasted = bulk = 0

    def branch_words(covered: int) -> List[int]:
        """The words whose balls hold the smallest uncovered word."""
        uncovered = full ^ covered
        w = (uncovered & -uncovered).bit_length() - 1
        got = members[w]
        if got is None:
            got = members[w] = words[w].tolist()
        return got

    # A child c is counted and tested in its parent's loop. With
    # nc = covered | masks[c], the child passes the counting bound
    # size + ceil(uncovered / V) <= limit exactly when nc.bit_count()
    # reaches ``need``. A passing child that leaves words uncovered has its
    # subtree counted in bulk; where the count is skipped or gives up, the
    # child becomes a frame of its own, and the loop settles every node of
    # it that no count settles.

    def completions(chosen: List[int], covered: int, limit: int, min_excl: int,
                    known: Optional[List[int]], first: int) -> Iterator[List[int]]:
        """Yield each cover of at most ``limit`` words through ``chosen`` and ``first``.

        ``covered`` is what ``chosen`` covers, and the codewords after
        ``first`` lie above ``min_excl``. The covers come in visit order;
        after one of size s the search goes on with the limit s - 1.
        ``known``, where given, is a completion of ``chosen``, ascending.
        Its words pass the counting bound at every level, so a count of a
        subtree that holds them would meet a completing node and give up:
        a child in ``known`` skips its count and gets the rest of it.
        """
        nonlocal nodes, wasted, bulk
        chosen = list(chosen)
        stack = [(covered, known, iter((first,)))]
        while stack:
            covered, known, rest = stack[-1]
            k = limit - len(chosen)  # codewords the frame may still add
            need = m - (k - 1) * v_ball
            for c in rest:
                nodes += 1
                if nodes >= checkpoint:
                    check_budgets()
                nc = covered | masks[c]
                got = nc.bit_count()
                if got < need:
                    continue
                if got == m:  # a cover of at most limit words
                    yield chosen + [c]
                    limit = len(chosen)
                    need = m + 1  # no sibling can beat it
                    continue
                below = [w for w in known if w != c] if known and c in known else None
                if not below and wasted <= bulk + _LOOP_NODE_COST * (nodes - bulk):
                    count, whole = _subtree_nodes(balls, words, far, nc, k - 1, min_excl)
                    if whole:
                        bulk += count
                        advance(nodes + count)
                        continue
                    wasted += count
                cands = branch_words(nc)
                chosen.append(c)
                stack.append((nc, below, iter(cands[bisect_right(cands, min_excl):])))
                break
            else:
                stack.pop()
                if stack:
                    chosen.pop()

    try:
        # the root, the zero word, is a node like any other
        for code in completions([], 0, len(best) - 1, -1, None, 0):
            best = sorted(code)
    except _BudgetHit:
        return finish(best, "budget_exceeded", False, nodes)

    # Canonicalization: grow the lexicographically smallest optimal code.
    # The lex-min optimum starts with the zero word, because some optimum
    # contains it and any code containing it sorts before any code that
    # does not. ``known`` is a completion of ``prefix``, ascending:
    # greedy's first pick, and so every incumbent's, is word 0.
    target = len(best)
    prefix = [0]
    covered = masks[0]
    known = best[1:]
    try:
        while covered != full:
            for v in range(prefix[-1] + 1, m):
                grown = covered | masks[v]
                if grown == covered:
                    continue  # optimal codes have no redundant codeword
                found = next(completions(prefix, covered, target, v, known, v), None)
                if found is not None:
                    prefix.append(v)
                    covered = grown
                    known = sorted(found[len(prefix):])
                    break
            else:  # cannot happen once optimality is proven
                raise RuntimeError("canonicalization found no extension")
    except _BudgetHit:
        return finish(best, "optimal", False, nodes)
    return finish(prefix, "optimal", True, nodes)
