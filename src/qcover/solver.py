"""Exact minimum covering codes on tiny spaces via branch-and-bound set cover.

Branches on the lexicographically smallest uncovered word (any cover must
contain a codeword in its ball) with counting-bound pruning, fixing the zero
word in the code up front: translating any cover moves a codeword onto the
zero word without changing its size, so an optimum through the zero word
always exists. A second pass canonicalizes the answer to the
lexicographically smallest optimal code.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional

from .codes import Code, DensityValue, density
from .errors import BudgetExceededError, SpaceTooLargeError
from .hamming import HammingSpace, ball_volume, check_radius

#: Largest q**n the exact solver accepts by default.
EXACT_SOLVER_GUARD = 1 << 12


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
    density: DensityValue
    status: str
    canonical: bool
    nodes: int
    elapsed: float

    def to_json_dict(self) -> dict:
        from .codes import code_to_dict

        # elapsed is deliberately left out: emitted JSON stays byte-identical
        # across runs with the same inputs
        return {
            "optimal_size": self.optimal_size,
            "status": self.status,
            "canonical": self.canonical,
            "nodes": self.nodes,
            "density": {
                "numerator": self.density.exact.numerator,
                "denominator": self.density.exact.denominator,
                "approx": self.density.approx,
            },
            "code": code_to_dict(self.code),
        }


class _BudgetHit(Exception):
    pass


def _ball_masks(space: HammingSpace, radius: int) -> List[int]:
    """Bitmask over word indices of the radius-``radius`` ball of every word."""
    q, n, m = space.q, space.n, space.size
    masks = [1 << i for i in range(m)]
    if n == 0 or radius == 0:
        return masks
    powers = [q ** (n - 1 - j) for j in range(n)]
    adj: List[List[int]] = []
    for i in range(m):
        nbrs = []
        for j in range(n):
            digit = (i // powers[j]) % q
            stripped = i - digit * powers[j]
            for s in range(q):
                if s != digit:
                    nbrs.append(stripped + s * powers[j])
        adj.append(nbrs)
    for _ in range(min(radius, n)):
        masks = [masks[i] | _or_all(masks, adj[i]) for i in range(m)]
    return masks


def _or_all(masks: List[int], ids: List[int]) -> int:
    acc = 0
    for i in ids:
        acc |= masks[i]
    return acc


def _mask_bits(mask: int) -> List[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _greedy_cover(masks: List[int], full: int, v_ball: int) -> List[int]:
    """Lazy-greedy cover over the precomputed ball masks (initial incumbent)."""
    covered = 0
    heap = [(-v_ball, i) for i in range(len(masks))]
    heapify(heap)
    chosen: List[int] = []
    while covered != full:
        _, cand = heappop(heap)
        gain = (masks[cand] & ~covered & full).bit_count()
        if gain == 0:
            continue
        if heap and gain < -heap[0][0]:
            heappush(heap, (-gain, cand))
            continue
        chosen.append(cand)
        covered |= masks[cand]
    return chosen


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
    try:
        space.check_enumerable(guard)
    except SpaceTooLargeError as exc:
        raise SpaceTooLargeError(f"exact solver: {exc}") from exc

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
            elapsed=time.monotonic() - start,
        )

    # One ball swallows the space: the zero word alone is the optimum.
    if v_ball >= m:
        return finish([0], "optimal", True, 0)
    # Radius zero: the only cover is the whole space.
    if radius == 0:
        return finish(list(range(m)), "optimal", True, 0)

    masks = _ball_masks(space, radius)
    full = (1 << m) - 1
    deadline = None if time_budget is None else start + time_budget

    state = {"nodes": 0, "best_size": 0, "best": []}
    incumbent = sorted(_greedy_cover(masks, full, v_ball))
    state["best_size"] = len(incumbent)
    state["best"] = incumbent

    members: Dict[int, List[int]] = {}

    def ball_members(w: int) -> List[int]:
        got = members.get(w)
        if got is None:
            got = _mask_bits(masks[w])
            members[w] = got
        return got

    def tick() -> None:
        state["nodes"] += 1
        if node_budget is not None and state["nodes"] > node_budget:
            raise _BudgetHit
        if deadline is not None and state["nodes"] % 256 == 0 and time.monotonic() > deadline:
            raise _BudgetHit

    def dfs(covered: int, chosen: List[int]) -> None:
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

    def feasible(covered: int, k: int, min_excl: int) -> bool:
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

        # Canonicalization: grow the lexicographically smallest optimal code.
        # The lex-min optimum starts with the zero word, because some optimum
        # contains it and any code containing it sorts before any code that
        # does not.
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
                        continue  # optimal codes have no redundant codeword
                    if feasible(grown, remaining, v):
                        prefix.append(v)
                        covered = grown
                        appended = True
                        break
                if not appended:  # cannot happen once optimality is proven
                    raise RuntimeError("canonicalization found no extension")
        except _BudgetHit:
            return finish(state["best"], "optimal", False, state["nodes"])
        return finish(prefix, "optimal", True, state["nodes"])
    finally:
        sys.setrecursionlimit(old_limit)


def minimal_density(
    space: HammingSpace,
    radius: int,
    *,
    time_budget: Optional[float] = None,
    node_budget: Optional[int] = None,
    guard: int = EXACT_SOLVER_GUARD,
) -> DensityValue:
    """Exact minimal covering density of [q]^n at the given radius."""
    res = minimal_covering_code(
        space, radius, time_budget=time_budget, node_budget=node_budget, guard=guard
    )
    if res.status != "optimal":
        raise BudgetExceededError(
            f"solver stopped at size {res.optimal_size} before proving optimality"
        )
    return res.density
