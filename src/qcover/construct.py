"""Covering-code constructions.

Randomized partial dominating sets on the distance-<=R graph of a Hamming
space, and the recursive construction that splits [q]^n into a dominated
prefix block and a recursively covered suffix block. Base cases are solved
exactly or covered by the solver's lazy-greedy ball cover.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bounds import floor_div_real, require_feasible
from .codes import Code, density, density_to_dict
from .errors import DominationFailure, InfeasibleParamsError, SpaceTooLargeError
from .hamming import (
    DEFAULT_ENUMERATION_GUARD,
    HammingSpace,
    ball_volume,
    check_radius,
    uncovered_indices,
)
from .solver import EXACT_SOLVER_GUARD, GREEDY_COVER_GUARD, greedy_ball_cover, minimal_covering_code

#: Node budget of an exact base-case solve; past it the construction keeps
#: the solver's incumbent and records the base as "exact-incumbent".
EXACT_BASE_NODE_BUDGET = 200_000

#: Words of runs :func:`_level_words` writes per step.
_FOLD_WORDS = 1 << 16


@dataclass(frozen=True, eq=False)
class DominationResult:
    """A word set X with the words its radius-R balls miss.

    ``X`` and ``N_bar`` are sorted, read-only int64 arrays of word indices.
    """

    X: np.ndarray
    N_bar: np.ndarray
    trials_used: int

    def __post_init__(self) -> None:
        self.X.flags.writeable = self.N_bar.flags.writeable = False


def domination_size_cap(m: int, d: int, x: float) -> int:
    """min(floor(x*m/(d+1)), m), the size budget the sampler must stay within.

    It is m once x >= d + 1, where the float product x*m could overflow.
    """
    if x >= d + 1:
        return m
    return min(math.floor(x * m / (d + 1)), m)


def domination_threshold(m: int, d: int, x: float) -> int:
    """ceil(exp(-x + (d+1)/m) * m), the miss count a trial must not exceed."""
    return math.ceil(math.exp(-x + (d + 1) / m) * m)


def dominating_partial(
    space: HammingSpace,
    radius: int,
    x: float,
    seed=0,
    max_trials: int = 100,
) -> DominationResult:
    """Sample fixed-size word sets until one's radius balls miss few words of [q]^n.

    This dominates the graph joining words at Hamming distance 1..radius,
    which has m = q^n vertices and degree d = V_q(n, radius) - 1. Accepts
    the first set of size floor(x*m/(d+1)) whose balls miss at most
    ceil(exp(-x + (d+1)/m) * m) words. The expectation of the miss count
    under a uniform random set is below the threshold, so trials succeed
    with constant probability; a run of ``max_trials`` misses raises
    DominationFailure. Deterministic for a fixed seed (per-trial generators
    are derived from ``seed`` and the trial index).
    """
    space.check_enumerable()
    m = space.size
    d = ball_volume(space, radius) - 1
    if x <= 0:
        raise InfeasibleParamsError("requires x > 0")
    if max_trials < 1:
        raise ValueError(f"max_trials must be >= 1, got {max_trials}")
    size = domination_size_cap(m, d, x)
    threshold = domination_threshold(m, d, x)
    if size == 0:
        if threshold < m:
            raise InfeasibleParamsError(
                "requires floor(x*m/(d+1)) >= 1 or x <= (d+1)/m; "
                f"a size-0 set cannot miss at most {threshold} of {m} vertices"
            )
        return DominationResult(np.empty(0, np.int64), np.arange(m), 0)

    best_miss = m
    for trial in range(max_trials):
        rng = random.Random(f"dominate:{seed}:{trial}")
        X = np.sort(np.array(rng.sample(range(m), size), dtype=np.int64))
        n_bar = uncovered_indices(space, X, radius)  # sorted already
        if len(n_bar) <= threshold:
            return DominationResult(X, n_bar, trial + 1)
        best_miss = min(best_miss, len(n_bar))
    raise DominationFailure(
        f"no trial out of {max_trials} met |N_bar| <= {threshold} "
        f"(best attempt missed {best_miss})"
    )


# ---------------------------------------------------------------------------
# Recursive construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceLevel:
    """One recursion level: split sizes and the exact size bookkeeping.

    ``k_size`` always equals x_size * q^r + nbar_size * k2_size because the
    two parts are keyed by disjoint prefix membership.
    """

    n: int
    r: int
    r_prime: int
    m: int
    d: int
    x_size: int
    nbar_size: int
    k2_size: int
    k_size: int


@dataclass(frozen=True)
class BaseRecord:
    n: int
    method: str  # trivial | exact | exact-incumbent | greedy
    size: int


@dataclass(frozen=True)
class ConstructionTrace:
    """A run's flags, its levels top first, the base case (None when a level
    missed no prefix), and the code's size and density."""

    q: int
    n: int
    radius: int
    x: float
    y: float
    base_policy: str
    seed: object
    levels: List[TraceLevel]
    base: Optional[BaseRecord]
    total_size: int
    density: Fraction

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "n": self.n,
            "R": self.radius,
            "x": self.x,
            "y": self.y,
            "base_policy": self.base_policy,
            "seed": self.seed,
            "levels": [vars(lv).copy() for lv in self.levels],
            "base": None if self.base is None else vars(self.base).copy(),
            "total_size": self.total_size,
            "density": density_to_dict(self.density),
        }


BASE_POLICIES = ("auto", "trivial", "exact", "greedy")


def _level_words(X: np.ndarray, N_bar: np.ndarray, block: int, k2: np.ndarray) -> np.ndarray:
    """X x [q]^r then N_bar x K_r as word indices (prefix * ``block`` + suffix), in prefix order.

    X and N_bar are sorted and disjoint, so each prefix owns one run of the
    output: ``block`` words for a prefix of X, len(``k2``) for one of N_bar,
    starting after the runs of every smaller prefix. The runs are written in
    place through a window of the output, :data:`_FOLD_WORDS` words of them
    (or one run) at a time, so nothing is sorted and the peak stays near
    the output's size.
    A prefix in both sets would leave len(``k2``) words unwritten, and their
    zeros break the order :class:`~qcover.codes.Code` checks.
    """
    k = len(k2)
    out = np.zeros(len(X) * block + len(N_bar) * k, dtype=np.int64)
    parts = ((X, block, np.arange(block), N_bar, k), (N_bar, k, k2, X, block))
    for prefixes, width, suffixes, others, other_width in parts:
        if not (len(prefixes) and width):
            continue
        # after the runs of the smaller prefixes of this set and of the other
        starts = np.arange(len(prefixes)) * width + np.searchsorted(others, prefixes) * other_width
        runs = sliding_window_view(out, width, writeable=True)
        step = max(1, _FOLD_WORDS // width)
        for i in range(0, len(prefixes), step):
            runs[starts[i : i + step]] = prefixes[i : i + step, None] * block + suffixes
    return out


def _base_code(
    sub: HammingSpace, radius: int, y: float, base_policy: str
) -> Tuple[np.ndarray, BaseRecord]:
    """(indices, BaseRecord): the code ``base_policy`` picks for the base case [q]^n of a run."""
    if sub.n <= radius:
        return np.zeros(1, dtype=np.int64), BaseRecord(sub.n, "trivial", 1)
    if base_policy == "trivial":
        raise InfeasibleParamsError(
            f"base policy 'trivial' stopped at [q]^{sub.n} with n > R={radius}; "
            "choose y <= n so the recursion can continue, or a solving policy"
        )
    method = base_policy
    if method == "auto":
        method = "exact" if sub.size <= EXACT_SOLVER_GUARD else "greedy"
    guard = EXACT_SOLVER_GUARD if method == "exact" else GREEDY_COVER_GUARD
    if sub.size > guard:
        raise SpaceTooLargeError(
            f"base case [{sub.q}]^{sub.n} has {sub.size} words, over the {method} guard "
            f"{guard} of base policy {base_policy!r}, because floor({sub.n}/{y}) = 0; "
            f"choose y <= {sub.n} so the recursion can continue, or a smaller n"
        )
    if method == "exact":
        res = minimal_covering_code(sub, radius, node_budget=EXACT_BASE_NODE_BUDGET)
        status = "exact" if res.status == "optimal" else "exact-incumbent"
        return res.code.indices, BaseRecord(sub.n, status, len(res.code))
    cover = greedy_ball_cover(sub, radius)
    return cover.indices, BaseRecord(sub.n, "greedy", len(cover))


def _prefix_space(q: int, n: int, r: int, y: float) -> HammingSpace:
    """[q]^{n-r}, the space a level of [q]^n dominates, within the enumeration guard."""
    prefix = HammingSpace(q, n - r)
    if prefix.size > DEFAULT_ENUMERATION_GUARD:
        raise SpaceTooLargeError(
            f"level [{q}]^{n} dominates the prefix space [{q}]^{n - r} of {prefix.size} words, "
            f"over the enumeration guard {DEFAULT_ENUMERATION_GUARD}, because "
            f"r' = {n} - floor({n}/{y}) = {n - r}; choose a smaller y, so that floor(n/y) "
            "grows, or a smaller n"
        )
    return prefix


def recursive_construct(
    space: HammingSpace,
    radius: int,
    x: float,
    y: float,
    base_policy: str = "auto",
    seed=0,
) -> Tuple[Code, ConstructionTrace]:
    """Build a radius-``radius`` covering code of [q]^n from a list of levels.

    Level i covers [q]^n_i (n_0 = n): it splits n_i into r = floor(n_i/y) and
    r' = n_i - r, and takes a partial dominating set X on the distance-<=radius
    graph of [q]^{r'}, whose balls miss the prefixes N_bar. Its code is
    X x [q]^r u N_bar x K_r, with K_r the next level's code (n_{i+1} = r).
    The top-down pass stops at the first empty N_bar, at n_i <= radius (the
    zero word) or at r = 0, where ``base_policy`` picks an exact solve or a
    greedy ball cover (:func:`_base_code`; "auto" solves exactly up to
    q^n_i = EXACT_SOLVER_GUARD within EXACT_BASE_NODE_BUDGET nodes; "trivial"
    errors there). The bottom-up pass folds the level list into the code in
    prefix order (:func:`_level_words`); :class:`Code` is the one check of
    that order. The trace is built once at the end, from the same level list
    and the base record.

    Requires a finite x > radius * ln(y) with y > 1, and every prefix space
    [q]^{r'} within DEFAULT_ENUMERATION_GUARD words. Deterministic for a
    fixed seed.
    """
    if base_policy not in BASE_POLICIES:
        raise ValueError(f"unknown base policy {base_policy!r}; expected one of {BASE_POLICIES}")
    if space.n < 1:
        raise InfeasibleParamsError("requires n >= 1")
    check_radius(radius)
    if not y > 1:
        raise InfeasibleParamsError("requires y > 1")
    require_feasible(radius, x, y)

    space.check_indexable()
    q = space.q
    # Top-down, until a level misses no prefix or the base case takes over.
    levels = []  # (n, r, DominationResult), top level first
    n = space.n
    words = np.zeros(0, dtype=np.int64)  # K_r of the last level
    base = None  # stays None when a level misses no prefix
    while n > radius and (r := floor_div_real(n, y)) > 0:
        dom = dominating_partial(_prefix_space(q, n, r, y), radius, x, seed=f"{seed}/{len(levels)}")
        levels.append((n, r, dom))
        if not dom.N_bar.size:
            break
        n = r
    else:
        words, base = _base_code(HammingSpace(q, n), radius, y, base_policy)

    # Bottom-up: fold the levels into the code, recording each from the deepest up.
    records = []
    for n, r, dom in reversed(levels):
        k2_size = len(words)
        words = _level_words(dom.X, dom.N_bar, q**r, words)
        records.append(TraceLevel(
            n=n, r=r, r_prime=n - r, m=q ** (n - r),
            d=ball_volume(HammingSpace(q, n - r), radius) - 1,
            x_size=len(dom.X), nbar_size=len(dom.N_bar), k2_size=k2_size, k_size=len(words),
        ))
    records.reverse()
    code = Code(space, words)
    trace = ConstructionTrace(
        q=q, n=space.n, radius=radius, x=x, y=y, base_policy=base_policy, seed=seed,
        levels=records, base=base, total_size=len(code), density=density(code, radius),
    )
    return code, trace


def dumps_trace(trace: ConstructionTrace) -> str:
    return json.dumps(trace.to_json_dict(), sort_keys=True, indent=2) + "\n"
