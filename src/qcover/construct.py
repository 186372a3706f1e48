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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .bounds import floor_div_real, require_feasible
from .codes import Code, density, density_to_dict, unique_indices
from .errors import DominationFailure, InfeasibleParamsError
from .hamming import HammingSpace, ball_volume, check_radius, uncovered_indices
from .solver import EXACT_SOLVER_GUARD, greedy_ball_cover, minimal_covering_code

#: Node budget of an exact base-case solve; past it the construction keeps
#: the solver's incumbent and records the base as "exact-incumbent".
EXACT_BASE_NODE_BUDGET = 200_000


@dataclass(frozen=True, eq=False)
class DominationResult:
    """A word set X with the words its radius-R balls miss.

    ``X`` and ``N_bar`` are sorted, read-only int64 arrays of word indices.
    """

    X: np.ndarray
    N_bar: np.ndarray
    trials_used: int


def _index_array(indices) -> np.ndarray:
    idx = np.sort(np.asarray(indices, dtype=np.int64))
    idx.flags.writeable = False
    return idx


def domination_size_cap(m: int, d: int, x: float) -> int:
    """floor(x*m/(d+1)), the size budget the sampler must stay within."""
    return min(int(math.floor(x * m / (d + 1))), m)


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
        return DominationResult(_index_array([]), _index_array(np.arange(m)), 0)

    best_miss = m
    for trial in range(max_trials):
        rng = random.Random(f"dominate:{seed}:{trial}")
        X = rng.sample(range(m), size)
        n_bar = uncovered_indices(space, X, radius)
        if len(n_bar) <= threshold:
            return DominationResult(_index_array(X), _index_array(n_bar), trial + 1)
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


@dataclass
class ConstructionTrace:
    q: int
    n: int
    radius: int
    x: float
    y: float
    base_policy: str
    seed: object
    levels: List[TraceLevel] = field(default_factory=list)
    base: Optional[BaseRecord] = None
    total_size: int = 0
    density: Optional[Fraction] = None

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


def recursive_construct(
    space: HammingSpace,
    radius: int,
    x: float,
    y: float,
    base_policy: str = "auto",
    seed=0,
) -> Tuple[Code, ConstructionTrace]:
    """Build a radius-``radius`` covering code of [q]^n recursively.

    Each level splits n into r = floor(n/y) and r' = n - r, takes a partial
    dominating set X on the distance-<=radius graph of [q]^{r'}, and returns
    (X + every suffix) together with (missed prefixes + a recursive cover of
    [q]^r). Words whose prefix is dominated by X are covered through the X
    part; all other prefixes are missed, so their words are covered through
    the suffix code. The recursion bottoms out at n <= radius (single zero
    word) or r = 0, where ``base_policy`` decides between an exact solve and
    a greedy ball cover ("auto" solves exactly up to q^r = EXACT_SOLVER_GUARD,
    within EXACT_BASE_NODE_BUDGET nodes; "trivial" insists on the zero-word
    case and errors if the recursion stops early).

    Requires x > radius * ln(y) with y > 1. Deterministic for a fixed seed.
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
    trace = ConstructionTrace(
        q=q, n=space.n, radius=radius, x=x, y=y, base_policy=base_policy, seed=seed
    )

    def base_cover(sub: HammingSpace) -> np.ndarray:
        policy = base_policy
        if policy == "trivial":
            raise InfeasibleParamsError(
                f"base policy 'trivial' stopped at [q]^{sub.n} with n > R={radius}; "
                "choose y <= n so the recursion can continue, or a solving policy"
            )
        if policy == "auto":
            policy = "exact" if sub.size <= EXACT_SOLVER_GUARD else "greedy"
        if policy == "exact":
            res = minimal_covering_code(sub, radius, node_budget=EXACT_BASE_NODE_BUDGET)
            method = "exact" if res.status == "optimal" else "exact-incumbent"
            trace.base = BaseRecord(sub.n, method, len(res.code))
            return res.code.indices
        cover = greedy_ball_cover(sub, radius)
        trace.base = BaseRecord(sub.n, "greedy", len(cover))
        return cover.indices

    def build(n: int, depth: int) -> np.ndarray:
        """Sorted word indices of a covering code of [q]^n."""
        sub = HammingSpace(q, n)
        if n <= radius:
            trace.base = BaseRecord(n, "trivial", 1)
            return np.zeros(1, dtype=np.int64)
        r = floor_div_real(n, y)
        if r == 0:
            return base_cover(sub)
        r_prime = n - r
        prefix_space = HammingSpace(q, r_prime)
        dom = dominating_partial(prefix_space, radius, x, seed=f"{seed}/{depth}")
        k2 = build(r, depth + 1) if dom.N_bar.size else np.zeros(0, dtype=np.int64)
        # word index = prefix index * q^r + suffix index
        block = q**r
        x_part = dom.X[:, None] * block + np.arange(block)
        nbar_part = dom.N_bar[:, None] * block + k2
        words = unique_indices(np.concatenate((x_part.ravel(), nbar_part.ravel())))
        assert len(words) == len(dom.X) * block + len(dom.N_bar) * len(k2)
        trace.levels.append(
            TraceLevel(
                n=n,
                r=r,
                r_prime=r_prime,
                m=prefix_space.size,
                d=ball_volume(prefix_space, radius) - 1,
                x_size=len(dom.X),
                nbar_size=len(dom.N_bar),
                k2_size=len(k2),
                k_size=len(words),
            )
        )
        return words

    words = build(space.n, 0)
    code = Code(space, words)
    trace.levels.reverse()  # top level first
    trace.total_size = len(code)
    trace.density = density(code, radius)
    return code, trace


def dumps_trace(trace: ConstructionTrace) -> str:
    return json.dumps(trace.to_json_dict(), sort_keys=True, indent=2) + "\n"
