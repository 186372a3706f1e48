"""Exact combinatorics and enumeration for the Hamming space [q]^n.

Words are plain tuples of ints drawn from {0, ..., q-1}. A word's index is
its mixed-radix value with the leftmost symbol most significant, so index
order coincides with lexicographic order on words. Many words at once are
a (k, n) digit matrix or an int64 index array; the two convert row-wise
with the same bijection. All counts are exact Python integers; floats
never enter the combinatorics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterator, Sequence, Tuple

import numpy as np

from .errors import SpaceTooLargeError

Word = Tuple[int, ...]

#: Largest q**n for which full-space scans (verification, graph views) run
#: by default. Overridable per call; the guard exists to turn an accidental
#: week-long enumeration into an immediate error.
DEFAULT_ENUMERATION_GUARD = 1 << 26

#: Spaces must satisfy q**n < INDEX_LIMIT so that every word index fits in
#: a signed 64-bit integer.
INDEX_LIMIT = 1 << 63


@dataclass(frozen=True)
class HammingSpace:
    """The set of all words of length ``n`` over the alphabet {0, ..., q-1}."""

    q: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.q, int) or self.q < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got q={self.q!r}")
        if not isinstance(self.n, int) or self.n < 0:
            raise ValueError(f"word length must be an integer >= 0, got n={self.n!r}")

    @property
    def size(self) -> int:
        """Exact number of words, q**n."""
        return self.q**self.n

    @property
    def zero(self) -> Word:
        return (0,) * self.n

    def contains(self, w: Sequence[int]) -> bool:
        return len(w) == self.n and all(0 <= s < self.q for s in w)

    def require_word(self, w: Sequence[int]) -> Word:
        """Return ``w`` as a tuple, or raise ValueError if it is not in the space."""
        t = tuple(w)
        if not self.contains(t):
            raise ValueError(f"{t!r} is not a word of [{self.q}]^{self.n}")
        return t

    def check_indexable(self) -> None:
        """Raise SpaceTooLargeError if word indices of this space overflow int64."""
        if self.size >= INDEX_LIMIT:
            raise SpaceTooLargeError(
                f"q^n = {self.q}^{self.n} = {self.size} is too large: word indices "
                f"must stay below 2^63"
            )

    def check_enumerable(self, limit: int = DEFAULT_ENUMERATION_GUARD) -> None:
        """Raise SpaceTooLargeError if a full scan of this space exceeds ``limit``."""
        if self.size > limit:
            raise SpaceTooLargeError(
                f"q^n = {self.q}^{self.n} = {self.size} exceeds the enumeration "
                f"guard {limit}; raise the guard explicitly or use sampled checks"
            )


def check_radius(radius: int) -> None:
    """Raise ValueError for a negative covering radius."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def ball_volume(space: HammingSpace, radius: int) -> int:
    """Number of words within Hamming distance ``radius`` of any fixed center.

    Equals sum_{i=0}^{min(radius,n)} (q-1)^i * C(n, i), computed exactly.
    The count is center-independent because the space is vertex-transitive.
    """
    check_radius(radius)
    q, n = space.q, space.n
    return sum((q - 1) ** i * math.comb(n, i) for i in range(min(radius, n) + 1))


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of coordinates where two equal-length words differ."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))


def enumerate_ball(space: HammingSpace, center: Sequence[int], radius: int) -> Iterator[Word]:
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


def enumerate_space(space: HammingSpace, limit: int = DEFAULT_ENUMERATION_GUARD) -> Iterator[Word]:
    """Yield all words of the space in lexicographic order (guarded)."""
    space.check_enumerable(limit)
    return product(range(space.q), repeat=space.n)


def word_index(space: HammingSpace, w: Sequence[int]) -> int:
    """Mixed-radix index of a word; inverse of :func:`index_word`."""
    w = space.require_word(w)
    i = 0
    for s in w:
        i = i * space.q + s
    return i


def index_word(space: HammingSpace, i: int) -> Word:
    """Word with mixed-radix index ``i``; inverse of :func:`word_index`."""
    if not 0 <= i < space.size:
        raise ValueError(f"index {i} out of range [0, {space.size})")
    syms = []
    for _ in range(space.n):
        syms.append(i % space.q)
        i //= space.q
    return tuple(reversed(syms))


def digits_to_indices(space: HammingSpace, digits: np.ndarray) -> np.ndarray:
    """Row-wise :func:`word_index` of a (k, n) digit matrix, as int64.

    The digits must already be validated to lie in [0, q).
    """
    space.check_indexable()
    idx = np.zeros(len(digits), dtype=np.int64)
    for j in range(space.n):
        idx = idx * space.q + digits[:, j]
    return idx


def indices_to_digits(space: HammingSpace, indices: np.ndarray) -> np.ndarray:
    """Row-wise :func:`index_word`: a (k, n) matrix of the smallest unsigned dtype holding q-1."""
    out = np.empty((len(indices), space.n), dtype=np.min_scalar_type(space.q - 1))
    rest = np.array(indices, dtype=np.int64)
    for j in range(space.n - 1, -1, -1):
        rest, out[:, j] = np.divmod(rest, space.q)
    return out


def expand_within_radius(space: HammingSpace, mask: np.ndarray, radius: int) -> np.ndarray:
    """Grow a boolean membership mask over word indices by ``radius`` Hamming steps.

    One step adds every word differing from a current member in exactly one
    coordinate (any replacement symbol), so ``radius`` steps mark the union
    of the radius-``radius`` balls around the original members. Runs as n
    axis-reductions per step on the mask reshaped to a (q, ..., q) grid.
    """
    check_radius(radius)
    if mask.shape != (space.size,):
        raise ValueError(f"mask must have shape ({space.size},)")
    if radius == 0 or space.n == 0:
        return mask.copy()
    grid = mask.reshape((space.q,) * space.n)
    for _ in range(min(radius, space.n)):
        out = grid.copy()
        for axis in range(space.n):
            out |= grid.any(axis=axis, keepdims=True)
        grid = out
    return grid.reshape(-1)
