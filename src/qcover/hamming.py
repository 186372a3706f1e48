"""Exact combinatorics and enumeration for the Hamming space [q]^n.

Words are plain tuples of ints drawn from {0, ..., q-1}. A word's index is
its mixed-radix value with the leftmost symbol most significant, so index
order coincides with lexicographic order on words. Many words at once are
a (k, n) digit matrix or an int64 index array; the two convert row-wise
with the same bijection, and for q <= 10 indices also render straight to
rows of ASCII digits. All counts are exact Python integers; floats
never enter the combinatorics.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence, Tuple

import numpy as np

from .errors import SpaceTooLargeError

Word = Tuple[int, ...]

#: Largest q**n for which full-space scans (verification, domination) run
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
        # bool is an int subclass, but True is neither an alphabet size nor a length
        if not isinstance(self.q, int) or isinstance(self.q, bool) or self.q < 2:
            raise ValueError(f"alphabet size must be an integer >= 2, got q={self.q!r}")
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 0:
            raise ValueError(f"word length must be an integer >= 0, got n={self.n!r}")

    @property
    def size(self) -> int:
        """Exact number of words, q**n."""
        return self.q**self.n

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
                f"q^n = {self.q}^{self.n} = {self.size} exceeds the enumeration guard {limit}"
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


def ball_offsets(space: HammingSpace, radius: int) -> np.ndarray:
    """The words within ``radius`` of the zero word, as an (r, V) table.

    V = V_q(n, radius) and r = min(radius, n). Column i names the nonzero
    digits of the i-th word of the ball, in order of weight: digit c at
    position p is the flat index p*q + c into an (n, q) array, and columns
    are padded with 0, which names digit 0 at position 0. So the words at
    distance i >= 1 are columns ball_volume(i - 1) up to ball_volume(i).
    """
    q, n, r = space.q, space.n, min(radius, space.n)
    table = np.zeros((r, ball_volume(space, radius)), np.intp)
    start = 1
    for i in range(1, r + 1):
        at = np.fromiter(combinations(range(n), i), np.dtype((np.intp, i))) * q  # (C(n, i), i)
        symbols = np.indices((q - 1,) * i).reshape(i, -1).T + 1  # ((q-1)^i, i)
        stop = start + len(at) * len(symbols)
        table[:i, start:stop] = (at[:, None, :] + symbols).reshape(-1, i).T
        start = stop
    return table


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    """Number of coordinates where two equal-length words differ."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(a != b for a, b in zip(u, v))


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
    """Row-wise :func:`word_index` of an unsigned (k, n) digit matrix, as int64.

    The digits must already be validated to lie in [0, q). The mirror of
    :func:`indices_to_digits`: each limb of m digits with q^m < 2^32 is
    accumulated in uint32 (one digit per uint64 limb when q is larger) and
    then folded into the int64 index.
    """
    space.check_indexable()
    q, n = space.q, space.n
    m, limb_dtype = _limbs(q, n)
    idx = np.zeros(len(digits), dtype=np.int64)
    for start in range(0, n, m):
        stop = min(start + m, n)
        limb = np.zeros(len(digits), dtype=limb_dtype)
        for j in range(start, stop):
            limb *= q
            limb += digits[:, j]
        idx *= q ** (stop - start)
        idx += limb.astype(np.int64)  # int64 + uint64 would promote to float64
    return idx


def indices_to_digits(space: HammingSpace, indices: np.ndarray) -> np.ndarray:
    """Row-wise :func:`index_word`: a (k, n) matrix of the smallest unsigned dtype holding q-1.

    Each index splits into limbs of m digits with q^m < 2^32 (one digit per
    limb when q is larger), whose digits come from 32-bit arithmetic. Digits
    are written a coordinate at a time, so the matrix is the transpose of a
    contiguous (n, k) array.
    """
    q, n = space.q, space.n
    m, limb_dtype = _limbs(q, n)
    out = np.empty((n, len(indices)), dtype=np.min_scalar_type(q - 1))
    rest = np.array(indices, dtype=np.int64)
    for stop in range(n, 0, -m):
        start = max(stop - m, 0)
        high = rest // q ** (stop - start)
        limb = (rest - high * q ** (stop - start)).astype(limb_dtype)
        rest = high
        for j in range(stop - 1, start - 1, -1):
            high = limb // q
            out[j] = limb - high * q
            limb = high
    return out.T


def indices_to_ascii(space: HammingSpace, indices, out: np.ndarray) -> np.ndarray:
    """Row-wise ASCII digits (q <= 10): index i fills the first n bytes of row i of ``out``.

    Each limb of m digits with q^m <= 2^12 is one ``np.take`` from a table
    of all m-digit texts. The other bytes of ``out`` are left as they are.
    Returns ``out``.
    """
    q, n = space.q, space.n
    m = max(1, _max_length(q, n, 1 << 12))
    rest = np.asarray(indices, np.int64)
    for stop in range(n, 0, -m):
        width = min(m, stop)
        high = rest // q**width  # floor division by a scalar is the fast form
        texts = np.take(_ascii_table(q, width), rest - high * q**width)
        out[:, stop - width : stop].view((np.void, width))[:, 0] = texts
        rest = high
    return out


@functools.cache
def _ascii_table(q: int, m: int) -> np.ndarray:
    """The words of [q]^m in index order as ASCII digits, one m-byte void each."""
    table = np.empty((q**m, m), np.uint8)
    rest = np.arange(q**m)
    for j in range(m - 1, -1, -1):
        rest, table[:, j] = np.divmod(rest, q)
    table += ord("0")
    return table.view((np.void, m))[:, 0]


def _limbs(q: int, n: int) -> tuple:
    """(m, dtype): limbs of m digits with q^m < 2^32 in uint32, or one digit per uint64 limb."""
    m = max(1, _max_length(q, n, (1 << 32) - 1))
    return m, np.uint32 if q**m < 1 << 32 else np.uint64


def _max_length(q: int, n: int, limit: int) -> int:
    """Largest k <= n with q^k <= limit."""
    k = 0
    while k < n and q ** (k + 1) <= limit:
        k += 1
    return k


#: Runs of at most this many words along the kernel's (A, q, B) view are
#: short. Numpy starts one inner loop per run, which costs more than a few
#: words do, so the kernel walks such views A-innermost instead: one strided
#: loop of A words per slice. On the 2^20 packed words of [2]^26, runs of 8
#: words were already faster walked B-innermost, where strides miss the cache.
_SHORT_RUN = 4


def expand_within_radius(space: HammingSpace, mask: np.ndarray, radius: int) -> np.ndarray:
    """Grow membership masks over word indices by ``radius`` Hamming steps.

    ``mask`` has shape (q^n, *payload), whose payload bits are independent
    masks (the solver packs one bit per word; a boolean mask is one), or is
    one packed mask: q^(n-k) uint64 words, k the largest k <= n with
    q^k <= 64, bit p of word j marking word j*q^k + p. One step ORs each
    word's bit into every word differing from it in exactly one coordinate,
    so ``radius`` steps mark the union of the radius-``radius`` balls around
    the members, in the mask's shape and dtype.

    A step along a packed coordinate is shift-and-mask within the word, with
    one mask per packed digit: the positions where that digit is 0 (bits
    above q^k never reach those below). Along any other coordinate a step
    works on an (A, q, B) view of the mask with that coordinate's symbols on
    the middle axis: it ORs the q slices together and back into each. Where
    the contiguous runs of B words are short (at most :data:`_SHORT_RUN`, as
    just above the packed digits), the view is transposed to (B, q, A) and
    walked in C order, so each ufunc loop runs over A words at a stride, not
    over B words A times. That changes the order of the work, not the number
    of calls, so small masks pay nothing for it.
    Packed masks must hold ``uint64`` words; narrower words would drop bits.
    """
    check_radius(radius)
    q, n = space.q, space.n
    k = _max_length(q, n, 64)
    packed = q ** (n - k)
    if mask.shape != (packed,):
        k = 0
    elif k and mask.dtype != np.uint64:
        raise TypeError(f"a packed mask must hold uint64 words, got {mask.dtype}")
    if mask.shape[:1] != (q ** (n - k),):
        raise ValueError(f"mask must have shape ({space.size}, ...) or ({packed},), got {mask.shape}")
    if radius == 0 or n == 0:
        return mask.copy()
    grid = mask.reshape(-1)
    zero = [np.uint64(sum(1 << p for p in range(q**k) if p // q**t % q == 0)) for t in range(k)]
    low = np.empty_like(grid) if k else None  # one buffer for every packed digit's step
    for _ in range(min(radius, n)):
        out = grid.copy()
        for axis in range(n - k):
            # (A, q, B) views put the symbols of this coordinate on axis 1
            a, b = q**axis, grid.size // q ** (axis + 1)
            g, o = grid.reshape(a, q, b), out.reshape(a, q, b)
            if b <= _SHORT_RUN:
                g, o = g.transpose(2, 1, 0), o.transpose(2, 1, 0)
            if q == 2:
                np.bitwise_or(o[:, 0], g[:, 1], out=o[:, 0], order="C")
                np.bitwise_or(o[:, 1], g[:, 0], out=o[:, 1], order="C")
            else:
                any_symbol = np.bitwise_or(g[:, 0], g[:, 1], order="C")
                for c in range(2, q):
                    np.bitwise_or(any_symbol, g[:, c], out=any_symbol, order="C")
                np.bitwise_or(o, any_symbol[:, None], out=o, order="C")
        for t in range(k):
            # symbol c of digit t is (grid >> c*q^t) & zero[t]; OR all q into
            # the symbol-0 positions, then shift that back out to every symbol
            stride = np.uint64(q**t)
            np.right_shift(grid, stride, out=low)
            low |= grid
            for c in range(2, q):
                low |= grid >> np.uint64(c) * stride
            low &= zero[t]
            out |= low
            for c in range(1, q):
                low <<= stride
                out |= low
        grid = out
    return grid.reshape(mask.shape)


#: Indices packed into the member mask per step of :func:`_hole_mask`.
_PACK_BLOCK = 1 << 15


def uncovered_indices(space: HammingSpace, indices, radius: int) -> np.ndarray:
    """Sorted int64 indices of the words farther than ``radius`` from every given index.

    Every set bit of :func:`_hole_mask`, unpacked; empty exactly when those
    words cover the space. Raises ValueError for an index outside [0, q^n).
    """
    holes = _hole_mask(space, indices, radius)
    if not holes.any():
        return np.empty(0, dtype=np.int64)
    width = space.size // len(holes)
    return np.flatnonzero(
        np.unpackbits(holes.reshape(len(holes), -1).view(np.uint8), axis=1, count=width, bitorder="little"))


def _hole_mask(space: HammingSpace, indices, radius: int) -> np.ndarray:
    """The words farther than ``radius`` from every given index, as a mask.

    For q <= 64 the mask is packed as :func:`expand_within_radius` takes it,
    q^(n-k) uint64 words of q^k bits (so word index i is bit i % q^k of word
    i // q^k) with the padding bits above q^k clear; for q > 64 it is one
    bool per word. The member mask is packed straight from the sorted
    indices, :data:`_PACK_BLOCK` at a time, each run sharing a word ORed
    into it, so no q^n-byte mask is made for q <= 64. One
    :func:`expand_within_radius` call grows it, and the flip leaves the
    holes. Raises ValueError for an index outside [0, q^n).
    """
    indices = np.asarray(indices, dtype=np.int64)
    if np.any(indices[1:] < indices[:-1]):
        indices = np.sort(indices)
    if indices.size and (indices[0] < 0 or indices[-1] >= space.size):
        raise ValueError(f"word indices must lie in [0, {space.size}) for [{space.q}]^{space.n}")
    k = _max_length(space.q, space.n, 64)
    width = space.q**k
    if width == 1:
        mask = np.zeros(space.size, dtype=bool)
        mask[indices] = True
    else:
        mask = np.zeros(space.size // width, dtype=np.uint64)
        for start in range(0, indices.size, _PACK_BLOCK):
            block = indices[start : start + _PACK_BLOCK]
            word = block // width  # floor division by a scalar is the fast form
            bits = np.uint64(1) << (block - word * width).view(np.uint64)
            first = np.flatnonzero(np.concatenate(([True], word[1:] != word[:-1])))  # runs' starts
            # |=, not =: a run split between two blocks keeps both halves
            mask[word[first]] |= np.bitwise_or.reduceat(bits, first)
    holes = expand_within_radius(space, mask, radius)
    holes ^= holes.dtype.type((1 << width) - 1)  # flip the word bits; the padding stays 0
    return holes
