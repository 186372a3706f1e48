"""Bulk node counts for the exact solver's search.

This is the numpy side of :mod:`qcover.solver`, whose big-int search loop
calls it. While the incumbent is fixed, the nodes of a subtree do not
depend on the order in which they are visited; only a node that completes
the cover does. :func:`_subtree_nodes` counts a whole subtree with numpy, a
level at a time, over blocks of covered sets held as little-endian uint64
columns, and gives up where a node completes the cover or past a cap on
nodes or memory; the search then visits the subtree child by child.

On the last level only a child that completes the cover matters, and its
ball holds every uncovered word: all of them then lie within 2R of the
lowest (triangle inequality). A covered set with an uncovered word beyond
2R of its lowest is counted and needs no children; one table of the words
beyond 2R of each word (:func:`_far_columns`) finds those sets with one AND
each. The rule only skips work that could not find a completing child, so
it cannot change a count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .hamming import HammingSpace, expand_within_radius

#: A subtree count gives up past this many nodes, so that budgets are read
#: soon, or this many uint64 words of pending children, so that a deep tree
#: holds little memory; the subtree is then visited child by child.
_COUNT_NODES, _COUNT_WORDS = 1 << 19, 1 << 18


def _far_columns(space: HammingSpace, balls: np.ndarray, radius: int) -> np.ndarray:
    """The words beyond distance 2R of each word, as (W, q^n) columns.

    ``balls`` holds the radius-R rows of :func:`qcover.solver._ball_rows`;
    R more kernel steps grow them to radius 2R. XOR with the union of all
    balls, which is every word, takes their complement within q^n bits, so
    the padding of the last uint64 word stays clear. The table is all zero
    where 2R >= n.
    """
    far = expand_within_radius(space, balls, radius) ^ np.bitwise_or.reduce(balls)
    return np.ascontiguousarray(far.T)


def _subtree_nodes(balls: np.ndarray, words: np.ndarray, far: Optional[np.ndarray],
                   covered: int, k: int, min_excl: int) -> Optional[int]:
    """Nodes in the search below ``covered`` for k more codewords above ``min_excl``.

    ``balls`` holds the ball rows of :func:`qcover.solver._ball_rows` as
    (W, q^n) columns and ``words`` each ball's words, ascending. The search
    branches on the lowest uncovered word; a child passes when at most
    k - 1 more balls could cover the rest, and is searched with k - 1.
    Returns None when some node completes the cover, where the visit order
    decides the outcome, or past ``_COUNT_NODES`` nodes or ``_COUNT_WORDS``
    pending words; otherwise no order can change the count. Covered sets
    are searched a level at a time, in steps of 2^13 words of children, or
    of 128 rows of V*W words where those fit in ``_COUNT_WORDS``.

    ``far`` holds the words beyond distance 2R of each word as (W, q^n)
    columns (:func:`_far_columns`), or is None where 2R >= n. A completing
    child is within R of every uncovered word, so on the last level (k = 1)
    a covered set with an uncovered word beyond 2R of its lowest has none:
    its children are counted but not built. Those blocks are counted and
    tested whole, and only the rest build children, in the same steps.
    """
    width, m = balls.shape
    v_ball = words.shape[1]
    vw = v_ball * width
    rows = max((1 << 13) // vw, 128 if 128 * vw <= _COUNT_WORDS else 1)
    start = np.frombuffer(covered.to_bytes(8 * width, "little"), dtype="<u8")[:, None]
    stack = [(start, k)]
    count, held = 0, start.size  # nodes counted; words in the pending blocks
    while stack:
        cov, k = stack.pop()
        last = k == 1 and far is not None  # tested whole, below
        if cov.shape[1] > rows and not last:
            stack.append((cov[:, rows:], k))
            cov = cov[:, :rows]
        held -= cov.size
        # trailing ones of each word; the lowest uncovered word lies in the
        # first word that is not full
        ones = np.bitwise_count(cov & ~(cov + np.uint64(1)))
        low = ones[0]
        if width > 1:
            at = (ones < 64).argmax(axis=0)
            low = at * 64 + ones[at, np.arange(len(low))]
        cands = words[low]
        count += cands.size
        if min_excl >= 0:
            count -= int(np.count_nonzero(cands <= min_excl))
        if count > _COUNT_NODES:
            return None
        if last:
            # a completing child's ball holds the lowest uncovered word and
            # every other, so these all lie within 2R of the lowest
            keep = ~(np.take(far, low, axis=1) & ~cov).any(axis=0)
            cov, cands = cov[:, keep], cands[keep]
        for i in range(0, len(cands), rows):
            step = cands[i:i + rows]
            child = np.take(balls, step, axis=1)
            child |= cov[:, i:i + rows, None]
            got = np.bitwise_count(child)
            got = got[0] if width == 1 else got.sum(axis=0, dtype=np.min_scalar_type(m))
            if min_excl >= 0:
                got[step <= min_excl] = 0
            top = got.max()
            if top == m:
                return None
            need = max(m - (k - 1) * v_ball, 1)  # skipped children, at 0, never pass
            if top >= need:
                child = np.compress((got >= need).ravel(), child.reshape(width, -1), axis=1)
                stack.append((child, k - 1))
                held += child.size
                if held > _COUNT_WORDS:
                    return None
    return count
