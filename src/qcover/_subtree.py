"""Bulk node counts for the exact solver's search.

This is the numpy side of :mod:`qcover.solver`, whose big-int search loop
calls it. While the incumbent is fixed, the nodes of a subtree do not
depend on the order in which they are visited; only a node that completes
the cover does. :func:`_subtree_nodes` counts a whole subtree with numpy, a
level at a time, over blocks of covered sets held as little-endian uint64
columns, and gives up where a node completes the cover or past a cap on
nodes or memory; the search then visits the subtree child by child. A
numpy step builds the V*W words of children of 2^13 // (V*W) covered sets,
or of up to 128 sets as long as their children fit in the memory cap, and
of at least one: wide balls ([2]^12 at radius 3, V = 299 and W = 64) take
13 sets a step. The uint64 words below the lowest uncovered word are full
in every covered set of the subtree and are left out, and a row of one
uint64 word is held as a 1-D block.

On the last level only a child that completes the cover matters, and its
ball holds every uncovered word: all of them then lie within 2R of the
lowest (triangle inequality). A covered set with an uncovered word beyond
2R of its lowest is counted and needs no children; one table of the words
beyond 2R of each word (:func:`_far_columns`) finds those sets with one AND
each. The rule only skips work that could not find a completing child, so
it cannot change a count.
"""

from __future__ import annotations

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
    where 2R >= n, where it settles no set.
    """
    far = expand_within_radius(space, balls, radius) ^ np.bitwise_or.reduce(balls)
    return np.ascontiguousarray(far.T)


def _subtree_nodes(balls: np.ndarray, words: np.ndarray, far: np.ndarray,
                   covered: int, k: int, min_excl: int) -> tuple[int, bool]:
    """Nodes in the search below ``covered`` for k more codewords above ``min_excl``.

    ``balls`` holds the ball rows of :func:`qcover.solver._ball_rows` as
    (W, q^n) columns and ``words`` each ball's words, ascending. The search
    branches on the lowest uncovered word; a child passes when at most
    k - 1 more balls could cover the rest, and is searched with k - 1.
    Returns the count and True, since no order can change it; or gives up
    with the nodes counted so far and False where some node completes the
    cover, so that the visit order decides the outcome, or past
    ``_COUNT_NODES`` nodes or ``_COUNT_WORDS`` pending words. Covered sets
    are searched a level at a time, in the steps the module docstring gives.

    ``far`` holds the words beyond distance 2R of each word as (W, q^n)
    columns (:func:`_far_columns`), all zero where 2R >= n. A completing
    child is within R of every uncovered word, so on the last level (k = 1)
    a covered set with an uncovered word beyond 2R of its lowest has none:
    its children are counted but not built. Those blocks are counted and
    tested whole, V nodes a set less those at or below ``min_excl``, and
    only the rest gather their children's words and build them, in the
    same steps.
    """
    vw = words.shape[1] * len(balls)
    rows = max((1 << 13) // vw, min(128, _COUNT_WORDS // vw), 1)
    # the uint64 words below the lowest uncovered word are full in every
    # covered set below ``covered``: the count drops them, and m counts the rest
    skip = (~covered & (covered + 1)).bit_length() - 1 >> 6
    balls, covered = balls[skip:], covered >> 64 * skip
    far = far[skip:]
    width, m, v_ball = len(balls), len(words) - 64 * skip, words.shape[1]
    start = np.frombuffer(covered.to_bytes(8 * width, "little"), dtype="<u8")[:, None]
    if width == 1:  # one uint64 per row: blocks are 1-D
        balls, start, far = balls[0], start[0], far[0]
    stack = [(start, k)]
    count, held = 0, start.size  # nodes counted; words in the pending blocks
    while stack:
        cov, k = stack.pop()
        last = k == 1  # tested whole, below
        if cov.shape[-1] > rows and not last:
            stack.append((cov[..., rows:], k))
            cov = cov[..., :rows]
        held -= cov.size
        # the lowest uncovered word counts each row's trailing ones, where
        # the +1 carries into a word while every word below it is full
        low = cov + np.uint64(1)
        if width > 1:
            np.add(cov[1:], np.logical_and.accumulate(low[:-1] == 0, axis=0), out=low[1:])
        np.invert(low, out=low)
        low &= cov
        low = np.bitwise_count(low)
        if width > 1:
            low = low.sum(axis=0, dtype=np.intp, initial=64 * skip)
        elif skip:  # past the uint8 counts
            low = np.add(low, 64 * skip, dtype=np.intp)
        count += v_ball * low.size
        if min_excl >= 0:
            count -= int(np.count_nonzero(words.take(low, axis=0) <= min_excl))
        if count > _COUNT_NODES:
            return count, False
        if last:
            # a completing child's ball holds the lowest uncovered word and
            # every other, so these all lie within 2R of the lowest
            keep = ~(far.take(low, axis=-1) & ~cov).reshape(width, -1).any(axis=0)
            cov, low = cov[..., keep], low[keep]
        cands = words.take(low, axis=0)
        for i in range(0, len(cands), rows):
            step = cands[i:i + rows]
            child = balls.take(step, axis=-1)
            child |= cov[..., i:i + rows, None]
            got = np.bitwise_count(child)
            if width > 1:
                got = got.sum(axis=0, dtype=np.min_scalar_type(m))
            if min_excl >= 0:
                got[step <= min_excl] = 0
            top = got.max()
            if top == m:
                return count, False
            need = max(m - (k - 1) * v_ball, 1)  # skipped children, at 0, never pass
            if top >= need:
                child = child.reshape(cov.shape[:-1] + (-1,)).compress((got >= need).ravel(), axis=-1)
                stack.append((child, k - 1))
                held += child.size
                if held > _COUNT_WORDS:
                    return count, False
            del child  # before the next step's, which may be as large
    return count, True
