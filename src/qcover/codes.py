"""Covering codes: membership, covering verification, exact density, file I/O.

A code is a sorted array of distinct word indices in one Hamming space.
Exhaustive covering verification runs the vectorized radius-expansion
kernel over the whole space. Sampled verification spot-checks random words
on spaces too large to enumerate.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .hamming import (
    DEFAULT_ENUMERATION_GUARD,
    HammingSpace,
    Word,
    ball_volume,
    check_radius,
    digits_to_indices,
    expand_within_radius,
    index_word,
    indices_to_digits,
)


def unique_indices(indices: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an index array (``np.unique`` without its hash pass)."""
    s = np.sort(indices)
    return s[np.concatenate(([True], s[1:] != s[:-1]))] if s.size else s


@dataclass(frozen=True, eq=False)
class Code:
    """A set of codewords in one Hamming space, stored as word indices.

    ``indices`` is a read-only, strictly increasing int64 array of
    lexicographic word indices (see :func:`~qcover.hamming.word_index`), so
    index order is word order and duplicates cannot occur. Tuples appear only
    in :meth:`from_words` and :meth:`sorted_words`.
    """

    space: HammingSpace
    indices: np.ndarray

    def __post_init__(self) -> None:
        sp = self.space
        sp.check_indexable()
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise TypeError(
                "Code indices must be a 1-D integer array; use Code.from_words for words"
            )
        idx = idx.astype(np.int64)  # a private copy the code owns
        if idx.size and (idx[0] < 0 or idx[-1] >= sp.size or np.any(idx[1:] <= idx[:-1])):
            raise ValueError(
                f"code indices must be strictly increasing within [0, {sp.size}) "
                f"for [{sp.q}]^{sp.n}"
            )
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    @classmethod
    def from_words(cls, space: HammingSpace, words: Iterable[Sequence[int]]) -> "Code":
        """Build a code from word tuples in any order; duplicates collapse."""
        rows = [space.require_word(w) for w in words]
        digits = np.array(rows, dtype=np.int64).reshape(len(rows), space.n)
        return cls(space, unique_indices(digits_to_indices(space, digits)))

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((self.space, self.indices.tobytes()))

    def sorted_words(self) -> List[Word]:
        """The codewords as tuples in lexicographic order."""
        return [tuple(row) for row in indices_to_digits(self.space, self.indices).tolist()]


@dataclass(frozen=True)
class DensityValue:
    """Exact covering density |K| * V_q(n,R) / q^n with a float projection."""

    exact: Fraction

    @property
    def approx(self) -> float:
        return float(self.exact)


def density(code: Code, radius: int) -> DensityValue:
    sp = code.space
    return DensityValue(Fraction(len(code) * ball_volume(sp, radius), sp.size))


def sphere_covering_lower_bound(space: HammingSpace, radius: int) -> int:
    """ceil(q^n / V_q(n,R)): no covering code of this radius can be smaller."""
    v = ball_volume(space, radius)
    return -(-space.size // v)


@dataclass(frozen=True)
class CoverVerdict:
    """Outcome of an exhaustive covering check.

    ``witness`` is the lexicographically smallest uncovered word when
    ``covered`` is False, making failures deterministic.
    """

    covered: bool
    witness: Optional[Word] = None


@dataclass(frozen=True)
class SampleVerdict:
    """Outcome of a randomized spot-check.

    One-sided: a witness definitively disproves covering, while
    ``found_uncovered=False`` only means no counterexample was sampled.
    """

    found_uncovered: bool
    witness: Optional[Word]
    samples: int


def coverage_mask(code: Code, radius: int) -> np.ndarray:
    """Boolean array over word indices marking words within ``radius`` of the code."""
    mask = np.zeros(code.space.size, dtype=bool)
    mask[code.indices] = True
    return expand_within_radius(code.space, mask, radius)


def verify_covering(
    code: Code, radius: int, *, guard: int = DEFAULT_ENUMERATION_GUARD
) -> CoverVerdict:
    """Exhaustively decide whether every word is within ``radius`` of the code."""
    sp = code.space
    sp.check_enumerable(guard)
    holes = np.flatnonzero(~coverage_mask(code, radius))
    if holes.size == 0:
        return CoverVerdict(True)
    return CoverVerdict(False, index_word(sp, int(holes[0])))


def verify_covering_sampled(
    code: Code, radius: int, samples: int, seed: int = 0
) -> SampleVerdict:
    """Spot-check ``samples`` uniform random words against the code.

    Usable on spaces far beyond the enumeration guard. Deterministic for a
    fixed seed. Each sample costs one vectorized distance test against the
    code's digit columns, whatever the radius.
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


# ---------------------------------------------------------------------------
# Code file format: {"q": int, "n": int, "words": [str, ...]} with words as
# digit strings for q <= 10 and comma-separated integers otherwise, every
# symbol in ASCII decimal digits. The serialized form is canonical: sorted
# keys, words in lexicographic order.
# ---------------------------------------------------------------------------


def word_to_text(w: Sequence[int], q: int) -> str:
    if q <= 10:
        return "".join(str(s) for s in w)
    return ",".join(str(s) for s in w)


def _comma_word(text: str, space: HammingSpace) -> Word:
    """Parse one q > 10 word: comma-separated symbols in ASCII decimal digits."""
    if not isinstance(text, str):
        raise TypeError(f"code words must be strings, got {text!r}")
    parts = text.split(",") if text else []
    if not all(p.isascii() and p.isdigit() for p in parts):
        raise ValueError(f"{text!r} is not a word of [{space.q}]^{space.n}")
    return space.require_word(int(p) for p in parts)


def _digit_matrix(texts: List[str], space: HammingSpace) -> np.ndarray:
    """Parse q <= 10 digit strings into a validated (len(texts), n) uint8 matrix."""
    q, n = space.q, space.n
    joined = "".join(texts)  # raises TypeError on a non-string word
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    bad = np.flatnonzero(lengths != n)
    if bad.size:
        raise ValueError(f"{texts[bad[0]]!r} is not a word of [{q}]^{n}")
    if not joined.isascii():
        raise ValueError("code words must be ASCII digit strings")
    digits = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - ord("0")
    digits = digits.reshape(len(texts), n)
    bad = np.flatnonzero((digits >= q).any(axis=1))  # characters below '0' wrap high
    if bad.size:
        raise ValueError(f"{texts[bad[0]]!r} is not a word of [{q}]^{n}")
    return digits


def code_to_dict(code: Code) -> dict:
    sp = code.space
    if sp.q <= 10:
        text = (indices_to_digits(sp, code.indices) + ord("0")).tobytes().decode("ascii")
        words = [text[i * sp.n : (i + 1) * sp.n] for i in range(len(code))]
    else:
        words = [word_to_text(w, sp.q) for w in code.sorted_words()]
    return {"q": sp.q, "n": sp.n, "words": words}


def code_from_dict(obj: dict) -> Code:
    space = HammingSpace(obj["q"], obj["n"])
    texts = list(obj["words"])
    if space.q > 10:
        return Code.from_words(space, (_comma_word(t, space) for t in texts))
    return Code(space, unique_indices(digits_to_indices(space, _digit_matrix(texts, space))))


def dumps_code(code: Code) -> str:
    return json.dumps(code_to_dict(code), sort_keys=True, indent=2) + "\n"


def read_code(path) -> Code:
    """Read a code file, or the code inside a ``solve --out`` result file."""
    obj = json.loads(Path(path).read_text())
    if isinstance(obj, dict) and "words" not in obj and isinstance(obj.get("code"), dict):
        obj = obj["code"]
    return code_from_dict(obj)
