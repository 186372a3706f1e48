"""Covering codes: membership, covering verification, exact density, file I/O.

A code is a sorted array of distinct word indices in one Hamming space;
words cross this module only as indices or as a (k, n) digit matrix. The
code-file parser splits word texts into such a matrix and checks its
membership once, and word texts are rendered from indices (for q <= 10 by
:func:`~qcover.hamming.indices_to_ascii`). A code file is written byte for
byte as ``json.dumps(..., sort_keys=True, indent=2)`` would write it, and
with q <= 10 it streams to and from disk through one reused block of
:data:`BLOCK_ROWS` rows, never held whole. Any other valid JSON layout is
read by ``json``, with the same result. A density is an exact
``Fraction``. Exhaustive covering verification takes the lowest set bit
of :func:`~qcover.hamming._hole_mask`, the words the code misses as a mask.
Sampled verification spot-checks random words on spaces too large to
enumerate, in one loop over batches of seeded samples whose digits are
drawn in bulk, bit for bit the ``randrange`` stream. A batch is tested by
binary-searching the indices of each word's radius-R ball in the code's
sorted indices, nearest shell first, or, where that costs more, by
comparing the code's digit columns with the whole batch in one broadcast.
"""

from __future__ import annotations

import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from ._randdigits import randrange_digits
from .errors import SpaceTooLargeError
from .hamming import (
    DEFAULT_ENUMERATION_GUARD,
    INDEX_LIMIT,
    HammingSpace,
    Word,
    _hole_mask,
    ball_offsets,
    ball_volume,
    check_radius,
    digits_to_indices,
    index_word,
    indices_to_ascii,
    indices_to_digits,
)


@dataclass(frozen=True, eq=False)
class Code:
    """A set of codewords in one Hamming space, stored as word indices.

    ``indices`` is a read-only, strictly increasing int64 array of
    lexicographic word indices (see :func:`~qcover.hamming.word_index`), so
    index order is word order and duplicates cannot occur. Word texts enter
    through :func:`code_from_dict` and leave through :func:`render_words`.
    """

    space: HammingSpace
    indices: np.ndarray

    def __post_init__(self) -> None:
        sp = self.space
        sp.check_indexable()
        idx = np.asarray(self.indices)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise TypeError(
                "Code indices must be a 1-D integer array; use code_from_dict for words"
            )
        idx = idx.astype(np.int64)  # a private copy the code owns
        if idx.size and (idx[0] < 0 or idx[-1] >= sp.size or np.any(idx[1:] <= idx[:-1])):
            raise ValueError(
                f"code indices must be strictly increasing within [0, {sp.size}) "
                f"for [{sp.q}]^{sp.n}"
            )
        idx.flags.writeable = False
        object.__setattr__(self, "indices", idx)

    def __len__(self) -> int:
        return len(self.indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return self.space == other.space and np.array_equal(self.indices, other.indices)

    def __hash__(self) -> int:
        return hash((self.space, self.indices.tobytes()))


def density(code: Code, radius: int) -> Fraction:
    """Exact covering density |K| * V_q(n,R) / q^n."""
    sp = code.space
    return Fraction(len(code) * ball_volume(sp, radius), sp.size)


def density_to_dict(value: Fraction) -> dict:
    """The JSON form of a density: exact numerator and denominator plus a float."""
    return {"numerator": value.numerator, "denominator": value.denominator, "approx": float(value)}


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


def verify_covering(
    code: Code, radius: int, *, guard: int = DEFAULT_ENUMERATION_GUARD
) -> CoverVerdict:
    """Exhaustively decide whether every word is within ``radius`` of the code."""
    sp = code.space
    try:
        sp.check_enumerable(guard)
    except SpaceTooLargeError as exc:
        raise SpaceTooLargeError(f"{exc}; raise guard= or use verify_covering_sampled") from None
    holes = _hole_mask(sp, code.indices, radius)
    first = int(np.argmax(holes != 0))  # the mask's first word holding a hole, else 0
    bits = int(holes[first])
    if not bits:
        return CoverVerdict(True)
    lowest = (bits & -bits).bit_length() - 1
    return CoverVerdict(False, index_word(sp, first * (sp.size // len(holes)) + lowest))


def verify_covering_sampled(
    code: Code, radius: int, samples: int, seed: int = 0
) -> SampleVerdict:
    """Spot-check ``samples`` uniform random words against the code.

    Usable on spaces far beyond the enumeration guard. Deterministic for a
    fixed seed: one loop takes the samples' digits from one seeded
    ``randrange`` stream, drawn in bulk by :mod:`qcover._randdigits`, a
    batch at a time, and a failing verdict names the first uncovered one
    and its sample number. A batch is tested whole, the cheaper of two
    ways, which :func:`_lookup_pays` picks per run. The ball lookup
    binary-searches each sample's radius-R ball in ``code.indices`` nearest
    shell first, each shell only for the samples no nearer one covered,
    2^16 // (V + n*q) samples a batch, V = V_q(n, R): its (s, V) keys and
    (s, n*q) offsets stay under 2^16 elements each while s >= 2, and one
    sample's O(V) scratch stays below the scan's digit matrix. The scan
    compares the code's n digit columns of |K| digits with the whole batch
    in one broadcast, 2^16 // (n*|K|) samples a batch. A batch holds at
    least one.
    """
    check_radius(radius)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    sp, indices = code.space, code.indices
    q, n, size = sp.q, sp.n, len(code)
    draw = randrange_digits(random.Random(f"sampled-verify:{seed}"), q)
    lookup = _lookup_pays(sp, size, radius)
    if lookup:
        ball = ball_offsets(sp, radius)
        weights = np.array([q ** (n - 1 - p) for p in range(n)], np.int64)
        batch = max(1, (1 << 16) // (ball_volume(sp, radius) + n * q))
    else:
        columns = indices_to_digits(sp, indices).T  # (n, |K|), contiguous
        batch = max(1, (1 << 16) // max(n, 1) // max(size, 1))
    for done in range(0, samples, batch):
        s = min(batch, samples - done)
        digits = draw(s * n).reshape(s, n)
        if lookup:
            # The neighbour of w with digit p changed to (w_p + c) mod q has
            # index idx(w) + ((w_p + c) mod q - w_p) * q^(n-1-p), so a word
            # of shell i is idx(w) plus, for each of the first i rows of its
            # ball_offsets column, one term gathered from its (n * q) such
            # offsets; shell 0 needs none.
            base = digits_to_indices(sp, digits)
            if len(ball):
                w = digits[:, :, None]
                offsets = (((w + np.arange(q)) % q - w) * weights[:, None]).reshape(s, n * q)
            missed = np.arange(s)  # the samples no nearer shell covers, in order
            start = 0
            for i in range(len(ball) + 1):  # shell i: the words at distance i
                if not (missed.size and size):  # all covered, or the empty code
                    break
                stop = ball_volume(sp, i)
                at = np.repeat(base[missed], stop - start).reshape(missed.size, stop - start)
                for term in ball[:i, start:stop]:
                    at += offsets[missed[:, None], term]
                found = indices.take(np.searchsorted(indices, at), mode="clip") == at
                missed = missed[~found.any(axis=1)]
                start = stop
        else:
            mismatched = columns != digits.astype(columns.dtype)[:, :, None]  # (s, n, |K|)
            covered = (mismatched.sum(axis=1, dtype=np.min_scalar_type(n)) <= radius).any(axis=1)
            del mismatched  # before the next batch's
            missed = np.flatnonzero(~covered)
        if missed.size:
            k = int(missed[0])
            return SampleVerdict(True, tuple(digits[k].tolist()), done + k + 1)
    return SampleVerdict(False, None, samples)


def _lookup_pays(space: HammingSpace, size: int, radius: int) -> bool:
    """Whether ball lookup beats the column scan on a code of ``size`` words.

    Per sample, a lookup does r = min(R, n) additions and bit_length(|K|)
    search steps for each of the V words of the ball, fewer when a nearer
    shell covers the sample, and a scan compares n * |K| digits. Where every
    sample needs the whole ball, an addition or step measured about ten
    digit comparisons (1.6-2 ns against 0.19 ns, [2]^40 with R = 3 on a
    2-vCPU x86-64 host), so a step is weighed as ten comparisons, which also
    keeps the lookup's (r, V) table of 8-byte entries below the scan's
    n * |K| digit bytes. The empty code scans.
    """
    r = min(radius, space.n)
    volume = ball_volume(space, radius)
    return size > 0 and 10 * volume * (size.bit_length() + r) <= space.n * size


# ---------------------------------------------------------------------------
# Code file format: {"q": int, "n": int, "words": [str, ...]} with words as
# digit strings for q <= 10 and comma-separated integers otherwise, every
# symbol in ASCII decimal digits. The serialized form is canonical: sorted
# keys, 2-space indent, one word per line in lexicographic order, and a
# trailing newline.
# ---------------------------------------------------------------------------


def _words_code(space: HammingSpace, words: list, symbols: np.ndarray, counts) -> Code:
    """The code of ``words``, given their concatenated unsigned symbols and their symbol counts.

    Words may come in any order and repeat; the code holds each once.
    Raises ValueError naming the first word without exactly n symbols in [0, q).
    """
    q, n = space.q, space.n
    bad = np.flatnonzero(np.fromiter(counts, dtype=np.int64, count=len(words)) != n)
    if not bad.size:
        digits = symbols.reshape(len(words), n)
        bad = np.flatnonzero((digits >= q).any(axis=1))
    if bad.size:
        raise ValueError(f"{words[bad[0]]!r} is not a word of [{q}]^{n}")
    idx = np.sort(digits_to_indices(space, digits))
    return Code(space, idx[np.concatenate(([True], idx[1:] != idx[:-1]))] if idx.size else idx)


def render_words(space: HammingSpace, indices, sep: str = "") -> str:
    """``sep.join`` of the code-file texts of the words with these indices.

    A text is the word's digits for q <= 10, otherwise its symbols joined by commas.
    """
    if space.q > 10:
        digits = indices_to_digits(space, np.asarray(indices, np.int64))
        return sep.join(",".join(map(str, row)) for row in digits.tolist())
    n = space.n
    rows = np.empty((len(indices), n + len(sep)), np.uint8)
    rows[:, n:] = np.frombuffer(sep.encode("ascii"), np.uint8)
    text = indices_to_ascii(space, indices, rows).reshape(-1)
    return str(text[: text.size - len(sep)], "ascii")


def code_to_dict(code: Code) -> dict:
    sp = code.space
    texts = render_words(sp, code.indices, "\n")
    return {"q": sp.q, "n": sp.n, "words": texts.split("\n") if len(code) else []}


def code_from_dict(obj: dict) -> Code:
    """Parse a code file's object; ``words`` that is not a list of strings raises TypeError."""
    space = HammingSpace(obj["q"], obj["n"])
    texts = obj["words"]
    if not isinstance(texts, list):  # a string would be read one character per word
        raise TypeError(f"words must be a list of strings, got {type(texts).__name__}")
    if space.q <= 10:
        # "".join raises TypeError on a non-string word. One byte per character:
        # a non-ASCII one encodes as "?", which lies above "9" like every
        # non-digit, and characters below "0" wrap high. The joined text is
        # freed once the uint8 symbols exist.
        symbols = np.frombuffer("".join(texts).encode("ascii", "replace"), np.uint8) - ord("0")
        return _words_code(space, texts, symbols, map(len, texts))
    split = [str.split(t, ",") if t != "" else [] for t in texts]  # TypeError on a non-string
    # a symbol that is not ASCII digits, or is past q, becomes q before the
    # cast, so it fails the check instead of overflowing
    q = space.q
    symbols = [min(int(p), q) if p.isascii() and p.isdigit() else q for ps in split for p in ps]
    return _words_code(space, texts, np.array(symbols, np.min_scalar_type(q)), map(len, split))


# The canonical layout after the header, which write_code writes and
# _read_canonical matches. The separator and the closing bytes have the same
# length, so every word ends a row of n + 8 bytes.
_NO_WORDS = b"]\n}\n"
_FIRST_WORD = b'\n    "'
_WORD_SEP = b'",\n    "'
_LAST_WORD_END = b'"\n  ]\n}\n'

#: write_code's opening for 2 <= q <= 10, up to its first word, or the whole
#: file of the empty code. An n of three or more digits never indexes with
#: q >= 2, so the json path handles it.
_CANONICAL_HEAD = re.compile(
    rb'\{\n  "n": (0|[1-9][0-9]?),\n  "q": ([2-9]|10),\n  "words": \[(?:\n    "|(\]\n\}\n)\Z)'
)

#: Rows per block when a code file streams between disk and ``Code.indices``.
BLOCK_ROWS = 1 << 15


def _file_chunks(code: Code) -> Iterator:
    """``json.dumps(code_to_dict(code), sort_keys=True, indent=2) + "\\n"`` in bytes-like pieces.

    A block of words is rendered at a time; for q <= 10 each block is the
    same uint8 buffer of (n + 8)-byte rows, valid until the next is drawn.
    """
    sp, k, n = code.space, len(code), code.space.n
    yield f'{{\n  "n": {n},\n  "q": {sp.q},\n  "words": ['.encode() + (_FIRST_WORD if k else _NO_WORDS)
    if sp.q > 10:
        for done in range(0, k, BLOCK_ROWS):
            block = code.indices[done : done + BLOCK_ROWS]
            end = _LAST_WORD_END if done + len(block) == k else _WORD_SEP
            yield render_words(sp, block, _WORD_SEP.decode()).encode() + end
        return
    buf = np.empty((min(k, BLOCK_ROWS), n + len(_WORD_SEP)), np.uint8)
    buf[:, n:] = np.frombuffer(_WORD_SEP, np.uint8)
    for done in range(0, k, BLOCK_ROWS):
        rows = indices_to_ascii(sp, code.indices[done : done + BLOCK_ROWS], buf[: k - done])
        if done + len(rows) == k:
            rows[-1, n:] = np.frombuffer(_LAST_WORD_END, np.uint8)
        yield rows


def write_code(path, code: Code) -> None:
    """Write ``code``'s canonical file to ``path``, one block of words at a time."""
    with open(path, "wb") as f:
        for chunk in _file_chunks(code):
            f.write(chunk)


def dumps_code(code: Code) -> str:
    """The canonical code file that :func:`write_code` writes, as one string."""
    return "".join(str(chunk, "ascii") for chunk in _file_chunks(code))


def _read_canonical(f) -> Optional[Code]:
    """The code in seekable file ``f`` if it is what :func:`write_code` writes for q <= 10, else None.

    After the header, word i is row i of n digits and 8 separator (or
    closing) bytes. Once the file's size fits whole rows, they are read a
    block at a time, and each block is checked and converted before the next.
    """
    size = f.seek(0, io.SEEK_END)
    f.seek(0)
    head = _CANONICAL_HEAD.match(f.read(64))  # longer than any opening it matches
    if head is None:
        return None
    space = HammingSpace(int(head[2]), int(head[1]))
    if space.size >= INDEX_LIMIT:
        return None
    if head[3]:
        return Code(space, np.empty(0, np.int64))
    q, n = space.q, space.n
    stride = n + len(_WORD_SEP)
    k, extra = divmod(size - f.seek(head.end()), stride)
    if not k or extra:
        return None
    indices = np.empty(k, np.int64)
    buf = np.empty((min(k, BLOCK_ROWS), stride), np.uint8)
    # each row's last 8 bytes, compared as one little-endian integer
    sep, end = (int.from_bytes(b, "little") for b in (_WORD_SEP, _LAST_WORD_END))
    for done in range(0, k, BLOCK_ROWS):
        rows = buf[: k - done]
        tails = rows[:, n:].view("<u8")[:, 0]
        last = done + len(rows) == k
        if f.readinto(rows) != rows.nbytes or np.any(tails[: len(rows) - last] != sep):
            return None
        digits = rows[:, :n] - ord("0")  # bytes below "0" wrap high
        if last and tails[-1] != end or digits.max(initial=0) >= q:
            return None
        indices[done : done + len(rows)] = digits_to_indices(space, digits)
    if f.read(1):  # the file grew since its size was read
        return None
    try:
        return Code(space, indices)
    except ValueError:  # words out of order or repeated
        return None


def read_code(path) -> Code:
    """Read a code file, or the code inside a ``solve --out`` result file.

    A canonical file is read by :func:`_read_canonical`, any other by
    ``json`` as :meth:`pathlib.Path.read_text` decodes it, with the same ``Code``.
    """
    with open(path, "rb") as f:
        if f.seekable():
            code = _read_canonical(f)
            if code is not None:
                return code
            f.seek(0)
        text = io.TextIOWrapper(f, encoding=io.text_encoding(None)).read()
    # json's word strings take several times the file: drop the text as soon
    # as the object exists
    obj = json.loads(text)
    del text
    if isinstance(obj, dict) and "words" not in obj and isinstance(obj.get("code"), dict):
        obj = obj["code"]
    return code_from_dict(obj)
