"""Hamming-space primitives against brute-force enumeration."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcover import (
    HammingSpace,
    SpaceTooLargeError,
    ball_volume,
    hamming_distance,
    index_word,
    word_index,
)
from qcover.hamming import (
    digits_to_indices,
    expand_within_radius,
    indices_to_ascii,
    indices_to_digits,
    uncovered_indices,
)

from oracles import ball_union, brute_ball_count, brute_distance, enumerate_ball, enumerate_space


def test_space_validation():
    with pytest.raises(ValueError):
        HammingSpace(1, 3)
    with pytest.raises(ValueError):
        HammingSpace(2, -1)
    for q, n in [(2, True), (2, False), (True, 3)]:  # bool is an int subclass
        with pytest.raises(ValueError, match="integer"):
            HammingSpace(q, n)
    assert HammingSpace(2, 0).size == 1
    assert HammingSpace(3, 4).size == 81


@pytest.mark.parametrize(
    "q,n,radius,expected",
    [
        (2, 5, 0, 1),   # only the center
        (2, 3, 1, 4),
        (3, 4, 2, 33),
        (2, 4, 4, 16),  # ball is the whole space
        (3, 3, 1, 7),
    ],
)
def test_ball_volume_examples(q, n, radius, expected):
    assert ball_volume(HammingSpace(q, n), radius) == expected
    assert brute_ball_count(q, n, radius) == expected


def test_ball_volume_matches_brute_force_any_center():
    rng = random.Random(11)
    for q, n in [(2, 8), (3, 5), (4, 4), (2, 16), (5, 3)]:
        sp = HammingSpace(q, n)
        assert sp.size <= 1 << 16
        for radius in range(n + 1):
            vol = ball_volume(sp, radius)
            for _ in range(3):
                center = tuple(rng.randrange(q) for _ in range(n))
                assert brute_ball_count(q, n, radius, center) == vol


def test_ball_volume_monotone_and_saturates():
    sp = HammingSpace(3, 6)
    vols = [ball_volume(sp, r) for r in range(10)]
    assert all(a <= b for a, b in zip(vols, vols[1:]))
    assert vols[6] == vols[7] == vols[9] == sp.size


def test_hamming_distance_examples():
    assert hamming_distance((0, 0, 0), (0, 0, 0)) == 0
    assert hamming_distance((0, 0, 0), (1, 1, 1)) == 3
    assert hamming_distance((0, 1, 2, 0), (0, 2, 1, 0)) == 2
    with pytest.raises(ValueError):
        hamming_distance((0, 0), (0, 0, 0))


def test_enumerate_ball_examples():
    sp = HammingSpace(2, 2)
    assert set(enumerate_ball(sp, (0, 0), 0)) == {(0, 0)}
    assert set(enumerate_ball(sp, (0, 0), 1)) == {(0, 0), (0, 1), (1, 0)}
    sp3 = HammingSpace(3, 3)
    ball = list(enumerate_ball(sp3, (0, 0, 0), 1))
    assert len(ball) == ball_volume(sp3, 1) == 7


def test_enumerate_ball_no_duplicates_and_in_range():
    rng = random.Random(7)
    for _ in range(25):
        q = rng.randint(2, 4)
        n = rng.randint(1, 6)
        radius = rng.randint(0, n)
        sp = HammingSpace(q, n)
        center = tuple(rng.randrange(q) for _ in range(n))
        ball = list(enumerate_ball(sp, center, radius))
        assert len(ball) == len(set(ball)) == ball_volume(sp, radius)
        assert all(brute_distance(center, w) <= radius for w in ball)


def test_word_index_bijection():
    sp = HammingSpace(2, 3)
    assert word_index(sp, (0, 0, 0)) == 0
    assert index_word(sp, 7) == (1, 1, 1)
    sp3 = HammingSpace(3, 3)
    for i, w in enumerate(enumerate_space(sp3)):
        assert word_index(sp3, w) == i
        assert index_word(sp3, i) == w
    with pytest.raises(ValueError):
        index_word(sp3, 27)
    with pytest.raises(ValueError):
        word_index(sp3, (0, 0, 3))


def test_index_order_is_lexicographic():
    sp = HammingSpace(4, 3)
    words = list(enumerate_space(sp))
    assert words == sorted(words)
    assert [word_index(sp, w) for w in words] == list(range(sp.size))


def test_enumeration_guard():
    sp = HammingSpace(2, 30)
    with pytest.raises(SpaceTooLargeError):
        sp.check_enumerable()
    with pytest.raises(SpaceTooLargeError):
        enumerate_space(sp)
    sp.check_enumerable(limit=1 << 30)  # explicit override passes


def test_expand_payload_bits_expand_independently():
    rng = np.random.default_rng(3)
    shapes = [(2, 6, 1), (2, 5, 2), (3, 3, 1), (4, 2, 1), (3, 4, 2), (2, 3, 0), (3, 0, 1)]
    for q, n, radius in shapes:
        sp = HammingSpace(q, n)
        bits = rng.random((sp.size, 2, 8)) < 0.05
        payload = np.packbits(bits, axis=-1, bitorder="little")[..., 0]  # (q^n, 2) uint8
        before = payload.copy()
        got = expand_within_radius(sp, payload, radius)
        assert np.array_equal(payload, before)
        assert got.shape == payload.shape and got.dtype == np.uint8
        got_bits = np.unpackbits(got[..., None], axis=-1, bitorder="little").astype(bool)
        for j in range(2):
            for b in range(8):
                want = expand_within_radius(sp, bits[:, j, b].copy(), radius)
                assert np.array_equal(got_bits[:, j, b], want), (q, n, radius, j, b)


def _check_uncovered(sp, members, radius):
    got = uncovered_indices(sp, members, radius)
    assert got.dtype == np.int64 and np.all(got[1:] > got[:-1])
    assert set(got.tolist()) == set(range(sp.size)) - ball_union(sp, members.tolist(), radius), (sp, radius)


# uncovered_indices packs the trailing k coordinates into one uint64, k the
# largest k <= n with q^k <= 64: q^k bits, padded above for q = 3, 5 and 7
# (27, 25 and 49 bits), exactly 64 for q = 64, and k = 0 (a byte per word)
# for q = 65 and 128. The shapes put n below, at and above k for each q, and
# cover n = 0.
KERNEL_SHAPES = [
    (2, 0), (2, 3), (2, 6), (2, 9),
    (3, 0), (3, 2), (3, 3), (3, 5),
    (4, 2), (4, 3), (4, 4),
    (5, 1), (5, 2), (5, 3),
    (7, 1), (7, 2), (7, 3),
    (64, 2), (65, 2), (128, 2),
]


@pytest.mark.parametrize("q,n", KERNEL_SHAPES)
def test_expand_matches_ball_oracle(q, n):
    sp = HammingSpace(q, n)
    rng = np.random.default_rng(100 * q + n)
    for radius in sorted({0, 1, 2, n, n + 1}):
        # the first and last words, next to the ends of the packed range,
        # and random members, capped so the oracle enumerates <= 20000 words
        members = rng.choice(sp.size, max(1, min(sp.size // 4, 20000 // ball_volume(sp, radius))))
        for chosen in ([], [0], [sp.size - 1], members):
            _check_uncovered(sp, np.array(chosen, dtype=np.int64), radius)


@st.composite
def _spaces(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 64, 65, 128]))
    n = draw(st.integers(0, max(n for n in range(9) if q**n <= 256)))
    return HammingSpace(q, n)


@settings(max_examples=100, deadline=None)
@given(
    sp=_spaces(),
    radius=st.integers(0, 9),
    density=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_expand_matches_ball_oracle_random(sp, radius, density, seed):
    mask = np.random.default_rng(seed).random(sp.size) < density
    _check_uncovered(sp, np.flatnonzero(mask), radius)


@pytest.mark.parametrize("q,n,radius", [(3, 5, 1), (5, 3, 2), (7, 3, 1), (2, 8, 2)])
def test_expand_packed_words_keep_padding_apart(q, n, radius):
    # a packed mask is q^(n-k) uint64 words, bit p of word j marking word
    # j*q^k + p; set bits above q^k (none for q = 2) never reach the q^k below
    sp = HammingSpace(q, n)
    width = q ** max(k for k in range(n + 1) if q**k <= 64)
    rng = np.random.default_rng(q * n)
    words = rng.integers(0, 2**64, (2, sp.size // width), dtype=np.uint64)
    words = words[0] & words[1]  # a quarter of the bits set
    before = words.copy()
    got = expand_within_radius(sp, words, radius)
    assert np.array_equal(words, before)
    assert got.shape == words.shape and got.dtype == np.uint64
    low = np.uint64((1 << width) - 1)
    assert np.array_equal(got & low, expand_within_radius(sp, words & low, radius))


@st.composite
def _index_sets(draw):
    """A small space, a radius in 0..n, and a set of its word indices.

    The sets include the empty set and the whole space.
    """
    q = draw(st.sampled_from([2, 3, 4]))
    sp = HammingSpace(q, draw(st.integers(0, {2: 7, 3: 5, 4: 4}[q])))
    everything = list(range(sp.size))
    indices = draw(st.one_of(
        st.just([]),
        st.just(everything),
        st.lists(st.sampled_from(everything), max_size=12),
    ))
    return sp, draw(st.integers(0, sp.n)), indices


@settings(max_examples=150, deadline=None)
@given(case=_index_sets())
def test_uncovered_indices_complement_ball_union(case):
    sp, radius, indices = case
    _check_uncovered(sp, np.array(indices, dtype=np.int64), radius)


@pytest.mark.parametrize("q,n", [
    (2, 0), (2, 1), (2, 31), (2, 32), (2, 62),  # one limb, one full limb and one more digit, two
    (3, 20), (3, 39), (10, 18),
    (65535, 3), (65536, 3), (2**31, 2),  # two digits per limb, then one
    (2**32 - 1, 1), (2**32, 1), (2**62, 1),  # 32-bit and 64-bit limbs of one digit
])
def test_indices_to_digits_matches_index_word(q, n):
    sp = HammingSpace(q, n)
    rng = random.Random(q * 100 + n)
    indices = sorted({0, sp.size - 1} | {rng.randrange(sp.size) for _ in range(50)})
    digits = indices_to_digits(sp, np.array(indices, dtype=np.int64))
    assert digits.shape == (len(indices), n) and digits.dtype == np.min_scalar_type(q - 1)
    assert [tuple(row) for row in digits.tolist()] == [index_word(sp, i) for i in indices]


@pytest.mark.parametrize("q,n", [
    (2, 0), (2, 1), (2, 11), (2, 12), (2, 13), (2, 62),  # 12-digit limbs: one, one full, two
    (3, 7), (3, 8), (3, 39), (7, 22), (10, 3), (10, 4), (10, 18),
])
def test_indices_to_ascii_matches_index_word(q, n):
    sp = HammingSpace(q, n)
    rng = random.Random(f"ascii:{q}:{n}")
    indices = sorted({0, sp.size - 1} | {rng.randrange(sp.size) for _ in range(50)})
    out = np.full((len(indices), n + 3), ord("#"), np.uint8)
    assert indices_to_ascii(sp, np.array(indices, dtype=np.int64), out) is out
    want = ["".join(map(str, index_word(sp, i))) + "###" for i in indices]
    assert [bytes(row).decode() for row in out] == want


@pytest.mark.parametrize("q,n", [
    (2, 0), (2, 31), (2, 32), (2, 33), (2, 62),  # one full 31-digit limb, one more digit, two
    (3, 20), (3, 21), (3, 39),
    (10, 9), (10, 10), (10, 18),
    (2**32 + 15, 1), (2**31 + 1, 2),  # 64-bit limbs of one digit; 32-bit ones
])
def test_digits_to_indices_matches_word_index(q, n):
    sp = HammingSpace(q, n)
    rng = random.Random(q * 100 + n)
    indices = sorted({0, sp.size - 1} | {rng.randrange(sp.size) for _ in range(50)})
    words = [index_word(sp, i) for i in indices]
    digits = np.array(words, dtype=np.min_scalar_type(q - 1)).reshape(len(words), n)
    got = digits_to_indices(sp, digits)
    assert got.dtype == np.int64
    assert got.tolist() == [word_index(sp, w) for w in words] == indices


def test_digits_to_indices_checks_indexable():
    with pytest.raises(SpaceTooLargeError):
        digits_to_indices(HammingSpace(2, 63), np.zeros((1, 63), dtype=np.uint8))


def test_uncovered_indices_rejects_indices_outside_the_space():
    sp = HammingSpace(2, 3)
    for indices in ([-1], [sp.size], [0, sp.size], np.array([-1], dtype=np.int64)):
        with pytest.raises(ValueError, match=r"word indices must lie in \[0, 8\)"):
            uncovered_indices(sp, indices, 0)
    assert uncovered_indices(sp, [0, sp.size - 1], 0).tolist() == list(range(1, sp.size - 1))
    assert uncovered_indices(sp, [], 3).tolist() == list(range(sp.size))


def test_expand_rejects_wrong_leading_length():
    sp = HammingSpace(2, 8)  # 2^8 words, or 4 packed uint64 words
    masks = [np.zeros(shape, dtype=bool) for shape in [(255,), (257, 2), (), (1, 256)]]
    masks.append(np.zeros(5, dtype=np.uint64))  # one packed word too many
    for mask in masks:
        with pytest.raises(ValueError, match=r"mask must have shape \(256, \.\.\.\) or \(4,\)"):
            expand_within_radius(sp, mask, 1)
    # the packed length in words that are not uint64; narrower unsigned
    # words would pass the shifts and drop every bit above their width
    for dtype in (np.int64, bool, np.uint32, np.uint16):
        with pytest.raises(TypeError, match="packed mask must hold uint64 words"):
            expand_within_radius(sp, np.zeros(4, dtype=dtype), 1)


def test_volume_ratio_approaches_split_limits():
    # With q=2, R=3, y=2 the ratios V(n,R)/V(r,R) and V(n,R)/V(r',R) for
    # r = floor(n/y), r' = n - r approach y^R = (y/(y-1))^R = 8.
    def ratios(n):
        sp_n = HammingSpace(2, n)
        r = n // 2
        vn = ball_volume(sp_n, 3)
        va = Fraction(vn, ball_volume(HammingSpace(2, r), 3))
        vb = Fraction(vn, ball_volume(HammingSpace(2, n - r), 3))
        return float(va), float(vb)

    a4, b4 = ratios(10**4)
    a5, b5 = ratios(10**5)
    assert abs(a4 / 8 - 1) < 0.01 and abs(b4 / 8 - 1) < 0.01
    assert abs(a5 / 8 - 1) < abs(a4 / 8 - 1)
    assert abs(b5 / 8 - 1) < abs(b4 / 8 - 1)
