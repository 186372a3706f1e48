"""Covering verification, density, and the code file format."""

import io
import json
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcover import (
    Code,
    HammingSpace,
    SpaceTooLargeError,
    density,
    verify_covering,
    verify_covering_sampled,
)
from qcover import codes
from qcover._randdigits import DRAW_WORDS, randrange_digits
from qcover.codes import (
    _lookup_pays,
    _read_canonical,
    code_from_dict,
    code_to_dict,
    dumps_code,
    read_code,
    write_code,
)
from qcover.hamming import (
    ball_offsets,
    ball_volume,
    expand_within_radius,
    uncovered_indices,
    word_index,
)

from oracles import (
    brute_distance,
    brute_is_covering,
    enumerate_ball,
    enumerate_space,
    json_dumps_code,
    json_read_code,
    reference_code_from_dict,
    reference_from_words,
    reference_verify_covering_sampled,
    sphere_covering_lower_bound,
    verify_covering_scan,
    words_of,
)


def make_code(q, n, words):
    return reference_from_words(HammingSpace(q, n), words)


# A valid optimal radius-1 cover of [2]^4 (the solver's canonical one).
COVER_2_4_1 = [(0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)]


def test_code_validation_and_dedup():
    code = make_code(2, 3, [(1, 1, 1), (0, 0, 0), (0, 0, 0), (1, 1, 1)])
    assert len(code) == 2
    assert code.indices.tolist() == [0, 7] and code.indices.dtype == np.int64
    assert words_of(code) == [(0, 0, 0), (1, 1, 1)]
    assert code == make_code(2, 3, [(0, 0, 0), (1, 1, 1)])
    with pytest.raises(ValueError):
        make_code(2, 3, [(0, 0, 2)])
    with pytest.raises(ValueError):
        make_code(2, 3, [(0, 0)])
    with pytest.raises(ValueError):
        code.indices[0] = 1  # read-only


def test_code_rejects_bad_index_arrays():
    sp = HammingSpace(2, 3)
    assert len(Code(sp, [])) == 0
    assert Code(sp, np.array([1, 6], dtype=np.uint8)).indices.tolist() == [1, 6]
    for bad in ([0, 8], [-1, 3], [3, 1], [2, 2]):  # out of range, unsorted, duplicate
        with pytest.raises(ValueError):
            Code(sp, bad)
    for bad in (frozenset({(0, 0, 0)}), [[0, 1]], [0.0, 1.0]):
        with pytest.raises(TypeError):
            Code(sp, bad)


def test_empty_code_and_zero_length_words():
    empty = code_from_dict({"q": 3, "n": 4, "words": []})
    assert len(empty) == 0 and words_of(empty) == []
    assert code_to_dict(empty) == {"q": 3, "n": 4, "words": []}
    sp0 = HammingSpace(2, 0)
    point = code_from_dict({"q": 2, "n": 0, "words": ["", ""]})
    assert words_of(point) == [()] and point.indices.tolist() == [0]
    assert code_to_dict(point)["words"] == [""]
    assert verify_covering(point, 0).covered
    assert not verify_covering(Code(sp0, []), 0).covered
    assert verify_covering_sampled(point, 0, 3).found_uncovered is False


MALFORMED_Q2_N3 = [
    ["012"],  # symbol out of range for q=2
    ["01"],  # wrong length
    ["0a1"],  # non-digit
    ["0 1"],
    ["0\u0661\u0660"],  # Arabic-Indic digits, which int() would accept
    [[0, 1, 0]],  # not a string
    [7],
]

MALFORMED_Q12_N2 = ["1,12", "1", "1,+2", "1, 2", "1,\u0662", "", "1,2,3"]

OVERSIZED_SYMBOL = "99999999999999999999999,1"  # far beyond int64


@pytest.mark.parametrize("words", MALFORMED_Q2_N3)
def test_code_from_dict_rejects_malformed_words(words):
    with pytest.raises((ValueError, TypeError)):
        code_from_dict({"q": 2, "n": 3, "words": ["000"] + words})


def test_large_alphabet_rejects_malformed_words():
    for text in MALFORMED_Q12_N2 + [OVERSIZED_SYMBOL]:
        with pytest.raises(ValueError):
            code_from_dict({"q": 12, "n": 2, "words": [text]})
    assert words_of(code_from_dict({"q": 12, "n": 2, "words": ["007,1"]})) == [(7, 1)]


def _outcome(fn, *args):
    """The value of fn(*args), or the kind of error it raised."""
    try:
        return fn(*args)
    except TypeError:
        return TypeError
    except ValueError:
        return ValueError


def _random_word_lists(seed):
    """Eight (space, words) pairs with random n <= 6 at each q of 2, 3, 10, 11, 12, 300."""
    rng = random.Random(seed)
    for q in (2, 3, 10, 11, 12, 300):
        for _ in range(8):
            sp = HammingSpace(q, rng.randint(0, 6))
            size = rng.randint(0, 12)
            yield sp, [tuple(rng.randrange(q) for _ in range(sp.n)) for _ in range(size)]


def _text(word, q):
    return ("" if q <= 10 else ",").join(map(str, word))


def test_codec_matches_reference_parser():
    cases = [{"q": sp.q, "n": sp.n, "words": [_text(w, sp.q) for w in words]}
             for sp, words in _random_word_lists(71)]
    cases += [{"q": 2, "n": 3, "words": ["000"] + words} for words in MALFORMED_Q2_N3]
    cases += [{"q": q, "n": 3, "words": [_text(w, q) for w in ((0, 1, 2, 0), (0, 1))]}
              for q in (3, 12)]  # ragged words with six symbols in all
    cases += [{"q": 12, "n": 2, "words": ["0,0", text]}
              for text in MALFORMED_Q12_N2 + [OVERSIZED_SYMBOL, "007,1", [7, 1], 7]]
    cases += [{"q": q, "n": 0, "words": words} for q in (2, 12) for words in ([""], ["", ""], [])]
    cases += [{"q": q, "n": 0, "words": ["0"]} for q in (2, 12)]
    cases += [{"q": 2, "n": 1, "words": words} for words in ("0101", "", {"0": 1}, 5, None)]
    accepted = 0
    for obj in cases:
        want = _outcome(reference_code_from_dict, obj)
        assert _outcome(code_from_dict, obj) == want, obj
        accepted += isinstance(want, Code)
    assert 50 < accepted < len(cases)  # both verdicts were exercised


def test_code_dict_round_trip():
    for sp, words in _random_word_lists(73):
        code = reference_from_words(sp, words)
        obj = code_to_dict(code)
        assert obj["words"] == [_text(w, sp.q) for w in words_of(code)]
        assert code_from_dict(obj) == code


def test_space_too_large_to_index():
    edge = HammingSpace(2, 62)  # largest binary space whose indices fit in int64
    code = reference_from_words(edge, [(0,) * 62, (1,) * 62])
    assert code.indices.tolist() == [0, 2**62 - 1]
    assert code_from_dict(code_to_dict(code)) == code
    assert not verify_covering_sampled(code, 31, 20, seed=1).found_uncovered
    for sp in (HammingSpace(2, 63), HammingSpace(3, 40)):
        with pytest.raises(SpaceTooLargeError):
            reference_from_words(sp, [(0,) * sp.n])
        with pytest.raises(SpaceTooLargeError):
            Code(sp, [0])
        with pytest.raises(SpaceTooLargeError):
            code_from_dict({"q": sp.q, "n": sp.n, "words": ["0" * sp.n]})


def test_negative_radius_rejected_everywhere():
    code = make_code(2, 3, [(0, 0, 0)])
    mask = np.zeros(8, dtype=bool)
    calls = [
        lambda: verify_covering(code, -1),
        lambda: verify_covering_scan(code, -1),
        lambda: verify_covering_sampled(code, -1, 5),
        lambda: uncovered_indices(code.space, code.indices, -1),
        lambda: expand_within_radius(code.space, mask, -1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="radius must be >= 0"):
            call()


def test_verify_covering_examples():
    assert verify_covering(make_code(2, 3, [(0, 0, 0), (1, 1, 1)]), 1).covered
    assert verify_covering(make_code(2, 3, [(0, 0, 0)]), 3).covered
    verdict = verify_covering(make_code(2, 3, [(0, 0, 0)]), 1)
    assert not verdict.covered
    assert verdict.witness == (0, 1, 1)  # lexicographically smallest uncovered


def test_verify_methods_agree_with_scan_oracle():
    rng = random.Random(23)
    for _ in range(40):
        q = rng.choice([2, 3])
        n = rng.randint(1, 7 if q == 3 else 12)
        sp = HammingSpace(q, n)
        assert sp.size <= 1 << 12
        radius = rng.randint(0, min(n, 3))
        size = rng.randint(1, 6)
        words = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(size)}
        code = reference_from_words(sp, words)
        ref = verify_covering_scan(code, radius)
        fast = verify_covering(code, radius)
        assert (ref.covered, ref.witness) == (fast.covered, fast.witness)
        if sp.size <= 1 << 9:
            assert ref.covered == brute_is_covering(q, n, radius, words)


def test_adding_words_preserves_covering():
    rng = random.Random(5)
    sp = HammingSpace(2, 5)
    code = make_code(2, 5, [(0, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 0, 1, 1, 0), (1, 1, 0, 0, 1)])
    base = verify_covering(code, 2)
    assert base.covered
    for _ in range(10):
        extra = tuple(rng.randrange(2) for _ in range(5))
        grown = reference_from_words(sp, [*words_of(code), extra])
        assert verify_covering(grown, 2).covered


@pytest.mark.parametrize("n,radius", [(2, 1), (5, 1), (5, 2), (7, 2)])
def test_witness_is_the_last_word_next_to_padding(n, radius):
    # q=3 packs 27 words into each uint64 and leaves 37 padding bits, so the
    # space's last word sits just below a run of padding. The code holds
    # every word farther than ``radius`` from it, which covers all others.
    sp = HammingSpace(3, n)
    last = (2,) * n
    far = [w for w in enumerate_space(sp) if brute_distance(w, last) > radius]
    code = reference_from_words(sp, far)
    assert uncovered_indices(sp, code.indices, radius).tolist() == [sp.size - 1]
    verdict = verify_covering(code, radius)
    assert not verdict.covered and verdict.witness == last


def test_verify_empty_code():
    verdict = verify_covering(make_code(2, 2, []), 1)
    assert not verdict.covered and verdict.witness == (0, 0)


def test_sampled_verification():
    sp = HammingSpace(2, 3)
    whole = reference_from_words(sp, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    assert not verify_covering_sampled(whole, 0, 50, seed=3).found_uncovered
    # 7 of 8 words are uncovered; 1000 samples miss them with prob 8^-1000
    v = verify_covering_sampled(make_code(2, 3, [(0, 0, 0)]), 0, 1000, seed=1)
    assert v.found_uncovered
    covering = make_code(2, 3, [(0, 0, 0), (1, 1, 1)])
    assert not verify_covering_sampled(covering, 1, 100, seed=9).found_uncovered


def _sampled_reference(code, radius, samples, seed):
    """The per-codeword loop verify_covering_sampled must reproduce exactly."""
    rng = random.Random(f"sampled-verify:{seed}")
    words = words_of(code)
    for k in range(samples):
        w = tuple(rng.randrange(code.space.q) for _ in range(code.space.n))
        if not any(brute_distance(w, c) <= radius for c in words):
            return True, w, k + 1
    return False, None, samples


def test_sampled_matches_reference_loop():
    rng = random.Random(37)
    found = 0
    for trial in range(40):
        q = rng.choice([2, 3, 12])
        n = rng.randint(0, 9)
        sp = HammingSpace(q, n)
        radius = rng.randint(0, n)
        words = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(0, 30))}
        code = reference_from_words(sp, words)
        got = verify_covering_sampled(code, radius, 25, seed=trial)
        want = _sampled_reference(code, radius, 25, trial)
        assert (got.found_uncovered, got.witness, got.samples) == want
        found += got.found_uncovered
    assert 5 < found < 35  # both verdicts were exercised


def test_sampled_never_contradicts_exhaustive():
    rng = random.Random(31)
    for _ in range(20):
        q = rng.choice([2, 3])
        n = rng.randint(2, 6)
        sp = HammingSpace(q, n)
        radius = rng.randint(1, n)
        words = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, 5))}
        code = reference_from_words(sp, words)
        if verify_covering(code, radius).covered:
            assert not verify_covering_sampled(code, radius, 200, seed=_).found_uncovered


@pytest.mark.parametrize("q,n", [(2, 0), (2, 6), (3, 4), (4, 3), (12, 2)])
def test_ball_offsets_name_each_word_of_the_ball_once(q, n):
    sp = HammingSpace(q, n)
    for radius in range(n + 2):
        table = ball_offsets(sp, radius)
        assert table.shape == (min(radius, n), ball_volume(sp, radius))
        words = []
        for row in table.T.tolist():
            w = [0] * n
            for flat in row:
                w[flat // q] += flat % q  # the padding 0 adds digit 0 at position 0
            words.append(tuple(w))
        assert sorted(words) == sorted(enumerate_ball(sp, (0,) * n, radius))


@st.composite
def _sampled_cases(draw):
    """(code, radius, samples, seed) with R up to n + 1 and codes from empty
    to the whole space. A space of at most 2^18 words keeps each word with a
    drawn probability, then loses every codeword within R of up to 3 centres
    per 512 words, which leaves each centre uncovered; a larger space gets
    random words."""
    sp = HammingSpace(draw(st.sampled_from([2, 3, 4, 12])), draw(st.integers(0, 9)))
    radius = draw(st.integers(0, sp.n + 1))
    keep = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if sp.size <= 1 << 18:
        centres = rng.integers(0, sp.size, draw(st.integers(0, 3)) * (1 + sp.size // 512))
        far = np.zeros(sp.size, dtype=bool)
        far[uncovered_indices(sp, centres, radius)] = True
        indices = np.flatnonzero((rng.random(sp.size) < keep) & far)
    else:
        indices = np.unique(rng.integers(0, sp.size, int(keep * (1 << 14))))
    return Code(sp, indices), radius, draw(st.integers(1, 400)), draw(st.integers(0, 2**32))


_EVERY_OTHER_WORD = Code(HammingSpace(3, 5), np.arange(0, 3**5, 2))


@settings(max_examples=500, deadline=None)
@given(case=_sampled_cases())
# the ball lookup at R = 0, at R >= n and on the empty code past the guard
@example(case=(_EVERY_OTHER_WORD, 0, 300, 1))
@example(case=(_EVERY_OTHER_WORD, 5, 300, 2))
@example(case=(_EVERY_OTHER_WORD, 6, 300, 3))
@example(case=(Code(HammingSpace(3, 30), np.empty(0, np.int64)), 2, 10, 4))
def test_sampled_equals_column_scan(case):
    code, radius, samples, seed = case
    want = reference_verify_covering_sampled(code, radius, samples, seed)
    assert verify_covering_sampled(code, radius, samples, seed) == want
    # each path forced: the scan also where the lookup is cheaper, and the
    # lookup also where the scan is cheaper, on the empty code and where the
    # ball fills a batch
    with mock.patch.object(codes, "_lookup_pays", return_value=False):
        assert verify_covering_sampled(code, radius, samples, seed) == want
    if ball_volume(code.space, radius) <= 1 << 17:
        with mock.patch.object(codes, "_lookup_pays", return_value=True):
            assert verify_covering_sampled(code, radius, samples, seed) == want


@pytest.mark.parametrize("q,n,radius", [(2, 20, 7), (12, 5, 4)])
def test_lookup_of_a_ball_larger_than_a_batch(q, n, radius):
    sp = HammingSpace(q, n)
    assert ball_volume(sp, radius) + n * q > 1 << 16  # one sample per batch
    code = Code(sp, np.unique(np.random.default_rng(q).integers(0, sp.size, 64)))
    for seed in range(3):
        want = reference_verify_covering_sampled(code, radius, 50, seed)
        with mock.patch.object(codes, "_lookup_pays", return_value=True):
            assert verify_covering_sampled(code, radius, 50, seed) == want


def test_scan_of_one_sample_a_batch_holds_one_comparison():
    """Past 2^16 digits a scan batch is one sample: the peak is the code's
    n*|K| digit columns and one n*|K| comparison, where a second sample in
    the batch, or the last batch's comparison kept, would add a third."""
    sp, radius = HammingSpace(2, 40), 20
    code = Code(sp, np.unique(np.random.default_rng(0).integers(0, sp.size, 10_000)))
    digits = sp.n * len(code)
    assert not _lookup_pays(sp, len(code), radius) and digits > 1 << 16
    tracemalloc.start()
    try:
        got = verify_covering_sampled(code, radius, 20, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == reference_verify_covering_sampled(code, radius, 20, seed=0)
    assert peak < 2.5 * digits, peak


def _planted_code(n, radius, planted, size, seed):
    """A code on [2]^n with a word at distance ``radius`` from each of the
    first ``planted`` samples of seed ``seed``, filled up with random words
    to about ``size`` words."""
    stream = random.Random(f"sampled-verify:{seed}")
    rng = random.Random(n * 1000 + radius)
    sp = HammingSpace(2, n)
    words = set()
    for _ in range(planted):
        w = [stream.randrange(2) for _ in range(n)]
        for p in rng.sample(range(n), radius):
            w[p] ^= 1
        words.add(word_index(sp, w))
    words.update(rng.randrange(sp.size) for _ in range(size - len(words)))
    return Code(sp, sorted(words))


@pytest.mark.parametrize("n", [30, 40, 62])
@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("size", [200, 10_000])
def test_sampled_lookup_and_scan_agree_past_the_guard(n, half, size):
    # the 200 planted samples cross several lookup batches at R = 2 on the
    # large codes, and at R <= 3 the 201st sample is the first uncovered one
    radii = [n // 2] if half else [1, 2, 3]
    paths = set()
    for radius in radii:
        code = _planted_code(n, radius, 200, size, seed=radius)
        paths.add(_lookup_pays(code.space, len(code), radius))
        got = verify_covering_sampled(code, radius, 400, seed=radius)
        assert got == reference_verify_covering_sampled(code, radius, 400, seed=radius)
        if not half:
            assert got.found_uncovered and got.samples == 201
    # n/2 and R = 3 always take the scan, R = 1 the lookup
    assert paths == ({False} if half else {True, False})


@pytest.mark.parametrize(
    "q", [2, 3, 4, 5, 7, 8, 10, 12, 255, 256, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**40 + 3]
)
def test_bulk_digits_are_the_randrange_stream(q):
    """The guard on the bulk draw: if a Python release changes how
    ``randrange`` consumes the generator, this fails. Calls are split
    across draws of DRAW_WORDS outputs and across calls."""
    counts = [0, 1, 7, DRAW_WORDS - 3, 5, DRAW_WORDS + 11, 0, 13]
    for seed in range(3):
        take = randrange_digits(random.Random(f"digits:{seed}"), q)
        got = [take(count) for count in counts]
        assert [part.size for part in got] == counts
        assert all(part.dtype == (np.uint32 if q < 2**32 else np.uint64) for part in got)
        rng = random.Random(f"digits:{seed}")
        assert np.concatenate(got).tolist() == [rng.randrange(q) for _ in range(sum(counts))]


@pytest.mark.parametrize("n,radius", [(30, 1), (30, 2), (24, 3)])
def test_shell_lookup_covers_at_distance_exactly_r_and_misses_in_the_second_batch(n, radius):
    # a codeword at distance exactly R from each sample of the first one and
    # a half lookup batches: no shell nearer than R covers them, and sample
    # planted + 1, in the second batch, is the first uncovered one
    sp = HammingSpace(2, n)
    batch = (1 << 16) // (ball_volume(sp, radius) + 2 * n)
    planted = batch + batch // 2
    code = _planted_code(n, radius, planted, planted, seed=7)
    with mock.patch.object(codes, "_lookup_pays", return_value=True):
        got = verify_covering_sampled(code, radius, 3 * batch, seed=7)
        assert got == reference_verify_covering_sampled(code, radius, 3 * batch, seed=7)
        assert got.found_uncovered and got.samples == planted + 1
        assert batch < got.samples <= 2 * batch
        # without shell R the first sample is already uncovered
        assert verify_covering_sampled(code, radius - 1, 3 * batch, seed=7).samples == 1


def test_lookup_at_radius_zero_builds_no_digit_offsets():
    # at R = 0 each sample's index is its whole ball, so the lookup needs
    # none of the (s, n * q) digit offsets, which for q > 2^40 would not fit
    # in memory; the first 20 samples are codewords, the 21st is not
    q = 2**40 + 3
    stream = random.Random("sampled-verify:5")
    planted = {stream.randrange(q) for _ in range(20)}
    code = Code(HammingSpace(q, 1), sorted(planted | set(range(0, 7 * 400, 7))))
    assert _lookup_pays(code.space, len(code), 0)
    got = verify_covering_sampled(code, 0, 50, seed=5)
    assert got == reference_verify_covering_sampled(code, 0, 50, seed=5)
    assert got.found_uncovered and got.samples == 21


def test_density_examples():
    assert density(make_code(2, 3, [(0, 0, 0), (1, 1, 1)]), 1) == 1
    sp = HammingSpace(2, 3)
    whole = reference_from_words(sp, [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)])
    assert density(whole, 0) == 1
    code = make_code(2, 4, COVER_2_4_1)
    assert verify_covering(code, 1).covered
    assert density(code, 1) == Fraction(5, 4) and type(density(code, 1)) is Fraction
    assert abs(float(density(code, 1)) - 1.25) < 1e-12


def test_covered_codes_have_density_at_least_one():
    rng = random.Random(43)
    hits = 0
    for _ in range(60):
        q = rng.choice([2, 3])
        n = rng.randint(1, 5)
        sp = HammingSpace(q, n)
        radius = rng.randint(0, n)
        words = {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, 8))}
        code = reference_from_words(sp, words)
        if verify_covering(code, radius).covered:
            hits += 1
            assert density(code, radius) >= 1
            assert len(code) >= sphere_covering_lower_bound(sp, radius)
    assert hits > 5  # the sweep actually exercised covered codes


def test_guard_rejects_huge_exhaustive_check():
    sp = HammingSpace(2, 30)
    code = reference_from_words(sp, [(0,) * 30])
    # verify_covering has both remedies, so its message names them
    with pytest.raises(SpaceTooLargeError, match="raise guard= or use verify_covering_sampled"):
        verify_covering(code, 1)
    # sampled mode has no guard
    assert verify_covering_sampled(code, 30, 5, seed=0).found_uncovered is False


def test_code_file_round_trip(tmp_path):
    code = make_code(2, 4, COVER_2_4_1)
    path = tmp_path / "code.json"
    path.write_text(dumps_code(code))
    again = read_code(path)
    assert again.space == code.space and again == code
    obj = json.loads(path.read_text())
    assert obj == {"q": 2, "n": 4, "words": ["0000", "0001", "1110", "1111"]}
    # canonical bytes: sorted keys, lexicographic words, trailing newline
    assert dumps_code(code) == dumps_code(read_code(path))


def test_code_file_format_large_alphabet(tmp_path):
    sp = HammingSpace(12, 2)
    code = reference_from_words(sp, [(0, 0), (11, 3), (2, 10)])
    d = code_to_dict(code)
    assert d["words"] == ["0,0", "2,10", "11,3"]  # tuple order, not string order
    assert code_from_dict(d) == code
    path = tmp_path / "wide.json"
    path.write_text(dumps_code(code))
    assert read_code(path) == code


def test_written_code_files_read_back(tmp_path):
    """read_code inverts dumps_code, and re-dumping what it read gives the same bytes."""
    path = tmp_path / "code.json"
    for sp, words in _random_word_lists(74):  # digit and comma word formats
        code = reference_from_words(sp, words)
        path.write_text(dumps_code(code))
        again = read_code(path)
        assert again == code, (sp, words)
        assert dumps_code(again).encode() == path.read_bytes()


@st.composite
def _codes(draw):
    sp = HammingSpace(draw(st.integers(2, 12)), draw(st.integers(0, 6)))
    return Code(sp, sorted(draw(st.sets(st.integers(0, sp.size - 1), max_size=40))))


@settings(max_examples=200, deadline=None)
@given(code=_codes())
def test_dumps_code_matches_json_encoder(code):
    assert dumps_code(code) == json_dumps_code(code)


@pytest.mark.parametrize("q,n,indices", [
    (3, 4, []),  # "words": []
    (12, 2, []),
    (2, 0, [0]),  # the point code: [""]
    (12, 0, [0]),
    (10, 3, [0, 9, 10, 99, 999]),
    (11, 3, [0, 10, 11, 120, 1330]),  # one- and two-digit symbols
    (12, 3, [0, 11, 12, 143, 1727]),
    (300, 2, [0, 9, 10, 99, 100, 299, 89999]),  # three-digit symbols
    (2, 62, [0, 2**31, 2**32 - 1, 2**62 - 1]),
    (2**62, 1, [0, 9, 10**18, 2**62 - 1]),  # nineteen-digit symbols
])
def test_dumps_code_matches_json_encoder_at_edges(q, n, indices):
    code = Code(HammingSpace(q, n), indices)
    assert dumps_code(code) == json_dumps_code(code)


@st.composite
def _digit_codes(draw):
    """Codes in the digit format, the empty code and the n = 0 codes among them."""
    sp = HammingSpace(draw(st.integers(2, 10)), draw(st.integers(0, 8)))
    return Code(sp, sorted(draw(st.sets(st.integers(0, sp.size - 1), max_size=60))))


def _block_read(data):
    """What the block reader makes of a file holding ``data``: a Code, or None to decline."""
    return _read_canonical(io.BytesIO(data))


@settings(max_examples=300, deadline=None)
@given(code=_digit_codes())
def test_fixed_stride_reader_matches_json_path(code):
    data = dumps_code(code).encode()
    got = _block_read(data)
    assert got is not None and got == code_from_dict(json.loads(data)) == code


def _read_outcome(read, path):
    """The code ``read`` returns, or the type and message of what it raised."""
    try:
        return read(path)
    except (OSError, KeyError, TypeError, ValueError, SpaceTooLargeError) as exc:
        return type(exc), str(exc)


_CANONICAL = dumps_code(Code(HammingSpace(3, 4), [0, 5, 13, 40, 79, 80])).encode()
_SOLVE_OUT = json.dumps(
    {"code": json.loads(_CANONICAL), "optimal_size": 6, "status": "optimal"},
    sort_keys=True, indent=2,
).encode() + b"\n"

# Hand-mutated canonical files of [3]^4 (words 0000 0012 0111 1111 2221 2222):
# the block reader declines each, and read_code must then give what
# the json path gives, a Code or an error.
_MUTATED = {
    "separator byte, still JSON": _CANONICAL.replace(b'",\n    "', b'",\n   \t"', 1),
    "separator byte, not JSON": _CANONICAL.replace(b'",\n    "', b'";\n    "', 1),
    "CRLF line endings": _CANONICAL.replace(b"\n", b"\r\n"),
    "trailing space": _CANONICAL.replace(b'",\n', b'", \n', 1),
    "no final newline": _CANONICAL[:-1],
    "closing bytes, same length": _CANONICAL[:-8] + b'"]}\n\n\n\n\n',
    "truncated last line": _CANONICAL[:-3],
    "two words swapped": _CANONICAL.replace(b'"0012",\n    "0111"', b'"0111",\n    "0012"'),
    "duplicated word": _CANONICAL.replace(b'"0111",', b'"0111",\n    "0111",'),
    "escaped digit": _CANONICAL.replace(b'"0111"', b'"\\u0030111"'),
    "digit equal to q": _CANONICAL.replace(b'"0111"', b'"0131"'),
    "non-ASCII digit": _CANONICAL.replace(b'"0111"', "\"01\u0661\u0661\"".encode()),
    "invalid UTF-8 byte": _CANONICAL.replace(b'"0111"', b'"01\xff1"'),
    "leading zero in n": _CANONICAL.replace(b'"n": 4', b'"n": 04'),
    "extra key": _CANONICAL.replace(b"{\n", b'{\n  "m": 1,\n', 1),
    "wrong word length": _CANONICAL.replace(b'"0111"', b'"01111"'),
    "solve --out file": _SOLVE_OUT,
}


def test_mutated_canonical_files_read_as_json_does(tmp_path):
    path = tmp_path / "code.json"
    path.write_bytes(_CANONICAL)
    code = read_code(path)
    outcomes = []
    for name, data in _MUTATED.items():
        assert data != _CANONICAL and _block_read(data) is None, name
        path.write_bytes(data)
        want = _read_outcome(json_read_code, path)
        assert _read_outcome(read_code, path) == want, name
        outcomes.append(want)
    assert sum(o == code for o in outcomes) == 10  # the same code, through json
    assert sum(isinstance(o, tuple) for o in outcomes) == 7  # each an error


@pytest.mark.parametrize("q,n,indices", [
    (2, 0, []), (2, 0, [0]), (10, 3, [0, 999]), (10, 18, [0, 10**18 - 1]),
    (11, 2, [0, 120]),  # the comma format always goes through json
    (2, 63, []),  # too large to index: json's SpaceTooLargeError
])
def test_reader_edges_match_json_path(tmp_path, q, n, indices):
    path = tmp_path / "code.json"
    if q**n < 2**63:
        path.write_text(dumps_code(Code(HammingSpace(q, n), indices)))
    else:
        path.write_text(json.dumps({"q": q, "n": n, "words": []}, sort_keys=True, indent=2) + "\n")
    want = _read_outcome(json_read_code, path)
    assert _read_outcome(read_code, path) == want
    assert (_block_read(path.read_bytes()) is not None) == (q <= 10 and isinstance(want, Code))


_BLOCK = 4  # BLOCK_ROWS in the tests below, so a few words span several blocks


@pytest.mark.parametrize("n", [1, 12, 13])  # the q=2 limb of 12 digits ends at and past n=12
@pytest.mark.parametrize("q", [2, 3, 10])
def test_files_round_trip_across_block_boundaries(tmp_path, monkeypatch, q, n):
    monkeypatch.setattr(codes, "BLOCK_ROWS", _BLOCK)
    sp = HammingSpace(q, n)
    rng = random.Random(f"blocks:{q}:{n}")
    path = tmp_path / "code.json"
    for k in (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        if k > sp.size:
            continue
        code = Code(sp, sorted(rng.sample(range(sp.size), k)))
        write_code(path, code)
        text = path.read_text()
        assert text == json.dumps(code_to_dict(code), sort_keys=True, indent=2) + "\n", k
        assert text == json_dumps_code(code) == dumps_code(code), k
        assert _block_read(path.read_bytes()) == code == read_code(path), k


def _damaged_files(q, n):
    """Canonical files of 2 * _BLOCK + 1 words of [q]^n, each damaged in one way.

    With _BLOCK rows per block, rows 4-7 form the middle block and row 8
    the last one.
    """
    sp = HammingSpace(q, n)
    code = Code(sp, sorted(random.Random(f"damage:{q}:{n}").sample(range(sp.size), 2 * _BLOCK + 1)))
    data = dumps_code(code).encode()
    stride = n + 8
    start = len(data) - (2 * _BLOCK + 1) * stride  # the first word's first digit

    def at(row, col, byte):
        i = start + row * stride + col
        return data[:i] + byte + data[i + 1 :]

    return data, {
        "middle block, digit not a digit": at(5, n // 2, b"x"),
        "middle block, digit equal to q": at(6, 0, b":" if q == 10 else str(q).encode()),
        "middle block, separator, still JSON": at(5, n + 6, b"\t"),
        "middle block, separator, not JSON": at(6, n + 1, b";"),
        "last block, digit not a digit": at(8, n - 1, b"/"),
        "last block, closing bytes, still JSON": at(8, n + 3, b"\t"),
        "last block, closing bytes, not JSON": at(8, n + 4, b")"),
        "words swapped across a block boundary": (
            data[: start + 3 * stride] + data[start + 4 * stride : start + 4 * stride + n]
            + data[start + 3 * stride + n : start + 4 * stride]
            + data[start + 3 * stride : start + 3 * stride + n] + data[start + 4 * stride + n :]
        ),
        "cut mid-row": data[: start + 6 * stride + n // 2],
    }


@pytest.mark.parametrize("q,n", [(2, 12), (3, 13), (10, 12)])
def test_damaged_blocks_read_as_json_does(tmp_path, monkeypatch, q, n):
    monkeypatch.setattr(codes, "BLOCK_ROWS", _BLOCK)
    data, damaged = _damaged_files(q, n)
    path = tmp_path / "code.json"
    path.write_bytes(data)
    code = read_code(path)
    outcomes = []
    for name, bad in damaged.items():
        assert bad != data and _block_read(bad) is None, name
        path.write_bytes(bad)
        want = _read_outcome(json_read_code, path)
        assert _read_outcome(read_code, path) == want, name
        outcomes.append(want)
    assert sum(o == code for o in outcomes) == 3  # still JSON: the same code
    assert sum(isinstance(o, tuple) for o in outcomes) == 6  # each an error


def test_code_files_stream_in_bounded_memory(tmp_path):
    """Neither direction holds the file: peaks stay far below its 16 MiB."""
    mib = 1 << 20
    k = 1 << 19
    rng = np.random.default_rng(0)
    code = Code(HammingSpace(2, 24), np.arange(0, 1 << 24, 32) + rng.integers(0, 32, k))
    path = tmp_path / "code.json"
    tracemalloc.start()
    try:
        write_code(path, code)
        _, write_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        again = read_code(path)
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.stat().st_size > 16 * mib
    assert again == code
    assert write_peak < 4 * mib, write_peak
    # the indices twice, as read_code fills them and as the Code's own copy
    assert read_peak < 2 * 8 * k + 4 * mib, read_peak
