import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irslink import numerics
from irslink.numerics import (
    ConfigError,
    ConfigErrorCode,
    SeededRng,
    _mix64,
    _philox_keys,
    as_complex_matrix,
    as_complex_vector,
    db_to_linear,
    integer,
    linear_to_db,
    number,
    point,
    sample_cscg,
    sample_cscg_rows,
)

# 0, one word, the largest one-word value, two words, the largest value
EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
RANDOM_IDS = [int(i) for i in np.random.default_rng(2024).integers(0, 2**64, 50, dtype=np.uint64)]
STREAM_IDS = EDGE_WORDS + RANDOM_IDS


def stream_alone(master_seed, stream_id, n):
    """``n`` samples of one stream from numpy's own seeding path."""
    raw = SeededRng(master_seed, stream_id).generator().standard_normal(2 * n)
    return (raw[0::2] + 1j * raw[1::2]) * np.sqrt(0.5)


class TestSeededRng:
    def test_same_pair_is_bit_identical(self):
        a = sample_cscg(SeededRng(42, 0), 1000)
        b = sample_cscg(SeededRng(42, 0), 1000)
        assert np.array_equal(a, b)

    def test_repeated_call_on_same_instance_is_pure(self):
        rng = SeededRng(7, 3)
        assert np.array_equal(sample_cscg(rng, 64), sample_cscg(rng, 64))

    def test_distinct_streams_differ(self):
        a = sample_cscg(SeededRng(42, 0), 256)
        b = sample_cscg(SeededRng(42, 1), 256)
        c = sample_cscg(SeededRng(43, 0), 256)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_distinct_streams_uncorrelated(self):
        n = 20000
        a = sample_cscg(SeededRng(5, 11), n)
        b = sample_cscg(SeededRng(5, 12), n)
        corr = abs(np.vdot(a, b)) / n
        assert corr < 4.0 / np.sqrt(n)

    def test_split_is_deterministic_and_distinct(self):
        rng = SeededRng(9, 100)
        assert rng.split(1) == rng.split(1)
        assert rng.split(1) != rng.split(2)
        assert rng.split(1).master_seed == 9

    # -1 and 2^64 - 1 wrap b + 1 to 0 in _mix64, which at stream 0 gives
    # the parent stream back; True would split as 1
    @pytest.mark.parametrize("index", [-1, 2**64 - 1, True])
    def test_split_rejects_an_index_outside_its_range(self, index):
        with pytest.raises(ConfigError, match="index") as info:
            SeededRng(1, 0).split(index)
        assert info.value.code is ConfigErrorCode.INVALID_VALUE

    def test_split_takes_the_largest_index(self):
        rng = SeededRng(1, 0)
        assert rng.split(2**64 - 2).stream_id == _mix64(0, 2**64 - 2) != rng.stream_id

    def test_rejects_out_of_range_seed(self):
        with pytest.raises(ValueError):
            SeededRng(-1, 0)
        with pytest.raises(ValueError):
            SeededRng(0, 1 << 64)

    # a bool is no seed either: True would run as seed 1
    @pytest.mark.parametrize("field, pair", [("master_seed", (1.5, 0)), ("master_seed", (1.0, 0)),
                                             ("stream_id", (0, 2.5)), ("master_seed", (True, 0)),
                                             ("stream_id", (0, False))])
    def test_rejects_non_integer_seed(self, field, pair):
        with pytest.raises(ValueError, match=field):
            SeededRng(*pair)

    def test_numpy_integer_seed_draws_the_same_stream(self):
        a = sample_cscg(SeededRng(np.uint64(5), np.int64(3)), 8)
        assert a.tobytes() == sample_cscg(SeededRng(5, 3), 8).tobytes()


class TestSampleCscg:
    def test_empty_draw(self):
        out = sample_cscg(SeededRng(1, 0), 0)
        assert out.shape == (0,)
        assert out.dtype == np.complex128

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            sample_cscg(SeededRng(1, 0), -1)

    @pytest.mark.parametrize("n", [True, 2.0, "2"])
    def test_non_integer_count_rejected(self, n):
        # True would draw one sample
        with pytest.raises(ValueError, match="sample count must be an integer"):
            sample_cscg(SeededRng(1, 0), n)

    def test_rows_reject_bool_seed(self):
        with pytest.raises(ValueError, match="master_seed must be an integer"):
            sample_cscg_rows(True, [0], 2)

    def test_unit_power(self):
        # |x|^2 is Exp(1): the sample mean over 1e5 draws has sigma ~ 3.2e-3,
        # so the +-1% window is a > 3 sigma check.
        x = sample_cscg(SeededRng(42, 0), 10**5)
        assert 0.99 <= np.mean(np.abs(x) ** 2) <= 1.01

    def test_components_have_half_variance(self):
        x = sample_cscg(SeededRng(3, 1), 10**5)
        assert np.var(x.real) == pytest.approx(0.5, rel=0.02)
        assert np.var(x.imag) == pytest.approx(0.5, rel=0.02)

    def test_prefix_property(self):
        rng = SeededRng(123, 45)
        long = sample_cscg(rng, 300)
        short = sample_cscg(rng, 150)
        assert np.array_equal(long[:150], short)


class TestPhiloxKeys:
    @pytest.mark.parametrize("master", EDGE_WORDS)
    def test_keys_are_numpys_seed_sequence(self, master):
        keys = _philox_keys(master, np.array(STREAM_IDS, dtype=np.uint64))
        assert keys.shape == (len(STREAM_IDS), 2) and keys.dtype == np.uint64
        for i, key in zip(STREAM_IDS, keys):
            want = np.random.SeedSequence((master, i)).generate_state(2, np.uint64)
            assert np.array_equal(key, want), (master, i)

    def test_no_streams(self):
        assert _philox_keys(1, np.zeros(0, np.uint64)).shape == (0, 2)


class TestSampleCscgRows:
    @pytest.mark.parametrize("n", [0, 1, 40, 300])
    @pytest.mark.parametrize("master", [0, 2**32, 2**64 - 1])
    def test_rows_are_the_streams_alone(self, master, n):
        rows = sample_cscg_rows(master, STREAM_IDS, n)
        assert rows.shape == (len(STREAM_IDS), n) and rows.dtype == np.complex128
        for i, row in zip(STREAM_IDS, rows):
            assert row.tobytes() == stream_alone(master, i, n).tobytes(), i
            assert row.tobytes() == sample_cscg(SeededRng(master, i), n).tobytes(), i

    def test_row_does_not_depend_on_its_block(self):
        ids = [_mix64(i, 1) for i in range(40)]
        block = sample_cscg_rows(5, ids, 12)
        assert block[17:29].tobytes() == sample_cscg_rows(5, ids[17:29], 12).tobytes()
        assert block[::-1].tobytes() == sample_cscg_rows(5, ids[::-1], 12).tobytes()

    def test_no_streams(self):
        assert sample_cscg_rows(1, [], 40).shape == (0, 40)

    def test_draw_holds_under_40_bytes_per_word(self):
        # 200 streams x 40 samples, the block of the bench power-vs-distance
        # study: 100 Philox words per row.  Besides its output, the normals
        # and the samples made of them, a draw holds the words and Philox's
        # working space, which the ziggurat's arrays take over once the
        # words are made: 36 bytes per word, against 68 were they apart
        rows, n = 200, 40
        width = numerics._row_words(2 * n)
        sample_cscg_rows(3, range(rows), n)  # whatever a first call sets up
        tracemalloc.start()
        try:
            out = sample_cscg_rows(3, range(rows), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * rows * width + 2 * out.nbytes

    @pytest.mark.parametrize("master, n", [(-1, 4), (2**64, 4), (1, -1)])
    def test_rejects_bad_arguments(self, master, n):
        with pytest.raises(ValueError):
            sample_cscg_rows(master, [0, 1], n)


def raw_words(master_seed, stream_id, k):
    """The first ``k`` 64-bit words of a stream, from numpy's own Philox."""
    return SeededRng(master_seed, stream_id).generator().bit_generator.random_raw(k).tolist()


def is_slow(word):
    """Whether numpy's ziggurat leaves its first try on ``word``."""
    return not word >> 9 & (1 << 52) - 1 < numerics._KI[word & 0xFF]


def ziggurat_attempts(words, count):
    """The attempts of numpy's ziggurat (``random_standard_normal``) on a
    stream's words until ``count`` draws are out, as (path, first word)
    pairs, and the number of words they take.  A path is "fast", "wedge
    accepts", "wedge rejects", "tail +" or "tail -".  A scalar reading of
    numpy's C, used only to find streams that take a path."""
    attempts, pos = [], 0
    while sum(path != "wedge rejects" for path, _ in attempts) < count:
        start, w = pos, words[pos]
        layer, rabs = w & 0xFF, w >> 9 & (1 << 52) - 1
        pos += 1
        if rabs < numerics._KI[layer]:
            path = "fast"
        elif layer:
            x = rabs * numerics._WI[layer]
            u = (words[pos] >> 11) * 2.0**-53
            pos += 1
            fi = numerics._FI
            wedge = (fi[layer - 1] - fi[layer]) * u + fi[layer] < math.exp(-0.5 * x * x)
            path = "wedge accepts" if wedge else "wedge rejects"
        else:
            path = "tail -" if rabs >> 8 & 1 else "tail +"
            while True:
                xx = -numerics._ZIG_INV_R * math.log1p(-(words[pos] >> 11) * 2.0**-53)
                yy = -math.log1p(-(words[pos + 1] >> 11) * 2.0**-53)
                pos += 2
                if yy + yy > xx * xx:
                    break
        attempts.append((path, start))
    return attempts, pos


RARE_MASTER, RARE_N = 11, 40


def find_stream(wanted):
    """The first stream id of ``RARE_MASTER`` whose first ``RARE_N`` samples
    take the path ``wanted``, or "back to back": a slow first word followed
    by another slow word."""
    for stream_id in range(20000):
        words = raw_words(RARE_MASTER, stream_id, 4 * RARE_N)
        attempts, _ = ziggurat_attempts(words, 2 * RARE_N)
        if any(path == wanted or wanted == "back to back" and path != "fast"
               and is_slow(words[start + 1]) for path, start in attempts):
            return stream_id
    raise AssertionError(f"no stream takes {wanted}")


class TestRarePaths:
    """Rows whose words leave the ziggurat's first try, on streams found by
    search: each row must still be its stream drawn alone by numpy."""

    @pytest.mark.parametrize("path", ["wedge accepts", "wedge rejects", "tail +", "tail -",
                                      "back to back"])
    def test_row_on_a_rare_path_is_its_stream_alone(self, path):
        ids = [find_stream(path)] + EDGE_WORDS
        for i, row in zip(ids, sample_cscg_rows(RARE_MASTER, ids, RARE_N)):
            assert row.tobytes() == stream_alone(RARE_MASTER, i, RARE_N).tobytes(), i

    def test_row_past_its_word_budget_is_drawn_again(self, monkeypatch):
        # with no spare words a row gets 2n words, and one whose draws take
        # more is drawn again from twice as many
        monkeypatch.setattr(numerics, "_SPARE_SHARE", 1 << 62)
        monkeypatch.setattr(numerics, "_SPARE_WORDS", 0)
        used = [ziggurat_attempts(raw_words(RARE_MASTER, i, 4 * RARE_N), 2 * RARE_N)[1]
                for i in STREAM_IDS]
        assert min(used) == 2 * RARE_N < max(used)
        rows = sample_cscg_rows(RARE_MASTER, STREAM_IDS, RARE_N)
        for i, row in zip(STREAM_IDS, rows):
            assert row.tobytes() == stream_alone(RARE_MASTER, i, RARE_N).tobytes(), i

    def test_row_whose_words_run_out_inside_a_tail_is_drawn_again(self, monkeypatch):
        # a row whose last two words are a tail's slow word and a fast word:
        # the tail needs that word and one more, so its row is drawn again;
        # kept, the fast word would stand in for the tail as the last draw
        for stream_id in range(20000):
            words = raw_words(RARE_MASTER, stream_id, 400)
            attempts, _ = ziggurat_attempts(words, 200)
            drawn = [sum(p != "wedge rejects" for p, _ in attempts[:k]) for k in range(len(attempts))]
            found = [(drawn[k], start) for k, (path, start) in enumerate(attempts)
                     if path.startswith("tail") and start % 4 == 2 and not is_slow(words[start + 1])]
            if found:
                break
        count, start = found[0][0] + 1, found[0][1]
        monkeypatch.setattr(numerics, "_SPARE_SHARE", 1 << 62)
        monkeypatch.setattr(numerics, "_SPARE_WORDS", start + 2 - count)  # width start + 2
        keys = _philox_keys(RARE_MASTER, np.array([stream_id], np.uint64))
        want = SeededRng(RARE_MASTER, stream_id).generator().standard_normal(count)
        assert numerics._normal_rows(keys, count)[0].tobytes() == want.tobytes()


class TestMix64:
    @pytest.mark.parametrize("b", [1, 2, 2**64 - 1])
    def test_array_form_is_the_scalar_form(self, b):
        words = np.array(STREAM_IDS, dtype=np.uint64)
        mixed = _mix64(words, b)
        assert mixed.dtype == np.uint64
        assert mixed.tolist() == [_mix64(w, b) for w in STREAM_IDS]

    def test_split_uses_it(self):
        assert SeededRng(3, 2**64 - 1).split(2).stream_id == _mix64(2**64 - 1, 2)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_twenty_db_is_hundred(self):
        assert db_to_linear(20.0) == pytest.approx(100.0, abs=1e-12)

    @pytest.mark.parametrize("x_db", [-80.0, -30.0, 3.9])
    def test_round_trip(self, x_db):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-30])
    def test_non_positive_rejected(self, bad):
        with pytest.raises(ValueError):
            linear_to_db(bad)

    def test_array_round_trip(self):
        x = np.array([-80.0, -30.0, 3.9])
        np.testing.assert_allclose(linear_to_db(db_to_linear(x)), x, atol=1e-12)

    @given(st.floats(min_value=-200.0, max_value=200.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, x_db):
        assert linear_to_db(db_to_linear(x_db)) == pytest.approx(x_db, abs=1e-10)


class TestInnerProductProperties:
    def _random_pair(self, seed, n=32):
        g = np.random.default_rng(seed)
        a = g.standard_normal(n) + 1j * g.standard_normal(n)
        b = g.standard_normal(n) + 1j * g.standard_normal(n)
        return a, b

    @pytest.mark.parametrize("seed", range(20))
    def test_hermitian_symmetry(self, seed):
        a, b = self._random_pair(seed)
        lhs = np.vdot(a, b)
        rhs = np.conj(np.vdot(b, a))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @pytest.mark.parametrize("seed", range(20))
    def test_cauchy_schwarz(self, seed):
        a, b = self._random_pair(seed)
        assert abs(np.vdot(a, b)) <= np.linalg.norm(a) * np.linalg.norm(b) + 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_norm_non_negative(self, seed):
        a, _ = self._random_pair(seed)
        assert np.linalg.norm(a) >= 0.0


class TestValidators:
    def test_vector_accepts_lists(self):
        v = as_complex_vector([1, 1j])
        assert v.dtype == np.complex128

    def test_vector_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_complex_vector(np.zeros((2, 2)))

    def test_vector_rejects_nan(self):
        with pytest.raises(ValueError):
            as_complex_vector([1.0, np.nan])

    def test_matrix_rejects_inf(self):
        with pytest.raises(ValueError):
            as_complex_matrix([[1.0, np.inf]])

    def test_matrix_rejects_vector(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.zeros(3))


class TestInputRules:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint64(3), np.int8(3)])
    def test_integer_stores_a_plain_int(self, value):
        got = integer("count", value, 0, 5)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [True, False, 3.0, "3", None, np.float64(3.0), np.bool_(True)])
    def test_integer_refuses_other_kinds(self, value):
        with pytest.raises(ConfigError, match="count must be an integer") as info:
            integer("count", value)
        assert info.value.code is ConfigErrorCode.INVALID_VALUE

    @pytest.mark.parametrize("value, lo, hi, bounds", [(0, 1, None, ">= 1"), (6, 0, 5, "in [0, 5]"),
                                                       (-1, 0, 5, "in [0, 5]")])
    def test_integer_bounds(self, value, lo, hi, bounds):
        with pytest.raises(ConfigError, match=re.escape(f"count must be {bounds}, got {value}")):
            integer("count", value, lo, hi)
        integer("count", value)  # no bounds: any integer

    def test_seed_range_is_64_bits(self):
        assert integer("seed", 2**64 - 1, 0, 2**64 - 1) == 2**64 - 1
        with pytest.raises(ConfigError):
            integer("seed", 2**64, 0, 2**64 - 1)

    @pytest.mark.parametrize("value", [2, 2.5, np.float32(2.5), np.int64(2), np.float64(-1e300)])
    def test_number_stores_a_plain_float(self, value):
        got = number("x", value)
        assert got == float(value) and type(got) is float

    @pytest.mark.parametrize("value", [True, "2.5", b"2", None, 1j, np.array([2.5]), (2.5,)])
    def test_number_refuses_other_kinds(self, value):
        # a string is refused, not read: float("20") would pass as 20.0
        with pytest.raises(ConfigError, match="x must be a number"):
            number("x", value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), np.float64(-np.inf), 10**400])
    def test_number_refuses_non_finite(self, value):
        with pytest.raises(ConfigError, match="x must be"):
            number("x", value)

    @pytest.mark.parametrize("value", [(1, 2.5), [1.0, 2.5], np.array([1.0, 2.5]),
                                       (np.float32(1.0), np.int64(2))])
    def test_point_is_two_plain_floats(self, value):
        got = point("p", value)
        assert type(got) is tuple and all(type(c) is float for c in got)
        assert got == tuple(float(c) for c in value)

    @pytest.mark.parametrize("value", [(1.0, 2.0, 3.0), (1.0,), (), 1.0, None, "12", "1,2",
                                       np.zeros((2, 2))])
    def test_point_refuses_other_shapes(self, value):
        with pytest.raises(ConfigError, match="p must be"):
            point("p", value)
