"""Tests for the Hamming SEC codec."""

import itertools

import numpy as np
import pytest

from repro.ecc.hamming import HammingCode
from repro.utils.rng import make_rng


class TestConstruction:
    def test_code_sizes(self):
        assert HammingCode(64).parity_bits == 7
        assert HammingCode(64).codeword_bits == 71
        assert HammingCode(128).parity_bits == 8
        assert HammingCode(128).codeword_bits == 136

    def test_rejects_nonpositive_data_bits(self):
        with pytest.raises(ValueError):
            HammingCode(0)

    def test_parity_bit_count_is_minimal(self):
        # r parity bits give 2**r - 1 nonzero syndromes: enough to name
        # every codeword position, and r - 1 bits would not be.
        for data_bits in range(1, 300):
            r = HammingCode(data_bits).parity_bits
            assert 2**r >= data_bits + r + 1, data_bits
            assert 2 ** (r - 1) < data_bits + r, data_bits

    def test_position_partition(self):
        code = HammingCode(32)
        data, parity = set(code.data_columns), set(code.parity_columns)
        assert not data & parity
        assert data | parity == set(range(code.codeword_bits))


class TestEncodeDecode:
    def test_clean_round_trip(self):
        code = HammingCode(64)
        rng = make_rng(1)
        data = rng.integers(0, 2, (1, 64)).astype(np.uint8)
        decoded, detected, positions = code.decode_many(code.encode_many(data))
        assert np.array_equal(decoded, data)
        assert not detected.any()
        assert not positions.any()

    def test_every_single_bit_error_corrected(self):
        code = HammingCode(16)
        data = make_rng(2).integers(0, 2, (1, 16)).astype(np.uint8)
        codeword = code.encode_many(data)[0]
        # One corrupted copy of the codeword per position.
        corrupted = np.tile(codeword, (code.codeword_bits, 1))
        corrupted[np.arange(code.codeword_bits), np.arange(code.codeword_bits)] ^= 1
        decoded, detected, positions = code.decode_many(corrupted)
        for position in range(code.codeword_bits):
            assert np.array_equal(decoded[position], data[0]), f"failed at position {position}"
        assert detected.all()
        assert positions.tolist() == list(range(1, code.codeword_bits + 1))

    def test_double_bit_error_not_reliably_corrected(self):
        # With two errors the syndrome is undefined behaviour: the decoder
        # may miscorrect; the result must simply differ from silent success.
        code = HammingCode(16)
        codeword = code.encode_many(np.zeros((1, 16), dtype=np.uint8))[0]
        corrupted = []
        for i in range(0, code.codeword_bits, 3):
            for j in range(i + 1, code.codeword_bits, 5):
                word = codeword.copy()
                word[i] ^= 1
                word[j] ^= 1
                corrupted.append(word)
        decoded, _detected, _positions = code.decode_many(np.array(corrupted))
        trials = len(corrupted)
        miscorrections = int(decoded.any(axis=1).sum())
        assert trials > 0
        # A SEC code cannot correct double errors, so most trials must leave
        # the data corrupted (possibly with an extra miscorrected bit).
        assert miscorrections > trials * 0.5

    def test_perfect_code_miscorrects_every_double_error(self):
        # In the perfect (15, 11) code every nonzero syndrome names a
        # position, so errors at positions a and b always "correct" a third,
        # clean position a ^ b (the miscorrection of Section 5.4).
        code = HammingCode(11)
        assert code.codeword_bits == 2**code.parity_bits - 1
        codeword = code.encode_many(np.zeros((1, 11), dtype=np.uint8))[0]
        pairs = list(itertools.combinations(range(1, code.codeword_bits + 1), 2))
        corrupted = np.tile(codeword, (len(pairs), 1))
        for index, (a, b) in enumerate(pairs):
            corrupted[index, [a - 1, b - 1]] ^= 1
        decoded, detected, positions = code.decode_many(corrupted)
        assert detected.all()
        assert positions.tolist() == [a ^ b for a, b in pairs]
        # The data was all zeros: each set bit is a data position among the
        # two errors and the miscorrected one (powers of two hold parity).
        for index, (a, b) in enumerate(pairs):
            in_data = sum(1 for p in (a, b, a ^ b) if p & (p - 1))
            assert int(decoded[index].sum()) == in_data, (a, b)

    def test_out_of_range_syndrome_detected_not_corrected(self):
        # HammingCode(64) has 71 positions but its 7-bit syndromes reach
        # 127.  Errors at positions 70 and 9 give syndrome 70 ^ 9 = 79, which
        # names no position: the word is flagged and no bit is changed.
        code = HammingCode(64)
        data = make_rng(5).integers(0, 2, (1, 64)).astype(np.uint8)
        corrupted = code.encode_many(data)
        corrupted[0, [70 - 1, 9 - 1]] ^= 1
        decoded, detected, positions = code.decode_many(corrupted)
        assert detected.tolist() == [True]
        assert positions.tolist() == [0]
        assert np.array_equal(decoded, corrupted[:, code.data_columns])
        assert int((decoded != data).sum()) == 2

    def test_extract_data_without_decode(self):
        # The code is systematic: a codeword's data columns hold the data
        # bits unchanged, which is how on-die ECC stores a row's data.
        code = HammingCode(8)
        data = np.array([[1, 0, 1, 1, 0, 0, 1, 0]], dtype=np.uint8)
        assert np.array_equal(code.encode_many(data)[:, code.data_columns], data)


class TestBatchInterface:
    def test_encode_many_matches_single(self):
        code = HammingCode(32)
        rng = make_rng(3)
        words = rng.integers(0, 2, (5, 32)).astype(np.uint8)
        batch = code.encode_many(words)
        for index in range(5):
            assert np.array_equal(batch[index], code.encode_many(words[index : index + 1])[0])

    def test_decode_many_corrects_per_word(self):
        code = HammingCode(32)
        rng = make_rng(4)
        words = rng.integers(0, 2, (4, 32)).astype(np.uint8)
        codewords = code.encode_many(words)
        codewords[2, 10] ^= 1  # single error in word 2 only
        decoded, detected, positions = code.decode_many(codewords)
        assert np.array_equal(decoded, words)
        assert detected.tolist() == [False, False, True, False]
        assert positions[2] == 11  # 1-based position

    def test_shape_validation(self):
        code = HammingCode(32)
        with pytest.raises(ValueError):
            code.encode_many(np.zeros((2, 31), dtype=np.uint8))
        with pytest.raises(ValueError):
            code.decode_many(np.zeros((2, 10), dtype=np.uint8))
