"""Tests for the LPDDR4 on-die ECC model."""

import numpy as np
import pytest

from repro.ecc.ondie import OnDieEcc
from repro.utils.rng import make_rng


class TestRowGeometry:
    def test_words_per_row(self):
        ecc = OnDieEcc(word_data_bits=128)
        assert ecc.words_per_row(1024) == 8
        assert ecc.check_bits_per_row(1024) == 8 * ecc.check_bits_per_word

    def test_encode_row_returns_every_check_bit(self):
        ecc = OnDieEcc(word_data_bits=128)
        check = ecc.encode_row(np.zeros(1024, dtype=np.uint8))
        assert ecc.check_bits_per_word == 8
        assert check.shape == (ecc.check_bits_per_row(1024),)

    def test_rejects_misaligned_rows(self):
        ecc = OnDieEcc(word_data_bits=128)
        with pytest.raises(ValueError):
            ecc.words_per_row(100)


class TestDecodeBehaviour:
    def _row(self, bits=256, seed=0):
        rng = make_rng(seed)
        return rng.integers(0, 2, bits).astype(np.uint8)

    def test_clean_row_passes_through(self):
        ecc = OnDieEcc()
        data = self._row()
        check = ecc.encode_row(data)
        decoded, corrected = ecc.decode_row(data, check)
        assert np.array_equal(decoded, data)
        assert not corrected.any()

    def test_single_error_per_word_corrected(self):
        ecc = OnDieEcc()
        data = self._row()
        check = ecc.encode_row(data)
        corrupted = data.copy()
        corrupted[5] ^= 1     # word 0
        corrupted[200] ^= 1   # word 1
        decoded, corrected = ecc.decode_row(corrupted, check)
        assert np.array_equal(decoded, data)
        assert corrected.sum() == 2

    def test_double_error_in_one_word_not_hidden(self):
        ecc = OnDieEcc()
        data = self._row(seed=1)
        check = ecc.encode_row(data)
        corrupted = data.copy()
        corrupted[3] ^= 1
        corrupted[77] ^= 1  # same 128-bit word as bit 3
        decoded, _corrected = ecc.decode_row(corrupted, check)
        visible_errors = int((decoded != data).sum())
        # Undefined decoder behaviour: it may leave 2 errors, reduce to 1, or
        # miscorrect to 3 -- but it cannot return clean data.
        assert visible_errors >= 1

    def test_double_error_can_miscorrect_a_clean_bit(self):
        # Data bits 0 and 1 of a word sit at codeword positions 3 and 5.
        # Their syndrome 3 ^ 5 = 6 is the position of data bit 2, which the
        # decoder flips: two flips read back as three (Table 5).
        ecc = OnDieEcc()
        data = self._row(seed=3)
        check = ecc.encode_row(data)
        corrupted = data.copy()
        corrupted[[0, 1]] ^= 1
        decoded, corrected = ecc.decode_row(corrupted, check)
        assert np.nonzero(decoded != data)[0].tolist() == [0, 1, 2]
        assert np.nonzero(corrected)[0].tolist() == [2]

    def test_check_bit_corruption_does_not_corrupt_data(self):
        ecc = OnDieEcc()
        data = self._row(seed=2)
        check = ecc.encode_row(data)
        corrupted_check = check.copy()
        corrupted_check[0] ^= 1
        decoded, _corrected = ecc.decode_row(data, corrupted_check)
        assert np.array_equal(decoded, data)
