"""On-die ECC model for LPDDR4 chips.

The paper's LPDDR4-1x and LPDDR4-1y chips all employ a 128-bit single-error
correcting on-die ECC that cannot be disabled (Section 4.3).  Its effect on
RowHammer characterization is twofold:

* true single-bit errors inside an ECC word are invisible to the system, so
  the observed per-word bit-flip density shifts towards multi-bit words
  (Observation 9), and
* when a word accumulates more flips than the code can correct, the decoder
  behaves in an undefined way and may even *miscorrect* a clean bit, which
  breaks single-cell flip-probability monotonicity (Table 5).

The model keeps the check bits per DRAM row alongside the data bits.  In a
real chip the check bits live in spare columns of the same physical row, so
they accumulate RowHammer exposure like data bits; neither chip backend
models that: the disturbance kernel flips data bits only, and a row's check
bits stay as its last write encoded them.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.ecc.hamming import HammingCode


class OnDieEcc:
    """Row-granularity on-die ECC using a Hamming SEC code.

    Parameters
    ----------
    word_data_bits:
        Data bits per ECC word (128 for the paper's LPDDR4 chips).
    """

    def __init__(self, word_data_bits: int = 128) -> None:
        self.code = HammingCode(word_data_bits)
        self.word_data_bits = word_data_bits

    @property
    def check_bits_per_word(self) -> int:
        """Number of redundant (parity-check) bits stored per ECC word."""
        return self.code.parity_bits

    def words_per_row(self, row_bits: int) -> int:
        """Number of ECC words covering a row of ``row_bits`` data bits."""
        if row_bits % self.word_data_bits != 0:
            raise ValueError(
                f"row size {row_bits} bits is not a multiple of the "
                f"{self.word_data_bits}-bit ECC word"
            )
        return row_bits // self.word_data_bits

    def check_bits_per_row(self, row_bits: int) -> int:
        """Total check bits stored alongside a row of ``row_bits`` data bits."""
        return self.words_per_row(row_bits) * self.check_bits_per_word

    # ------------------------------------------------------------------
    # Encode / decode whole rows
    # ------------------------------------------------------------------
    def encode_row(self, data_bits: np.ndarray) -> np.ndarray:
        """Compute the check bits for a row of data bits.

        Returns a flat uint8 bit array of length
        ``check_bits_per_row(len(data_bits))``.
        """
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        words = data_bits.reshape(-1, self.word_data_bits)
        codewords = self.code.encode_many(words)
        return codewords[:, self.code.parity_columns].reshape(-1)

    def decode_row(
        self, data_bits: np.ndarray, check_bits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Decode a row through the on-die ECC.

        Parameters
        ----------
        data_bits:
            Flat bit array of the (possibly corrupted) stored data bits.
        check_bits:
            Flat bit array of the (possibly corrupted) stored check bits.

        Returns
        -------
        (decoded_bits, corrected_mask):
            ``decoded_bits`` is the flat bit array the chip returns to the
            system; ``corrected_mask`` is a boolean array marking data bits
            the decoder modified (for diagnostics).
        """
        data_bits = np.asarray(data_bits, dtype=np.uint8)
        check_bits = np.asarray(check_bits, dtype=np.uint8)
        words = data_bits.reshape(-1, self.word_data_bits)
        checks = check_bits.reshape(-1, self.check_bits_per_word)
        codewords = np.zeros((words.shape[0], self.code.codeword_bits), dtype=np.uint8)
        codewords[:, self.code.data_columns] = words
        codewords[:, self.code.parity_columns] = checks
        decoded_words, _detected, _positions = self.code.decode_many(codewords)
        decoded = decoded_words.reshape(-1)
        corrected_mask = decoded != data_bits
        return decoded, corrected_mask

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"OnDieEcc(word_data_bits={self.word_data_bits})"
