"""Single-error-correcting Hamming codes over bit arrays.

The code construction follows the classic Hamming layout: codeword positions
are numbered from 1, positions that are powers of two hold parity bits, and
parity bit ``p_i`` covers every position whose index has bit ``i`` set.  A
single-bit error therefore produces a syndrome equal to the (1-based)
position of the flipped bit.

When a word contains more errors than the code can correct the decoder's
behaviour is *undefined* in exactly the way the paper describes for on-die
ECC: the syndrome may be zero (errors cancel), may point at one of the
actual error positions (one error is masked), or may point at a clean bit
(a new error is introduced by miscorrection).  This emergent behaviour is
what shifts the per-word bit-flip density of LPDDR4 chips (Observation 9)
and breaks single-cell flip-probability monotonicity (Table 5).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _parity_bit_count(data_bits: int) -> int:
    """Smallest ``r`` with ``2**r >= data_bits + r + 1``."""
    r = 1
    while (1 << r) < data_bits + r + 1:
        r += 1
    return r


class HammingCode:
    """A single-error-correcting Hamming code for ``data_bits`` data bits.

    ``encode_many`` and ``decode_many`` operate on 2-D numpy bit arrays
    (dtype uint8, values 0/1) with one word per row, so the chip's read
    path decodes an entire DRAM row at once.

    >>> code = HammingCode(64)
    >>> code.parity_bits
    7
    >>> code.codeword_bits
    71
    """

    def __init__(self, data_bits: int) -> None:
        if data_bits <= 0:
            raise ValueError("data_bits must be positive")
        self.data_bits = data_bits
        self.parity_bits = _parity_bit_count(data_bits)
        self.codeword_bits = data_bits + self.parity_bits
        # Codeword positions 1..n; parity positions are powers of two.
        positions = np.arange(1, self.codeword_bits + 1)
        self._parity_positions = np.array(
            [p for p in positions if (p & (p - 1)) == 0], dtype=np.int64
        )
        self._data_positions = np.array(
            [p for p in positions if (p & (p - 1)) != 0], dtype=np.int64
        )
        assert self._data_positions.size == data_bits
        # Parity-check matrix H: row i is the i-th bit of each position index,
        # so syndrome = H @ codeword equals the error position for single errors.
        self._check_matrix = np.array(
            [[(p >> i) & 1 for p in positions] for i in range(self.parity_bits)],
            dtype=np.uint8,
        )
        self._syndrome_weights = (1 << np.arange(self.parity_bits)).astype(np.int64)

    @property
    def data_columns(self) -> np.ndarray:
        """0-based codeword column indices that hold data bits."""
        return self._data_positions - 1

    @property
    def parity_columns(self) -> np.ndarray:
        """0-based codeword column indices that hold parity bits."""
        return self._parity_positions - 1

    def encode_many(self, data_words: np.ndarray) -> np.ndarray:
        """Encode a batch of data words (one word per row) into codewords."""
        data_words = np.asarray(data_words, dtype=np.uint8)
        if data_words.ndim != 2 or data_words.shape[1] != self.data_bits:
            raise ValueError(
                f"expected shape (n, {self.data_bits}), got {data_words.shape}"
            )
        codewords = np.zeros((data_words.shape[0], self.codeword_bits), dtype=np.uint8)
        codewords[:, self._data_positions - 1] = data_words
        # Solve for parity bits: syndrome of the final codeword must be zero,
        # and each parity position appears in exactly one check equation.
        partial_syndrome = (codewords @ self._check_matrix.T) % 2
        for index, position in enumerate(self._parity_positions):
            codewords[:, position - 1] = partial_syndrome[:, index]
        return codewords

    def decode_many(
        self, codewords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Decode a batch of codewords.

        Returns ``(data_words, detected, corrected_positions)`` where
        ``corrected_positions[i]`` is the 1-based position corrected in word
        ``i`` (0 if nothing was corrected).
        """
        codewords = np.asarray(codewords, dtype=np.uint8)
        if codewords.ndim != 2 or codewords.shape[1] != self.codeword_bits:
            raise ValueError(
                f"expected shape (n, {self.codeword_bits}), got {codewords.shape}"
            )
        corrected = codewords.copy()
        syndrome_bits = (codewords @ self._check_matrix.T) % 2
        syndromes = syndrome_bits.astype(np.int64) @ self._syndrome_weights
        detected = syndromes != 0
        correctable = detected & (syndromes <= self.codeword_bits)
        rows = np.nonzero(correctable)[0]
        columns = syndromes[correctable] - 1
        corrected[rows, columns] ^= 1
        corrected_positions = np.where(correctable, syndromes, 0)
        data_words = corrected[:, self._data_positions - 1]
        return data_words, detected, corrected_positions

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"HammingCode(data_bits={self.data_bits}, parity_bits={self.parity_bits})"
