"""Error-correcting-code substrate.

Two roles in the reproduction:

* :class:`~repro.ecc.hamming.HammingCode` encodes and decodes batches of
  words with a single-error-correcting Hamming code of arbitrary data width,
  including the undefined behaviour a real SEC decoder exhibits when a word
  contains more errors than the code can correct (it may correct nothing,
  mask one error, or *miscorrect* a clean bit -- paper Section 5.4).
* :class:`~repro.ecc.ondie.OnDieEcc` wraps a Hamming(136, 128) code as the
  on-die ECC the paper's LPDDR4 chips ship with and that cannot be disabled.
"""

from repro.ecc.hamming import HammingCode
from repro.ecc.ondie import OnDieEcc

__all__ = ["HammingCode", "OnDieEcc"]
