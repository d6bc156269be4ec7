"""Deterministic randomness for key material and experiments.

Everything random in this package is derived from a 32-byte seed through a
ChaCha20 keystream, so identical seeds reproduce identical keys, permutations
and trials on any platform. Gaussians are produced by the inverse-CDF (probit)
method applied to 53-bit uniforms taken from the keystream. Permutations of
range(n) are Fisher-Yates shuffles: for i = n-1 down to 1, take one big-endian
u64 v from the keystream, reject it and take the next if
v >= floor(2**64 / (i+1)) * (i+1), then swap slots i and j = v mod (i+1).
Both rules are part of the package's determinism contract.
"""

import hashlib

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms
from scipy.special import ndtri

from .errors import InvalidParameter

SEED_BYTES = 32

_ZERO_NONCE = bytes(16)
_TWO_NEG_53 = 2.0 ** -53
_U64_MAX = np.uint64((1 << 64) - 1)


def check_seed(seed: bytes) -> bytes:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
        raise InvalidParameter(f"seed must be exactly {SEED_BYTES} bytes")
    return bytes(seed)


def subseed(seed: bytes, label: bytes) -> bytes:
    """Derive an independent 32-byte seed for one named purpose."""
    return hashlib.sha256(check_seed(seed) + b"\x00" + label).digest()


class ChaChaStream:
    """Arbitrary-length deterministic byte/number stream from one seed."""

    def __init__(self, seed: bytes, label: bytes = b""):
        key = subseed(seed, label) if label else check_seed(seed)
        self._enc = Cipher(algorithms.ChaCha20(key, _ZERO_NONCE), mode=None).encryptor()

    def take(self, n: int) -> bytes:
        return self._enc.update(bytes(n))

    def uint64(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype=">u8")

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), 53 bits each."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * _TWO_NEG_53

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via the probit transform."""
        u = ((self.uint64(n) >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO_NEG_53
        return ndtri(u)

    def integers_below(self, bound: int, n: int) -> np.ndarray:
        """n integers uniform on {0..bound-1}, rejection-sampled (no modulo bias)."""
        if bound < 1:
            raise InvalidParameter("bound must be >= 1")
        out = np.empty(n, dtype=np.int64)
        if (1 << 64) % bound == 0:
            out[:] = (self.uint64(n) % np.uint64(bound)).astype(np.int64)
            return out
        limit = np.uint64((1 << 64) // bound * bound)
        filled = 0
        while filled < n:
            raw = self.uint64(n - filled + 8)
            good = raw[raw < limit]
            vals = (good % np.uint64(bound)).astype(np.int64)[: n - filled]
            out[filled : filled + len(vals)] = vals
            filled += len(vals)
        return out

    def permutation_indices(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) (Fisher-Yates).

        For i = n-1 down to 1 the slot draws one big-endian u64 v, rejects it
        if v >= floor(2**64 / (i+1)) * (i+1) and draws again, and swaps i with
        j = v mod (i+1). The draws are taken in bulk, but the stream is left
        exactly where the one-draw-at-a-time loop would leave it.
        """
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        # v >= floor(2**64/b)*b  <=>  v > 2**64-1 - (2**64 mod b)
        cuts = _U64_MAX - (_U64_MAX % bounds + 1) % bounds
        draws = self.uint64(len(bounds))
        # A rejected draw is dropped and the later draws move up one slot, so
        # every slot gets the draw the one-at-a-time loop would have given it.
        start = 0
        while (rejected := np.flatnonzero(draws[start:] > cuts[start:])).size:
            start += int(rejected[0])
            draws = np.concatenate((draws[:start], draws[start + 1 :], self.uint64(1)))
        js = (draws % bounds).tolist()
        del bounds, cuts, draws  # freed before the two lists are built, to keep peak memory down
        idx = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), js):
            idx[i], idx[j] = idx[j], idx[i]
        return np.array(idx, dtype=np.int64)
