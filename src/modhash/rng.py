"""Deterministic randomness for key material and experiments.

Everything random in this package is derived from a 32-byte seed through a
ChaCha20 keystream, so identical seeds reproduce identical keys, permutations
and trials on any platform. Gaussians are produced by the inverse-CDF (probit)
method applied to 53-bit uniforms taken from the keystream. Keys and other
large arrays are produced in place, in blocks of KEY_BLOCK values that stay in
cache through every stage, yet they consume the stream exactly as before: one
big-endian u64 per value, in order, whatever the block edges. Permutations of
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
KEY_BLOCK = 1 << 15  # values per block: 256 KB of float64, small enough to stay in cache

_ZERO_NONCE = bytes(16)
_TWO_NEG_53 = 2.0 ** -53
_U64_MAX = np.uint64((1 << 64) - 1)
_SHIFT = np.uint64(11)
_F64, _U64, _BIG_U64, _U8 = (np.dtype(t) for t in (np.float64, np.uint64, ">u8", np.uint8))
_ZERO_BLOCK = memoryview(bytes(8 * KEY_BLOCK))


def check_seed(seed: bytes) -> bytes:
    if not isinstance(seed, (bytes, bytearray)) or len(seed) != SEED_BYTES:
        raise InvalidParameter(f"seed must be exactly {SEED_BYTES} bytes")
    return bytes(seed)


def subseed(seed: bytes, label: bytes) -> bytes:
    """Derive an independent 32-byte seed for one named purpose."""
    return hashlib.sha256(check_seed(seed) + b"\x00" + label).digest()


def _blocks(out: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of at most KEY_BLOCK values covering the C-contiguous
    float64 array `out` in memory order."""
    if out.dtype != _F64 or not out.flags.c_contiguous:
        raise InvalidParameter("out must be a C-contiguous float64 array")
    values = out.ravel()
    return [values[start : start + KEY_BLOCK] for start in range(0, values.size, KEY_BLOCK)]


class ChaChaStream:
    """Arbitrary-length deterministic byte/number stream from one seed."""

    def __init__(self, seed: bytes, label: bytes = b""):
        key = subseed(seed, label) if label else check_seed(seed)
        self._enc = Cipher(algorithms.ChaCha20(key, _ZERO_NONCE), mode=None).encryptor()

    def take(self, n: int) -> bytes:
        return self._enc.update(bytes(n))

    def uint64(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(8 * n), dtype=">u8")

    def _top53_into(self, block: np.ndarray) -> np.ndarray:
        """Overwrite the float64 `block` with its share of the stream: one
        big-endian u64 draw v per value, reduced to v >> 11 in place. Returns
        the block's uint64 view."""
        self._enc.update_into(_ZERO_BLOCK[: 8 * block.size], block.view(_U8))
        top53 = block.view(_U64)
        np.right_shift(block.view(_BIG_U64), _SHIFT, out=top53)
        return top53

    def uniform01_into(self, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Fill `out` with doubles uniform on [0, 1), 53 bits each, times
        scale; returns out."""
        for block in _blocks(out):
            np.multiply(self._top53_into(block), _TWO_NEG_53, out=block)
            block *= scale
        return out

    def standard_normal_into(self, out: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Fill `out` with standard normals via the probit transform, times
        scale; returns out."""
        for block in _blocks(out):
            np.add(self._top53_into(block), 0.5, out=block)
            block *= _TWO_NEG_53
            ndtri(block, out=block)
            block *= scale
        return out

    def uniform01(self, n: int) -> np.ndarray:
        """n doubles uniform on [0, 1), 53 bits each."""
        return self.uniform01_into(np.empty(n))

    def standard_normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via the probit transform."""
        return self.standard_normal_into(np.empty(n))

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
