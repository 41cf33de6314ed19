"""Deterministic random number generation shared by every component.

The generator is counter-based: output ``i`` of a stream is the splitmix64
finalizer applied to ``key + (i + 1) * GOLDEN_GAMMA`` (64-bit wrapping
arithmetic).  Counter mode means bulk draws vectorize over numpy uint64
arrays while staying bit-identical to one-at-a-time draws, and independent
consumers (init, dropout, sampling, shuffling) get non-overlapping streams
by deriving distinct keys from (seed, stream).
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB
_NORMAL_CUTOFF = 2.0


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer of a fresh uint64 array, in place and wrapping; returns it."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_MUL1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_MUL2)
    z ^= z >> np.uint64(31)
    return z


def _mix64(z: int) -> int:
    """``_mix64_array`` on one Python int, taken modulo 2**64 first.

    Python ints, as numpy's per-call overhead is about 20 times the work.
    """
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_MUL1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_MUL2) & _MASK64
    return z ^ (z >> 31)


class DeterministicRng:
    """Seedable stream of doubles with reproducible bulk draws.

    ``stream`` partitions the seed space so that two consumers seeded with
    the same base seed but different stream ids never share outputs.
    """

    def __init__(self, seed: int, stream: int):
        self._key = _mix64(_mix64(seed & _MASK64) ^ ((stream * _GOLDEN_GAMMA) & _MASK64))
        self._counter = 0

    def uniform(self, n: int) -> np.ndarray:
        """The next ``n`` outputs as doubles uniform on [0, 1), using the top 53 bits."""
        z = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        z *= np.uint64(_GOLDEN_GAMMA)  # in place throughout: a dropout mask is millions of draws
        z += np.uint64(self._key)
        _mix64_array(z)
        z >>= np.uint64(11)
        return z * 2.0 ** -53  # one float64 array: the cast happens inside the multiply

    def truncated_normal(self, n: int) -> np.ndarray:
        """``n`` standard-normal draws rejected outside +/- 2 (``_NORMAL_CUTOFF``)."""
        out = np.empty(n, dtype=np.float64)
        filled = 0
        while filled < n:
            need = n - filled
            u = self.uniform(2 * max(need, 16))
            u1, u2 = u[0::2], u[1::2]
            u1 = np.maximum(u1, 2.0 ** -53)  # avoid log(0)
            r = np.sqrt(-2.0 * np.log(u1))
            z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
            z = z[np.abs(z) <= _NORMAL_CUTOFF]
            take = min(need, z.size)
            out[filled:filled + take] = z[:take]
            filled += take
        return out

    def shuffled_indices(self, n: int) -> list[int]:
        """A permutation of range(n) via Fisher-Yates."""
        idx = list(range(n))
        for i, ui in zip(range(n - 1, 0, -1), self.uniform(max(n - 1, 0))):
            j = int(ui * (i + 1))
            idx[i], idx[j] = idx[j], idx[i]
        return idx

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), partial Fisher-Yates, unsorted."""
        idx = list(range(n))
        k = max(min(k, n), 0)
        for i, ui in enumerate(self.uniform(k)):
            j = i + int(ui * (n - i))
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]
