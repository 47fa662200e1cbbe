"""Deterministic PRNG: splitmix64-seeded xoshiro256**.

The generator is pinned to this exact algorithm so that datasets and
schedules written by one implementation can be reproduced bit-for-bit by
another. All state is explicit; nothing reads global randomness.

Derived draws are defined on top of the raw 64-bit stream:
  * float64 in [0,1): top 53 bits, ``(x >> 11) * 2**-53``
  * standard normals: Box-Muller on consecutive uniform pairs, cosine
    branch first, sine branch second; an odd request discards the final
    sine value (the stream still advances by the full pair)
  * randint(n): ``floor(u * n)`` from one float64 draw
  * shuffle: Fisher-Yates from the back, one randint per position

Blocks of raw outputs are computed in lanes rather than one draw at a
time. The xoshiro state update is linear over GF(2): the 256-bit state
after one step is ``J @ state`` for a fixed 256x256 bit matrix J. A
block of n draws is cut into lanes of m = 2**p consecutive draws, m a
power of two near sqrt(n)/4. The lane start states, m draws apart, come
from jump-ahead by doubling: with c lanes found, lane c + i starts at
lane i advanced by J**(m*c), and each J**(2**k) is built once by
repeated squaring and cached (Blackman & Vigna, "Scrambled linear
pseudorandom number generators", ACM TOMS 2021; Haramoto et al.,
"Efficient jump ahead for F2-linear random number generators", 2008).
All lanes then step together m times with uint64 array ops through the
same recurrence as ``next_u64``, and the stream is read lane by lane, so
a block is exactly the sequence of n single draws and leaves exactly the
same state behind. Lane set-up costs grow with the number of lanes and
stepping with the lane length; m near sqrt(n)/4 balanced the two in
measurement. Short blocks take the scalar loop.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int):
    """Advance a splitmix64 state once; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def mix64(value: int) -> int:
    """One splitmix64 output for ``value``; used to derive sub-stream seeds."""
    return splitmix64(value & _MASK64)[1]


def _rotl(x, k: int):
    return ((x << k) | (x >> (64 - k))) & _MASK64


def _step(s0, s1, s2, s3):
    """One xoshiro256** step on Python ints or on uint64 arrays of lanes
    (arrays are updated in place); returns (output, s0, s1, s2, s3)."""
    result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
    t = (s1 << 17) & _MASK64
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = _rotl(s3, 45)
    return result, s0, s1, s2, s3


# Blocks shorter than this are drawn one output at a time; below it the
# fixed cost of the lane set-up outweighs the per-draw loop.
_MIN_LANED_BLOCK = 256


def _advance(states: np.ndarray, k: int) -> np.ndarray:
    """(c, 4) uint64 states, each advanced 2**k steps."""
    as_bytes = np.ascontiguousarray(states, dtype="<u8").view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little").astype(np.uint64)
    np.negative(bits, out=bits)  # set bit -> all-ones mask
    return np.bitwise_xor.reduce(bits[:, None, :] & _jump(k), axis=2)


@functools.cache
def _jump(k: int) -> np.ndarray:
    """J**(2**k) as a read-only (4, 256) uint64 array: column i is the state
    2**k steps after the state whose only set bit is bit i (bit 64*w + b
    is bit b of word w). By linearity a state advances 2**k steps as the
    XOR of the columns of its set bits. Squared up from J, so each power
    is built once per process."""
    if k == 0:
        basis = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little")
        basis = basis.view("<u8").astype(np.uint64)
        _, *stepped = _step(*(basis[:, w].copy() for w in range(4)))
        jump = np.stack(stepped)
    else:
        jump = _advance(_jump(k - 1).T, k - 1).T.copy()
    jump.setflags(write=False)
    return jump


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a single seed."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = splitmix64(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        result, *self._s = _step(*self._s)
        return result

    def u64_block(self, n: int) -> np.ndarray:
        """n raw outputs as uint64, identical to n calls of next_u64.

        Lanes of m = 2**p draws (m near sqrt(n)/4) start from jump-ahead
        states m draws apart and step together, writing
        ``out[lane * m + step]``; the state left behind is lane n // m
        after n % m steps. Short blocks use the scalar loop.
        """
        if n < _MIN_LANED_BLOCK:
            s0, s1, s2, s3 = self._s
            draws = []
            for _ in range(n):
                result, s0, s1, s2, s3 = _step(s0, s1, s2, s3)
                draws.append(result)
            self._s = [s0, s1, s2, s3]
            return np.array(draws, dtype=np.uint64)
        p = n.bit_length() // 2 - 2
        m = 1 << p
        end_lane, end_step = divmod(n, m)
        n_lanes = end_lane + 1

        lanes = np.array([self._s], dtype=np.uint64)
        while len(lanes) < n_lanes:
            k = p + (len(lanes).bit_length() - 1)  # len(lanes) is a power of two
            lanes = np.concatenate([lanes, _advance(lanes[:n_lanes - len(lanes)], k)])
        s = [lanes[:, w].copy() for w in range(4)]

        out = np.empty((n_lanes, m), dtype=np.uint64)
        for step in range(m):
            if step == end_step:
                self._s = [int(w[end_lane]) for w in s]
            out[:, step], *s = _step(*s)
        return out.reshape(-1)[:n]

    def random(self) -> float:
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_block(self, n: int) -> np.ndarray:
        block = self.u64_block(n)
        return (block >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def normal_block(self, n: int) -> np.ndarray:
        pairs = (n + 1) // 2
        u = self.uniform_block(2 * pairs)
        u1, u2 = u[0::2], u[1::2]
        r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 keeps log away from 0
        theta = (2.0 * math.pi) * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n]

    def normal(self) -> float:
        return float(self.normal_block(1)[0])

    def randint(self, n: int) -> int:
        """Integer in [0, n) via one float64 draw."""
        if n <= 0:
            raise ValueError("randint needs n >= 1")
        return int(self.random() * n)

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list:
        items = list(range(n))
        self.shuffle(items)
        return items

    def get_state(self):
        return tuple(self._s)

    def set_state(self, state) -> None:
        if len(state) != 4:
            raise ValueError("xoshiro256 state has 4 words")
        self._s = [int(w) & _MASK64 for w in state]
