"""PCG64, numpy's default bit generator, in numpy's array arithmetic.

The random checks of the CLI read PCG64's raw words for their seeds, bit
for bit as numpy's PCG64(seed).random_raw gives them, without importing
numpy's random package: that import loads its extension modules and,
through secrets, OpenSSL's hashlib, some 6 MB and 11 ms of a cold start.

PCG64 (O'Neill 2014) steps a 128-bit LCG, s <- M s + inc mod 2^128, and
outputs each new state's XSL-RR word: the xor of its two 64-bit halves,
rotated right by the state's top 6 bits.  numpy keeps this raw stream
stable for a given seed (NEP 19).  A seed becomes (state, inc) through
numpy's SeedSequence hash, in Python ints.  k steps are one affine map,
s <- A s + C, also held in Python ints; random_raw applies such maps to
LANES consecutive states at once, each state held as uint64 (hi, lo)
arrays and multiplied through 32-bit limb products.
"""

import numpy as np

MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# consecutive states that random_raw steps at once: about 7 ns a word at
# 8192 and 9 at 4096, where numpy's cost per call grows, and 6 at 16384,
# on a 2-core machine (numpy's own PCG64: 2 ns); the kept states and the
# four work arrays take 48 bytes a lane
LANES = 8192
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1


def _hash_seed(seed):
    """The (state, inc) seeds that numpy's PCG64(seed) draws from
    SeedSequence(seed): the seed's 32-bit words hashed into a pool of four,
    the pool hashed out into four 64-bit words."""
    words = [seed & _M32]
    while seed >> 32 * len(words):
        words.append(seed >> 32 * len(words) & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[4:]:
        for i_dst in range(4):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    hash_const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    w0, w1, w2, w3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    return w0 << 64 | w1, w2 << 64 | w3


def _jump(k, inc):
    """(A, C) with A s + C the state k steps after s, by squaring."""
    a, c, step_a, step_c = 1, 0, MULTIPLIER, inc
    while k:
        if k & 1:
            a, c = a * step_a & _M128, (c * step_a + step_c) & _M128
        step_a, step_c = step_a * step_a & _M128, (step_a + 1) * step_c & _M128
        k >>= 1
    return a, c


def _limbs(a, c):
    """The uint64 scalars _apply takes for the map s -> a s + c."""
    al, cl = a & _M64, c & _M64
    return tuple(map(np.uint64, (al, a >> 64, cl, c >> 64, al & _M32, al >> 32,
                                 cl & _M32, cl >> 32)))


def _apply(limbs, hi, lo, x0, x1, t, u):
    """(hi, lo) <- a (hi, lo) + c mod 2^128 in place, with x0, x1, t and u
    as work arrays of the same size."""
    al, ah, cl, ch, a0, a1, c0, c1 = limbs
    mul, add, shr = np.multiply, np.add, np.right_shift
    # floor((lo al + cl) / 2^64) from the 32-bit limbs x1, x0 of lo,
    # a1, a0 of al and c1, c0 of cl; no partial sum passes 2^64
    np.bitwise_and(lo, _M32, x0)
    shr(lo, 32, x1)
    mul(x0, a0, t)
    add(t, c0, t)
    shr(t, 32, t)
    mul(x0, a1, u)
    add(t, u, t)
    add(t, c1, t)
    mul(x1, a0, u)
    np.bitwise_and(t, _M32, x0)
    add(u, x0, u)
    shr(u, 32, u)
    shr(t, 32, t)
    add(u, t, u)
    mul(x1, a1, x0)
    add(u, x0, u)
    # hi al + lo ah + ch + that carry, and lo al + cl, both mod 2^64
    mul(hi, al, hi)
    add(hi, u, hi)
    mul(lo, ah, x0)
    add(hi, x0, hi)
    add(hi, ch, hi)
    mul(lo, al, lo)
    add(lo, cl, lo)


class PCG64:
    """numpy's PCG64(seed) raw stream: random_raw and advance."""

    def __init__(self, seed):
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        state, inc = _hash_seed(seed)
        self.inc = (inc << 1 | 1) & _M128
        # numpy's seeding: one step from 0, add the state, one more step
        self.state = ((self.inc + state) * MULTIPLIER + self.inc) & _M128
        self._lanes = None  # (hi, lo) of the states after self.state

    def advance(self, k):
        """Step the state k times (mod 2^128, as numpy does); return self."""
        a, c = _jump(k % 2**128, self.inc)
        self.state = (a * self.state + c) & _M128
        self._lanes = None
        return self

    def _next_states(self, lanes):
        """(hi, lo) of the lanes states after self.state, by doubling:
        states w..2w-1 are A_w states 0..w-1 + C_w."""
        hi, lo = np.empty((2, lanes), dtype=np.uint64)
        work = np.empty((4, lanes // 2), dtype=np.uint64)
        s = (MULTIPLIER * self.state + self.inc) & _M128
        hi[0], lo[0] = s >> 64, s & _M64
        a, c, w = MULTIPLIER, self.inc, 1
        while w < lanes:
            m = min(w, lanes - w)
            hi[w : w + m], lo[w : w + m] = hi[:m], lo[:m]
            _apply(_limbs(a, c), hi[w : w + m], lo[w : w + m], *work[:, :m])
            a, c, w = a * a & _M128, (a + 1) * c & _M128, 2 * w
        return hi, lo

    def random_raw(self, n):
        """The next n outputs, a uint64 array.  The states after them are
        kept for the next call, unless it reads more lanes."""
        out = np.empty(n, dtype=np.uint64)
        if n == 0:
            return out
        if self._lanes is None or self._lanes[0].size < min(n, LANES):
            self._lanes = self._next_states(min(n, LANES))
        hi, lo = self._lanes
        lanes = hi.size
        step = _limbs(*_jump(lanes, self.inc))
        x0, x1, t, u = np.empty((4, lanes), dtype=np.uint64)
        for start in range(0, n, lanes):
            m = min(lanes, n - start)
            x = out[start : start + m]
            np.bitwise_xor(hi[:m], lo[:m], x)  # rotated right by hi >> 58
            rot = np.right_shift(hi[:m], 58, t[:m])
            np.right_shift(x, rot, u[:m])
            np.subtract(64, rot, rot)  # a shift by 64 gives 0 in numpy
            np.left_shift(x, rot, x)
            np.bitwise_or(x, u[:m], x)
            self.state = int(hi[m - 1]) << 64 | int(lo[m - 1])
            # the lanes read move on to the states lanes steps later
            _apply(step, hi[:m], lo[:m], x0[:m], x1[:m], t[:m], u[:m])
        if m < lanes:  # the lanes not read come next
            self._lanes = np.roll(hi, -m), np.roll(lo, -m)
        return out
