"""gapflow.pcg64 against numpy's own PCG64, the oracle, bit for bit."""

import numpy as np
import pytest

from gapflow import pcg64
from gapflow.cli import RunConfig

SEEDS = {
    "0": 0,
    "1": 1,
    "2**32-1": 2**32 - 1,
    "2**32": 2**32,
    "2**128+3": 2**128 + 3,
    "default": RunConfig._field_defaults["seed"],
    "100-digit": 10**99 + 7,
}
# in consecutive calls: empty, short, across a 64-word boundary, past
# one set of lanes, fewer than the lanes kept, and the words a full
# profile-check block reads
SIZES = [0, 1, 2, 63, 64, 65, pcg64.LANES + 1, 65, 9 * 8192, 3]


@pytest.mark.parametrize("seed", SEEDS.values(), ids=SEEDS.keys())
def test_random_raw_and_advance_match_numpy(seed):
    oracle, stream = np.random.PCG64(seed), pcg64.PCG64(seed)
    for n in SIZES:
        words = stream.random_raw(n)
        assert words.dtype == np.uint64
        assert np.array_equal(words, oracle.random_raw(n)), n
    for k in [0, 1, 10**6, 2**100]:
        assert stream.advance(k) is stream
        oracle.advance(k)
        assert np.array_equal(stream.random_raw(100), oracle.random_raw(100)), k


def test_a_negative_seed_is_refused():
    with pytest.raises(ValueError, match="nonnegative"):
        pcg64.PCG64(-1)
