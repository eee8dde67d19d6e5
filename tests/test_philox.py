"""The Monte Carlo stream against a numpy-free Philox4x64-10 known-answer test.

Philox4x64-10 is the counter-based generator of Salmon, Moraes, Dror &
Shaw, "Parallel Random Numbers: As Easy as 1, 2, 3" (SC 2011).  The
first pair of experiment uniforms in stream block b of a seed is made of
the first two words of the Philox block keyed (seed, b) at counter 1,
each as (word >> 11) * 2^-53; a count uniform of 0 is raised to 1e-300.
Pair p of a block is the first or last two words at counter p // 2 + 1,
as p is even or odd.  Neither this reference nor the known words depend
on numpy, so a numpy release that changed its Philox or its double
conversion fails here.
"""

import numpy as np
import pytest

from cohwalk import montecarlo

MASK = (1 << 64) - 1
M0, M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
W0, W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key increments per round


def philox4x64_10(key, counter):
    """The four output words of ten Philox4x64 rounds, in Python integers."""
    (k0, k1), c = key, list(counter)
    for _ in range(10):
        p0, p1 = M0 * c[0], M1 * c[2]
        c = [(p1 >> 64) ^ c[1] ^ k0, p1 & MASK, (p0 >> 64) ^ c[3] ^ k1, p0 & MASK]
        k0, k1 = (k0 + W0) & MASK, (k1 + W1) & MASK
    return c


# (seed, stream block) -> the first two words of its Philox block
KNOWN = {
    (0, 0): (0x02F4BA6408E4D89B, 0x3DD62B0B9CA8C5B2),
    (0, 1): (0xD037F8C3F9A1D176, 0xC057419B4C210765),
    (7, 0): (0xDF4034B829E9FBA4, 0x4B9D10CDF8E64087),
    (7, 1): (0xE1E9589FBF7F6F1D, 0x5E794BDA66C92F56),
    (2**63 + 12345, 0): (0xF6A521ED9458133C, 0x4FB0DB4EA40F9939),
    (2**63 + 12345, 1): (0x2B02F9847FD1AB72, 0x8063DAA8D49A8AAC),
    (2**64 - 1, 0): (0x3C2521C58DDE5BFB, 0xB7A1AD5DAE1306D7),
    (2**64 - 1, 1): (0xA7A2E8236BFB4443, 0xC71A2EA098BCF226),
}


@pytest.mark.parametrize("seed, block", list(KNOWN))
def test_reference_gives_the_known_words(seed, block):
    assert tuple(philox4x64_10((seed, block), (1, 0, 0, 0))[:2]) == KNOWN[seed, block]


@pytest.mark.parametrize("seed, block", list(KNOWN))
def test_stream_draws_the_known_words(seed, block):
    hyp, count = montecarlo.experiment_uniforms(seed, block * montecarlo.STREAM_BLOCK, 1)
    assert (hyp[0], count[0]) == tuple((word >> 11) * 2.0**-53 for word in KNOWN[seed, block])


@pytest.mark.parametrize("offset", [0, 1, 2, 3, 65535])
@pytest.mark.parametrize("seed, block", [(7, 1), (2**64 - 1, 0)])
def test_block_is_entered_at_any_pair(seed, block, offset):
    pairs = range(offset, min(offset + 3, montecarlo.STREAM_BLOCK))  # across a counter
    want = [philox4x64_10((seed, block), (p // 2 + 1, 0, 0, 0))[2 * (p % 2):][:2]
            for p in pairs]
    assert montecarlo._block_words(seed, block, offset, len(want)).tolist() == want
    hyp, count = montecarlo.experiment_uniforms(
        seed, block * montecarlo.STREAM_BLOCK + offset, len(want))
    assert list(zip(hyp.tolist(), count.tolist())) == [
        tuple((word >> 11) * 2.0**-53 for word in pair) for pair in want]


def test_count_uniform_is_clipped_at_1e_300(monkeypatch):
    # a word below 2^11 gives u = 0; only the count uniform is clipped
    words = np.array([[0, 0], [0, 2**11 - 1], [2**62, 2**11], [2**63, 2**64 - 1]],
                     dtype=np.uint64)
    monkeypatch.setattr(montecarlo, "_block_words", lambda seed, block, offset, take: words)
    hyp, count = montecarlo.experiment_uniforms(0, 0, len(words))
    assert hyp.tolist() == [0.0, 0.0, 0.25, 0.5]
    assert count.tolist() == [1e-300, 1e-300, 2.0**-53, 1 - 2.0**-53]
