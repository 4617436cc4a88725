"""The raw-word decoder against the stock Generator calls it stands in for.

Each check runs a decoder and a twin Generator on the same seed through one
pattern of draws, and compares every value served and the generator's full
state afterwards.
"""

import numpy as np
import pytest

from sharp.seeding import RAW_BLOCK, RawDraws

# a double, then integers(n) for each n: 1 draws nothing, 2**32 takes a half
# as it is, and the large ones reject about a quarter and a half of draws
BOUNDS = (None, 1, 5, 700, 3 * 2**30, 2**31 + 1, 2**32)


def _stock(twin, n):
    return float(twin.random()) if n is None else int(twin.integers(n))


def _random(draws):
    """A random() draw, its double read in place as rrt_plan reads it."""
    if draws.pos == len(draws.words):
        draws.pos = draws.refill(draws.pos)
    draws.pos += 1
    return draws.doubles[draws.pos - 1]


def _served(draws, n):
    return _random(draws) if n is None else draws.integers(n)


def _pattern(rng, length):
    return [BOUNDS[i] for i in rng.integers(len(BOUNDS), size=length)]


@pytest.mark.parametrize("prefix", [None, 700], ids=["empty-buffer", "half-buffered"])
def test_draws_match_the_stock_calls_bit_for_bit(prefix):
    # patterns of up to three blocks' words cross block boundaries; a prefix
    # integers call leaves a half word buffered on entry, as sample_free does
    # before a density plan
    pick = np.random.default_rng(0)
    for seed in range(150):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        if prefix is not None:
            assert rng.integers(prefix) == twin.integers(prefix)
        ops = _pattern(pick, int(pick.integers(0, 3 * RAW_BLOCK)))
        draws = RawDraws(rng)
        got = [_served(draws, n) for n in ops]
        draws.close()
        assert got == [_stock(twin, n) for n in ops]
        assert rng.bit_generator.state == twin.bit_generator.state
        # and the stream goes on as the twin's does
        assert rng.integers(700) == twin.integers(700) and rng.random() == twin.random()


def test_rejections_run_often_and_match():
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    draws = RawDraws(rng)
    got = [draws.integers(2**31 + 1) for _ in range(4 * RAW_BLOCK)]
    draws.close()
    assert got == [int(twin.integers(2**31 + 1)) for _ in got]
    assert rng.bit_generator.state == twin.bit_generator.state
    # with no rejection each draw takes half a word; about half are rejected
    assert draws._used + draws.pos > 0.75 * len(got)


def test_integers_past_the_words_keeps_recorded_positions():
    # only refill drops words: an integers call that runs out of them
    # appends, so a position recorded before it still indexes the same word
    rng, twin = np.random.default_rng(4), np.random.default_rng(4)
    draws = RawDraws(rng)
    draws.refill(0)
    recorded = {p: (draws.words[p], draws.doubles[p]) for p in (0, 17, RAW_BLOCK - 1)}
    draws.pos = RAW_BLOCK - 1
    got = [draws.integers(2**31 + 1) for _ in range(3)]
    assert draws.pos > RAW_BLOCK and len(draws.words) == 2 * RAW_BLOCK
    assert {p: (draws.words[p], draws.doubles[p]) for p in recorded} == recorded
    draws.close()
    for _ in range(RAW_BLOCK - 1):
        twin.random()
    assert got == [int(twin.integers(2**31 + 1)) for _ in got]
    assert rng.bit_generator.state == twin.bit_generator.state


def test_close_after_a_raise_leaves_the_stock_state():
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    ops = _pattern(np.random.default_rng(1), 2 * RAW_BLOCK)
    draws = RawDraws(rng)
    with pytest.raises(RuntimeError):
        try:
            for i, n in enumerate(ops):
                _served(draws, n)
                if i == RAW_BLOCK + 7:
                    raise RuntimeError("out of the loop")
        finally:
            draws.close()
    for n in ops[:RAW_BLOCK + 8]:
        _stock(twin, n)
    assert rng.bit_generator.state == twin.bit_generator.state


def test_unused_decoder_leaves_the_state_as_it_was():
    rng = np.random.default_rng(2)
    rng.integers(9)
    before = rng.bit_generator.state
    draws = RawDraws(rng)
    draws.refill(0)
    draws.close()
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("source", [np.random.Generator(np.random.MT19937(0)),
                                    np.random.Generator(np.random.PCG64DXSM(0)),
                                    object()])
def test_other_generators_are_refused(source):
    with pytest.raises(TypeError):
        RawDraws(source)
