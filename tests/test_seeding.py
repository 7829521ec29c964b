"""The pure-Python PCG64 stream equals numpy's ``Generator(PCG64(seed))`` draw for draw."""

import numpy as np
import pytest

from rulebench.seeding import ScalarPCG64, derive_seed, make_rng, make_scalar_rng

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1)
RANGES = (2, 3, 13, 65, 2**31, 2**32 - 1)


def _interleaved(stream, plan):
    """Draw ``plan``'s calls from ``stream`` as Python values; the carried half-word only shows interleaved."""
    out = []
    for call, arg in plan:
        if call == "integers":
            out.append(int(stream.integers(0, arg)))
        elif call == "fill":
            out.append([int(v) for v in stream.integers(0, 2, size=arg)])
        else:
            out.append(float(stream.random()))
    return out


def _plan(seed):
    chooser = np.random.default_rng(seed % 1000)
    calls = []
    for _ in range(30):
        kind = int(chooser.integers(0, 3))
        if kind == 0:
            calls.append(("integers", RANGES[int(chooser.integers(0, len(RANGES)))]))
        elif kind == 1:
            calls.append(("fill", int(chooser.integers(0, 13))))
        else:
            calls.append(("random", None))
    return calls


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_edge_seeds_draw_numpys_stream(seed):
    plan = _plan(seed) + [("integers", n) for n in RANGES] + [("random", None), ("fill", 5)]
    theirs = np.random.Generator(np.random.PCG64(seed))
    assert _interleaved(ScalarPCG64(seed), plan) == _interleaved(theirs, plan)


def test_derived_seeds_draw_make_rngs_stream():
    for i in range(1000):
        parts = (i, "stream")
        plan = _plan(derive_seed(*parts))[:12]
        assert _interleaved(make_scalar_rng(*parts), plan) == _interleaved(make_rng(*parts), plan), parts


def test_offset_ranges_and_a_one_value_range_match_numpy():
    ours, theirs = make_scalar_rng(7, "offsets"), make_rng(7, "offsets")
    for low, high in [(-3, 4), (10, 11), (5, 2**31 + 5), (0, 1), (-(2**31), 2**31 - 1)]:
        assert ours.integers(low, high) == int(theirs.integers(low, high))
        assert ours.integers(low, high, size=3) == theirs.integers(low, high, size=3).tolist()
    assert ours.random() == float(theirs.random())  # a one-value range drew nothing in either


@pytest.mark.parametrize("low,high", [(0, 0), (3, 2), (0, 2**32), (-1, 2**32), (0, 2**40)])
def test_ranges_it_does_not_implement_are_refused(low, high):
    with pytest.raises(ValueError, match="ranges of 1 to 2"):
        make_scalar_rng(1).integers(low, high)
    with pytest.raises(ValueError, match="ranges of 1 to 2"):
        make_scalar_rng(1).integers(low, high, size=2)


def test_first_draws_are_pinned():
    """Literal draws of one stream, so that a numpy release that moves its ``Generator`` stream shows here."""
    assert derive_seed(2024, "pin") == 6068111584660141771
    for stream in (make_scalar_rng(2024, "pin"), make_rng(2024, "pin")):
        assert [int(stream.integers(0, 13)) for _ in range(3)] == [10, 6, 10]
        assert [int(v) for v in stream.integers(0, 2, size=8)] == [1, 0, 1, 0, 1, 1, 1, 0]
        assert float(stream.random()) == 0.397270194480137
        assert int(stream.integers(0, 2**32 - 1)) == 2760840564
        assert float(stream.random()) == 0.27946167095454566
        assert int(stream.integers(5, 2**31 + 5)) == 1145223348
