"""Property tests of the bit-sliced lane packing (hypothesis).

``pack_lanes`` transposes K little-endian bus values into per-wire lane
words (lane k in bit position k); ``unpack_lanes`` is its inverse.  The
compiled engine's K-lane correctness reduces to this transpose being
exact, so it gets the exhaustive treatment.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SimulationError
from repro.hdl.compiled import pack_lanes, unpack_lanes


@st.composite
def lane_batches(draw):
    width = draw(st.integers(1, 96))
    lanes = draw(st.integers(1, 300))
    values = draw(
        st.lists(
            st.integers(0, (1 << width) - 1), min_size=lanes, max_size=lanes
        )
    )
    return width, values


class TestRoundTrip:
    @given(lane_batches())
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_is_identity(self, batch):
        width, values = batch
        words = pack_lanes(values, width)
        assert len(words) == width
        assert unpack_lanes(words, len(values)) == values

    @given(lane_batches())
    @settings(max_examples=50, deadline=None)
    def test_words_fit_the_lane_count(self, batch):
        width, values = batch
        for word in pack_lanes(values, width):
            assert 0 <= word < (1 << len(values))

    @given(lane_batches(), st.integers(0, 299), st.integers(0, 95))
    @settings(max_examples=100, deadline=None)
    def test_single_bit_addressing(self, batch, lane, bit):
        """Bit ``i`` of lane ``k``'s value lands in word i, position k."""
        width, values = batch
        lane %= len(values)
        bit %= width
        words = pack_lanes(values, width)
        assert (words[bit] >> lane) & 1 == (values[lane] >> bit) & 1


class TestHighBits:
    @given(
        lane_batches(),
        st.lists(st.integers(0, 1 << 320), min_size=96, max_size=96),
    )
    @settings(max_examples=100, deadline=None)
    def test_unpack_ignores_bits_past_the_lane_count(self, batch, junk):
        """Word bits at positions >= k never reach any of the k lanes."""
        width, values = batch
        k = len(values)
        dirty = [w | (j << k) for w, j in zip(pack_lanes(values, width), junk)]
        assert unpack_lanes(dirty, k) == values


class TestBounds:
    def test_oversized_value_raises(self):
        with pytest.raises(SimulationError, match="does not fit"):
            pack_lanes([0b100], width=2)

    def test_negative_value_raises(self):
        with pytest.raises(SimulationError):
            pack_lanes([-1], width=4)

    def test_error_names_the_first_bad_lane(self):
        values = [1] * 256
        values[200] = 1 << 5
        values[230] = -1
        with pytest.raises(
            SimulationError, match=r"^lane 200 value 32 does not fit bus of width 5$"
        ):
            pack_lanes(values, width=5)

    def test_empty_batch(self):
        assert pack_lanes([], width=3) == [0, 0, 0]
        assert unpack_lanes([0, 0, 0], lanes=0) == []
