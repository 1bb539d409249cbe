"""Property tests of the bit-sliced lane packing (hypothesis).

``pack_lanes`` transposes K little-endian bus values into per-wire lane
words (lane k in bit position k); ``unpack_lanes`` is its inverse.
``pack_slots``/``unpack_slots`` are the same transpose into one bus-slot
word (bit ``i·K + k`` = bit i of lane k), the layout a lane group's
exponentiation chain stays in.  The compiled engine's K-lane correctness
reduces to these transposes being exact, so both formats are drawn as
inputs of every property.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import SimulationError
from repro.hdl.compiled import pack_lanes, pack_slots, unpack_lanes, unpack_slots


class _Lanes:
    """Per-wire lane words: entry i is bus bit i, lane k at bit k."""

    pack = staticmethod(pack_lanes)

    @staticmethod
    def unpack(packed, width, lanes):
        return unpack_lanes(packed, lanes)

    @staticmethod
    def bit(packed, i, k, lanes):
        return (packed[i] >> k) & 1

    @staticmethod
    def fits(packed, width, lanes):
        return len(packed) == width and all(0 <= w < (1 << lanes) for w in packed)

    @staticmethod
    def dirty(packed, width, lanes, junk):
        return [w | (j << lanes) for w, j in zip(packed, junk)]


class _Slots:
    """One bus-slot word: bit i·K + k is bus bit i of lane k."""

    pack = staticmethod(pack_slots)
    unpack = staticmethod(unpack_slots)

    @staticmethod
    def bit(packed, i, k, lanes):
        return (packed >> (i * lanes + k)) & 1

    @staticmethod
    def fits(packed, width, lanes):
        return 0 <= packed < (1 << (width * lanes))

    @staticmethod
    def dirty(packed, width, lanes, junk):
        return packed | (junk[0] << (width * lanes))


formats = st.sampled_from([_Lanes, _Slots])


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
    @given(lane_batches(), formats)
    @settings(max_examples=200, deadline=None)
    def test_pack_unpack_is_identity(self, batch, fmt):
        width, values = batch
        packed = fmt.pack(values, width)
        assert fmt.unpack(packed, width, len(values)) == values

    @given(lane_batches(), formats)
    @settings(max_examples=50, deadline=None)
    def test_words_fit_the_lane_count(self, batch, fmt):
        width, values = batch
        assert fmt.fits(fmt.pack(values, width), width, len(values))

    @given(lane_batches(), st.integers(0, 299), st.integers(0, 95), formats)
    @settings(max_examples=100, deadline=None)
    def test_single_bit_addressing(self, batch, lane, bit, fmt):
        """Bit ``i`` of lane ``k``'s value lands in word i, position k
        (lane words) or at bit ``i·K + k`` (slot word)."""
        width, values = batch
        lane %= len(values)
        bit %= width
        packed = fmt.pack(values, width)
        assert fmt.bit(packed, bit, lane, len(values)) == (values[lane] >> bit) & 1

    @given(lane_batches())
    @settings(max_examples=50, deadline=None)
    def test_slot_word_is_the_lane_words_end_to_end(self, batch):
        width, values = batch
        k = len(values)
        words = pack_lanes(values, width)
        assert pack_slots(values, width) == sum(w << (i * k) for i, w in enumerate(words))


class TestHighBits:
    @given(
        lane_batches(),
        st.lists(st.integers(0, 1 << 320), min_size=96, max_size=96),
        formats,
    )
    @settings(max_examples=100, deadline=None)
    def test_unpack_ignores_bits_past_the_lane_count(self, batch, junk, fmt):
        """Word bits at positions >= k (lane words) or >= width·k (slot
        word) never reach any of the k lanes."""
        width, values = batch
        k = len(values)
        dirty = fmt.dirty(fmt.pack(values, width), width, k, junk)
        assert fmt.unpack(dirty, width, k) == values


class TestBounds:
    """Both formats share one range check and message."""

    def test_oversized_value_raises(self):
        for pack in (pack_lanes, pack_slots):
            with pytest.raises(SimulationError, match="does not fit"):
                pack([0b100], width=2)

    def test_negative_value_raises(self):
        for pack in (pack_lanes, pack_slots):
            with pytest.raises(SimulationError):
                pack([-1], width=4)

    def test_error_names_the_first_bad_lane(self):
        values = [1] * 256
        values[200] = 1 << 5
        values[230] = -1
        for pack in (pack_lanes, pack_slots):
            with pytest.raises(
                SimulationError, match=r"^lane 200 value 32 does not fit bus of width 5$"
            ):
                pack(values, width=5)

    def test_empty_batch(self):
        assert pack_lanes([], width=3) == [0, 0, 0]
        assert unpack_lanes([0, 0, 0], lanes=0) == []
        assert pack_slots([], width=3) == 0
        assert unpack_slots(0, 3, lanes=0) == []
