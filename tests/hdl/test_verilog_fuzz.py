"""Random-circuit fuzzing of the Verilog export path (export → parse →
co-simulate), mirroring the technology-mapper fuzz suite."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hdl.verilog_sim import cosimulate

from tests.fpga.test_techmap_fuzz import random_circuit


class TestVerilogFuzz:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_circuits_roundtrip(self, seed):
        c = random_circuit(seed, n_inputs=5, n_gates=40, n_ffs=4)
        assert cosimulate(c, cycles=20, seed=seed) > 0

    @pytest.mark.parametrize("seed", range(5))
    def test_larger_circuits(self, seed):
        c = random_circuit(3000 + seed, n_inputs=8, n_gates=150, n_ffs=8)
        cosimulate(c, cycles=12, seed=seed)

    @given(st.integers(0, 10000))
    @settings(max_examples=20, deadline=None)
    def test_hypothesis_driven(self, seed):
        c = random_circuit(seed, n_inputs=4, n_gates=25, n_ffs=3)
        cosimulate(c, cycles=10, seed=seed)

