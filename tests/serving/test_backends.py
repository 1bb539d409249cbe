"""Backend registry semantics and capability declarations."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.serving.backends import (
    BackendCapabilities,
    BackendResult,
    IntegerBackend,
    ModExpBackend,
    default_registry,
)
from repro.serving.request import ModExpRequest


class _StubBackend(ModExpBackend):
    name = "stub"
    capabilities = BackendCapabilities(description="test stub", max_bits=16)

    def execute(self, ctx, request):
        return BackendResult(pow(request.base, request.exponent, request.modulus))


class TestRegistry:
    def test_default_registry_has_all_engines(self):
        reg = default_registry()
        assert reg.names() == [
            "chip",
            "crt-rsa",
            "gate",
            "highradix",
            "integer",
            "rtl",
            "scalable",
        ]

    def test_get_unknown_backend_lists_known(self):
        with pytest.raises(ParameterError, match="integer"):
            default_registry().get("does-not-exist")

    def test_duplicate_registration_rejected_unless_replace(self):
        reg = default_registry()
        with pytest.raises(ParameterError, match="already registered"):
            reg.register(IntegerBackend())
        reg.register(IntegerBackend(), replace=True)  # explicit replace ok

    def test_register_requires_name(self):
        backend = _StubBackend()
        backend.name = ""
        with pytest.raises(ParameterError, match="name"):
            default_registry().register(backend)

    def test_capability_rows_cover_every_backend(self):
        reg = default_registry()
        rows = reg.capability_rows()
        assert [row[0] for row in rows] == reg.names()
        assert all(len(row) == 6 for row in rows)


class TestCapabilityScreen:
    def test_width_ceiling_rejects(self):
        backend = _StubBackend()
        small = ModExpRequest(2, 3, 0xFFFF)  # 16 bits: at the limit
        large = ModExpRequest(2, 3, (1 << 17) + 1)
        assert backend.reject_reason(small) is None
        reason = backend.reject_reason(large)
        assert reason is not None and "16" in reason

    def test_explicit_l_counts_toward_width(self):
        backend = _StubBackend()
        req = ModExpRequest(2, 3, 251, l=20)
        assert backend.reject_reason(req) is not None

    def test_crt_requires_factors(self):
        crt = default_registry().get("crt-rsa")
        plain = ModExpRequest(2, 3, 15)
        with_factors = ModExpRequest(2, 3, 15, factors=(3, 5))
        assert crt.reject_reason(plain) is not None
        assert crt.reject_reason(with_factors) is None


class TestCostModel:
    def test_cost_grows_with_exponent_bits(self):
        backend = IntegerBackend()
        n = (1 << 63) + 5
        cheap = ModExpRequest(2, 3, n)
        dear = ModExpRequest(2, (1 << 60) + 1, n)
        assert backend.estimate_cost(dear) > backend.estimate_cost(cheap)

    def test_simulator_cost_reflects_wall_weight(self):
        reg = default_registry()
        n = 0xC001
        req = ModExpRequest(3, 5, n)
        assert reg.get("rtl").estimate_cost(req) > reg.get("integer").estimate_cost(req)

    def test_crt_model_cheaper_than_full_width(self):
        reg = default_registry()
        n = (1 << 63) + 5
        req = ModExpRequest(2, n - 2, n, factors=None)
        assert reg.get("crt-rsa").model_cycles(req) < reg.get("integer").model_cycles(req)
