"""Cross-backend equivalence: every engine computes the same modexp.

One seeded vector set per width class drives every registered backend —
small operands for the cycle-stepped simulators, larger ones for the
big-int paths — and each result is checked against CPython's ``pow``.
This is the contract that lets the scheduler treat backends as
interchangeable.
"""

from __future__ import annotations

import random

import pytest

from repro.montgomery.params import precompute_montgomery_constants
from repro.rsa.primes import generate_prime
from repro.serving.backends import default_registry
from repro.serving.request import ModExpRequest
from repro.utils.rng import random_odd_modulus

REGISTRY = default_registry()

#: vectors per backend; simulators get few (they step every cycle).
VECTORS = {
    "integer": 6,
    "crt-rsa": 4,
    "highradix": 6,
    "scalable": 4,
    "rtl": 3,
    "chip": 2,
}

#: modulus bit length per backend (simulators stay tiny).
BITS = {
    "integer": 96,
    "crt-rsa": 48,
    "highradix": 80,
    "scalable": 56,
    "rtl": 12,
    "chip": 10,
}


def _vectors(name: str) -> list:
    rng = random.Random(f"equivalence:{name}")  # str seeds are stable
    out = []
    for _ in range(VECTORS[name]):
        if name == "crt-rsa":
            p = generate_prime(BITS[name] // 2, rng)
            q = generate_prime(BITS[name] // 2, rng)
            while q == p:
                q = generate_prime(BITS[name] // 2, rng)
            n = p * q
            out.append(
                ModExpRequest(
                    rng.randrange(n), rng.randrange(1, n), n, factors=(p, q)
                )
            )
        else:
            n = random_odd_modulus(BITS[name], rng)
            out.append(ModExpRequest(rng.randrange(n), rng.randrange(1, n), n))
    return out


@pytest.mark.parametrize("name", REGISTRY.names())
def test_backend_matches_builtin_pow(name):
    backend = REGISTRY.get(name)
    for request in _vectors(name):
        assert backend.reject_reason(request) is None
        ctx = precompute_montgomery_constants(request.modulus, request.l)
        result = backend.execute(ctx, request)
        assert result.value % request.modulus == request.expected(), (
            f"{name} disagrees with pow() on {request}"
        )


@pytest.mark.parametrize("name", REGISTRY.names())
def test_backend_reports_cycles(name):
    backend = REGISTRY.get(name)
    request = _vectors(name)[0]
    ctx = precompute_montgomery_constants(request.modulus, request.l)
    result = backend.execute(ctx, request)
    assert result.cycles is not None and result.cycles > 0
    assert backend.estimate_cost(request) > 0


def test_same_vector_across_all_software_backends():
    """One shared vector through every width-unlimited backend."""
    rng = random.Random(2003)
    n = random_odd_modulus(64, rng)
    request = ModExpRequest(rng.randrange(n), rng.randrange(1, n), n)
    ctx = precompute_montgomery_constants(n)
    values = {
        name: REGISTRY.get(name).execute(ctx, request).value % n
        for name in ("integer", "highradix", "scalable")
    }
    assert set(values.values()) == {request.expected()}
