"""Property: a lane sweep over several moduli equals per-modulus execution.

The bit-sliced netlist loads ``N`` per lane, the way the paper's MMMC
loads ``N`` with every multiplication, so one lock-step sweep may run a
different modulus in each lane.  For any moduli of one width and one
exponent, every laned result must equal ``pow()`` and the cycle count
the behavioral MMMC charges that exponentiation, in groups on the 64-lane word and
above it (256 lanes, with padding).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.montgomery.params import precompute_montgomery_constants
from repro.serving import ModExpRequest
from repro.serving.backends import GateLevelBackend
from repro.systolic.exponentiator import ModularExponentiator

BACKEND = GateLevelBackend()


@st.composite
def mixed_modulus_groups(draw):
    width = draw(st.integers(3, 10))
    odd = st.integers(1 << (width - 1), (1 << width) - 1).map(lambda v: v | 1)
    moduli = draw(st.lists(odd, min_size=1, max_size=8))
    exponent = draw(st.integers(1, 300))
    size = draw(st.one_of(st.integers(2, 64), st.integers(65, 140)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    requests = []
    for i in range(size):
        n = moduli[i % len(moduli)]
        # The first lanes of each modulus carry the edge bases 0 and N-1.
        edge = i // len(moduli)
        base = 0 if edge == 0 else n - 1 if edge == 1 else rng.randrange(n)
        requests.append(ModExpRequest(base, exponent, n, request_id=f"r{i}"))
    return requests


@given(mixed_modulus_groups())
@settings(max_examples=20, deadline=None)
def test_mixed_modulus_sweep_matches_pow_and_scalar_cycles(requests):
    contexts = [precompute_montgomery_constants(r.modulus) for r in requests]
    results = BACKEND.execute_many(contexts, requests)
    reference = {}  # behavioral cycles per modulus (they do not depend on the base)
    for request, ctx, result in zip(requests, contexts, results):
        assert result.value == pow(request.base, request.exponent, request.modulus)
        if request.modulus not in reference:
            run = ModularExponentiator(ctx, engine="rtl").exponentiate(
                request.base, request.exponent
            )
            reference[request.modulus] = run.cycles
        assert result.cycles == reference[request.modulus]
