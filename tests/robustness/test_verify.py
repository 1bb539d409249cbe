"""Online result verification: the residue witness and the Walter bound."""

import math
import os
import random
import subprocess
import sys

import pytest

import repro.robustness.verify as verify_module
from repro.errors import FaultDetected, ParameterError
from repro.robustness.verify import (
    WITNESS_TABLE_SIZE,
    ResultVerifier,
    VerifyPolicy,
    _is_probable_prime,
    hashed_unit,
    residue_witness,
    walter_bound_ok,
)
from repro.serving.request import ModExpRequest
from repro.utils.rng import random_odd_modulus

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

N = 0xC96F4F3C6D21E1F1A9F5A8B7 | 1


def _req(base=7, exponent=65537, rid="r0"):
    return ModExpRequest(base=base, exponent=exponent, modulus=N, request_id=rid)


class TestWalterBound:
    def test_accepts_the_open_interval(self):
        assert walter_bound_ok(0, 197)
        assert walter_bound_ok(2 * 197 - 1, 197)

    def test_rejects_outside(self):
        assert not walter_bound_ok(-1, 197)
        assert not walter_bound_ok(2 * 197, 197)


class TestResidueWitness:
    def test_matches_direct_computation(self):
        r = 1009  # prime
        for base, e in ((7, 65537), (123456, 3), (r * 5, 17)):
            assert residue_witness(base, e, r) == pow(base, e, r)

    def test_base_divisible_by_witness(self):
        assert residue_witness(2018, 5, 1009) == 0


class TestVerifyPolicy:
    def test_off_by_default(self):
        assert not VerifyPolicy().enabled

    def test_full_always_verifies(self):
        p = VerifyPolicy(mode="full")
        assert all(p.should_verify(f"r{i}") for i in range(20))

    def test_sampled_rate_is_roughly_honoured_and_deterministic(self):
        p = VerifyPolicy(mode="sampled", sample_rate=0.3, seed=1)
        picks = [p.should_verify(f"r{i}") for i in range(1000)]
        again = [p.should_verify(f"r{i}") for i in range(1000)]
        assert picks == again
        assert 0.2 < sum(picks) / len(picks) < 0.4

    def test_retried_attempts_always_verify(self):
        p = VerifyPolicy(mode="sampled", sample_rate=0.0)
        assert not p.should_verify("r0", attempt=0)
        assert p.should_verify("r0", attempt=1)

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            VerifyPolicy(mode="always")

    def test_bad_rate_rejected(self):
        with pytest.raises(ParameterError):
            VerifyPolicy(mode="sampled", sample_rate=1.5)


class TestResultVerifier:
    def test_accepts_the_true_value(self):
        v = ResultVerifier(VerifyPolicy(mode="full"))
        req = _req()
        v.check(req, pow(req.base, req.exponent, N))  # no raise

    def test_rejects_out_of_range(self):
        v = ResultVerifier(VerifyPolicy(mode="full"))
        with pytest.raises(FaultDetected) as e:
            v.check(_req(), N + 1)
        assert e.value.check == "range"

    @pytest.mark.parametrize("bit", [0, 1, 17, 50, 90])
    def test_rejects_every_single_bit_flip(self, bit):
        req = _req()
        good = pow(req.base, req.exponent, N)
        bad = good ^ (1 << bit)
        if not 0 <= bad < N:
            pytest.skip("flip left the range; caught by the range check")
        with pytest.raises(FaultDetected) as e:
            ResultVerifier(VerifyPolicy(mode="full")).check(req, bad)
        assert e.value.check == "residue"

    def test_witness_choice_is_deterministic_per_request(self):
        v = ResultVerifier(VerifyPolicy(mode="full", seed=3))
        req = _req(rid="stable")
        good = pow(req.base, req.exponent, N)
        # Same request id -> same witness -> same (accepting) verdict.
        v.check(req, good)
        v.check(req, good)


def _within_4_sigma(hits, trials, rate):
    sigma = math.sqrt(rate * (1 - rate) / trials)
    return abs(hits / trials - rate) <= 4 * sigma


class TestHashedSampling:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("rate", [0.01, 0.1, 0.5])
    def test_sampled_share_matches_the_rate(self, seed, rate):
        policy = VerifyPolicy(mode="sampled", sample_rate=rate, seed=seed)
        hits = sum(policy.should_verify(f"req-{i}") for i in range(20_000))
        assert _within_4_sigma(hits, 20_000, rate)

    def test_points_lie_in_the_unit_interval(self):
        points = [hashed_unit(f"k{i}") for i in range(2000)]
        assert all(0.0 <= p < 1.0 for p in points)
        assert hashed_unit("k7") == points[7]

    def test_decisions_do_not_depend_on_the_hash_seed(self):
        """The keyed hash is not the per-process salted ``hash()``."""
        ids = [f"job-{i}" for i in range(2000)]
        policy = VerifyPolicy(mode="sampled", sample_rate=0.3, seed=4)
        here = "".join("1" if policy.should_verify(i) else "0" for i in ids)
        code = (
            "from repro.robustness.verify import VerifyPolicy\n"
            "p = VerifyPolicy(mode='sampled', sample_rate=0.3, seed=4)\n"
            "print(''.join('1' if p.should_verify(f'job-{i}') else '0' "
            "for i in range(2000)))\n"
        )
        for hash_seed in ("1", "12345"):
            env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True,
                text=True, check=True,
            )
            assert out.stdout.strip() == here

    def test_brownout_thinning_keeps_a_quarter_deterministically(self):
        from repro.serving.service import ModExpService, _Entry

        class _Quarter:
            def verify_scale(self):
                return 0.25

        class _Recorder:
            def __init__(self):
                self.checked = []

            def check(self, request, value):
                self.checked.append(request.request_id)

        policy = VerifyPolicy(mode="sampled", sample_rate=0.5, seed=2)
        requests = [ModExpRequest(3, 5, 197, request_id=f"b{i}") for i in range(8000)]

        def kept(attempt):
            with ModExpService(worker_kind="inline", verify=policy) as service:
                service._brownout = _Quarter()
                service._verifier = recorder = _Recorder()
                for i, request in enumerate(requests):
                    value = request.expected()
                    assert service._verify_value(_Entry(request, i), value, attempt, "x") is None
            return recorder.checked

        first = kept(0)
        sampled = [r.request_id for r in requests if policy.should_verify(r.request_id)]
        assert set(first) <= set(sampled)
        assert _within_4_sigma(len(first), len(sampled), 0.25)
        assert kept(0) == first  # deterministic per (id, attempt)
        retried = kept(1)  # retries are always sampled, then thinned
        assert _within_4_sigma(len(retried), len(requests), 0.25)
        assert kept(1) == retried
        assert retried != first


def _is_prime_by_trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


class TestWitnessTable:
    def test_entries_are_primes_of_the_width(self):
        verifier = ResultVerifier(VerifyPolicy(mode="full", witness_bits=12))
        assert len(verifier.witnesses) == WITNESS_TABLE_SIZE
        for r in verifier.witnesses:
            assert r.bit_length() == 12
            assert _is_prime_by_trial_division(r)
        for n in range(1 << 11, 1 << 12):
            assert _is_probable_prime(n) == _is_prime_by_trial_division(n)

    def test_default_width_entries(self):
        verifier = ResultVerifier(VerifyPolicy(mode="full"))
        assert all(r.bit_length() == 30 and _is_probable_prime(r) for r in verifier.witnesses)

    def test_one_seed_one_table(self):
        a = ResultVerifier(VerifyPolicy(mode="full", seed=5)).witnesses
        b = ResultVerifier(VerifyPolicy(mode="sampled", seed=5)).witnesses
        c = ResultVerifier(VerifyPolicy(mode="full", seed=6)).witnesses
        assert a == b
        assert a != c

    def test_wrong_values_fail_the_residue_check_and_right_ones_pass(self):
        rng = random.Random("witness-table")
        verifier = ResultVerifier(VerifyPolicy(mode="full", seed=9))
        for i in range(500):
            n = random_odd_modulus(rng.choice((16, 64, 192)), rng)
            req = ModExpRequest(rng.randrange(n), rng.randrange(1, 1 << 32), n, request_id=f"w{i}")
            good = pow(req.base, req.exponent, n)
            verifier.check(req, good)
            bad = (good + rng.randrange(1, n)) % n
            with pytest.raises(FaultDetected) as e:
                verifier.check(req, bad)
            assert e.value.check == "residue"

    def test_a_wrong_self_check_still_fires(self, monkeypatch):
        req = _req()
        good = pow(req.base, req.exponent, N)
        verifier = ResultVerifier(VerifyPolicy(mode="full"))
        monkeypatch.setattr(
            verify_module, "residue_witness", lambda base, exponent, r: -1
        )
        with pytest.raises(FaultDetected) as e:
            verifier.check(req, good)
        assert e.value.check == "witness"
