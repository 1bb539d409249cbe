"""Online result verification: catch a corrupted modexp before the client.

Modular exponentiation admits no known sublinear external certificate —
``result mod p`` says nothing about ``x^e mod p`` because the mod-``N``
reduction subtracts an unknown multiple of ``N``.  What *is* possible,
and what this module implements, is Shamir's extended-modulus trick
turned outward: the verifier recomputes ``s = x^e mod (N·r)`` for a
small prime ``r`` on the independent CPython big-int path, checks
its own arithmetic with the cheap Fermat residue ``s mod r ==
(x mod r)^(e mod (r-1)) mod r`` (~30 squarings of 30-bit numbers,
regardless of operand width), and then compares the backend's value to
``s mod N``.  The residue witness hardens the *checker* — a transient
upset corrupting the verifier's own pow is caught by a second,
structurally different computation — while the comparison is exact, so
the false-negative rate on corrupted outputs is zero.

Each verifier draws a table of :data:`WITNESS_TABLE_SIZE` witness primes
once, from its policy's seed, and picks one per request by a keyed hash
of the request id, so a check does no prime search.  Sampling decisions
use the same kind of keyed hash (:func:`hashed_unit`): deterministic
per key in every process, whatever ``PYTHONHASHSEED`` says.

For the simulator backends this is cheap insurance: their wall cost per
cycle is 200× (``rtl``) and 400× (``chip``) the integer path (see
``wall_weight`` in :mod:`repro.serving.backends`), so a golden recompute
adds well under 1%.
For the integer backend the recompute doubles the work, which is what
the ``sampled`` policy is for.

Two cheaper invariants complement the recompute:

* **range** — a final result must lie in ``[0, N)``; many single-bit
  upsets in the output register already violate this.
* **Walter bound** — every Montgomery product computed with
  ``R = 2^(l+2) > 4N`` satisfies ``T < 2N`` (the paper's Sect. 3 bound
  that makes the final subtraction unnecessary).
  :func:`walter_bound_ok` is checked on intermediate MMM outputs as the
  backends drive their Algorithm 3 chains.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from repro.errors import FaultDetected, ParameterError

__all__ = [
    "VERIFY_MODES",
    "VerifyPolicy",
    "ResultVerifier",
    "WITNESS_TABLE_SIZE",
    "hashed_unit",
    "residue_witness",
    "walter_bound_ok",
]

VERIFY_MODES = ("off", "sampled", "full")

#: Witness primes each verifier draws up front (a request picks one).
WITNESS_TABLE_SIZE = 256


def _keyed_u64(key: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest(), "big"
    )


def hashed_unit(key: str) -> float:
    """A deterministic point in ``[0, 1)`` for ``key``: its keyed hash.

    The same key maps to the same point in every process (unlike the
    built-in ``hash()``, which is salted per process), and distinct keys
    spread uniformly, so ``hashed_unit(key) < rate`` samples a ``rate``
    share of keys.  The top 53 bits of the digest make the float, so the
    point never rounds up to 1.
    """
    return (_keyed_u64(key) >> 11) * (1.0 / (1 << 53))


def walter_bound_ok(t: int, n: int) -> bool:
    """Walter invariant: an MMM output with ``R > 4N`` stays in ``[0, 2N)``."""
    return 0 <= t < 2 * n


def _small_prime(rng: random.Random, bits: int) -> int:
    """A ``bits``-bit prime from ``rng`` (Miller–Rabin, deterministic bases)."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate):
            return candidate


@lru_cache(maxsize=16)
def _witness_table(seed: int, bits: int) -> Tuple[int, ...]:
    """The :data:`WITNESS_TABLE_SIZE` ``bits``-bit witness primes of ``seed``."""
    rng = random.Random(f"witness|{seed}")
    return tuple(_small_prime(rng, bits) for _ in range(WITNESS_TABLE_SIZE))


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Deterministic for n < 3.3e24 with these bases — far beyond the
    # 20–40 bit witnesses the verifier draws.
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def residue_witness(base: int, exponent: int, r: int) -> int:
    """``base^exponent mod r`` for prime ``r`` via Fermat exponent reduction.

    Costs ``O(log r)`` multiplications of ``log r``-bit numbers —
    independent of how large ``exponent`` and the serving modulus are.
    """
    b = base % r
    if b == 0:
        return 0
    return pow(b, exponent % (r - 1), r)


@dataclass(frozen=True)
class VerifyPolicy:
    """When and how hard to verify serving responses.

    Parameters
    ----------
    mode:
        ``"off"`` — never verify; ``"sampled"`` — verify a deterministic
        pseudo-random fraction of responses (``sample_rate``); ``"full"``
        — verify every response.  Retried attempts are always verified
        when the mode is not ``"off"`` (a retry exists because something
        already went wrong).
    sample_rate:
        Fraction of responses verified under ``"sampled"``.
    seed:
        Keys the sampling hash, the witness-prime table and each
        request's pick from it, so a drill is reproducible end to end.
    witness_bits:
        Bit length of the residue-witness primes.
    """

    mode: str = "off"
    sample_rate: float = 0.1
    seed: int = 0
    witness_bits: int = 30

    def __post_init__(self) -> None:
        if self.mode not in VERIFY_MODES:
            raise ParameterError(
                f"unknown verify mode {self.mode!r}; one of {VERIFY_MODES}"
            )
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ParameterError(
                f"sample_rate must be in [0, 1], got {self.sample_rate}"
            )
        if self.witness_bits < 8:
            raise ParameterError(
                f"witness_bits must be >= 8, got {self.witness_bits}"
            )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def should_verify(self, request_id: str, attempt: int = 0) -> bool:
        """Deterministic per-(request, attempt) sampling decision.

        A first attempt is sampled when the keyed hash of
        ``(seed, request_id)`` falls below ``sample_rate``.
        """
        if self.mode == "off":
            return False
        if self.mode == "full" or attempt > 0:
            return True
        return hashed_unit(f"verify|{self.seed}|{request_id}") < self.sample_rate


class ResultVerifier:
    """Checks one response value against ``base^exponent mod N``.

    Draws its witness-prime table once, from the policy's seed (shared
    by every verifier of that seed and width); a check picks one prime
    by a keyed hash of the request id.  Read-only after construction,
    so safe to share across threads.
    """

    def __init__(self, policy: VerifyPolicy) -> None:
        self.policy = policy
        self.witnesses = _witness_table(policy.seed, policy.witness_bits)
        self._pick_prefix = f"witness|{policy.seed}|"

    def check(self, request, value: int) -> None:
        """Raise :class:`FaultDetected` unless ``value`` is the true result.

        ``request`` is any object with ``base``/``exponent``/``modulus``
        (duck-typed so the wire layer and tests can pass stand-ins).

        The raised error leaves ``bundle_path`` unset; the serving layer
        attaches the flight-recorder post-mortem bundle for the faulting
        execution (when chaos recording is configured) before surfacing
        the failure — see ``ModExpService._attach_bundle``.
        """
        n = request.modulus
        if not isinstance(value, int) or not 0 <= value < n:
            raise FaultDetected(
                f"result {value!r} outside [0, {n}) — output-register "
                "corruption or wrong reduction",
                check="range",
            )
        r = self.witnesses[
            _keyed_u64(f"{self._pick_prefix}{request.request_id}")
            % WITNESS_TABLE_SIZE
        ]
        s = pow(request.base, request.exponent, n * r)
        if s % r != residue_witness(request.base, request.exponent, r):
            # The verifier's own recompute failed its residue self-check:
            # the reference value cannot be trusted, treat as detected.
            raise FaultDetected(
                f"verifier self-check failed mod witness prime {r}",
                check="witness",
            )
        if value != s % n:
            raise FaultDetected(
                f"result {value} != {request.base}^{request.exponent} "
                f"mod {n} (recompute disagrees; witness prime {r})",
                check="residue",
            )
