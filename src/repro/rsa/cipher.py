"""RSA encryption/decryption/signing through the hardware exponentiator.

:class:`RSACipher` binds a key pair to
:class:`~repro.systolic.exponentiator.ModularExponentiator` instances, so
every RSA operation runs the exact multiplication schedule the paper's
circuit would, with measured cycle counts.

Two decryption paths are provided:

* **direct** — one full-width exponentiation, the paper's configuration;
* **CRT** — two half-width exponentiations plus recombination, the
  standard speedup (the half-width multiplier runs ``(3(l/2)+4)``-cycle
  multiplications, so CRT costs roughly a quarter of the cycle-weighted
  work) — exercised by the CRT ablation benchmark.

Messages are integers in ``[0, N)``; padding schemes are outside the
paper's scope (it evaluates raw modular exponentiation).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.montgomery.params import precompute_montgomery_constants
from repro.rsa.keygen import RSAKeyPair
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.substrate import CIPHER_ENGINES, check_engine

__all__ = ["RSACipher", "RSAOperation"]


@dataclass(frozen=True)
class RSAOperation:
    """Result of one RSA primitive: the value plus the measured cycles."""

    value: int
    cycles: int
    multiplications: int


class RSACipher:
    """RSA primitives over the systolic exponentiator model.

    Parameters
    ----------
    key:
        The key pair (public operations need only modulus/E).
    engine:
        One of :data:`~repro.systolic.substrate.CIPHER_ENGINES`:
        ``"golden"`` (default; big-int multiplications with exact hardware
        cycle accounting — practical at RSA sizes) or ``"behavioral"``
        (full cycle-accurate hardware model; practical for small/demo
        keys).
    """

    def __init__(self, key: RSAKeyPair, engine: str = "golden"):
        self.key = key
        self.engine = check_engine(engine, CIPHER_ENGINES)
        # The cached constants are shared with every other consumer of the
        # same modulus (notably the serving layer's batch scheduler).
        self._exp = ModularExponentiator(
            precompute_montgomery_constants(key.modulus), engine
        )
        self._exp_p = ModularExponentiator(precompute_montgomery_constants(key.p), engine)
        self._exp_q = ModularExponentiator(precompute_montgomery_constants(key.q), engine)

    # ------------------------------------------------------------------
    def _check_message(self, m: int) -> int:
        if not 0 <= m < self.key.modulus:
            raise ParameterError(
                f"message must be in [0, N); got {m} for N={self.key.modulus}"
            )
        return m

    def encrypt(self, message: int) -> RSAOperation:
        """``C = M^E mod N`` through the exponentiator."""
        self._check_message(message)
        run = self._exp.exponentiate(message, self.key.public_exponent)
        return RSAOperation(run.result, run.cycles, run.num_multiplications)

    def decrypt(self, ciphertext: int) -> RSAOperation:
        """``M = C^D mod N`` — one full-width exponentiation."""
        self._check_message(ciphertext)
        run = self._exp.exponentiate(ciphertext, self.key.private_exponent)
        return RSAOperation(run.result, run.cycles, run.num_multiplications)

    def decrypt_crt(self, ciphertext: int) -> RSAOperation:
        """CRT decryption: two half-width exponentiations + recombination.

        Garner recombination: ``h = q_inv·(m_p - m_q) mod p``,
        ``M = m_q + h·q``.  The recombination multiply is done host-side
        (it is one multiplication; a real device would reuse the
        multiplier), so the cycle count reported is the two
        exponentiations — the dominant term.
        """
        self._check_message(ciphertext)
        key = self.key

        def half(exp_engine, prime: int, d_half: int):
            c = ciphertext % prime
            if d_half == 0:
                # (p-1) | D — only reachable with toy keys; m^0 = 1 for
                # invertible m, 0 for m = 0.  No multiplier cycles needed.
                class _Zero:
                    result = 1 % prime if c else 0
                    cycles = 0
                    num_multiplications = 0

                return _Zero()
            return exp_engine.exponentiate(c, d_half)

        run_p = half(self._exp_p, key.p, key.d_p)
        run_q = half(self._exp_q, key.q, key.d_q)
        h = (key.q_inv * (run_p.result - run_q.result)) % key.p
        m = run_q.result + h * key.q
        return RSAOperation(
            m,
            run_p.cycles + run_q.cycles,
            run_p.num_multiplications + run_q.num_multiplications,
        )

    def sign(self, message: int) -> RSAOperation:
        """Textbook RSA signature: ``S = M^D mod N``."""
        return self.decrypt(message)

    def verify(self, message: int, signature: int) -> bool:
        """Check ``S^E ≡ M (mod N)``."""
        self._check_message(message)
        return self.encrypt(signature).value == message

    @property
    def total_cycles(self) -> int:
        """Cycles consumed across all operations on all three exponentiators."""
        return self._exp.cycles + self._exp_p.cycles + self._exp_q.cycles
