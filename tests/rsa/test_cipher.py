"""Tests for RSA primitives over the hardware exponentiator model."""

import random

import pytest

from repro.errors import ParameterError
from repro.rsa.cipher import RSACipher
from repro.rsa.keygen import generate_keypair
from repro.systolic.timing import mmm_cycles_corrected


@pytest.fixture(scope="module")
def key():
    return generate_keypair(64, random.Random(0xA11CE))


@pytest.fixture(scope="module")
def cipher(key):
    return RSACipher(key, engine="golden")


class TestRoundTrips:
    def test_encrypt_decrypt(self, cipher, key):
        for m in (0, 1, 0xDEADBEEF % key.modulus, key.modulus - 1):
            c = cipher.encrypt(m)
            assert cipher.decrypt(c.value).value == m

    def test_crt_matches_direct(self, cipher, key):
        rng = random.Random(3)
        for _ in range(6):
            m = rng.randrange(key.modulus)
            c = cipher.encrypt(m).value
            assert cipher.decrypt_crt(c).value == cipher.decrypt(c).value == m

    def test_sign_verify(self, cipher, key):
        m = 0x1234567 % key.modulus
        sig = cipher.sign(m)
        assert cipher.verify(m, sig.value)
        assert not cipher.verify((m + 1) % key.modulus, sig.value)

    def test_rtl_engine_small_key(self):
        key = generate_keypair(16, random.Random(2))
        ci = RSACipher(key, engine="behavioral")
        m = 12345 % key.modulus
        assert ci.decrypt(ci.encrypt(m).value).value == m


class TestCycleAccounting:
    def test_crt_cheaper_than_direct(self, cipher, key):
        c = cipher.encrypt(42).value
        direct = cipher.decrypt(c)
        crt = cipher.decrypt_crt(c)
        assert crt.cycles < direct.cycles

    def test_encrypt_cycles_scale_with_e(self, key):
        """e = 65537 = 2^16+1: 16 squares + 1 multiply + pre/post."""
        ci = RSACipher(key)
        op = ci.encrypt(7)
        per = mmm_cycles_corrected(key.bits)
        assert op.cycles == (2 + 16 + 1) * per
        assert op.multiplications == 19

    def test_total_cycles_accumulate(self, key):
        ci = RSACipher(key)
        ci.encrypt(5)
        ci.decrypt_crt(ci.encrypt(6).value)
        assert ci.total_cycles > 0


class TestValidation:
    def test_message_window(self, cipher, key):
        with pytest.raises(ParameterError):
            cipher.encrypt(key.modulus)
        with pytest.raises(ParameterError):
            cipher.decrypt(-1)
