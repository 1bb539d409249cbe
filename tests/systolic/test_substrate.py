"""One engine vocabulary: every consumer checks against one declaration.

Each API and subcommand that takes an ``engine`` accepts a tuple from
:mod:`repro.systolic.substrate` and rejects anything else, the names it
used to accept included, with an error that lists the accepted names.
"""

import random

import pytest

from repro.analysis.fault import FaultSite, inject_fault
from repro.chip.backend import ChipBackend
from repro.chip.interleave import InterleavedArray
from repro.cli import main
from repro.errors import ParameterError
from repro.montgomery.params import MontgomeryContext
from repro.rsa.cipher import RSACipher
from repro.rsa.keygen import generate_keypair
from repro.serving.backends import default_registry
from repro.systolic.exponentiator import ModularExponentiator
from repro.systolic.substrate import (
    CHIP_ENGINES,
    CIPHER_ENGINES,
    EXPONENTIATOR_ENGINES,
    HARDWARE_ENGINES,
    SUBSTRATES,
)

KEY = generate_keypair(32, random.Random("substrate-key"))

#: consumer -> (build with engine=name, accepted names, retired names)
APIS = {
    "ModularExponentiator": (
        lambda e: ModularExponentiator(MontgomeryContext(11), engine=e),
        EXPONENTIATOR_ENGINES,
        ("rtl", "gate"),
    ),
    "inject_fault": (
        lambda e: inject_fault(
            4, 1, 2, 11, FaultSite(cycle=0, register="t", index=0), engine=e
        ),
        HARDWARE_ENGINES,
        ("rtl", "gate", "compiled"),
    ),
    "InterleavedArray": (
        lambda e: InterleavedArray(8, engine=e),
        CHIP_ENGINES,
        ("rtl", "gate"),
    ),
    "ChipBackend": (lambda e: ChipBackend(engine=e), CHIP_ENGINES, ("rtl", "gate")),
    "RSACipher": (lambda e: RSACipher(KEY, engine=e), CIPHER_ENGINES, ("rtl", "gate")),
}

#: subcommand -> (argv before --engine, accepted names, retired names)
COMMANDS = {
    "multiply": (
        ["multiply", "3", "5", "11"],
        SUBSTRATES,
        ("rtl", "mmmc", "gate", "compiled", "interpreted"),
    ),
    "exponentiate": (
        ["exponentiate", "7", "5", "197"],
        EXPONENTIATOR_ENGINES,
        ("rtl", "gate"),
    ),
    "observe": (["observe"], EXPONENTIATOR_ENGINES, ("rtl", "gate")),
    "fault": (["fault"], HARDWARE_ENGINES, ("rtl", "gate", "compiled")),
    "probe": (["probe"], HARDWARE_ENGINES, ("rtl", "interpreted", "compiled")),
    "chip": (["chip"], CHIP_ENGINES, ("rtl", "gate")),
}


@pytest.mark.parametrize(
    "consumer, retired",
    [(c, name) for c, (_, _, names) in APIS.items() for name in names],
)
def test_api_rejects_retired_name_listing_accepted(consumer, retired):
    build, accepted, _ = APIS[consumer]
    with pytest.raises(ParameterError) as caught:
        build(retired)
    message = str(caught.value)
    assert repr(retired) in message
    for name in accepted:
        assert name in message


@pytest.mark.parametrize(
    "command, retired",
    [(c, name) for c, (_, _, names) in COMMANDS.items() for name in names],
)
def test_cli_rejects_retired_name_listing_accepted(command, retired, capsys):
    argv, accepted, _ = COMMANDS[command]
    with pytest.raises(SystemExit) as caught:
        main(argv + ["--engine", retired])
    assert caught.value.code == 2
    err = capsys.readouterr().err
    assert "--engine" in err and retired in err
    for name in accepted:
        assert name in err


def test_gate_backend_is_gone_and_error_lists_rtl():
    with pytest.raises(ParameterError, match="rtl"):
        default_registry().get("gate")
