"""The engine vocabulary: one name per level the multiplier is modelled at.

``golden`` is the Algorithm 2 closed form with the hardware's cycle
accounting, ``behavioral`` the cycle-accurate register model of Figs. 1–2
(:class:`~repro.systolic.array.SystolicArrayRTL`, under the Fig. 4
controller as :class:`~repro.systolic.mmmc.MMMC`), ``netlist`` the Fig. 3
gate netlist on compiled kernels and ``netlist-interpreted`` the same
netlist on the interpreted simulator.  Every API and subcommand that takes
an ``engine`` accepts one tuple below, checked by :func:`check_engine`;
docs/SIMULATION.md tabulates which accepts what.
"""

from __future__ import annotations

from repro.errors import ParameterError

__all__ = [
    "SUBSTRATES",
    "EXPONENTIATOR_ENGINES",
    "CIPHER_ENGINES",
    "HARDWARE_ENGINES",
    "CHIP_ENGINES",
    "NETLIST_SIMULATOR",
    "check_engine",
    "make_mmmc",
]

SUBSTRATES = ("golden", "behavioral", "netlist", "netlist-interpreted")
GOLDEN, BEHAVIORAL, NETLIST, NETLIST_INTERPRETED = SUBSTRATES

#: ``ModularExponentiator``, ``repro exponentiate`` and ``repro observe``.
EXPONENTIATOR_ENGINES = (GOLDEN, BEHAVIORAL, NETLIST)
#: ``RSACipher``.
CIPHER_ENGINES = (GOLDEN, BEHAVIORAL)
#: Register-level access: fault injection and ``repro probe``.
HARDWARE_ENGINES = (BEHAVIORAL, NETLIST_INTERPRETED, NETLIST)
#: The per-array substrate of the chip model and its serving backend.
CHIP_ENGINES = (BEHAVIORAL, NETLIST)

#: ``GateLevelMMMC(simulator=...)`` of each netlist engine.
NETLIST_SIMULATOR = {NETLIST: "compiled", NETLIST_INTERPRETED: "interpreted"}


def check_engine(engine: str, accepted: tuple) -> str:
    """Return ``engine`` if ``accepted`` holds it, else raise listing them."""
    if engine not in accepted:
        raise ParameterError(
            f"engine must be one of {', '.join(accepted)}; got {engine!r}"
        )
    return engine


def make_mmmc(engine: str, l: int, mode: str = "corrected"):
    """The Fig. 3 multiplier of a hardware engine: ``MMMC`` or ``GateLevelMMMC``."""
    if engine == BEHAVIORAL:
        from repro.systolic.mmmc import MMMC

        return MMMC(l, mode=mode)
    from repro.systolic.mmmc_netlist import GateLevelMMMC

    return GateLevelMMMC(l, mode=mode, simulator=NETLIST_SIMULATOR[engine])
