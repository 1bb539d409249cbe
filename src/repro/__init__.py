"""repro — reproduction of "Hardware Implementation of a Montgomery
Modular Multiplier in a Systolic Array" (Örs, Batina, Preneel,
Vandewalle; IPPS/IPDPS-RAW 2003).

Public API tour
---------------
Algorithm level (golden models)::

    from repro import MontgomeryContext, montgomery_no_subtraction
    ctx = MontgomeryContext(modulus)          # fixes R = 2^(l+2) > 4N
    t = montgomery_no_subtraction(ctx, x, y)  # x*y*R^-1, window [0, 2N)

Cycle-accurate hardware::

    from repro import MMMC, ModularExponentiator
    run = MMMC(ctx.l).multiply(x, y, ctx.modulus)   # run.cycles == 3l+5
    exp = ModularExponentiator(ctx, engine="behavioral")
    r = exp.exponentiate(message, exponent)

FPGA implementation model (Tables 1-2)::

    from repro.fpga import table1_rows, table2_rows

Applications::

    from repro.rsa import generate_keypair, RSACipher
    from repro.ecc import NIST_P192, AffinePoint, scalar_multiply

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.errors import (
    ReproError,
    ParameterError,
    HardwareModelError,
    SimulationError,
    ProtocolError,
)
from repro.montgomery import (
    MontgomeryContext,
    MontgomeryDomain,
    montgomery_no_subtraction,
    montgomery_with_subtraction,
    montgomery_trace,
    montgomery_modexp,
)
from repro.observability import (
    MetricsRegistry,
    SpanTracer,
    observe,
)
from repro.systolic import (
    SystolicArrayRTL,
    MMMC,
    ModularExponentiator,
    mmm_cycles,
    exponentiation_cycle_bounds,
    average_exponentiation_cycles,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ParameterError",
    "HardwareModelError",
    "SimulationError",
    "ProtocolError",
    "MontgomeryContext",
    "MontgomeryDomain",
    "montgomery_no_subtraction",
    "montgomery_with_subtraction",
    "montgomery_trace",
    "montgomery_modexp",
    "MetricsRegistry",
    "SpanTracer",
    "observe",
    "SystolicArrayRTL",
    "MMMC",
    "ModularExponentiator",
    "mmm_cycles",
    "exponentiation_cycle_bounds",
    "average_exponentiation_cycles",
    "__version__",
]
