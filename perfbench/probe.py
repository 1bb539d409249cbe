"""Host speed probe: a fixed CPU loop timed in a process of its own.

On a shared 2-vCPU VM the host's speed was seen to change by up to 1.7x
for seconds to minutes at a time, and a pure CPU loop shows it as
plainly as the workloads do.  The end-to-end times are therefore scaled
by how fast this probe ran around them.

The probe lives in a separate process, started before the service and
sampled only between calls, when the service is idle: the service's own
threads cannot slow it through the parent's interpreter lock, and with 2
cores one busy service process cannot starve it either.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from typing import IO, List

#: Loop iterations per sample: about 13 ms on a 2-vCPU VM at its usual speed.
PROBE_ITERATIONS = 150_000

#: Probe time that defines "nominal" host speed (speed factor 1).
NOMINAL_PROBE_S = 0.0125

_PROBE_LOOP = f"""
import sys, time

def loop():
    x = 0
    for i in range({PROBE_ITERATIONS}):
        x += i * i

for _ in sys.stdin:
    started = time.perf_counter()
    loop()
    print(time.perf_counter() - started, flush=True)
"""


class HostProbe:
    """A child process that times :data:`PROBE_ITERATIONS` on request."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._process = subprocess.Popen(
            [sys.executable, "-c", _PROBE_LOOP],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._requests: IO[str] = self._process.stdin  # type: ignore[assignment]
        self._replies: IO[str] = self._process.stdout  # type: ignore[assignment]

    def sample(self) -> float:
        """Run the loop once in the child; returns and records its seconds."""
        self._requests.write("\n")
        self._requests.flush()
        seconds = float(self._replies.readline())
        self.samples.append(seconds)
        return seconds

    def speed(self, first: int = 0) -> float:
        """Nominal over median probe time of the samples from ``first`` on."""
        return NOMINAL_PROBE_S / statistics.median(self.samples[first:])

    def close(self) -> None:
        """End the child (end of input) and wait for it."""
        self._requests.close()
        try:
            self._process.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._replies.close()

    def __enter__(self) -> "HostProbe":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
