"""Serving engine: backends, batch scheduling, workers, backpressure.

The paper's systolic array is a *throughput* design — one result per
``3l+4`` cycles once the pipeline fills — and this package is its
software-system counterpart: a serving layer that turns the repository's
single-shot engines into a multi-worker modular-exponentiation service.

* :mod:`repro.serving.request` — :class:`ModExpRequest` /
  :class:`ModExpResult`, the unit of work and its uniform outcome.
* :mod:`repro.serving.backends` — the :class:`ModExpBackend` protocol,
  capability declarations, cost models and the registry wrapping every
  engine in the repo (integer fast path, CRT-RSA, systolic RTL,
  gate-level netlist, high-radix, Tenca–Koç scalable).
* :mod:`repro.serving.scheduler` — batch coalescing by batch key
  (``(modulus, l)``, or the operand width for the lock-step lane
  backends; one Montgomery pre-computation per distinct ``(modulus, l)``)
  and deadline/cost dispatch ordering.
* :mod:`repro.serving.pool` — :func:`execute_batch`, the one batch
  executor both planes run, the inline plane (:class:`InlinePool`,
  batches on the caller's thread) and the shared :class:`SlotWindow`
  in-flight accounting with explicit ``QueueFull`` backpressure.
* :mod:`repro.serving.shard` — the sharded data plane: consistent-hash
  placement of batch keys onto pre-forked warm workers, coalesced
  batches crossing per-shard pipes as single binary frames, shard death
  → respawn → exactly-once requeue.
* :mod:`repro.serving.service` — the :class:`ModExpService` facade the
  CLI commands ``repro serve`` / ``repro batch`` drive.
* :mod:`repro.serving.slo` — :class:`SLOPolicy`, the cycle-budget SLO
  derived from the paper's ``3l+4`` / Eq. (10) formulas.
* :mod:`repro.serving.http` — :class:`TelemetryServer`, the ``/metrics``
  (Prometheus) + ``/healthz`` scrape endpoint ``repro serve`` can run.
* :mod:`repro.serving.wire` — the JSON-lines request/result format and
  the checksummed binary batch-frame format the shard plane speaks.
* :mod:`repro.serving.workload` — seeded workload generator (Zipf keyring
  traffic, mixed exponents, open-loop bursts, priority mix) behind
  ``repro loadgen``.
* :mod:`repro.serving.overload` — the graceful-degradation ladder:
  :class:`OverloadConfig` plus the token-bucket admission gate, CoDel
  shedder and brownout controller the service threads through its
  lifecycle under load.
* :mod:`repro.serving.health` — per-shard
  ``healthy → degraded → draining → dead`` state machines replacing the
  binary alive/dead view of the sharded data plane; the stuck detector
  recycles a wedged worker and requeues its requests, the one straggler
  path.

Self-healing (PR 5) lives in :mod:`repro.robustness` and threads through
:class:`ModExpService`: online result verification, seeded chaos fault
injection, retry with backoff, per-backend circuit breakers with
failover, and worker-crash recovery.  The policy types are re-exported
here for convenience.
"""

from repro.robustness import (
    BreakerConfig,
    ChaosConfig,
    RetryPolicy,
    VerifyPolicy,
)
from repro.serving.backends import (
    BackendCapabilities,
    BackendRegistry,
    BackendResult,
    ModExpBackend,
    default_registry,
)
from repro.serving.health import HEALTH_STATES, HealthConfig, ShardHealth
from repro.serving.http import TelemetryServer
from repro.serving.overload import (
    BrownoutController,
    CoDelShedder,
    OverloadConfig,
    TokenBucket,
)
from repro.serving.pool import InlinePool, SlotWindow, execute_batch
from repro.serving.request import ModExpRequest, ModExpResult
from repro.serving.scheduler import Batch, coalesce, lane_groups
from repro.serving.service import ModExpService
from repro.serving.shard import ShardMap, ShardPool, placement_key
from repro.serving.slo import SLOPolicy
from repro.serving.wire import (
    decode_batch_frame,
    decode_result_frame,
    encode_batch_frame,
    encode_result_frame,
    parse_request_line,
    read_frame,
    read_requests,
    request_to_json,
    result_to_json,
    write_frame,
)
from repro.serving.workload import Workload, WorkloadConfig, generate_workload

__all__ = [
    "BackendCapabilities",
    "BackendRegistry",
    "BackendResult",
    "ModExpBackend",
    "default_registry",
    "SlotWindow",
    "InlinePool",
    "execute_batch",
    "ShardMap",
    "ShardPool",
    "placement_key",
    "ModExpRequest",
    "ModExpResult",
    "Batch",
    "coalesce",
    "lane_groups",
    "ModExpService",
    "SLOPolicy",
    "TelemetryServer",
    "parse_request_line",
    "read_requests",
    "request_to_json",
    "result_to_json",
    "encode_batch_frame",
    "decode_batch_frame",
    "encode_result_frame",
    "decode_result_frame",
    "write_frame",
    "read_frame",
    "Workload",
    "WorkloadConfig",
    "generate_workload",
    "OverloadConfig",
    "TokenBucket",
    "CoDelShedder",
    "BrownoutController",
    "HEALTH_STATES",
    "HealthConfig",
    "ShardHealth",
    "BreakerConfig",
    "ChaosConfig",
    "RetryPolicy",
    "VerifyPolicy",
]
