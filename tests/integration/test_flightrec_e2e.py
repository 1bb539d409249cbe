"""End-to-end flight-recorder acceptance: chaos bit-flips leave replayable
post-mortem bundles.

The contract: a chaos-injected DFF bit-flip during a serving run must
produce a bundle whose VCD/window, parsed back, shows the flipped
register diverging from a **clean differential re-run** at exactly the
injected cycle — on both the interpreted and compiled netlist engines,
with the compiled engine's lane extraction following the faulting lane.
"""

from __future__ import annotations

from repro.analysis.fault import FaultSite
from repro.hdl.waveform import parse_vcd
from repro.observability.flightrec import (
    FlightRecorderHub,
    PostMortemBundle,
    armed,
    find_bundles,
)
from repro.robustness import ChaosConfig, RetryPolicy, VerifyPolicy
from repro.serving.backends import default_registry
from repro.serving.request import ModExpRequest
from repro.serving.service import ModExpService
from repro.serving.wire import result_to_dict
from repro.systolic.mmmc_netlist import GateLevelMMMC

N10 = 1021  # odd 10-bit modulus (the gate backend caps at 10 bits)


def _reqs(count, exponent=17):
    return [
        ModExpRequest(
            base=3 + i,
            exponent=exponent,
            modulus=N10,
            request_id=f"r{i}",
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Differential replay helpers
# ----------------------------------------------------------------------
def _flip_site(gate: GateLevelMMMC, cause: str):
    """Map a bundle's ``bit-flip on <wire>`` cause back to (class, bit)."""
    assert cause.startswith("bit-flip on "), cause
    name = cause[len("bit-flip on ") :].split(" lane ")[0].strip()
    wire_names = gate.ports.circuit.wire_names
    for cls, wires in gate.fault_sites().items():
        for idx, w in enumerate(wires):
            if wire_names[w.index] == name:
                return cls, idx
    raise AssertionError(f"cause wire {name!r} not in any register class")


def _clean_window(gate: GateLevelMMMC, x, y, n, trigger_cycle, post):
    """Re-run the faulted multiplication cleanly, windowed on the same cycle."""
    hub = FlightRecorderHub(
        dump_dir=None,
        pre=trigger_cycle + 1,
        post=post,
        triggers=[f"cycle=={trigger_cycle}"],
        fire_on_fault=False,
    )
    gate.sim.reset()  # drop residue from any earlier multiplication
    with armed(hub):
        gate.multiply(x, y, n)
    assert hub.last_bundle is not None, "clean replay never hit the trigger cycle"
    return hub.last_bundle.window


def _assert_diverges_at_trigger(bundle: PostMortemBundle, gate: GateLevelMMMC):
    """The flipped register must match the clean run before the trigger and
    differ by exactly the flipped bit at the trigger cycle."""
    meta, w = bundle.meta, bundle.window
    cls, idx = _flip_site(gate, meta["cause"])
    tc = w.trigger_cycle
    assert tc is not None and tc == meta["trigger_cycle"]
    if "x" in meta:
        x, y, n = (int(meta[k]) for k in ("x", "y", "n"))
    else:  # lane-batch capture: replay the faulting lane's operands
        lane = int(meta["lane"])
        x, y, n = (int(meta[k][lane]) for k in ("xs", "ys", "ns"))
    clean = _clean_window(gate, x, y, n, tc, post=len([c for c in w.cycles if c > tc]))
    # every captured signal agrees cycle-for-cycle before the strike...
    # (except RESULT, which holds the *previous* product until DONE — the
    # one register a from-reset replay legitimately cannot reproduce)
    for name in w.signals:
        if name == "result" and cls != "result":
            continue
        for c in w.cycles:
            if c < tc:
                assert clean.value_at(name, c) == w.value_at(name, c), (
                    f"{name} differs at pre-trigger cycle {c}"
                )
    # ...and the struck register diverges at exactly the injected cycle,
    # by exactly the injected bit.
    flipped_v, clean_v = w.value_at(cls, tc), clean.value_at(cls, tc)
    assert flipped_v is not None and clean_v is not None
    assert flipped_v ^ clean_v == 1 << idx, (
        f"{cls} at trigger cycle {tc}: faulted {flipped_v:#x} vs clean "
        f"{clean_v:#x}, expected XOR {1 << idx:#x}"
    )
    return cls, idx


def _bitflip_bundles(dump_dir):
    out = []
    for path in find_bundles(str(dump_dir)):
        b = PostMortemBundle.load(path)
        if str(b.meta.get("cause", "")).startswith("bit-flip on "):
            out.append(b)
    return out


# ----------------------------------------------------------------------
# The acceptance run: 50 requests, 5% register bit-flips, both engines
# ----------------------------------------------------------------------
class TestServingPostMortem:
    def _serve(self, backend, dump_dir, count=50):
        svc = ModExpService(
            backend=backend,
            workers=1,
            worker_kind="inline",
            chaos=ChaosConfig(
                seed=0,  # flips r4, r13, r25; their retries draw clean
                bitflip_rate=0.05,
                register_faults=True,
                flightrec_dir=str(dump_dir),
            ),
            verify=VerifyPolicy(mode="full"),
            retry=RetryPolicy(max_attempts=5, backoff_s=0.0),
        )
        try:
            return svc.process(_reqs(count))
        finally:
            svc.close()

    def test_compiled_engine_bundle_replays_divergence(self, tmp_path):
        results = self._serve("gate", tmp_path)
        # zero silent corruptions: every delivered value is correct
        assert all(r.ok for r in results)
        assert [r.value for r in results] == [
            pow(3 + i, 17, N10) for i in range(50)
        ]
        bundles = _bitflip_bundles(tmp_path)
        assert bundles, "5% bit-flip chaos over 50 requests left no dumps"
        gate = GateLevelMMMC(10, simulator="compiled")
        for bundle in bundles:
            assert bundle.meta["engine"] == "compiled"
            assert bundle.meta["backend"] == "gate"
            assert str(bundle.meta["request_id"]) in {"r4", "r13", "r25"}
            _assert_diverges_at_trigger(bundle, gate)
            # the VCD view carries the same story as the JSON window
            parsed = parse_vcd(
                open(f"{bundle.path}/{PostMortemBundle.VCD_FILE}").read()
            )
            note = " ".join(parsed.comments)
            assert f"trigger_cycle={bundle.window.trigger_cycle}" in note

    def test_interpreted_engine_bundle_replays_divergence(self, tmp_path):
        backend = default_registry().get("gate")
        # Under chaos every request runs alone, on a one-lane word of the
        # width's instance; seed the backend's instance cache with an
        # interpreted one (the netlist cycle loop runs on either simulator).
        backend._mmmcs[10] = GateLevelMMMC(10, simulator="interpreted")
        results = self._serve(backend, tmp_path, count=20)
        assert all(r.ok for r in results)
        bundles = _bitflip_bundles(tmp_path)
        assert bundles
        gate = GateLevelMMMC(10, simulator="interpreted")
        for bundle in bundles:
            assert bundle.meta["engine"] == "interpreted"
            _assert_diverges_at_trigger(bundle, gate)


# ----------------------------------------------------------------------
# Compiled lane extraction: the dump follows the faulting lane
# ----------------------------------------------------------------------
class TestCompiledLaneExtraction:
    def test_bundle_extracts_the_faulting_lane(self, tmp_path):
        l, n = 16, 0xBEEF
        xs = [0x1111, 0x2222, 0x3333, 0x4444]
        ys = [0x0123, 0x4567, 0x09AB, 0x0DEF]
        gate = GateLevelMMMC(l, simulator="compiled", lanes=4)
        hub = FlightRecorderHub(dump_dir=str(tmp_path), pre=32, post=6)
        gate.schedule_fault(FaultSite(cycle=9, register="t", index=2), lane=2)
        with armed(hub):
            runs = gate.multiply_lanes(xs, ys, [n] * 4)
        # lanes 0/1/3 are untouched by a lane-2 strike
        scalar = GateLevelMMMC(l, simulator="compiled")
        for k in (0, 1, 3):
            assert runs[k].result == scalar.multiply(xs[k], ys[k], n).result
        bundle = hub.last_bundle
        assert bundle is not None
        assert bundle.meta["lane"] == 2
        assert bundle.meta["cause"].endswith("lane 2")
        assert bundle.meta["xs"][2] == xs[2]
        # clean replay of the faulting lane's own operands lines up
        # pre-trigger and diverges by t[2] at cycle 9
        cls, idx = _assert_diverges_at_trigger(bundle, scalar)
        assert (cls, idx) == ("t", 2)
        # extraction really followed lane 2: lane 0's clean trace does not
        # match the captured pre-trigger window
        w = bundle.window
        other = _clean_window(
            scalar, xs[0], ys[0], n, w.trigger_cycle, post=0
        )
        pre = [c for c in w.cycles if c < w.trigger_cycle]
        assert any(
            other.value_at(name, c) != w.value_at(name, c)
            for name in w.signals
            for c in pre
        )


# ----------------------------------------------------------------------
# FaultDetected carries the bundle path out through the wire format
# ----------------------------------------------------------------------
class TestBundleAttachment:
    def test_verify_failure_attaches_bundle_path(self, tmp_path):
        svc = ModExpService(
            backend="gate",
            workers=1,
            worker_kind="inline",
            chaos=ChaosConfig(
                seed=3,
                bitflip_rate=1.0,
                register_faults=True,
                flightrec_dir=str(tmp_path),
            ),
            verify=VerifyPolicy(mode="full"),
            retry=RetryPolicy(max_attempts=1, backoff_s=0.0),
        )
        try:
            results = svc.process(_reqs(6))
        finally:
            svc.close()
        failed = [r for r in results if not r.ok]
        assert failed, "every injected flip was masked (unexpected at 100%)"
        attached = [r for r in failed if r.bundle_path]
        assert attached, "no FaultDetected carried a bundle path"
        for r in attached:
            bundle = PostMortemBundle.load(r.bundle_path)
            assert str(bundle.meta["request_id"]) == r.request_id
            obj = result_to_dict(r)
            assert obj["bundle_path"] == r.bundle_path
