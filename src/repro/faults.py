"""Deterministic fault injection for the measurement substrate.

Real longitudinal telescope deployments (the paper's ran eleven months
across four vantage points) suffer capture outages, BGP session resets,
and in-flight packet loss. This module models those faults as a seeded,
declarative :class:`FaultPlan` that a :class:`FaultInjector` wires into a
built deployment:

- **telescope blackouts** — a capture drops every packet whose arrival
  time falls inside a window; the window is recorded as a coverage gap
  so analyses can normalize by covered time (both the scalar and the
  batched append path share one drop counter);
- **BGP session flaps** — the T1 announcements are withdrawn through the
  controller's speaker at flap start and re-announced at flap end, the
  data plane treats T1 as unrouted for the window, and the routing-epoch
  machinery of ``route_batch`` gains boundaries at the flap edges;
- **delivery loss** — each routed packet is dropped in flight with a
  fixed probability; the coin is a pure hash of ``(dst, time)`` under a
  dedicated named seed, so enabling loss never perturbs any other stream
  and the decision for a packet is independent of routing order (the
  sharded builder relies on this);
- **store corruption** — the chunks of named telescopes are bit-flipped
  after a save, for exercising the loader's checksum quarantine path;
- **process faults** — a shard worker SIGKILLs or hangs itself at a
  given fraction of simulated time, for chaos-testing the shard
  supervisor's retry/timeout machinery (DESIGN §11). Arming a process
  fault schedules no RNG draws and no extra simulation events beyond
  the trigger marker, so a surviving attempt's corpus is unaffected.

Every injected fault increments an ``faults.*`` obs counter and the
schedule markers run inside ``fault.*`` tracing spans. An empty plan
installs nothing: a run with the fault layer enabled but no faults is
byte-identical to a run without the layer (differential-tested).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from repro import obs
from repro.errors import FaultError, StoreError

#: Valid blackout / corruption targets.
TELESCOPE_NAMES = ("T1", "T2", "T3", "T4")

#: Valid process-fault kinds.
PROCESS_FAULT_KINDS = ("kill_shard", "hang_shard")

log = obs.log.get_logger("faults")


@dataclass(frozen=True, slots=True)
class BlackoutWindow:
    """One capture outage: ``telescope`` records nothing in [start, end)."""

    telescope: str
    start: float
    end: float


@dataclass(frozen=True, slots=True)
class BgpFlap:
    """One T1 BGP session reset: withdrawn at ``start``, back at ``end``."""

    start: float
    end: float


@dataclass(frozen=True, slots=True)
class ProcessFault:
    """One worker-process fault, triggered at a fraction of sim time.

    ``kill_shard`` makes the targeted shard worker SIGKILL itself when
    its simulation clock crosses ``at_fraction * duration``; the
    supervisor sees a dead process with exitcode -9. ``hang_shard``
    makes it spin forever at that point, exercising the wall-clock
    timeout path. ``max_attempt`` bounds which execution attempts fire
    the fault: the default 1 faults only the first try (so a retry
    succeeds); a large value faults every attempt (so the shard
    exhausts its budget and quarantine/strict handling kicks in).
    """

    kind: str
    shard: int
    at_fraction: float
    max_attempt: int = 1


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, deterministic schedule of substrate faults.

    All times are absolute simulation seconds. The plan is pure data:
    two plans with equal fields produce identical fault behavior for the
    same master seed.
    """

    blackouts: tuple[BlackoutWindow, ...] = ()
    flaps: tuple[BgpFlap, ...] = ()
    #: probability that a routed packet is lost in flight ([0, 1)).
    loss_rate: float = 0.0
    #: telescopes whose stored chunks to corrupt after a save.
    corrupt_segments: tuple[str, ...] = ()
    #: worker-process faults (sharded runs only; ignored in-coordinator).
    process_faults: tuple[ProcessFault, ...] = ()

    def is_empty(self) -> bool:
        return (not self.blackouts and not self.flaps
                and self.loss_rate == 0.0 and not self.corrupt_segments
                and not self.process_faults)

    def validate(self) -> None:
        for window in self.blackouts:
            if window.telescope not in TELESCOPE_NAMES:
                raise FaultError(
                    f"blackout names unknown telescope {window.telescope!r}")
            if not (0.0 <= window.start < window.end):
                raise FaultError(
                    f"invalid blackout window [{window.start}, {window.end})")
        for flap in self.flaps:
            if not (0.0 <= flap.start < flap.end):
                raise FaultError(
                    f"invalid flap window [{flap.start}, {flap.end})")
        if not (0.0 <= self.loss_rate < 1.0):
            raise FaultError(f"loss_rate must be in [0, 1), "
                             f"got {self.loss_rate}")
        for name in self.corrupt_segments:
            if name not in TELESCOPE_NAMES:
                raise FaultError(f"unknown corrupt segment {name!r}")
        for fault in self.process_faults:
            if fault.kind not in PROCESS_FAULT_KINDS:
                raise FaultError(
                    f"unknown process fault kind {fault.kind!r} "
                    f"(expected one of {PROCESS_FAULT_KINDS})")
            if fault.shard < 0:
                raise FaultError(
                    f"process fault shard must be >= 0, got {fault.shard}")
            if not (0.0 <= fault.at_fraction <= 1.0):
                raise FaultError(
                    f"process fault at_fraction must be in [0, 1], "
                    f"got {fault.at_fraction}")
            if fault.max_attempt < 1:
                raise FaultError(
                    f"process fault max_attempt must be >= 1, "
                    f"got {fault.max_attempt}")

    def blackouts_for(self, telescope: str) \
            -> tuple[tuple[float, float], ...]:
        """Sorted (start, end) blackout windows of one telescope."""
        return tuple(sorted(
            (w.start, w.end) for w in self.blackouts
            if w.telescope == telescope))

    # -- (de)serialization -------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({
            "blackouts": [{"telescope": w.telescope, "start": w.start,
                           "end": w.end} for w in self.blackouts],
            "flaps": [{"start": f.start, "end": f.end} for f in self.flaps],
            "loss_rate": self.loss_rate,
            "corrupt_segments": list(self.corrupt_segments),
            "process_faults": [
                {"kind": p.kind, "shard": p.shard,
                 "at_fraction": p.at_fraction,
                 "max_attempt": p.max_attempt}
                for p in self.process_faults],
        }, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise FaultError("fault plan must be a JSON object")
        unknown = set(raw) - {"blackouts", "flaps", "loss_rate",
                              "corrupt_segments", "process_faults"}
        if unknown:
            raise FaultError(f"unknown fault plan keys: {sorted(unknown)}")
        try:
            plan = cls(
                blackouts=tuple(
                    BlackoutWindow(telescope=b["telescope"],
                                   start=float(b["start"]),
                                   end=float(b["end"]))
                    for b in raw.get("blackouts", ())),
                flaps=tuple(
                    BgpFlap(start=float(f["start"]), end=float(f["end"]))
                    for f in raw.get("flaps", ())),
                loss_rate=float(raw.get("loss_rate", 0.0)),
                corrupt_segments=tuple(raw.get("corrupt_segments", ())),
                process_faults=tuple(
                    ProcessFault(kind=p["kind"], shard=int(p["shard"]),
                                 at_fraction=float(p["at_fraction"]),
                                 max_attempt=int(p.get("max_attempt", 1)))
                    for p in raw.get("process_faults", ())))
        except (KeyError, TypeError, ValueError) as exc:
            raise FaultError(f"malformed fault plan entry: {exc}") from exc
        plan.validate()
        return plan

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        path = Path(path)
        if not path.exists():
            raise FaultError(f"no fault plan at {path}")
        return cls.from_json(path.read_text())


@dataclass
class FaultInjector:
    """Wires a :class:`FaultPlan` into a built deployment.

    The injector is part of the simulated world once installed: its flap
    and marker callbacks sit in the event queue.
    """

    plan: FaultPlan
    seed: int = 0
    installed: bool = field(default=False, init=False)
    blackouts_started: int = field(default=0, init=False)
    flaps_fired: int = field(default=0, init=False)

    def install(self, deployment, control_plane: bool = True) -> None:
        """Arm every fault of the plan on ``deployment``.

        An empty plan is a strict no-op: no events are scheduled, no RNG
        streams are created, and the run is byte-identical to one without
        the fault layer.

        ``control_plane=False`` arms only the data-plane side of the
        plan — blackout windows, T1 outage edges for the routing epochs,
        delivery loss — and skips the flap withdraw/re-announce events.
        Shard workers replaying a recorded collector feed use this: the
        flap's BGP activity already happened in the coordinator's
        recording pass and is baked into the journal they replay, so
        running it again would double-inject the control-plane fault.
        """
        if self.installed:
            raise FaultError("fault injector already installed")
        self.plan.validate()
        self.installed = True
        if self.plan.is_empty():
            return
        with obs.span("fault.install",
                      blackouts=len(self.plan.blackouts),
                      flaps=len(self.plan.flaps),
                      loss_rate=self.plan.loss_rate):
            simulator = deployment.simulator
            for name, telescope in deployment.telescopes.items():
                windows = self.plan.blackouts_for(name)
                if not windows:
                    continue
                telescope.capture.blackout_windows = windows
                for start, end in windows:
                    simulator.schedule_at(
                        start, partial(self._blackout_marker, name,
                                       start, end),
                        label=f"fault:blackout:{name}")
            for flap in self.plan.flaps:
                deployment.add_t1_outage(flap.start, flap.end)
                if not control_plane:
                    continue
                simulator.schedule_at(
                    flap.start, partial(self._flap_down, deployment, flap),
                    label="fault:flap-down")
                simulator.schedule_at(
                    flap.end, partial(self._flap_up, deployment, flap),
                    label="fault:flap-up")
            if self.plan.loss_rate > 0.0:
                deployment.loss_rate = self.plan.loss_rate
                deployment.loss_seed = \
                    deployment.streams.seed_for("faults.loss")

    def arm_process_faults(self, simulator, *, shard: int, duration: float,
                           attempt: int = 1) -> int:
        """Schedule this shard's process faults on its worker simulator.

        Called by the shard worker body, not by :meth:`install`: process
        faults target the worker's own process, and must re-arm (or not)
        per attempt. Faults for other shards and attempts past the
        fault's ``max_attempt`` are skipped. Returns the number of
        faults armed. Arming draws no RNG and the trigger fires strictly
        at its scheduled sim time, so a surviving attempt's output is
        byte-identical to an unfaulted run.
        """
        armed = 0
        for fault in self.plan.process_faults:
            if fault.shard != shard or attempt > fault.max_attempt:
                continue
            when = fault.at_fraction * duration
            simulator.schedule_at(
                when, partial(self._trigger_process_fault, fault, shard,
                              attempt),
                label=f"fault:{fault.kind}")
            armed += 1
        return armed

    def _trigger_process_fault(self, fault: ProcessFault, shard: int,
                               attempt: int) -> None:
        obs.event("fault.process", kind=fault.kind, shard=shard,
                  attempt=attempt)
        log.warning("fault: %s firing in shard %d (attempt %d, pid %d)",
                    fault.kind, shard, attempt, os.getpid())
        if fault.kind == "kill_shard":
            # Die the way a real OOM kill does: no cleanup, no flush.
            os.kill(os.getpid(), signal.SIGKILL)
        # hang_shard: stop consuming the event queue forever. The
        # supervisor's wall-clock timeout is the only way out.
        while True:  # pragma: no cover - killed externally
            time.sleep(60.0)

    # -- scheduled fault callbacks ----------------------------------------

    def _blackout_marker(self, telescope: str, start: float,
                         end: float) -> None:
        """Sim-time marker at a blackout's start (obs accounting only).

        The drop itself is time-based in the capture, which keeps the
        scalar and deferred-batch append paths consistent — a session
        materialized after the run still loses exactly the packets whose
        arrival times fall inside the window.
        """
        self.blackouts_started += 1
        obs.add("faults.blackouts_total", telescope=telescope)
        obs.event("fault.blackout", telescope=telescope,
                  start=start, end=end)
        log.info("fault: %s blackout [%.0f, %.0f) begins",
                 telescope, start, end)

    def _flap_down(self, deployment, flap: BgpFlap) -> None:
        """Withdraw the active T1 announcements (session reset)."""
        with obs.span("fault.bgp_flap", phase="down"):
            self.flaps_fired += 1
            obs.add("faults.bgp_flaps_total")
            controller = deployment.controller
            cycle = controller.cycle_at(flap.start)
            if cycle is None:
                return  # flap started inside a scheduled withdrawal gap
            for prefix in cycle.prefixes:
                controller.speaker.withdraw_origin(prefix)
            obs.add("bgp.withdrawals_total", len(cycle.prefixes))
            obs.event("fault.flap", phase="down", start=flap.start,
                      end=flap.end, prefixes=len(cycle.prefixes))
            log.info("fault: BGP flap withdrew %d prefixes at t=%.0f",
                     len(cycle.prefixes), flap.start)

    def _flap_up(self, deployment, flap: BgpFlap) -> None:
        """Re-announce whatever cycle is scheduled to be active now."""
        with obs.span("fault.bgp_flap", phase="up"):
            controller = deployment.controller
            cycle = controller.cycle_at(flap.end)
            if cycle is None:
                return
            for prefix in cycle.prefixes:
                controller.speaker.originate(prefix)
            obs.add("bgp.announcements_total", len(cycle.prefixes))
            obs.event("fault.flap", phase="up", start=flap.start,
                      end=flap.end, prefixes=len(cycle.prefixes))

    # -- store corruption ---------------------------------------------------

    def corrupt_store(self, directory: str | Path) -> list[Path]:
        """Corrupt the planned telescopes of a saved corpus (bit flips).

        Flips one byte in the middle third of every ``time`` column file
        of the telescope's chunks, in manifest order — enough to fail
        each chunk's content checksum, which is how silent on-disk
        corruption usually presents, so a lenient load quarantines all
        of the telescope's chunks. Offsets are seed-determined. Returns
        the corrupted paths.
        """
        from repro.experiment.store import chunk_paths
        rng = np.random.default_rng(self.seed ^ 0xFA17)
        corrupted: list[Path] = []

        def flip(path: Path) -> None:
            blob = bytearray(path.read_bytes())
            if not blob:
                raise FaultError(f"chunk file {path} is empty")
            lo, hi = len(blob) // 3, max(len(blob) // 3 + 1,
                                         2 * len(blob) // 3)
            offset = int(rng.integers(lo, hi))
            blob[offset] ^= 0xFF
            path.write_bytes(bytes(blob))
            obs.add("faults.segments_corrupted_total")
            obs.event("fault.corrupt", path=str(path), offset=offset)
            corrupted.append(path)

        for name in self.plan.corrupt_segments:
            try:
                paths = chunk_paths(directory, name, "time")
            except StoreError as exc:
                raise FaultError(f"no store to corrupt: {exc}") from exc
            if not paths:
                raise FaultError(f"no chunks of {name} to corrupt in "
                                 f"{directory}")
            for path in paths:
                flip(path)
        return corrupted
