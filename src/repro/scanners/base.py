"""Scanner agent framework.

A :class:`Scanner` is one localizable scan source (paper §3.3): it owns a
/64 inside its AS's source prefix, a temporal behavior (one-off, periodic,
or intermittent — the ground truth for §5.1), a network-selection policy
(§5.2), an address-selection strategy (§5.3), a protocol/port profile, and
optionally a tool signature whose payload its probes carry (§5.4).

Scanners interact with the world only through a :class:`ScannerContext`,
which routes emitted packets into whichever telescope owns the destination.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro import obs
from repro.bgp.collector import CollectorEntry, RouteCollector
from repro.bgp.messages import UpdateKind
from repro.errors import ExperimentError
from repro.net.addr import random_bits
from repro.net.prefix import Prefix
from repro.scanners.registry import ASRecord
from repro.scanners.tools import ToolSignature
from repro.sim.clock import HOUR
from repro.sim.events import Simulator

_MASK64 = (1 << 64) - 1
#: 64-bit golden-ratio multiplier of the source-IID rotation hash.
_GOLDEN = 0x9E3779B97F4A7C15
#: sample one batch-emission span out of this many sessions, so traces
#: show the kernel without per-session span overhead distorting it.
_SPAN_SAMPLE = 256


if TYPE_CHECKING:  # pragma: no cover
    from repro.scanners.netselect import NetworkPolicy
    from repro.scanners.strategies import AddressStrategy, ProtocolProfile


@dataclass(frozen=True, slots=True)
class ConstPackets:
    """Session-size sampler returning a constant count.

    A small callable dataclass rather than a closure: the shard cost
    model (:func:`repro.experiment.sharding.scanner_weight`) reads the
    count off the sampler.
    """

    n: int

    def __call__(self, rng: np.random.Generator) -> int:
        return self.n


@dataclass(frozen=True, slots=True)
class UniformPackets:
    """Session-size sampler: uniform integer in [low, high]."""

    low: int
    high: int

    def __call__(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))


@dataclass(frozen=True, slots=True)
class UniformDelay:
    """Reaction-delay sampler: uniform float in [low, high] seconds."""

    low: float
    high: float

    def __call__(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))


class TemporalKind(enum.Enum):
    """Ground-truth temporal behavior (§5.1)."""

    ONE_OFF = "one-off"
    PERIODIC = "periodic"
    INTERMITTENT = "intermittent"
    #: no internal schedule; sessions only fire on BGP feed reactions.
    REACTIVE = "reactive"


@dataclass(slots=True)
class TemporalBehavior:
    """When a scanner fires its sessions.

    Attributes:
        kind: the taxonomy class the schedule should realize.
        period: inter-session period for periodic scanners (seconds).
        mean_gap: mean inter-session gap for intermittent scanners.
        jitter: uniform jitter applied to periodic firing times.
        first_at: offset of the first session inside the active window;
            ``None`` draws it uniformly at random.
    """

    kind: TemporalKind
    period: float = 0.0
    mean_gap: float = 0.0
    jitter: float = 0.0
    first_at: float | None = None

    def session_times(self, window_start: float, window_end: float,
                      rng: np.random.Generator) -> list[float]:
        """All firing times inside [window_start, window_end)."""
        if window_end <= window_start:
            return []
        if self.kind is TemporalKind.REACTIVE:
            return []
        span = window_end - window_start
        if self.first_at is not None:
            first = window_start + self.first_at
        elif self.kind is TemporalKind.PERIODIC and self.period > 0:
            # a recurring scanner's first visit arrives within one period
            first = window_start + float(rng.uniform(0.0, self.period))
        elif self.kind is TemporalKind.INTERMITTENT and self.mean_gap > 0:
            # renewal process: the first arrival is exponentially
            # distributed like every later gap
            first = window_start + float(rng.exponential(self.mean_gap))
        else:
            first = window_start + float(rng.uniform(0.0, span))
        if self.kind is TemporalKind.ONE_OFF:
            return [first] if first < window_end else []
        if self.kind is TemporalKind.PERIODIC:
            if self.period <= 0:
                raise ExperimentError("periodic scanner needs a period")
            times = []
            t = first
            while t < window_end:
                jitter = float(rng.uniform(-self.jitter, self.jitter)) \
                    if self.jitter else 0.0
                times.append(min(max(t + jitter, window_start),
                                 window_end - 1.0))
                t += self.period
            return times
        if self.mean_gap <= 0:
            raise ExperimentError("intermittent scanner needs a mean gap")
        times = []
        t = first
        while t < window_end:
            times.append(t)
            t += float(rng.exponential(self.mean_gap))
        return times


class SourceModel(enum.Enum):
    """How a scanner uses source addresses inside its /64 (§6, T2)."""

    FIXED = "fixed"              # one stable /128
    PER_SESSION = "per-session"  # fresh IID each session
    PER_PORT = "per-port"        # fresh IID per destination port (vertical)


@dataclass(frozen=True, slots=True)
class _PendingSession:
    """One fired-but-not-yet-materialized scan session.

    Captures exactly the draws that must happen at firing time — the
    network selection (announcement-dependent), the session size, and the
    rotation nonce — so the packet columns can materialize later without
    changing any time-sensitive behavior.
    """

    when: float
    prefixes: tuple
    counts: tuple
    nonce: int


@dataclass
class ScannerContext:
    """Interface between scanner agents and the simulated world."""

    simulator: Simulator
    #: ``(dst_hi, dst_lo, time) -> (slots, telescopes)``: each row's slot
    #: indexes ``telescopes``, ``-1`` meaning unrouted
    #: (:meth:`repro.telescope.deployment.Deployment.route_batch`, or
    #: :func:`repro.telescope.telescope.prefix_router` over fixed
    #: telescope prefixes).
    route: Callable
    collector: RouteCollector | None = None
    window_start: float = 0.0
    window_end: float = 0.0
    packets_emitted: int = 0
    packets_unrouted: int = 0
    #: when True, sessions accumulate per scanner and materialize in one
    #: cross-session kernel call each at :meth:`flush_batches` —
    #: amortizing the per-batch NumPy overhead over thousands of rows.
    defer_batch: bool = False
    _pending: dict = field(default_factory=dict, repr=False)

    def flush_batches(self) -> int:
        """Materialize every deferred session; returns rows emitted.

        Each scanner's sessions flush in firing order through its own
        private RNG, so a fixed seed always yields the same corpus. The
        cross-session draw order differs from flushing after every fire
        (protocol/gap/payload draws cover the whole stream at once), so
        deferred and immediate runs agree in distribution, not
        packet-for-packet.

        Scanners flush in ``scanner_id`` order, not first-fire order:
        each flushes through its own private RNG, so the order is free —
        and a canonical order makes the capture row layout independent
        of event interleaving, which is what lets a sharded build merge
        worker segments back into the exact unsharded byte layout
        (DESIGN §8).
        """
        pending, self._pending = self._pending, {}
        total = 0
        for scanner in sorted(pending, key=lambda s: s.scanner_id):
            sessions = pending[scanner]
            with obs.span("scanner.batch_emit", scanner=scanner.name,
                          sessions=len(sessions)):
                total += scanner._flush_sessions(self, sessions)
        return total

    def inject_batch(self, time, src_hi, src_lo, dst_hi, dst_lo, protocol,
                     dst_port, src_asn, scanner_id,
                     payload_id: np.ndarray | None = None,
                     payloads: list[bytes] | None = None) -> int:
        """Deliver a packet train as columns; returns the probes answered.

        Routes every row by the table in force at its own timestamp and
        hands each telescope its slice in one call. Constant columns
        (``src_hi``, ``src_lo``, ``src_asn``, ``scanner_id``) may come in
        as scalars and are broadcast here. Every row counts as emitted,
        routed or not.
        """
        n = len(time)
        if n == 0:
            return 0
        src_hi = _as_column(src_hi, n)
        src_lo = _as_column(src_lo, n)
        src_asn = _as_column(src_asn, n)
        scanner_id = _as_column(scanner_id, n)
        self.packets_emitted += n
        slots, telescopes = self.route(dst_hi, dst_lo, time)
        counts = np.bincount(slots.astype(np.int64) + 1,
                             minlength=len(telescopes) + 1)
        self.packets_unrouted += int(counts[0])
        answered = 0
        for slot, telescope in enumerate(telescopes):
            routed = int(counts[slot + 1])
            if not routed:
                continue
            if routed == n:
                answered += telescope.deliver_batch(
                    time, src_hi, src_lo, dst_hi, dst_lo, protocol,
                    dst_port, src_asn, scanner_id,
                    payload_id=payload_id, payloads=payloads)
                break
            rows = np.flatnonzero(slots == slot)
            sub_ids, sub_payloads = _subset_payloads(
                payload_id, payloads, rows)
            answered += telescope.deliver_batch(
                time[rows], src_hi[rows], src_lo[rows], dst_hi[rows],
                dst_lo[rows], protocol[rows], dst_port[rows],
                src_asn[rows], scanner_id[rows],
                payload_id=sub_ids, payloads=sub_payloads)
        return answered


def _as_column(value, n: int) -> np.ndarray:
    """Broadcast a scalar column to ``n`` rows (arrays pass through)."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(n, arr)
    return arr


def _subset_payloads(payload_id: np.ndarray | None,
                     payloads: list[bytes] | None,
                     rows: np.ndarray) -> tuple[np.ndarray | None,
                                                list[bytes] | None]:
    """Re-key a payload side list for a row subset (split sessions only)."""
    if payload_id is None or payloads is None:
        return None, None
    ids = payload_id[rows]
    hit = ids >= 0
    if not hit.any():
        return None, None
    used, inverse = np.unique(ids[hit], return_inverse=True)
    subset = [payloads[int(u)] for u in used]
    new_ids = np.full(len(rows), -1, dtype=np.int64)
    new_ids[hit] = inverse
    return new_ids, subset


@dataclass(eq=False)
class Scanner:
    """One scan source with full generative behavior.

    Agents compare (and hash) by identity so a context can key its
    deferred-session queue by scanner.
    """

    scanner_id: int
    name: str
    as_record: ASRecord
    temporal: TemporalBehavior
    network_policy: "NetworkPolicy"
    addr_strategy: "AddressStrategy"
    protocol_profile: "ProtocolProfile"
    rng: np.random.Generator
    packets_per_session: Callable[[np.random.Generator], int]
    tool: ToolSignature | None = None
    payload_probability: float = 0.0
    #: reverse-DNS name registered for the scanner's fixed source address.
    rdns_name: str = ""
    #: ground-truth labels for validation (never read by the analyses).
    truth_network_class: str = ""
    truth_address_class: str = ""
    source_model: SourceModel = SourceModel.FIXED
    source_subnet_index: int = 0
    #: mean intra-session packet gap (seconds); must stay < 1h so a burst
    #: remains one session under the paper's timeout.
    mean_packet_gap: float = 0.25
    #: when True, each selected prefix is probed as its own scan job,
    #: separated by more than the session timeout — one firing then
    #: produces one session *per announced prefix* (the mechanism behind
    #: the paper's +555% session growth during the split period).
    spread_prefix_sessions: bool = False
    #: when set, the scanner reacts to new BGP announcements: it fires an
    #: extra session ``reaction_delay()`` seconds after each feed entry.
    reaction_delay: Callable[[np.random.Generator], float] | None = None
    #: restrict activity to [active_start, active_end); None = full window.
    active_start: float | None = None
    active_end: float | None = None
    #: pin the fixed-source IID (lets two campaigns share one address, §7.2).
    fixed_iid: int | None = None
    sessions_fired: int = field(default=0, init=False)
    _fixed_iid: int = field(default=0, init=False)
    _seq: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.fixed_iid is not None:
            self._fixed_iid = self.fixed_iid or 1
        else:
            self._fixed_iid = random_bits(self.rng, 64) or 1

    # -- source addresses ---------------------------------------------------

    @property
    def source_subnet(self) -> Prefix:
        """The scanner's /64 inside its AS source prefix."""
        return self.as_record.source_prefix.subnet(
            64, self.source_subnet_index % (1 << 16))

    #: rotating scanners cycle through a bounded pool of interface IDs —
    #: the paper's T2 saw ~3x as many /128 as /64 sources, not unbounded
    #: fresh addresses per session.
    ROTATION_POOL = 4

    def source_address(self, port: int = 0, session_nonce: int = 0) -> int:
        """Current source address under the scanner's rotation model."""
        subnet = self.source_subnet
        if self.source_model is SourceModel.FIXED:
            iid = self._fixed_iid
        elif self.source_model is SourceModel.PER_SESSION:
            slot = session_nonce % self.ROTATION_POOL
            iid = (self._fixed_iid ^ (slot * 0x9E3779B97F4A7C15)) \
                & ((1 << 64) - 1) or 1
        else:
            # vertical scans rotate per destination port; the same port
            # maps to the same address across sessions
            iid = (self._fixed_iid ^ (port * 0x9E3779B97F4A7C15)) \
                & ((1 << 64) - 1) or 1
        return subnet.network | iid

    # -- scheduling -----------------------------------------------------------

    def window(self, ctx: ScannerContext) -> tuple[float, float]:
        start = ctx.window_start if self.active_start is None \
            else max(ctx.window_start, self.active_start)
        end = ctx.window_end if self.active_end is None \
            else min(ctx.window_end, self.active_end)
        return start, end

    def start(self, ctx: ScannerContext) -> None:
        """Schedule all internally triggered sessions; hook BGP reactions."""
        start, end = self.window(ctx)
        for t in self.temporal.session_times(start, end, self.rng):
            ctx.simulator.schedule_at(
                max(t, ctx.simulator.now), partial(self.fire, ctx, t),
                label=f"scan:{self.name}")
        if self.reaction_delay is not None:
            if ctx.collector is None:
                raise ExperimentError(
                    f"reactive scanner {self.name} needs a collector feed")
            ctx.collector.subscribe(partial(self._on_feed, ctx))

    def _on_feed(self, ctx: ScannerContext, time: float,
                 entry: CollectorEntry) -> None:
        if entry.kind is not UpdateKind.ANNOUNCE:
            return
        start, end = self.window(ctx)
        assert self.reaction_delay is not None
        fire_at = time + float(self.reaction_delay(self.rng))
        if start <= fire_at < end:
            ctx.simulator.schedule_at(
                max(fire_at, ctx.simulator.now),
                partial(self.fire, ctx, fire_at, entry.prefix),
                label=f"scan-react:{self.name}")

    # -- session emission --------------------------------------------------------

    def fire(self, ctx: ScannerContext, when: float,
             trigger: Prefix | None = None) -> int:
        """Emit one scan session starting at ``when``; returns packet count.

        With ``ctx.defer_batch`` the session is only *resolved* here (the
        time-dependent draws: network selection, session size, nonce) and
        the packet columns materialize later in
        :meth:`ScannerContext.flush_batches`; the returned count is then
        the requested target count, which an address strategy may trim.
        """
        selections = self.network_policy.select(ctx, self.rng, trigger)
        if not selections:
            return 0
        total = max(1, int(self.packets_per_session(self.rng)))
        self.sessions_fired += 1
        weight_sum = sum(w for _, w in selections)
        session = _PendingSession(
            when=when,
            prefixes=tuple(p for p, _ in selections),
            counts=tuple(max(1, round(total * w / weight_sum))
                         for _, w in selections),
            nonce=self.sessions_fired)
        if ctx.defer_batch:
            ctx._pending.setdefault(self, []).append(session)
            return sum(session.counts)
        if self.sessions_fired % _SPAN_SAMPLE == 1:
            with obs.span("scanner.batch_emit", scanner=self.name,
                          sessions=1):
                return self._flush_sessions(ctx, [session])
        return self._flush_sessions(ctx, [session])

    def _flush_sessions(self, ctx: ScannerContext,
                        sessions: list["_PendingSession"]) -> int:
        """Emit resolved sessions as one NumPy column batch (the hot path).

        Canonical RNG draw order: per session in firing order — prefix
        spreading gaps, then each prefix's targets — followed by one
        protocol/port draw, one inter-packet-gap draw, one payload mask
        and one payload-tail draw covering every packet of the batch, so
        a fixed seed yields a byte-identical batch. Returns its rows.
        """
        from repro.scanners.strategies import split_targets
        rng = self.rng
        batch_gen = getattr(self.addr_strategy, "generate_batch", None)
        spread = self.spread_prefix_sessions
        seg_hi: list[np.ndarray] = []       # per-segment target columns
        seg_lo: list[np.ndarray] = []
        seg_len: list[int] = []
        seg_offset: list[float] = []        # segment start offset in session
        sess_len: list[int] = []            # non-empty sessions only
        sess_when: list[float] = []
        sess_nonce: list[int] = []
        for session in sessions:
            k = len(session.prefixes)
            extras = rng.uniform(1.25 * HOUR, 2.5 * HOUR, size=k - 1) \
                if spread and k > 1 else None
            offset = 0.0
            this_len = 0
            for j, (prefix, count) in enumerate(zip(session.prefixes,
                                                    session.counts)):
                pair = batch_gen(prefix, count, rng) \
                    if batch_gen is not None else None
                if pair is None:
                    pair = split_targets(
                        self.addr_strategy.generate(prefix, count, rng))
                m = len(pair[0])
                if m:
                    seg_hi.append(pair[0])
                    seg_lo.append(pair[1])
                    seg_len.append(m)
                    seg_offset.append(offset)
                    this_len += m
                if extras is not None and j < k - 1:
                    # each later prefix becomes its own observed session
                    # (> 1h timeout gap)
                    offset += extras[j]
            if this_len:
                sess_len.append(this_len)
                sess_when.append(session.when)
                sess_nonce.append(session.nonce)
        n = sum(seg_len)
        if n == 0:
            return 0
        if len(seg_hi) == 1:
            dst_hi, dst_lo = seg_hi[0], seg_lo[0]
        else:
            dst_hi = np.concatenate(seg_hi)
            dst_lo = np.concatenate(seg_lo)

        protocols, ports = self.protocol_profile.sample_batch(rng, n)

        # one continuous exponential gap chain per session, re-anchored at
        # each session's firing time (and shifted per spread segment)
        gaps = rng.exponential(self.mean_packet_gap, size=n)
        chain = np.cumsum(gaps) - gaps
        lengths = np.asarray(sess_len)
        starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        times = np.repeat(np.asarray(sess_when) - chain[starts],
                          lengths) + chain
        if spread and len(seg_len) > len(sess_len):
            times = times + np.repeat(seg_offset, seg_len)

        payload_id = None
        payloads = None
        if self.tool is not None and self.payload_probability > 0:
            hits = rng.random(n) < self.payload_probability
            k = int(np.count_nonzero(hits))
            if k:
                payloads = self.tool.payload_batch(rng, self._seq + 1, k)
                self._seq += k
                payload_id = np.full(n, -1, dtype=np.int64)
                payload_id[hits] = np.arange(k)

        subnet = self.source_subnet
        src_hi = np.uint64(subnet.network >> 64)
        if self.source_model is SourceModel.PER_PORT:
            iid = np.uint64(self._fixed_iid) \
                ^ (ports.astype(np.uint64) * np.uint64(_GOLDEN))
            src_lo = np.where(iid == 0, np.uint64(1), iid)
        elif self.source_model is SourceModel.PER_SESSION:
            slots = np.asarray(sess_nonce, dtype=np.uint64) \
                % np.uint64(self.ROTATION_POOL)
            iid = np.uint64(self._fixed_iid) \
                ^ (slots * np.uint64(_GOLDEN))
            src_lo = np.repeat(np.where(iid == 0, np.uint64(1), iid),
                               lengths)
        else:
            src_lo = np.uint64(self._fixed_iid)

        obs.add("sim.packets_emitted_batch_total", n)
        ctx.inject_batch(
            times, src_hi, src_lo, dst_hi, dst_lo, protocols, ports,
            np.uint32(self.as_record.asn), np.int64(self.scanner_id),
            payload_id=payload_id, payloads=payloads)
        return n

    def validate(self) -> None:
        """Sanity-check the configuration against session semantics."""
        if self.mean_packet_gap >= HOUR:
            raise ExperimentError(
                f"{self.name}: intra-session gap {self.mean_packet_gap}s "
                "would split sessions under the 1h timeout")
