"""Deterministic fault injection for the simulated RDMA fabric.

The paper's NAM architecture assumes a reliable fabric, but one-sided
designs are fragile in practice: a client that dies holding a remote
spinlock wedges a subtree, and a lost completion leaves an atomic's
outcome unknown. This module turns the simulator into a testbed for those
scenarios. A :class:`FaultPlan` *describes* what goes wrong — per-verb and
per-server message drop/delay/duplication probabilities plus scheduled
memory-server crash/restart windows and compute-server kills — and a
:class:`FaultInjector` *executes* it, drawing every probabilistic decision
from one seeded RNG so a given (plan, workload seed) pair replays
byte-identically.

Fault model in one paragraph: message-level faults apply to non-local
verb traffic only (the co-located fast path never touches the fabric).
The transport below the injector behaves like an InfiniBand reliable
connection — retransmitted requests are deduplicated by sequence number,
so a verb's memory effect is applied *at most once* no matter how many
attempts its client makes; what the client loses with a dropped response
is *knowledge* of the outcome, surfaced as
:class:`~repro.errors.RetriesExhaustedError` when the retry budget is
spent. A crashed memory server keeps its registered region (think
battery-backed NVM or a process restart) but loses every queued and
in-flight request; a crashed compute server simply stops executing,
leaving any remote locks it held to be lease-stolen by survivors (see
:mod:`repro.index.accessors`).

Attach a plan with :meth:`repro.nam.cluster.Cluster.attach_faults`::

    plan = FaultPlan(seed=7, drop_probability=0.05,
                     server_crashes=(ServerCrash(1, at_s=0.005,
                                                 down_for_s=0.003),))
    injector = cluster.attach_faults(plan)
    ... run workload; operations may raise TimeoutError_ subclasses ...
    injector.quiesce()   # stop message faults, keep lease recovery
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional, Tuple

import numpy as np

from repro.config import RetryConfig
from repro.errors import ConfigurationError
from repro.rdma.verbs import Verb
from repro.sim import Process, Simulator

__all__ = ["ServerCrash", "ComputeCrash", "FaultPlan", "FaultInjector"]


@dataclass(frozen=True)
class ServerCrash:
    """A memory server goes down at ``at_s`` and restarts ``down_for_s``
    later. While down, every message to or from it is lost and the SRQ is
    wiped (its crash epoch advances). Without replication
    (``replication_factor == 1``) the registered region survives — think
    battery-backed NVM. With replication the crash is *destructive*: the
    host's region and every backup copy it held are zeroed, and state
    comes back only through failover to the surviving replicas."""

    server_id: int
    at_s: float
    down_for_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0 or self.down_for_s <= 0:
            raise ConfigurationError("crash times must be >= 0 / down_for_s > 0")


@dataclass(frozen=True)
class ComputeCrash:
    """A compute server is killed at ``at_s``: every client process
    registered for it is abandoned mid-operation (locks stay behind)."""

    server_id: int
    at_s: float

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ConfigurationError("at_s must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A declarative, seeded schedule of what goes wrong.

    ``drop_probability`` / ``delay_probability`` / ``duplicate_probability``
    apply per message (request and response legs draw independently).
    ``verb_drop`` overrides the drop probability for specific verbs and
    ``server_drop`` for specific destination servers; precedence is
    server > verb > global. :meth:`FaultInjector.quiesce` stops message
    faults (crash schedules run regardless), which lets a chaos run end
    with a clean verification phase. The default plan is a no-op.
    """

    seed: int = 0
    drop_probability: float = 0.0
    delay_probability: float = 0.0
    #: Extra latency added to a delayed (not dropped) message.
    delay_s: float = 20e-6
    duplicate_probability: float = 0.0
    verb_drop: Mapping[Verb, float] = field(default_factory=dict)
    server_drop: Mapping[int, float] = field(default_factory=dict)
    server_crashes: Tuple[ServerCrash, ...] = ()
    compute_crashes: Tuple[ComputeCrash, ...] = ()

    def __post_init__(self) -> None:
        for name in ("drop_probability", "delay_probability",
                     "duplicate_probability"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {p}")
        for p in list(self.verb_drop.values()) + list(self.server_drop.values()):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"drop override must be in [0, 1], got {p}")
        if self.delay_s < 0:
            raise ConfigurationError("delay_s must be >= 0")

    def faults_messages(self) -> bool:
        """True when some message has a probability of being dropped,
        delayed or duplicated."""
        return bool(
            self.drop_probability
            or self.delay_probability
            or self.duplicate_probability
            or any(self.verb_drop.values())
            or any(self.server_drop.values())
        )

    def is_noop(self) -> bool:
        """True when the plan injects nothing at all."""
        return not (
            self.faults_messages() or self.server_crashes or self.compute_crashes
        )


class FaultInjector:
    """Executes a :class:`FaultPlan` against one cluster.

    Queue pairs, memory-server workers and node accessors consult the
    injector at well-defined points; when no injector is attached those
    code paths are skipped entirely, so the happy path is bit-identical to
    a fault-free build. All randomness comes from one
    ``numpy`` Generator seeded with ``plan.seed``; decisions are drawn in
    simulation order, so runs replay deterministically.
    """

    def __init__(self, sim: Simulator, plan: FaultPlan, retry: RetryConfig) -> None:
        self.sim = sim
        self.plan = plan
        self.retry = retry
        self.rng = np.random.default_rng(plan.seed)
        self._cluster = None
        #: Optional :class:`repro.obs.hub.Observability` hub; crash/restart
        #: events feed its flight recorder. None on uninstrumented runs.
        self.obs = None
        #: No message fault can happen, ever again: nothing in the plan gives
        #: a message a probability, or :meth:`quiesce` was called. Every
        #: per-message verdict tests it first, so a calm plan costs each
        #: message one call, not a walk of the plan.
        self._calm = not plan.faults_messages()
        #: Memory servers that are down now. Read in place (``sid in
        #: injector.down``): a test, not a call.
        self.down: set = set()
        #: Bumped on every crash of a server (0 until its first); SRQ
        #: entries stamped with an older epoch are lost.
        self.crash_epochs: Dict[int, int] = defaultdict(int)
        self._client_procs: Dict[int, List[Process]] = {}
        self._killed_compute: set = set()
        #: Event counters (drops include responses; steals are counted by
        #: the accessors that perform them).
        self.stats: Dict[str, int] = {
            "drops": 0,
            "delays": 0,
            "duplicates": 0,
            "retries": 0,
            "rpc_replays": 0,
            "server_crashes": 0,
            "server_restarts": 0,
            "compute_crashes": 0,
            "killed_processes": 0,
            "lock_steals": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    def start(self, cluster: Any) -> None:
        """Arm the plan's scheduled crashes (called by ``attach_faults``)."""
        self._cluster = cluster
        for crash in self.plan.server_crashes:
            self.sim.process(self._server_crash_schedule(crash))
        for crash in self.plan.compute_crashes:
            self.sim.process(self._compute_crash_schedule(crash))

    def quiesce(self) -> None:
        """Stop injecting message-level faults from now on.

        Crash state already in effect stays (a down server stays down until
        its scheduled restart) and lock-lease recovery remains enabled —
        this is the knob a chaos test turns before its verification scan.
        """
        self._calm = True

    # -- message-level faults --------------------------------------------------

    def _drop_probability(self, verb: Verb, server_id: int) -> float:
        plan = self.plan
        if server_id in plan.server_drop:
            return plan.server_drop[server_id]
        return plan.verb_drop.get(verb, plan.drop_probability)

    def request_verdict(
        self, verb: Verb, server_id: int, followers=()
    ) -> Tuple[bool, bool]:
        """``(duplicated, lost)`` for a one-sided chain's request leg: the
        duplicate draw, then the drop draw (:meth:`lost`), in one call."""
        if self._calm:
            return False, server_id in self.down
        return self.should_duplicate(verb, server_id), self.lost(verb, server_id, followers)

    def send_verdict(self, verb: Verb, server_id: int) -> Optional[float]:
        """The verdict on one SEND message, at the instant it arrives (a
        request) or is posted (a response): None when it is lost (the drop
        draw, :meth:`lost`), else the extra seconds it is delayed (the delay
        draw, :meth:`extra_delay`, made only for a delivered message)."""
        if server_id in self.down:
            return None
        if self._calm:
            return 0.0
        if self.lost(verb, server_id):
            return None
        return self.extra_delay(verb, server_id)

    def lost(self, verb: Verb, server_id: int, followers=()) -> bool:
        """Whether a message leg to/from *server_id* is lost: because the
        server is down, or by the plan's drop draw. The verdicts above ask
        it under a noisy plan; on its own it decides ``_post``'s response leg.

        *verb* leads the message; *followers* are the other verbs of a
        doorbell chain riding the same leg. A chain's request (and its
        selectively-signaled response) is one wire message, delivered or
        lost as a unit at the *worst* (highest) drop probability among
        its members — a chain is at least as exposed as its most fragile
        verb. Either way the decision is at most one draw from the seeded
        stream, and none at all against a down server.
        """
        if server_id in self.down:
            return True
        if self._calm:
            return False
        p = self._drop_probability(verb, server_id)
        for follower in followers:
            p = max(p, self._drop_probability(follower, server_id))
        if p <= 0.0:
            return False
        if self.rng.random() < p:
            self.stats["drops"] += 1
            return True
        return False

    def extra_delay(self, verb: Verb, server_id: int) -> float:
        """Extra seconds of latency for one (delivered) message, or 0."""
        if self._calm or self.plan.delay_probability <= 0.0:
            return 0.0
        if self.rng.random() < self.plan.delay_probability:
            self.stats["delays"] += 1
            return self.plan.delay_s
        return 0.0

    def should_duplicate(self, verb: Verb, server_id: int) -> bool:
        if self._calm or self.plan.duplicate_probability <= 0.0:
            return False
        if self.rng.random() < self.plan.duplicate_probability:
            self.stats["duplicates"] += 1
            return True
        return False

    def backoff_delay(self, attempt: int) -> float:
        """Backoff before retry *attempt + 1*, with deterministic jitter."""
        retry = self.retry
        self.stats["retries"] += 1
        delay = retry.base_delay_s * (retry.backoff_multiplier ** attempt)
        if retry.jitter_fraction > 0.0:
            delay *= 1.0 + retry.jitter_fraction * (2.0 * self.rng.random() - 1.0)
        return delay

    # -- memory-server crash state ---------------------------------------------

    def crash_memory_server(self, server_id: int) -> None:
        """Take a memory server down now (manual counterpart of the plan)."""
        if server_id in self.down:
            return
        self.down.add(server_id)
        self.crash_epochs[server_id] += 1
        self.stats["server_crashes"] += 1
        if self.obs is not None:
            self.obs.flight.record_fault("server_crash", server_id)
        replication = getattr(self._cluster, "replication", None)
        if replication is not None:
            # Destructive crash: wipe every copy hosted here and stop
            # mirroring into/out of this host until it resyncs.
            replication.on_crash(server_id)

    def restart_memory_server(self, server_id: int) -> None:
        if server_id in self.down:
            replication = getattr(self._cluster, "replication", None)
            if replication is not None:
                # Restore this host's copies from the surviving replicas
                # before it takes traffic again; the byte copy is instant
                # (state correctness) while a background process charges
                # the wire time of the transfer (timing realism).
                nbytes = replication.resync_host(server_id)
                if nbytes:
                    self.sim.process(
                        replication.background_resync(server_id, nbytes)
                    )
            self.down.discard(server_id)
            self.stats["server_restarts"] += 1
            if self.obs is not None:
                self.obs.flight.record_fault("server_restart", server_id)

    def _server_crash_schedule(self, crash: ServerCrash) -> Generator[Any, Any, None]:
        if crash.at_s > self.sim.now:
            yield crash.at_s - self.sim.now
        self.crash_memory_server(crash.server_id)
        yield crash.down_for_s
        self.restart_memory_server(crash.server_id)

    # -- compute-server crashes ------------------------------------------------

    def register_client(self, compute_server_id: int, process: Process) -> None:
        """Track *process* as running on a compute server so a scheduled or
        manual crash of that server kills it. If the server is already
        dead, the process is killed immediately."""
        self._client_procs.setdefault(compute_server_id, []).append(process)
        if compute_server_id in self._killed_compute:
            process.kill()
            self.stats["killed_processes"] += 1

    def compute_server_down(self, compute_server_id: int) -> bool:
        return compute_server_id in self._killed_compute

    def kill_compute_server(self, compute_server_id: int) -> None:
        """Crash a compute server: abandon its registered processes."""
        if compute_server_id in self._killed_compute:
            return
        self._killed_compute.add(compute_server_id)
        self.stats["compute_crashes"] += 1
        if self.obs is not None:
            self.obs.flight.record_fault("compute_crash", compute_server_id)
        for process in self._client_procs.get(compute_server_id, ()):
            if not process.triggered:
                process.kill()
                self.stats["killed_processes"] += 1

    def _compute_crash_schedule(self, crash: ComputeCrash) -> Generator[Any, Any, None]:
        if crash.at_s > self.sim.now:
            yield crash.at_s - self.sim.now
        self.kill_compute_server(crash.server_id)

    # -- lock-lease recovery ---------------------------------------------------

    @property
    def lock_lease_s(self) -> float:
        """Lease after which an unchanged locked word may be stolen."""
        return self.retry.lock_lease_s

    def record_steal(self) -> None:
        self.stats["lock_steals"] += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultInjector(seed={self.plan.seed}, stats={self.stats})"
