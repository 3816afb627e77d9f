"""``ServeConfig`` — every tuning knob of the serving layer.

Mirrors :class:`repro.config.DSConfig`: one frozen, hashable value that
travels with the server, constructible from ``REPRO_SERVE_*``
environment variables with eager validation (a malformed value raises
:class:`ValueError` naming the variable, never a deep launch failure).

The knobs fall into three groups:

* **batching policy** — ``max_batch_size`` / ``max_wait_ms`` close a
  micro-batch window on whichever trips first; ``num_workers`` sizes
  the executor pool (one :class:`~repro.simgpu.stream.Stream` each);
* **admission control** — ``max_queue_depth`` bounds the number of
  requests the server holds (queued *and* executing); beyond it,
  :meth:`~repro.serve.Server.submit` sheds with
  :class:`~repro.errors.Overloaded`.  ``default_deadline_ms`` applies
  to requests submitted without an explicit deadline;
* **robustness ring** — ``max_retries`` / ``retry_backoff_ms`` bound
  the exponential-backoff retry of transient
  :class:`~repro.errors.LaunchError`\\ s, and ``breaker_threshold`` /
  ``breaker_cooldown_ms`` parameterize the per-op circuit breaker that
  flips a failing op to the sequential baseline
  (:mod:`repro.serve.degrade`) until a cooldown re-probe succeeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.config import (EnvTable, check_positive, config_from_env,
                          env_float, env_int)

__all__ = ["ServeConfig", "DEFAULT_SERVE_CONFIG"]


@dataclass(frozen=True)
class ServeConfig:
    """Tuning surface of :class:`repro.serve.Server`.

    Attributes
    ----------
    max_batch_size:
        Upper bound on requests fused into one pipeline batch.
    max_wait_ms:
        Longest a batch window stays open waiting for compatible
        requests after its first request arrives.  ``0`` dispatches
        immediately (no batching delay, batches still form from
        already-queued compatible requests).
    max_queue_depth:
        Admission bound on in-flight requests (queued + executing).
    num_workers:
        Executor threads; each owns one stream on the server's device.
    default_deadline_ms:
        Deadline applied when ``submit`` is not given one; ``None``
        means no deadline.
    max_retries:
        Fast-path retries per batch on transient launch errors.
    retry_backoff_ms:
        Base backoff; attempt *k* sleeps ``retry_backoff_ms * 2**k``.
    breaker_threshold:
        Consecutive fast-path failures (per op chain) that open the
        circuit breaker.
    breaker_cooldown_ms:
        Open time before a single half-open probe is allowed.
    seed:
        Base scheduling seed; worker *i* uses ``seed + i``.
    flight_capacity:
        Ring size of the server's always-on flight recorder (spans and
        events retained for incident bundles); ``0`` disables the
        recorder entirely (the overhead-check baseline).
    incident_dir:
        Directory incident bundles are written to on a trigger
        (breaker-open, deadline, launch error, SLO breach).  ``None``
        disables dumping — the ring still records.
    incident_cooldown_ms:
        Minimum gap between two bundles for the same trigger, so a
        failure storm produces one bundle per window, not thousands.
    slo_ms:
        Latency objective; a completed request slower than this fires
        the ``slo_breach`` incident trigger.  ``None`` disables it.
    event_log:
        JSONL file the flight recorder appends every event to (one
        JSON object per line); ``None`` keeps events in the ring only
        (they still reach incident bundles).  Needs the recorder, so
        ``flight_capacity`` must be positive.

    A request whose input streams out of core (:mod:`repro.stream`)
    takes its shard-pool size from its own
    :attr:`DSConfig.shard_workers <repro.config.DSConfig>`, as at every
    other front door.
    """

    max_batch_size: int = 8
    max_wait_ms: float = 2.0
    max_queue_depth: int = 256
    num_workers: int = 2
    default_deadline_ms: Optional[float] = None
    max_retries: int = 2
    retry_backoff_ms: float = 1.0
    breaker_threshold: int = 3
    breaker_cooldown_ms: float = 50.0
    seed: int = 0
    flight_capacity: int = 4096
    incident_dir: Optional[str] = None
    incident_cooldown_ms: float = 1000.0
    slo_ms: Optional[float] = None
    event_log: Optional[str] = None

    def __post_init__(self) -> None:
        check_positive(self, "max_batch_size", int(self.max_batch_size))
        check_positive(self, "max_queue_depth", int(self.max_queue_depth))
        check_positive(self, "num_workers", int(self.num_workers))
        check_positive(self, "breaker_threshold",
                       int(self.breaker_threshold))
        check_positive(self, "max_wait_ms", float(self.max_wait_ms),
                       zero_ok=True)
        check_positive(self, "max_retries", int(self.max_retries),
                       zero_ok=True)
        check_positive(self, "retry_backoff_ms",
                       float(self.retry_backoff_ms), zero_ok=True)
        check_positive(self, "breaker_cooldown_ms",
                       float(self.breaker_cooldown_ms), zero_ok=True)
        check_positive(self, "flight_capacity", int(self.flight_capacity),
                       zero_ok=True)
        check_positive(self, "incident_cooldown_ms",
                       float(self.incident_cooldown_ms), zero_ok=True)
        if (self.default_deadline_ms is not None
                and float(self.default_deadline_ms) <= 0):
            raise ValueError(
                "ServeConfig.default_deadline_ms must be positive or None, "
                f"got {self.default_deadline_ms!r}")
        if self.slo_ms is not None and float(self.slo_ms) <= 0:
            raise ValueError(
                "ServeConfig.slo_ms must be positive or None, "
                f"got {self.slo_ms!r}")
        if self.event_log and int(self.flight_capacity) == 0:
            raise ValueError(
                f"ServeConfig.event_log={self.event_log!r} is written by "
                "the flight recorder, which flight_capacity=0 disables")

    def replace(self, **changes) -> "ServeConfig":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return replace(self, **changes)

    @classmethod
    def from_env(cls, environ=None) -> "ServeConfig":
        """Build a config from ``REPRO_SERVE_*`` environment variables.

        Recognized: ``REPRO_SERVE_BATCH_SIZE``, ``REPRO_SERVE_WAIT_MS``,
        ``REPRO_SERVE_QUEUE_DEPTH``, ``REPRO_SERVE_WORKERS``,
        ``REPRO_SERVE_DEADLINE_MS``, ``REPRO_SERVE_RETRIES``,
        ``REPRO_SERVE_BACKOFF_MS``, ``REPRO_SERVE_BREAKER_THRESHOLD``,
        ``REPRO_SERVE_BREAKER_COOLDOWN_MS``, ``REPRO_SERVE_SEED``,
        ``REPRO_SERVE_FLIGHT_CAPACITY``, ``REPRO_SERVE_INCIDENT_DIR``,
        ``REPRO_SERVE_INCIDENT_COOLDOWN_MS``, ``REPRO_SERVE_SLO_MS``,
        and ``REPRO_SERVE_EVENT_LOG``.  Malformed values raise
        :class:`ValueError` naming the variable.
        """
        return config_from_env(cls, _ENV_TABLE, environ)


_ENV_TABLE: EnvTable = (
    ("REPRO_SERVE_BATCH_SIZE", "max_batch_size", env_int),
    ("REPRO_SERVE_WAIT_MS", "max_wait_ms", env_float),
    ("REPRO_SERVE_QUEUE_DEPTH", "max_queue_depth", env_int),
    ("REPRO_SERVE_WORKERS", "num_workers", env_int),
    ("REPRO_SERVE_DEADLINE_MS", "default_deadline_ms", env_float),
    ("REPRO_SERVE_RETRIES", "max_retries", env_int),
    ("REPRO_SERVE_BACKOFF_MS", "retry_backoff_ms", env_float),
    ("REPRO_SERVE_BREAKER_THRESHOLD", "breaker_threshold", env_int),
    ("REPRO_SERVE_BREAKER_COOLDOWN_MS", "breaker_cooldown_ms", env_float),
    ("REPRO_SERVE_SEED", "seed", env_int),
    ("REPRO_SERVE_FLIGHT_CAPACITY", "flight_capacity", env_int),
    ("REPRO_SERVE_INCIDENT_DIR", "incident_dir", str),
    ("REPRO_SERVE_INCIDENT_COOLDOWN_MS", "incident_cooldown_ms", env_float),
    ("REPRO_SERVE_SLO_MS", "slo_ms", env_float),
    ("REPRO_SERVE_EVENT_LOG", "event_log", str),
)

DEFAULT_SERVE_CONFIG = ServeConfig()
