"""``FleetConfig`` — every knob of the multi-process serve cluster.

Mirrors :class:`repro.serve.config.ServeConfig` in style: one frozen,
hashable value constructible from ``REPRO_FLEET_*`` environment
variables with eager validation (a malformed value raises
:class:`ValueError` naming the variable).

The knobs fall into four groups:

* **pool sizing** — ``n_workers`` starts the fleet; the autoscaler is
  bounded by ``min_workers``/``max_workers``;
* **routing** — ``vnodes`` virtual nodes per worker on the consistent
  hash ring and the bounded-loads ``load_factor`` (no worker is
  assigned more than ``ceil(load_factor * keys / workers)`` route
  keys, which is what makes the ``--check`` skew bound a guarantee
  rather than a hope);
* **autoscaling policy** — scale *up* when per-worker in-flight
  requests or fleet p95 latency stay above ``queue_high`` /
  ``p95_high_ms`` for ``up_after`` consecutive ticks; scale *down*
  after ``down_after`` idle ticks (no completions, shallow queues);
  both sides then hold for ``cooldown_ticks`` so one burst cannot flap
  the pool;
* **lifecycle** — ``drain_timeout_s`` bounds a graceful worker drain,
  ``tick_interval_s`` paces the background autoscaler thread (``0``
  disables the thread; :meth:`repro.fleet.Fleet.autoscale_tick` still
  works manually, which is what the deterministic checks use).

Each worker runs a full :class:`repro.serve.Server` under the embedded
``serve`` config (``ServeConfig.from_env()`` by default, so every
``REPRO_SERVE_*`` variable reaches the workers unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.config import (EnvTable, check_positive, config_from_env,
                          env_float, env_int)
from repro.serve.config import ServeConfig

__all__ = ["FleetConfig", "DEFAULT_FLEET_CONFIG"]


@dataclass(frozen=True)
class FleetConfig:
    """Tuning surface of :class:`repro.fleet.Fleet`.

    Attributes
    ----------
    n_workers:
        Worker processes the fleet starts with.
    min_workers / max_workers:
        Autoscaler bounds on the pool size.
    vnodes:
        Virtual nodes per worker on the hash ring; more vnodes smooth
        key placement at the cost of a larger ring.
    load_factor:
        Bounded-loads cap: a worker never holds more than
        ``ceil(load_factor * total_keys / n_workers)`` route keys.
    queue_high:
        Per-worker mean in-flight requests (admitted, not finished)
        that count as scale-up pressure.
    queue_low:
        Fleet-wide queue depth at or below which a tick can count as
        idle (scale-down evidence).
    p95_high_ms:
        Fleet p95 latency that counts as scale-up pressure.
    up_after / down_after:
        Consecutive pressured / idle ticks required before the
        autoscaler acts (hysteresis).
    cooldown_ticks:
        Ticks after any scale action during which no further action is
        taken.
    tick_interval_s:
        Background autoscaler cadence; ``0`` disables the thread
        (manual :meth:`~repro.fleet.Fleet.autoscale_tick` only).
    drain_timeout_s:
        Upper bound on a graceful drain (in-flight requests finishing)
        before the drain is declared failed.
    request_timeout_s:
        Parent-side bound on one request's round trip through a
        worker; a breach fails the future with
        :class:`~repro.errors.FleetError` rather than hanging.
    incident_dir:
        Fleet-level incident directory; worker *i* dumps its flight
        recorder bundles under ``<incident_dir>/<worker_id>``.  ``None``
        disables dumping fleet-wide.
    trace:
        Distributed-tracing mode: ``"off"`` (default — zero overhead),
        ``"spans"`` or ``"full"``.  When on, every worker installs a
        tracer on the process clock it inherited at fork, whose spans
        land in its server's flight recorder, trace contexts ride the
        transport, the router synthesizes ``serve.request``/``route``/
        ``transport``/``worker``/``response`` spans per request, and
        :meth:`~repro.fleet.Fleet.dump_trace` can merge it all into one
        Chrome trace.  The rings hold ``serve.flight_capacity`` spans
        each, so tracing needs a non-zero ``serve.flight_capacity``.
    serve:
        The per-worker :class:`~repro.serve.config.ServeConfig`.
    """

    n_workers: int = 2
    min_workers: int = 1
    max_workers: int = 4
    vnodes: int = 64
    load_factor: float = 1.25
    queue_high: int = 8
    queue_low: int = 1
    p95_high_ms: float = 250.0
    up_after: int = 2
    down_after: int = 3
    cooldown_ticks: int = 2
    tick_interval_s: float = 0.0
    drain_timeout_s: float = 10.0
    request_timeout_s: float = 60.0
    incident_dir: Optional[str] = None
    trace: str = "off"
    serve: ServeConfig = field(default_factory=ServeConfig)

    def __post_init__(self) -> None:
        check_positive(self, "n_workers", int(self.n_workers))
        check_positive(self, "min_workers", int(self.min_workers))
        check_positive(self, "max_workers", int(self.max_workers))
        check_positive(self, "vnodes", int(self.vnodes))
        check_positive(self, "queue_high", int(self.queue_high))
        check_positive(self, "queue_low", int(self.queue_low),
                       zero_ok=True)
        check_positive(self, "up_after", int(self.up_after))
        check_positive(self, "down_after", int(self.down_after))
        check_positive(self, "cooldown_ticks", int(self.cooldown_ticks),
                       zero_ok=True)
        check_positive(self, "tick_interval_s", float(self.tick_interval_s),
                       zero_ok=True)
        check_positive(self, "drain_timeout_s", float(self.drain_timeout_s))
        check_positive(self, "request_timeout_s",
                       float(self.request_timeout_s))
        check_positive(self, "p95_high_ms", float(self.p95_high_ms))
        if float(self.load_factor) < 1.0:
            raise ValueError(
                "FleetConfig.load_factor must be >= 1.0 (a cap below "
                f"1.0 cannot place every key), got {self.load_factor!r}")
        if not (self.min_workers <= self.n_workers <= self.max_workers):
            raise ValueError(
                f"FleetConfig needs min_workers <= n_workers <= "
                f"max_workers, got {self.min_workers} / {self.n_workers} "
                f"/ {self.max_workers}")
        if self.trace not in ("off", "spans", "full"):
            raise ValueError(
                "FleetConfig.trace must be one of 'off'/'spans'/'full', "
                f"got {self.trace!r}")
        if self.trace != "off" and self.serve.flight_capacity == 0:
            raise ValueError(
                f"FleetConfig.trace={self.trace!r} keeps spans in the "
                "workers' flight recorders, which "
                "serve.flight_capacity=0 disables")

    def replace(self, **changes) -> "FleetConfig":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return replace(self, **changes)

    @classmethod
    def from_env(cls, environ=None) -> "FleetConfig":
        """Build a config from ``REPRO_FLEET_*`` environment variables.

        Recognized: ``REPRO_FLEET_WORKERS``, ``REPRO_FLEET_MIN_WORKERS``,
        ``REPRO_FLEET_MAX_WORKERS``, ``REPRO_FLEET_VNODES``,
        ``REPRO_FLEET_LOAD_FACTOR``, ``REPRO_FLEET_QUEUE_HIGH``,
        ``REPRO_FLEET_QUEUE_LOW``, ``REPRO_FLEET_P95_HIGH_MS``,
        ``REPRO_FLEET_UP_AFTER``, ``REPRO_FLEET_DOWN_AFTER``,
        ``REPRO_FLEET_COOLDOWN_TICKS``, ``REPRO_FLEET_TICK_S``,
        ``REPRO_FLEET_DRAIN_TIMEOUT_S``, ``REPRO_FLEET_REQUEST_TIMEOUT_S``,
        ``REPRO_FLEET_INCIDENT_DIR`` and ``REPRO_FLEET_TRACE``; the
        embedded worker config comes from :meth:`ServeConfig.from_env`
        (``REPRO_SERVE_*``).
        Malformed values raise :class:`ValueError` naming the variable.
        """
        return config_from_env(cls, _ENV_TABLE, environ,
                               serve=ServeConfig.from_env(environ))


_ENV_TABLE: EnvTable = (
    ("REPRO_FLEET_WORKERS", "n_workers", env_int),
    ("REPRO_FLEET_MIN_WORKERS", "min_workers", env_int),
    ("REPRO_FLEET_MAX_WORKERS", "max_workers", env_int),
    ("REPRO_FLEET_VNODES", "vnodes", env_int),
    ("REPRO_FLEET_LOAD_FACTOR", "load_factor", env_float),
    ("REPRO_FLEET_QUEUE_HIGH", "queue_high", env_int),
    ("REPRO_FLEET_QUEUE_LOW", "queue_low", env_int),
    ("REPRO_FLEET_P95_HIGH_MS", "p95_high_ms", env_float),
    ("REPRO_FLEET_UP_AFTER", "up_after", env_int),
    ("REPRO_FLEET_DOWN_AFTER", "down_after", env_int),
    ("REPRO_FLEET_COOLDOWN_TICKS", "cooldown_ticks", env_int),
    ("REPRO_FLEET_TICK_S", "tick_interval_s", env_float),
    ("REPRO_FLEET_DRAIN_TIMEOUT_S", "drain_timeout_s", env_float),
    ("REPRO_FLEET_REQUEST_TIMEOUT_S", "request_timeout_s", env_float),
    ("REPRO_FLEET_INCIDENT_DIR", "incident_dir", str),
    ("REPRO_FLEET_TRACE", "trace", str),
)

DEFAULT_FLEET_CONFIG = FleetConfig()
