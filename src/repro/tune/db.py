"""The tuning database: persisted autotuner winners, keyed like the
plan cache.

A :class:`TuningDB` is a small JSON document mapping **tuning keys** to
winning knob dicts plus provenance (objective scores, baseline scores,
sample counts, backend tier, caller-injected timestamp).  The key is
built from exactly the tuple the serve layer batches on and the
pipeline plan cache hashes — :func:`repro.serve.request.make_batch_key`
over (op chain, geometry/dtype, op params, config, backend) — with one
twist: the config inside the key is **normalized** first
(:func:`normalize_config` strips the tunable knobs and the scheduling
seed back to their defaults).  Every trial of one workload therefore
shares a single key regardless of which knobs the trial tried, and a
serve request looks its tuned knobs up under the same key whatever its
caller's starting config was.

Three key kinds share the file:

* ``kernel|<batch key>`` — DSConfig knobs for one op-chain/geometry;
* ``serve|<batch key>`` — ServeConfig batching knobs for the same;
* ``default|<backend>`` — the fallback knob set ``DSConfig.from_env``
  applies under ``REPRO_TUNED=1`` when no per-key entry matches.

Writes are atomic (tmp file + ``os.replace``) and the class is
thread-safe; timestamps are injected by the caller so the DB layer
stays deterministic and testable.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import ReproError

__all__ = ["TuningDB", "normalize_config", "kernel_key", "serve_key",
           "default_key", "KERNEL_CONFIG_KNOBS", "SERVE_CONFIG_KNOBS",
           "FLEET_CONFIG_KNOBS"]

#: DSConfig fields the tuner overrides — stripped by normalize_config
#: and the only config fields a kernel entry's knob dict may carry.
KERNEL_CONFIG_KNOBS = ("wg_size", "coarsening", "scan_variant")

#: ServeConfig fields a serve entry's knob dict may carry — the subset
#: a single :class:`~repro.serve.Server` can apply to itself.
SERVE_CONFIG_KNOBS = ("max_batch_size", "max_wait_ms")

#: Fleet-tier fields a serve entry's knob dict may additionally carry.
#: A server ignores these when activating tuned knobs (it cannot resize
#: its own pool); whoever constructs the :class:`repro.fleet.Fleet`
#: reads them instead.
FLEET_CONFIG_KNOBS = ("n_workers",)


def normalize_config(config, backend: Optional[str] = None):
    """The config as it appears inside tuning keys: tunable knobs and
    the scheduling seed reset to defaults, backend pinned.

    Pinning the backend *inside* the config (rather than leaving the
    ``None`` env-deferred spelling) keeps one key per executed tier;
    the same workload tuned on ``simulated`` and ``vectorized`` gets two
    entries, which is the point — the sweet spot moves per tier.
    """
    from repro.config import DSConfig

    if config is None:
        config = DSConfig()
    resolved = backend if backend is not None else config.resolved_backend()
    return config.replace(wg_size=256, coarsening=None, scan_variant="tree",
                          seed=0, backend=resolved)


def _batch_key(ops, array, config, backend: Optional[str]) -> tuple:
    from repro.serve.request import OpStage, make_batch_key

    ops = list(ops) if not isinstance(ops, str) else [ops]
    if ops and isinstance(ops[0], OpStage):
        stages = ops
    else:
        from repro.stream.engine import normalize_chain

        stages = [OpStage(desc, args, kwargs)
                  for desc, args, kwargs in normalize_chain(ops)]
    norm = normalize_config(config, backend)
    return make_batch_key(stages, array, norm, norm.backend)


def kernel_key(ops, array, config=None, backend: Optional[str] = None) -> str:
    """The kernel-tier tuning key for one op chain over one input shape.

    ``ops`` accepts :class:`~repro.serve.request.OpStage` instances or
    the loadgen-style specs (``("compact", 0.0)`` / ``"unique"``).
    """
    return "kernel|" + repr(_batch_key(ops, array, config, backend))


def serve_key(ops, array, config=None, backend: Optional[str] = None) -> str:
    """The serve-tier tuning key (same identity, serve knob kind)."""
    return "serve|" + repr(_batch_key(ops, array, config, backend))


def default_key(backend: str) -> str:
    """The per-backend fallback entry ``DSConfig.from_env`` reads."""
    return f"default|{backend}"


class TuningDB:
    """A thread-safe JSON store of autotuner winners.

    Entries carry the winning ``knobs`` plus provenance::

        {"kind": "kernel", "knobs": {"coarsening": 4, "wg_size": 128},
         "objective": {"wall_ms": 1.9, "spin_idle_share": 0.12},
         "baseline":  {"wall_ms": 2.6, "spin_idle_share": 0.31},
         "samples": 3, "trials": 14, "backend": "vectorized",
         "timestamp": 1754600000.0, "meta": {...}}
    """

    VERSION = 1

    def __init__(self, path: Optional[Union[str, Path]] = None) -> None:
        self.path = Path(path) if path is not None else None
        self._entries: Dict[str, dict] = {}
        self._lock = threading.Lock()

    # -- persistence -----------------------------------------------------

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TuningDB":
        """Load a DB from ``path``; a missing file is an empty DB (the
        tuned resolution mode is opportunistic), a malformed one raises
        :class:`~repro.errors.ReproError` naming the file."""
        db = cls(path)
        p = Path(path)
        if not p.exists():
            return db
        try:
            doc = json.loads(p.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"tuning DB {p} is unreadable: {exc}") from None
        if not isinstance(doc, dict) or "entries" not in doc:
            raise ReproError(
                f"tuning DB {p} is not a TuningDB document "
                f"(missing 'entries')")
        version = doc.get("version")
        if version != cls.VERSION:
            raise ReproError(
                f"tuning DB {p} has version {version!r}; this build reads "
                f"version {cls.VERSION}")
        db._entries = dict(doc["entries"])
        return db

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Atomically persist the DB (tmp file + rename)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ReproError("TuningDB.save: no path given or configured")
        with self._lock:
            doc = {"version": self.VERSION, "entries": dict(self._entries)}
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, target)
        self.path = target
        return target

    # -- entries ---------------------------------------------------------

    def set(self, key: str, *, kind: str, knobs: dict, objective: dict,
            baseline: Optional[dict] = None, samples: int = 1,
            trials: int = 1, backend: Optional[str] = None,
            timestamp: Optional[float] = None,
            meta: Optional[dict] = None) -> dict:
        """Record one winner (overwriting any previous entry at ``key``)."""
        if kind not in ("kernel", "serve", "default"):
            raise ReproError(f"unknown tuning entry kind {kind!r}")
        entry = {
            "kind": kind,
            "knobs": dict(knobs),
            "objective": dict(objective),
            "baseline": dict(baseline) if baseline is not None else None,
            "samples": int(samples),
            "trials": int(trials),
            "backend": backend,
            "timestamp": timestamp,
            "meta": dict(meta) if meta else {},
        }
        with self._lock:
            self._entries[key] = entry
        return entry

    def get(self, key: str) -> Optional[dict]:
        with self._lock:
            entry = self._entries.get(key)
        return dict(entry) if entry is not None else None

    def knobs(self, key: str) -> Optional[dict]:
        """Just the winning knob dict for ``key`` (or ``None``)."""
        entry = self.get(key)
        return dict(entry["knobs"]) if entry else None

    def set_default(self, backend: str, knobs: dict, **provenance) -> dict:
        """Record the per-backend fallback ``DSConfig.from_env`` reads."""
        provenance.setdefault("objective", {})
        return self.set(default_key(backend), kind="default", knobs=knobs,
                        backend=backend, **provenance)

    def default_knobs(self, backend: str) -> Optional[dict]:
        return self.knobs(default_key(backend))

    def keys(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> Dict[str, dict]:
        """A snapshot copy of every entry (reporting)."""
        with self._lock:
            return {k: dict(v) for k, v in self._entries.items()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TuningDB(path={self.path!r}, entries={len(self)})"
