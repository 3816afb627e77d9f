"""``DSConfig`` — the one tuning surface every DS primitive accepts.

Every primitive (and :class:`repro.pipeline.Pipeline`) takes its
tuning as a single frozen :class:`DSConfig` value, ``config=``; there
is no per-kwarg spelling (``wg_size=``, ``coarsening=``, ...), and
passing one is a :class:`TypeError`.  :meth:`DSConfig.from_env` builds
a config from the ``REPRO_*`` environment variables, so batch jobs can
retune without code changes.

``DSConfig`` is hashable (frozen dataclass), which is what lets the
pipeline's plan cache key plans by configuration.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

from repro.errors import LaunchError
from repro.simgpu.vectorized import resolve_backend

__all__ = ["DSConfig", "DEFAULT_CONFIG"]


# Kept in sync with repro.collectives (wg_reduce / SCAN_VARIANTS); listed
# here so from_env can validate without importing the collectives layer.
_REDUCTION_VARIANTS = ("tree", "shuffle")
_SCAN_VARIANTS = ("tree", "ballot", "shuffle", "lookback")

_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def env_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError("expected an integer") from None


def env_float(raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError("expected a number") from None


def env_bool(raw: str) -> bool:
    value = _BOOL_STRINGS.get(raw.lower())
    if value is None:
        raise ValueError(
            f"expected one of {sorted(_BOOL_STRINGS)} (a boolean)")
    return value


def env_choice(*choices: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {choices}")
        return raw
    return parse


EnvTable = Sequence[Tuple[str, str, Callable[[str], object]]]
"""``(variable, field, parser)`` rows; a parser raises ``ValueError``
(or :class:`~repro.errors.LaunchError`) saying what it expected."""


def _parse_env(var: str, raw: str, parse: Callable[[str], object]):
    try:
        return parse(raw)
    except (ValueError, LaunchError) as exc:
        raise ValueError(f"{var}={raw!r}: {exc}") from None


def config_from_env(cls, table: EnvTable, environ=None, **fixed):
    """Build the frozen config ``cls`` from the variables in ``table``.

    Unset or blank variables keep the field default; ``fixed`` fields
    are passed through.  Range checks stay in ``cls.__post_init__``:
    when it rejects the values, the :class:`ValueError` names every
    variable that was set and whose field the message mentions, as
    ``VAR='raw': <reason>``, so operators fix the right knob.
    """
    env = os.environ if environ is None else environ
    kwargs, origins = {}, {}
    for var, name, parse in table:
        raw = env.get(var, "").strip()
        if raw:
            kwargs[name] = _parse_env(var, raw, parse)
            origins[name] = f"{var}={raw!r}"
    try:
        return cls(**kwargs, **fixed)
    except (ValueError, LaunchError) as exc:
        named = [origin for name, origin in origins.items()
                 if re.search(rf"\b{name}\b", str(exc))]
        if not named:
            raise
        raise ValueError(f"{', '.join(named)}: {exc}") from None


def check_positive(config, name: str, value, *,
                   zero_ok: bool = False) -> None:
    """The ``__post_init__`` range check of the serve and fleet configs:
    ``value >= 1`` (``>= 0`` with ``zero_ok``)."""
    bound = 0 if zero_ok else 1
    if value < bound:
        raise ValueError(
            f"{type(config).__name__}.{name} must be >= {bound}, "
            f"got {value!r}")


@dataclass(frozen=True)
class DSConfig:
    """Execution configuration shared by every DS primitive.

    Attributes
    ----------
    wg_size:
        Work-group size (lanes per group).
    coarsening:
        Elements per work-item; ``None`` lets
        :func:`repro.core.coarsening.launch_geometry` pick the
        occupancy-driven value.
    reduction_variant / scan_variant:
        Work-group collective implementations (``"tree"``, the
        warp-optimized variants, or the single-pass ``"lookback"``
        scan — see :mod:`repro.collectives`).
    race_tracking:
        Arm the read-before-overwrite tracker (forces the simulated
        backend; supported by the in-place primitives).
    backend:
        ``"simulated"``, ``"vectorized"``, or ``None`` to defer to the
        ``REPRO_BACKEND`` environment variable at call time.
    seed:
        Base scheduling seed for streams the primitive creates itself.
    shard_elems:
        Streaming shard size in elements — the configured device
        capacity the out-of-core engine (:mod:`repro.stream`) splits
        inputs into; ``None`` uses
        :data:`repro.stream.engine.DEFAULT_SHARD_ELEMS`.
    shard_workers:
        Forked worker processes for the streaming pool (0 = stream
        in-process).  The one pool-size knob: the serve and fleet front
        doors take it from the request's config too.
    """

    wg_size: int = 256
    coarsening: Optional[int] = None
    reduction_variant: str = "tree"
    scan_variant: str = "tree"
    race_tracking: bool = False
    backend: Optional[str] = None
    seed: int = 0
    shard_elems: Optional[int] = None
    shard_workers: int = 0

    def __post_init__(self) -> None:
        if int(self.wg_size) <= 0:
            raise LaunchError(f"wg_size must be positive, got {self.wg_size}")
        if self.coarsening is not None and int(self.coarsening) <= 0:
            raise LaunchError(
                f"coarsening must be positive or None, got {self.coarsening}")
        if self.shard_elems is not None and int(self.shard_elems) <= 0:
            raise LaunchError(
                f"shard_elems must be positive or None, got {self.shard_elems}")
        if int(self.shard_workers) < 0:
            raise LaunchError(
                f"shard_workers must be >= 0, got {self.shard_workers}")
        if self.backend is not None:
            # Normalize shorthands eagerly so configs compare (and hash)
            # by meaning: DSConfig(backend="vec") == DSConfig(backend="vectorized").
            object.__setattr__(self, "backend", resolve_backend(self.backend))

    def replace(self, **changes) -> "DSConfig":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return replace(self, **changes)

    def resolved_backend(self) -> str:
        """The backend this config executes on, env override applied."""
        return resolve_backend(self.backend)

    @classmethod
    def from_env(cls, environ=None) -> "DSConfig":
        """Build a config from the ``REPRO_*`` environment variables.

        Recognized (unset variables keep the field default):
        ``REPRO_WG_SIZE``, ``REPRO_COARSENING``,
        ``REPRO_REDUCTION_VARIANT``, ``REPRO_SCAN_VARIANT``,
        ``REPRO_RACE_TRACKING`` (0/1/true/false), ``REPRO_BACKEND``,
        ``REPRO_SEED``, ``REPRO_SHARD_ELEMS`` (>= 1),
        ``REPRO_SHARD_WORKERS`` (>= 0; the only reader of that
        variable).  A malformed value raises :class:`ValueError`
        naming the offending variable immediately, instead of failing
        deep inside a later kernel launch.

        **Tuned resolution mode**: ``REPRO_TUNED=1`` additionally
        consults the autotuner database (``REPRO_TUNING_DB``, default
        ``benchmarks/results/TUNING_DB.json``) and fills in the
        per-backend ``default|`` knob set recorded by ``python -m repro
        tune --set-default`` — but only for fields *not* pinned by an
        explicit ``REPRO_*`` variable, so the precedence stays
        explicit env > tuned DB > dataclass default.  A missing DB is
        fine (nothing tuned yet); a malformed one raises the usual
        :class:`~repro.errors.ReproError` naming the file.
        """
        env = os.environ if environ is None else environ
        config = config_from_env(cls, _ENV_TABLE, env)
        tuned = env.get("REPRO_TUNED", "").strip()
        if tuned and _parse_env("REPRO_TUNED", tuned, env_bool):
            config = config._with_tuned_defaults(env)
        return config

    def _with_tuned_defaults(self, env) -> "DSConfig":
        """Fill fields from the tuning DB's per-backend ``default|``
        entry, without overriding fields the environment pinned."""
        from repro.tune.db import KERNEL_CONFIG_KNOBS, TuningDB

        path = (env.get("REPRO_TUNING_DB", "").strip()
                or "benchmarks/results/TUNING_DB.json")
        db = TuningDB.load(path)
        tuned = db.default_knobs(self.resolved_backend()) or {}
        pinned = {name for var, name, _ in _ENV_TABLE
                  if env.get(var, "").strip()}
        return self.replace(**{name: tuned[name]
                               for name in KERNEL_CONFIG_KNOBS
                               if name in tuned and name not in pinned})


_ENV_TABLE: EnvTable = (
    ("REPRO_WG_SIZE", "wg_size", env_int),
    ("REPRO_COARSENING", "coarsening", env_int),
    ("REPRO_REDUCTION_VARIANT", "reduction_variant",
     env_choice(*_REDUCTION_VARIANTS)),
    ("REPRO_SCAN_VARIANT", "scan_variant", env_choice(*_SCAN_VARIANTS)),
    ("REPRO_RACE_TRACKING", "race_tracking", env_bool),
    ("REPRO_BACKEND", "backend", resolve_backend),
    ("REPRO_SEED", "seed", env_int),
    ("REPRO_SHARD_ELEMS", "shard_elems", env_int),
    ("REPRO_SHARD_WORKERS", "shard_workers", env_int),
)

DEFAULT_CONFIG = DSConfig()
