"""The shared op-descriptor layer behind every DS primitive.

Each ``ds_*`` function is registered here as the *runner* of an
:class:`OpDescriptor`: the function that prepares device buffers,
launches the kernels and assembles the
:class:`~repro.primitives.common.PrimitiveResult`.

The registry is what makes the batch surfaces possible without
duplicating any primitive logic:

* :func:`repro.dispatch.ds` dispatches ``repro.ds("compact", ...)`` by
  name through :func:`get_op`;
* :class:`repro.pipeline.Pipeline` enqueues ``(descriptor, args)``
  pairs, plans them as a batch, and executes each op through the same
  ``ds_*`` function a direct call uses — so a pipelined op and a
  direct call are *the same code path*, which is what the
  pipeline-vs-sequential parity tests assert;
* descriptors of fusable irregular ops expose a
  :class:`~repro.core.fused.FuseStage` factory, letting the planner
  collapse chained in-place filters into one fused launch.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.fused import FuseStage
from repro.errors import LaunchError

__all__ = [
    "OpDescriptor",
    "register_op",
    "get_op",
    "list_ops",
    "array_signature",
]


def array_signature(values) -> Tuple[Optional[int], str]:
    """The (element count, dtype) plan-cache signature of an array or
    :class:`~repro.stream.source.DSSource` (an unsized source
    signatures with ``None`` elements)."""
    sig = getattr(values, "signature", None)
    if callable(sig):
        return sig()
    arr = np.asarray(values)
    return int(arr.size), str(arr.dtype)


@dataclass(frozen=True)
class OpDescriptor:
    """Static description of one DS primitive.

    Attributes
    ----------
    name / short:
        The public ``ds_*`` name and its short alias (``"compact"``),
        both accepted by :func:`get_op`.
    kind:
        ``"regular"`` (data-independent remap), ``"irregular"``
        (predicate/stencil filter), ``"keyed"`` (multi-column), or
        ``"meta"`` (composes other primitives).
    runner:
        The public ``ds_*`` function,
        ``runner(*args, stream=..., config=..., **kwargs)``, returning a
        ``PrimitiveResult``.  Positional ``args`` are the user's data
        arguments (no stream).
    data_params:
        The names of ``runner``'s leading data parameters, in order,
        up to ``stream`` (derived from its signature when the
        descriptor is built).
    params_signature:
        ``(args, kwargs) -> hashable`` — the op's non-array parameters
        as they affect planning/caching (predicate names, pad widths,
        flags).  The primary input's geometry is added by the planner.
    fuse_stage:
        For fusable in-place irregular ops: ``(args, kwargs) ->``
        :class:`~repro.core.fused.FuseStage`.  ``None`` marks the op
        non-fusable.
    """

    name: str
    short: str
    kind: str
    runner: Callable
    params_signature: Callable = lambda args, kwargs: ()
    fuse_stage: Optional[Callable] = None
    data_params: Tuple[str, ...] = field(init=False, repr=False,
                                         compare=False)

    def __post_init__(self) -> None:
        names = []
        for p in inspect.signature(self.runner).parameters.values():
            if (p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                    or p.name == "stream"):
                break
            names.append(p.name)
        object.__setattr__(self, "data_params", tuple(names))

    @property
    def fusable(self) -> bool:
        return self.fuse_stage is not None


_REGISTRY: Dict[str, OpDescriptor] = {}


def register_op(desc: OpDescriptor) -> OpDescriptor:
    """Register ``desc`` under both its full and short names."""
    for key in (desc.name, desc.short):
        existing = _REGISTRY.get(key)
        if existing is not None and existing.name != desc.name:
            raise LaunchError(
                f"op name {key!r} already registered for {existing.name}")
        _REGISTRY[key] = desc
    return desc


def get_op(name: str) -> OpDescriptor:
    """Look an op up by full (``ds_stream_compact``) or short
    (``compact``) name."""
    desc = _REGISTRY.get(name)
    if desc is None:
        known = sorted({d.short for d in _REGISTRY.values()})
        raise LaunchError(
            f"unknown DS op {name!r}; known ops: {', '.join(known)}")
    return desc


def list_ops() -> Tuple[OpDescriptor, ...]:
    """Every registered descriptor, once each, sorted by name."""
    seen = {}
    for desc in _REGISTRY.values():
        seen[desc.name] = desc
    return tuple(seen[k] for k in sorted(seen))
