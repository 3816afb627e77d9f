"""The one result-retrieval interface every entry surface shares.

Historically the library grew one spelling of "get my result" per
entry surface:

* ``repro.ds(...)`` returned a :class:`~repro.primitives.common.
  PrimitiveResult` eagerly;
* ``Pipeline`` enqueue methods returned a
  :class:`~repro.pipeline.engine.DSFuture` with ``result()``/``output``;
* ``Server.submit`` returned a
  :class:`~repro.serve.request.ServeFuture` with a *different*
  ``result(timeout)`` signature plus ``wait``/``exception``;
* ``Fleet.submit`` returns a :class:`~repro.fleet.fleet.FleetFuture`.

This module collapses them onto one documented :class:`Future`
interface (re-exported as ``repro.Future``):

``done``
    ``True`` once the result (or failure) is available.  An eagerly
    returned ``PrimitiveResult`` is always done.
``result(timeout=None)``
    The resolved :class:`~repro.primitives.common.PrimitiveResult`.
    Blocking semantics are surface-specific (a pipeline future runs its
    owning batch, a serve future waits on the server) but the return
    type and failure behaviour are uniform.
``output``
    Shorthand for ``result().output``.
``extras``
    The result's extras dict, **normalized to the shared schema**: the
    keys of :data:`EXTRAS_DEFAULTS` (``degraded``, ``shards``,
    ``request_id``) are always present, defaulted when the producing
    layer did not set them.

:class:`~repro.primitives.common.PrimitiveResult` participates as an
always-done virtual subclass (it grows ``done``/``result()`` for the
purpose), so ``repro.ds(...)``, a pipeline future, a serve future and
a fleet future can all be drained by the same code path::

    def drain(fut: repro.Future) -> np.ndarray:
        assert fut.result().extras is not None
        if fut.extras["degraded"]:
            log.warning("served by the sequential baseline")
        return fut.output
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping, Optional

import numpy as np

__all__ = ["Future", "EXTRAS_DEFAULTS", "normalized_extras"]


EXTRAS_DEFAULTS: dict = {
    "degraded": False,  # served by the sequential fallback, not DS kernels
    "shards": 1,        # number of shards the input was streamed through
    "request_id": None,  # serve-layer correlation id (None outside serve)
}
"""The shared ``extras`` schema every :class:`Future` guarantees.

Producing layers may set any of these (the serve layer sets
``request_id`` and ``degraded``; the streaming engine sets ``shards``);
:func:`normalized_extras` fills the rest with these defaults.
"""


def normalized_extras(extras: Optional[Mapping]) -> dict:
    """``extras`` with the shared-schema keys guaranteed present."""
    merged = dict(EXTRAS_DEFAULTS)
    if extras:
        merged.update(extras)
    return merged


class Future(ABC):
    """Abstract result handle — see the module docstring for the
    contract.  Concrete futures (:class:`~repro.pipeline.engine.
    DSFuture`, :class:`~repro.serve.request.ServeFuture`,
    :class:`~repro.fleet.fleet.FleetFuture`) inherit the derived
    accessors; :class:`~repro.primitives.common.PrimitiveResult`
    is registered as an always-done virtual subclass."""

    __slots__ = ()

    @property
    @abstractmethod
    def done(self) -> bool:
        """Whether the result (or failure) is already available."""

    @abstractmethod
    def result(self, timeout: Optional[float] = None):
        """The resolved :class:`~repro.primitives.common.PrimitiveResult`
        (blocking/running as the surface requires), or raise the
        failure the computation ended with."""

    @property
    def output(self) -> np.ndarray:
        """Shorthand for ``result().output``."""
        return self.result().output

    @property
    def extras(self) -> dict:
        """``result().extras`` under the shared schema
        (:data:`EXTRAS_DEFAULTS` keys always present)."""
        return normalized_extras(self.result().extras)

    @property
    def normalized_extras(self) -> dict:
        """Alias for :attr:`extras`, matching the spelling on an
        eagerly returned :class:`~repro.primitives.common.
        PrimitiveResult` (whose ``.extras`` stays the raw producer
        dict for backwards compatibility)."""
        return self.extras


def _register_virtual_subclasses() -> None:
    # PrimitiveResult satisfies the contract structurally (always-done
    # result() -> itself) but cannot inherit: repro.futures must stay
    # import-light and primitives.common already imports half the
    # package.  ABC registration gives isinstance(x, Future) without
    # the import cycle.
    from repro.primitives.common import PrimitiveResult

    Future.register(PrimitiveResult)


_register_virtual_subclasses()
