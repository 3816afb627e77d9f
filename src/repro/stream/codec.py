"""Op chains as data: the one codec for crossing a process boundary.

Both multi-process tiers — the stream pool's long-lived shard workers
(:mod:`repro.stream.pool`) and the fleet's serve workers
(:mod:`repro.fleet`) — run op chains built after the worker was
forked, so a chain cannot ride into a worker as inherited memory; it
crosses a pipe.  The predicate ops (``remove_if``, ``partition``, ...)
carry :class:`~repro.core.predicates.Predicate` closures, and closures
do not pickle.  The factory predicates carry *parseable names*
(``"less_than(0.5)"``, ``"not(is_even)"``), so the chain crosses as
data: :func:`freeze_ops` replaces each predicate with a
``["__pred__", name]`` marker and — because a hand-built predicate's
name could lie about its behaviour — **probe-verifies** the revived
predicate against the original on a fixed probe vector in the sending
process, where the original still exists.  An unrevivable or lying
predicate raises :class:`~repro.errors.FleetError` there (the fleet
rejects the request at submit; the stream pool runs the chain in
process instead); it never reaches a worker.  :func:`revive_ops` is
the worker-side inverse.

This module imports neither :mod:`multiprocessing` nor
:mod:`repro.fleet`, so the stream pool can use it without paying for
the fleet tier's import.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.predicates import Predicate, from_name
from repro.errors import FleetError

__all__ = ["PROBE", "freeze_ops", "revive_ops"]

#: Fixed probe vector for predicate verification: negatives, zero,
#: fractions, integer-valued floats — enough to distinguish every
#: predicate the name vocabulary can express.
PROBE = np.array([-3.0, -1.5, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.5])

_SCALARS = (str, int, float, bool, type(None))


def _dtype_probe(name: str, dtype: np.dtype) -> np.ndarray:
    """:data:`PROBE` in ``dtype``, plus the name's operand as each float
    width rounds it and those values' neighbours in ``dtype``.

    A name carries its operand as text: ``equal_to(np.float64(0.1))``
    revives as ``equal_to(0.1)``, whose Python float compares float32
    data in float32, while the original compares it in float64.  The
    two disagree only on data values next to the operand, which is
    where this probe looks.
    """
    try:  # the innermost parenthesized text: "0.1" in "not(equal_to(0.1))"
        operands = [float(name[name.rfind("(") + 1:name.find(")")])]
    except ValueError:  # a nullary predicate
        operands = []
    with np.errstate(all="ignore"):
        probe = np.concatenate(
            [PROBE] + [np.array(operands, dtype=w)
                       for w in (np.float16, np.float32, np.float64)]
        ).astype(dtype)
        if probe.dtype.kind == "f":
            return np.concatenate([np.nextafter(probe, -np.inf), probe,
                                   np.nextafter(probe, np.inf)])
        if probe.dtype.kind in "iu":
            return np.concatenate([probe - 1, probe, probe + 1])
    return probe


def _freeze_value(value, *, op: str, numpy_scalars: bool, dtype):
    if isinstance(value, Predicate):
        revived = from_name(value.name)
        if revived is None:
            raise FleetError(
                f"op {op!r}: predicate {value.name!r} cannot cross the "
                f"process boundary — its name is outside the "
                f"repro.core.predicates.from_name vocabulary")
        if not np.array_equal(value(PROBE), revived(PROBE)):
            raise FleetError(
                f"op {op!r}: predicate {value.name!r} failed probe "
                f"verification — the name does not describe its "
                f"behaviour, so a revived copy would compute different "
                f"results")
        if dtype is not None:
            try:
                probe = _dtype_probe(value.name, np.dtype(dtype))
                same = np.array_equal(value(probe), revived(probe))
            except Exception:  # one that fails on the probe cannot cross
                same = False
            if not same:
                raise FleetError(
                    f"op {op!r}: predicate {value.name!r} failed probe "
                    f"verification over {np.dtype(dtype)} data — its "
                    f"operand's type does not survive the name, so a "
                    f"revived copy would compare in another precision")
        return ["__pred__", value.name]
    if isinstance(value, np.generic):
        return value if numpy_scalars else value.item()
    if isinstance(value, _SCALARS):
        return value
    raise FleetError(
        f"op {op!r}: argument {value!r} ({type(value).__name__}) is not "
        f"transportable to a fleet worker (scalars and named predicates "
        f"only)")


def _revive_value(value):
    if isinstance(value, list) and len(value) == 2 and value[0] == "__pred__":
        pred = from_name(value[1])
        if pred is None:  # the sender verified; a miss here is a bug
            raise FleetError(
                f"worker could not revive predicate {value[1]!r}")
        return pred
    return value


def freeze_ops(ops, *, numpy_scalars: bool = False,
               dtype=None) -> List[list]:
    """A picklable form of an op-chain spec.

    Accepts the shapes :meth:`repro.serve.Server.submit_chain` does —
    each entry a name string or a ``(name, *args[, kwargs])`` tuple —
    and returns nested plain lists with predicates replaced by verified
    ``["__pred__", name]`` markers.  NumPy scalar arguments become
    Python scalars, plain data an incident bundle can store, unless
    ``numpy_scalars``: then they cross pickled, keeping their type and
    so the promotion a comparison against them makes (float32 data
    compared with ``np.float64(0.1)`` is not compared with ``0.1``).
    With ``dtype`` (the data's), each predicate is also verified on a
    probe in that dtype around its operand, where a revived predicate's
    Python-float operand can compare differently from a NumPy one.
    """
    if isinstance(ops, str):  # a bare op name is a one-op chain
        ops = [ops]
    frozen = []
    for item in ops:
        if isinstance(item, str):
            item = (item,)
        if not item:
            raise FleetError("empty op spec in chain")
        name, *args = item
        kwargs = {}
        if args and isinstance(args[-1], dict):
            kwargs = args.pop()
        entry = [str(name)]
        entry.extend(_freeze_value(a, op=str(name),
                                   numpy_scalars=numpy_scalars, dtype=dtype)
                     for a in args)
        if kwargs:
            entry.append({k: _freeze_value(v, op=str(name),
                                           numpy_scalars=numpy_scalars,
                                           dtype=dtype)
                          for k, v in kwargs.items()})
        frozen.append(entry)
    if not frozen:
        raise FleetError("a fleet request needs at least one op")
    return frozen


def revive_ops(frozen: List[list]) -> List[tuple]:
    """Worker-side inverse of :func:`freeze_ops`."""
    ops = []
    for entry in frozen:
        name, *rest = entry
        kwargs = None
        if rest and isinstance(rest[-1], dict):
            kwargs = rest.pop()
        parts = [name] + [_revive_value(v) for v in rest]
        if kwargs:
            parts.append({k: _revive_value(v) for k, v in kwargs.items()})
        ops.append(tuple(parts))
    return ops
