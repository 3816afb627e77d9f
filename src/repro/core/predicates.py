"""Vectorized predicates for the irregular Data Sliding algorithms.

Algorithm 2 is generic over the predicate that decides which elements
slide: *select* removes (or keeps) matching elements, *stream
compaction* removes elements equal to a value, *partition* splits on the
predicate, and the paper's Figure 11 example uses "element value is
even".  A :class:`Predicate` is a named, vectorized boolean function of
an element vector; it can be negated (``~p``), which is how one kernel
serves both the keep-matching and the remove-matching select flavours.

These predicates are deliberately cheap (the primitives are memory
bound — the paper's premise), but nothing prevents arbitrarily complex
NumPy expressions.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

__all__ = [
    "Predicate",
    "is_even",
    "less_than",
    "greater_equal",
    "equal_to",
    "not_equal_to",
    "nonzero",
    "always_true",
    "always_false",
    "from_name",
]


class Predicate:
    """A named vectorized boolean function of an element vector."""

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray], name: str) -> None:
        self._fn = fn
        self.name = name

    def __call__(self, values: np.ndarray) -> np.ndarray:
        out = np.asarray(self._fn(values))
        if out.dtype != np.bool_:
            out = out.astype(bool)
        if out.shape != np.shape(values):
            raise ValueError(
                f"predicate {self.name!r} returned shape {out.shape} "
                f"for input shape {np.shape(values)}"
            )
        return out

    def __invert__(self) -> "Predicate":
        """Logical negation (``~p``), preserving a readable name."""
        if self.name.startswith("not(") and self.name.endswith(")"):
            inner = self.name[4:-1]
            return Predicate(lambda v: ~self(v), inner)
        return Predicate(lambda v: ~self(v), f"not({self.name})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Predicate({self.name!r})"


def is_even() -> Predicate:
    """The paper's Figure 11 example: integer value is even.  Float
    inputs are truncated toward zero first, like a C cast would."""
    return Predicate(lambda v: (v.astype(np.int64) % 2) == 0, "is_even")


def less_than(threshold) -> Predicate:
    """``value < threshold`` — the workload generators pair this with a
    uniform distribution to hit an exact expected true fraction."""
    return Predicate(lambda v: v < threshold, f"less_than({threshold})")


def greater_equal(threshold) -> Predicate:
    return Predicate(lambda v: v >= threshold, f"greater_equal({threshold})")


def equal_to(value) -> Predicate:
    """``value == c`` — stream compaction removes elements equal to c."""
    return Predicate(lambda v: v == value, f"equal_to({value})")


def not_equal_to(value) -> Predicate:
    return Predicate(lambda v: v != value, f"not_equal_to({value})")


def nonzero() -> Predicate:
    """Keep non-zero entries — the sparse-data compaction predicate."""
    return Predicate(lambda v: v != 0, "nonzero")


def always_true() -> Predicate:
    """Degenerate predicate (100% fraction end of the paper's sweeps)."""
    return Predicate(lambda v: np.ones(np.shape(v), dtype=bool), "always_true")


def always_false() -> Predicate:
    """Degenerate predicate (0% fraction end of the paper's sweeps)."""
    return Predicate(lambda v: np.zeros(np.shape(v), dtype=bool), "always_false")


_NULLARY_FACTORIES = {
    "is_even": is_even,
    "nonzero": nonzero,
    "always_true": always_true,
    "always_false": always_false,
}

_UNARY_FACTORIES = {
    "less_than": less_than,
    "greater_equal": greater_equal,
    "equal_to": equal_to,
    "not_equal_to": not_equal_to,
}


def from_name(name: str) -> Optional[Predicate]:
    """Rebuild a predicate from its :attr:`Predicate.name` string.

    The factory predicates in this module carry parseable names by
    construction (``"less_than(0.5)"``, ``"not(is_even)"``, ...), which
    is what lets them cross process boundaries: a closure is not
    picklable, but its *name* is, and :mod:`repro.fleet` ships exactly
    that (the router probe-verifies the revived predicate against the
    original before anything leaves the process — a hand-built
    :class:`Predicate` whose name lies cannot corrupt results, it is
    rejected at submit).  Returns ``None`` for any name this vocabulary
    does not cover.
    """
    inner = str(name).strip()
    negate = False
    while inner.startswith("not(") and inner.endswith(")"):
        negate = not negate
        inner = inner[4:-1]
    pred: Optional[Predicate] = None
    if inner in _NULLARY_FACTORIES:
        pred = _NULLARY_FACTORIES[inner]()
    else:
        for fname, factory in _UNARY_FACTORIES.items():
            prefix = fname + "("
            if inner.startswith(prefix) and inner.endswith(")"):
                try:
                    operand = float(inner[len(prefix):-1])
                except ValueError:
                    return None
                pred = factory(operand)
                break
    if pred is None:
        return None
    return ~pred if negate else pred
