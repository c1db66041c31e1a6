"""The one deadline that `--timeout` sets, read by the long-running loops.

`time_limit(seconds)` bounds the work inside its block.  The loops that
can run long (polynomial products, enumeration of minors and Pfaffians,
the independence filter, the Buchberger set-up and main loop, reductions,
the height ceiling check, the Hilbert target of a stopped run (the generic
model's numerator and the count of leading monomials per degree), the
dimension search and, once per power k, the degree-bound evaluation) call
`check_deadline` with the name of their stage, for example `polynomial
arithmetic`, `Buchberger set-up`, `Hilbert target` or `degree-bound
evaluation`; past the deadline that raises ComputationTimeout
naming the stage and, inside `ideal_named`, the ideal.  Work on the linear
section of an ideal (module `groebner`) is named after it, for example
`Buchberger reduction of the linear section of minors(3)`, and so is the
expansion of a cut matrix: `minor enumeration of the linear section of
minors(3)` or `Pfaffian enumeration of the linear section of
pfaffians(4)`.  A height that the section of a cut matrix decides reads
the clock only under the section's name, and so does the generic model
that the entry rule reads before the cut matrix is expanded: its
expansion reads `minor enumeration` or `Pfaffian enumeration` and its
elimination `independence filter`.  Both values are ContextVars,
so threads and contexts do not share them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ComputationTimeout, DomainError

_deadline: ContextVar[float | None] = ContextVar("reeskit_deadline", default=None)
# The name of the ideal whose work is running, for timeout messages.
_ideal_name: ContextVar[str | None] = ContextVar("reeskit_ideal_name", default=None)


@contextmanager
def time_limit(seconds: float):
    """Bound the work inside the block; expiry raises ComputationTimeout.
    0 expires at the first check and inf never; NaN, which would never
    expire, and negative values raise DomainError."""
    if not seconds >= 0:
        raise DomainError(f"time limit must be a non-negative number of seconds, got {seconds!r}")
    token = _deadline.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


class ideal_named:
    """Name the ideal (for example `minors(3)`) in timeouts inside the block.

    A class, not a `contextmanager` generator, because it is entered on
    every `IdealHandle.height` call and the class costs less there."""

    __slots__ = ("_name", "_token")

    def __init__(self, name: str | None):
        self._name = name

    def __enter__(self):
        self._token = _ideal_name.set(self._name)

    def __exit__(self, *exc):
        _ideal_name.reset(self._token)


def check_deadline(stage: str):
    limit = _deadline.get()
    if limit is not None and time.monotonic() > limit:
        name = _ideal_name.get()
        where = stage if name is None else f"{stage} of {name}"
        raise ComputationTimeout(f"computation exceeded the time limit during {where}")
