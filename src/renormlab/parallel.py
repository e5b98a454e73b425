"""Thread-pool map that preserves input order.

Results are always gathered in the order of the input sequence (not completion
order), and every reduction in the package iterates that list left to right,
so measured values are bitwise identical at any worker count.  Pool size is
set by a ``workers(n)`` scope, else by the RENORMLAB_THREADS environment
variable (default 1); numpy's FFT and BLAS release the GIL, which is where
threading actually pays off here.  Pool threads do not inherit the scope, and
none needs it copied in: no pool item opens a pool of its own.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar

ENV_VAR = "RENORMLAB_THREADS"
_SCOPED: ContextVar[int | None] = ContextVar("workers", default=None)


@contextmanager
def workers(n: int):
    """Size the pool at n workers inside the block, whatever the environment says."""
    token = _SCOPED.set(n)
    try:
        yield
    finally:
        _SCOPED.reset(token)


def worker_count() -> int:
    scoped = _SCOPED.get()
    if scoped is not None:
        return scoped
    raw = os.environ.get(ENV_VAR, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ValueError(f"{ENV_VAR} must be >= 1, got {n}")
    return n


def ordered_map(fn, items):
    """Apply fn to items, returning results in input order."""
    items = list(items)
    n = worker_count()
    if n == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
