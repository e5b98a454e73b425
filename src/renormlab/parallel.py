"""Thread-pool map that preserves input order: the determinism check's pool.

Every estimate in the package runs in one thread.  Only
``lab._determinism_payload`` maps work through ``ordered_map``, and
``lab._check_determinism`` runs it in a ``workers(1)`` scope and in a
``workers(8)`` scope, where its kernels run at once on pool threads.
Results are gathered in input order (not completion order), so the two runs
must agree bit for bit.  Outside any scope the count is 1.  Pool threads do
not inherit the scope, and none needs it: no pool item opens a pool of its
own.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import ContextVar

_SCOPED: ContextVar[int] = ContextVar("workers", default=1)


@contextmanager
def workers(n: int):
    """Size the pool at n workers inside the block."""
    token = _SCOPED.set(n)
    try:
        yield
    finally:
        _SCOPED.reset(token)


def worker_count() -> int:
    return _SCOPED.get()


def ordered_map(fn, items):
    """Apply fn to items, returning results in input order."""
    items = list(items)
    n = worker_count()
    if n == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))
