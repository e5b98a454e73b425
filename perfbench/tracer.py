"""Outside-in tracer for the renormlab benchmark.

``Tracer.install`` rebinds every public function (no leading underscore) of
every ``renormlab.*`` module in every ``renormlab.*`` namespace that holds it,
because modules such as ``lab`` import functions by name.  It also wraps
``PeriodicInterpolant.__init__`` / ``__call__`` (spline build and evaluation)
and the acceptance check groups listed in ``lab._SUITE``.  ``uninstall`` puts
every original back.  No source file of the package changes, so loops that
are invisible from outside, such as zvonkin's Banach sweeps, stay invisible.

Each call becomes one span (name, start, end, parent, thread, work), kept in
per-thread arrays in memory and written out by ``save``.  ``work`` is a count
attached to the call: query points of a spline evaluation, Newton or Picard
iterations, items mapped, or 1 for a build or flow whose inputs repeat an
earlier one.  Bookkeeping done around a call (hashing for repeat detection)
is charged to no span, so a parent's self time excludes it.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import sys
import threading
import time
from array import array

import numpy as np


def _digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.digest()


def _coefficient_key(tgv) -> tuple:
    """Times plus slice values; a slice reused at many times is hashed once."""
    memo: dict[int, bytes] = {}
    keys = []
    for sl in tgv.slices:
        if id(sl) not in memo:
            memo[id(sl)] = _digest(sl.values)
        keys.append(memo[id(sl)])
    return (_digest(tgv.times), tuple(keys))


class _ThreadBuffer:
    """Spans completed on one thread, as parallel typed arrays."""

    def __init__(self, thread: int):
        self.thread = thread
        self.stack: list[int] = []
        self.next_id = 0
        self.ids = array("q")
        self.names = array("q")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.covers = array("d")  # wall this call takes out of its parent
        self.works = array("d")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._seen: set = set()
        self.origin = time.perf_counter()

    # -- recording --------------------------------------------------------

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _repeated(self, key) -> float:
        with self._lock:
            if key in self._seen:
                return 1.0
            self._seen.add(key)
            return 0.0

    def wrap(self, name: str, fn, pre=None, post=None):
        """Span-recording wrapper; pre(tracer, args) and post(args, result)
        return the call's work."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = perf()
            buf = self._buffer()
            work = pre(self, args) if pre else 0.0
            sid = buf.next_id
            buf.next_id += 1
            parent = buf.stack[-1] if buf.stack else -1
            buf.stack.append(sid)
            returned = False
            start = perf()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                end = perf()
                buf.stack.pop()
                if post and returned:
                    work += post(args, result)
                buf.ids.append(sid)
                buf.names.append(nid)
                buf.parents.append(parent)
                buf.starts.append(start)
                buf.ends.append(end)
                buf.works.append(work)
                buf.covers.append(perf() - outer)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        from renormlab import lab
        from renormlab.interp import PeriodicInterpolant

        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("renormlab.")]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    pre, post = _WORK.get(f"{layer}.{attr}", (None, None))
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj, pre, post)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])
        self._set(
            PeriodicInterpolant, "__init__",
            self.wrap("interp.build", PeriodicInterpolant.__init__, pre=_build_repeat),
        )
        self._set(
            PeriodicInterpolant, "__call__",
            self.wrap("interp.eval", PeriodicInterpolant.__call__, pre=_eval_points),
        )
        self._set(
            lab, "_SUITE",
            tuple(self.wrap("lab.check." + fn.__name__.removeprefix("_check_"), fn)
                  for fn in lab._SUITE),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ---------------------------------------------------------

    def table(self) -> dict[str, np.ndarray]:
        """All spans as columns; parent indexes rows, -1 for a thread root."""
        cols = {k: [] for k in ("name", "start", "end", "parent", "thread", "work", "self")}
        offset = 0
        for buf in self._buffers:
            ids = np.frombuffer(buf.ids, dtype=np.int64)
            n = len(ids)
            row_of = np.empty(n, dtype=np.int64)
            row_of[ids] = np.arange(n)
            parents = np.frombuffer(buf.parents, dtype=np.int64)
            starts = np.frombuffer(buf.starts)
            ends = np.frombuffer(buf.ends)
            has_parent = parents >= 0
            parent_rows = np.where(has_parent, row_of[np.maximum(parents, 0)], -1)
            covered = np.zeros(n)
            np.add.at(covered, parent_rows[has_parent], np.frombuffer(buf.covers)[has_parent])
            cols["name"].append(np.frombuffer(buf.names, dtype=np.int64))
            cols["start"].append(starts - self.origin)
            cols["end"].append(ends - self.origin)
            cols["parent"].append(np.where(has_parent, parent_rows + offset, -1))
            cols["thread"].append(np.full(n, buf.thread, dtype=np.int64))
            cols["work"].append(np.frombuffer(buf.works))
            cols["self"].append(ends - starts - covered)
            offset += n
        return {
            k: (np.concatenate(v) if v else np.zeros(0)) for k, v in cols.items()
        }

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, inclusive seconds, work."""
        t = self.table()
        names = t["name"].astype(np.int64)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=t["self"], minlength=k)
        incl = np.bincount(names, weights=t["end"] - t["start"], minlength=k)
        work = np.bincount(names, weights=t["work"], minlength=k)
        return {
            name: {"calls": float(calls[i]), "self": float(self_s[i]),
                   "incl": float(incl[i]), "work": float(work[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        t = self.table()
        t.pop("self")
        np.savez(path, names=np.array(self.names), **t)


def _eval_points(tracer, args) -> float:
    interp, points = args[0], args[1]
    return float(np.size(points) // interp.grid.dim)


def _build_repeat(tracer, args) -> float:
    grid, values = args[1], args[2]
    return tracer._repeated((repr(grid), _digest(values)))


def _flow_repeat(tracer, args) -> float:
    b, sigmas, config, path = args[:4]
    key = (
        repr(b.grid), float(config.dt), _digest(path.increments),
        _coefficient_key(b), tuple(_coefficient_key(s) for s in sigmas),
    )
    return tracer._repeated(key)


# A direct solver records no iteration counter; count it as one sweep.
_WORK = {
    "flow.simulate_flow": (_flow_repeat, None),
    "flow.invert_flow": (None, lambda args, r: float(getattr(r, "newton_iterations", 1))),
    "parabolic.mild_solve": (None, lambda args, r: float(getattr(r, "iterations", 1))),
    "parallel.ordered_map": (None, lambda args, r: float(len(r))),
}
