"""In-memory span tracer, per-process span files, percentiles.

A span is ``(id, parent, name, start, end)``.  Spans are kept in flat
in-memory arrays and written out once, when the recording process ends:
the benchmark's own process calls :meth:`Tracer.dump` after the traced
pass, and every forked ``multiprocessing`` worker (MLS population
processes, campaign pool workers) dumps its own ``spans-<pid>-<n>.npz``
from an exit finalizer.  :func:`load_trace` merges the files.

Ids are ``pid << 32 | seq``, unique within one process.  A worker
inherits the open-span stack of the thread that forked it, so its
top-level spans name the parent-process span that caused them.  Worker
pids can be reused within one run, so the merge re-keys every span by
file; a parent id that a file does not define is resolved in the main
process's file (the only process alive across all forks).

Times come from ``time.perf_counter`` -- CLOCK_MONOTONIC on Linux, one
clock for every process on the host -- so spans from different
processes share one time axis.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from array import array
from dataclasses import dataclass, field
from multiprocessing import util as mp_util
from pathlib import Path

import numpy as np

__all__ = [
    "Summary",
    "Trace",
    "Tracer",
    "load_trace",
    "summarize",
    "tail_percentile",
]

_PID_SHIFT = 32
#: Merged ids are ``file_no << _FILE_SHIFT | id``; pids stay below 2**22
#: on Linux, so per-process ids stay below 2**54.
_FILE_SHIFT = 54


class Tracer:
    """Records spans and counters of one process (and its forked workers)."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.enabled = False
        self._names: list[str] = []
        self._name_codes: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._new_buffers()
        # Runs in multiprocessing children after their finalizer registry
        # is reset, so the exit finalizer registered there survives.
        mp_util.register_after_fork(self, Tracer._after_fork_in_child)

    # ------------------------------------------------------------------ #
    def _new_buffers(self) -> None:
        self.pid = os.getpid()
        self._seq = itertools.count(1)
        self._ids = array("q")
        self._parents = array("q")
        self._codes = array("q")
        self._starts = array("d")
        self._ends = array("d")
        #: Counter name -> running total.
        self.counts: dict[str, float] = {}

    def _after_fork_in_child(self) -> None:
        # The child keeps names and the inherited open-span stack (its
        # top-level spans then name the parent span that forked it) but
        # none of the parent's recorded spans.
        self._new_buffers()
        if self.enabled:
            mp_util.Finalize(None, self.dump, exitpriority=0)

    def _code(self, name: str) -> int:
        code = self._name_codes.get(name)
        if code is None:
            with self._lock:
                code = self._name_codes.setdefault(name, len(self._names))
                if code == len(self._names):
                    self._names.append(name)
        return code

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    # ------------------------------------------------------------------ #
    def wrap(self, fn, name: str, after=None):
        """``fn`` recorded as a span ``name`` while the tracer is enabled.

        ``after(tracer, args, result)`` runs after a successful call to
        record counters read off the call's arguments or result.
        """
        code = self._code(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = (tracer.pid << _PID_SHIFT) | next(tracer._seq)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._record(sid, parent, code, start, end)
            if after is not None:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counting(self, fn, name: str):
        """``fn`` with every call counted under ``name`` (no span)."""
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _record(self, sid: int, parent: int, code: int,
                start: float, end: float) -> None:
        with self._lock:
            self._ids.append(sid)
            self._parents.append(parent)
            self._codes.append(code)
            self._starts.append(start)
            self._ends.append(end)

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name``."""
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    # ------------------------------------------------------------------ #
    def dump(self) -> Path | None:
        """Write this process's spans and counters; None if it has none."""
        if not len(self._ids) and not self.counts:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        n = 0
        while True:  # first free name: worker pids can repeat in one run
            path = self.out_dir / f"spans-{self.pid}-{n}.npz"
            try:
                handle = open(path, "xb")
            except FileExistsError:
                n += 1
                continue
            with handle:
                np.savez(
                    handle,
                    pid=np.int64(self.pid),
                    ids=np.array(self._ids, dtype=np.int64),
                    parents=np.array(self._parents, dtype=np.int64),
                    codes=np.array(self._codes, dtype=np.int64),
                    starts=np.array(self._starts, dtype=np.float64),
                    ends=np.array(self._ends, dtype=np.float64),
                    names=np.array(json.dumps(self._names)),
                    counts=np.array(json.dumps(self.counts)),
                )
            return path


# --------------------------------------------------------------------- #
@dataclass
class Trace:
    """Spans and counters merged from every process of one traced pass."""

    ids: np.ndarray
    parents: np.ndarray
    names: list[str]
    codes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    pids: np.ndarray
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def durations(self) -> np.ndarray:
        return self.ends - self.starts

    def mask(self, name: str) -> np.ndarray:
        """Boolean mask of the spans called ``name``."""
        if name not in self.names:
            return np.zeros(len(self.ids), dtype=bool)
        return self.codes == self.names.index(name)

    def of(self, name: str) -> np.ndarray:
        """Durations of the spans called ``name``, in record order."""
        return self.durations[self.mask(name)]

    def child_sums(self, parent_name: str, child_name: str) -> np.ndarray:
        """Per ``parent_name`` span: summed duration of its direct
        ``child_name`` children (0 where it has none)."""
        parents = np.flatnonzero(self.mask(parent_name))
        kids = self.mask(child_name)
        if not len(parents):
            return np.zeros(0)
        order = np.argsort(self.ids[parents])
        sorted_ids = self.ids[parents][order]
        pos = np.searchsorted(sorted_ids, self.parents[kids])
        pos = np.clip(pos, 0, len(sorted_ids) - 1)
        hit = sorted_ids[pos] == self.parents[kids]
        sums = np.zeros(len(parents))
        np.add.at(sums, order[pos[hit]], self.durations[kids][hit])
        return sums

    def not_under(self, name: str, parent_name: str) -> np.ndarray:
        """Durations of the ``name`` spans whose direct parent is not a
        ``parent_name`` span, in record order."""
        nested = np.isin(self.parents, self.ids[self.mask(parent_name)])
        return self.durations[self.mask(name) & ~nested]


def load_trace(out_dir: str | Path, main_pid: int) -> Trace:
    """Merge every ``spans-*.npz`` under ``out_dir`` into one trace."""
    files = sorted(Path(out_dir).glob("spans-*.npz"))
    loaded = []
    for path in files:
        with np.load(path) as data:
            loaded.append({k: data[k] for k in data.files})
    main_no = next(
        (n for n, d in enumerate(loaded) if int(d["pid"]) == main_pid), None
    )
    names: list[str] = []
    parts: dict[str, list[np.ndarray]] = {
        k: [] for k in ("ids", "parents", "codes", "starts", "ends", "pids")
    }
    counts: dict[str, float] = {}
    for n, data in enumerate(loaded):
        local_names = json.loads(str(data["names"]))
        remap = np.array(
            [_intern(names, nm) for nm in local_names] or [0], dtype=np.int64
        )
        ids = data["ids"]
        parents = data["parents"]
        own = np.isin(parents, ids)
        foreign = (parents >= 0) & ~own
        new_parents = np.where(own, (n << _FILE_SHIFT) | parents, -1)
        if main_no is not None:
            new_parents = np.where(
                foreign, (main_no << _FILE_SHIFT) | parents, new_parents
            )
        parts["ids"].append((n << _FILE_SHIFT) | ids)
        parts["parents"].append(new_parents)
        parts["codes"].append(remap[data["codes"]] if len(ids) else ids)
        parts["starts"].append(data["starts"])
        parts["ends"].append(data["ends"])
        parts["pids"].append(np.full(len(ids), int(data["pid"])))
        for key, value in json.loads(str(data["counts"])).items():
            counts[key] = counts.get(key, 0) + value
    merged = {
        k: (np.concatenate(v) if v else np.zeros(0))
        for k, v in parts.items()
    }
    return Trace(
        ids=merged["ids"].astype(np.int64),
        parents=merged["parents"].astype(np.int64),
        names=names,
        codes=merged["codes"].astype(np.int64),
        starts=merged["starts"].astype(np.float64),
        ends=merged["ends"].astype(np.float64),
        pids=merged["pids"].astype(np.int64),
        counts=counts,
    )


def _intern(names: list[str], name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


# --------------------------------------------------------------------- #
#: Tail percentiles tried from the highest down, in per-mille.
_TAIL_LADDER = (999, 990, 900)


def tail_percentile(n: int) -> float | None:
    """The highest percentile with at least ten of ``n`` samples beyond
    it (None when even p90 has fewer than ten beyond it)."""
    for per_mille in _TAIL_LADDER:
        if n * (1000 - per_mille) // 1000 >= 10:
            return per_mille / 10
    return None


@dataclass(frozen=True)
class Summary:
    """A timing as median plus the rule's tail percentile."""

    p50: float
    tail: float
    #: Which percentile ``tail`` is (50 when no tail qualifies).
    tail_pct: float
    n: int


def summarize(samples) -> Summary:
    """Median, the highest percentile with >= 10 samples beyond it, and n.

    With fewer than 100 samples no tail percentile qualifies, and the
    tail repeats the median (``tail_pct`` 50).  No samples: all zero.
    """
    values = np.asarray(samples, dtype=float)
    n = int(values.size)
    if n == 0:
        return Summary(0.0, 0.0, 0.0, 0)
    p50 = float(np.median(values))
    pct = tail_percentile(n)
    if pct is None:
        return Summary(p50, p50, 50.0, n)
    return Summary(p50, float(np.percentile(values, pct)), pct, n)
