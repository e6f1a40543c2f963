"""Span recording around public calls into each layer of the simulator.

Wrappers are installed only for a traced op and removed right after it, so
untraced ops run the program's own functions.  Each wrapper replaces a name
where its caller looks it up (a module global such as
``repro.arch.simulator.map_layer`` or a class attribute such as
``ArchitectureSimulator.run_batch``).

A span is (id, name, start, end, parent id); spans of one op share its op
id.  The wrapper only appends to compact columns, so its cost per call stays
small; self times (a span's duration minus what its child spans cover) are
computed after the run.  Spans are kept in memory and written out at exit.
"""

from __future__ import annotations

import importlib
import itertools
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Marker attribute every wrapper carries; ``wrapped_targets`` looks for it.
MARK = "_perfbench_span"

#: Spans kept per run (5 columns of 8 bytes each); the traced run stops
#: adding ops once it holds this many.
MAX_SPANS = 2_000_000

OP_SPAN = "bench.op"


def _resolve(target: str):
    """``"pkg.mod:Class.attr"`` -> (owner, attr); owner is module or class."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name)
    if isinstance(owner, type) and attr not in vars(owner):
        raise AttributeError(f"{attr!r} is not defined on {owner.__name__}")
    getattr(owner, attr)
    return owner, attr


def wrapped_targets(targets) -> List[str]:
    """Targets whose current binding is a benchmark wrapper."""
    found = []
    for target in targets:
        try:
            owner, attr = _resolve(target)
        except (ImportError, AttributeError):
            continue
        if getattr(getattr(owner, attr), MARK, None) is not None:
            found.append(target)
    return found


class Tracer:
    """Records spans around ``targets`` while installed.

    ``targets`` is a sequence of ``(layer, "module:qualname", count)``;
    ``count`` optionally maps a call's positional arguments to
    ``(counter_name, amount)``, a work counter summed per op.
    """

    def __init__(self, targets: Sequence[Tuple[str, str, Optional[Callable]]]):
        self.names: List[str] = [OP_SPAN]
        self.layer_of: Dict[str, str] = {OP_SPAN: OP_SPAN}
        self.missing: List[str] = []
        self._resolved = []
        for layer, target, count in targets:
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError) as exc:
                self.missing.append(f"{target}: {exc}")
                continue
            self.layer_of[target] = layer
            self.names.append(target)
            self._resolved.append((len(self.names) - 1, target, owner, attr, count))
        self._installed: List[Tuple[object, str, object]] = []
        self._stack = [-1]
        self._ids = itertools.count()
        self.col_id = array("q")
        self.col_name = array("q")
        self.col_start = array("q")
        self.col_end = array("q")
        self.col_parent = array("q")
        #: (op id, first span row, end span row) per traced op.
        self.op_rows: List[Tuple[int, int, int]] = []
        self.work: Dict[int, Dict[str, float]] = {}

    @property
    def n_spans(self) -> int:
        return len(self.col_id)

    def _wrapper(self, nid: int, original, count):
        stack, ids = self._stack, self._ids
        push, pop, now = stack.append, stack.pop, time.perf_counter_ns
        add_id, add_name = self.col_id.append, self.col_name.append
        add_start, add_end = self.col_start.append, self.col_end.append
        add_parent = self.col_parent.append
        tracer = self

        def wrapper(*args, **kwargs):
            sid = next(ids)
            push(sid)
            start = now()
            try:
                return original(*args, **kwargs)
            finally:
                end = now()
                pop()
                add_id(sid)
                add_name(nid)
                add_start(start)
                add_end(end)
                add_parent(stack[-1])
                if count is not None:
                    key, amount = count(args)
                    work = tracer._work
                    work[key] = work.get(key, 0) + amount

        setattr(wrapper, MARK, self.names[nid])
        wrapper.__wrapped__ = original
        return wrapper

    def traced(self, op_id: int, fn: Callable, *args):
        """Run ``fn(*args)`` under an op span with every target wrapped."""
        first = self.n_spans
        self._work = self.work.setdefault(op_id, {})
        for nid, _target, owner, attr, count in self._resolved:
            original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrapper(nid, original, count))
        try:
            return self._wrapper(0, fn, None)(*args)
        finally:
            while self._installed:
                owner, attr, original = self._installed.pop()
                setattr(owner, attr, original)
            self.op_rows.append((op_id, first, self.n_spans))

    # -- results ------------------------------------------------------------
    def aggregate(self, op_ids: Sequence[int]) -> Dict[str, Dict[str, float]]:
        """Per span name over the given ops: calls, total ns and self ns."""
        ids = np.frombuffer(self.col_id, dtype=np.int64)
        names = np.frombuffer(self.col_name, dtype=np.int64)
        dur = np.frombuffer(self.col_end, dtype=np.int64) - np.frombuffer(
            self.col_start, dtype=np.int64
        )
        parents = np.frombuffer(self.col_parent, dtype=np.int64)
        wanted = set(op_ids)
        rows = np.zeros(len(ids), dtype=bool)
        for op_id, lo, hi in self.op_rows:
            if op_id in wanted:
                rows[lo:hi] = True
        child = np.zeros(len(ids), dtype=np.int64)
        if len(ids):
            # Span ids grow in open order, so a row's position among the
            # sorted ids locates its parent's row.
            order = np.argsort(ids)
            has_parent = parents >= 0
            parent_rows = order[np.searchsorted(ids[order], parents[has_parent])]
            np.add.at(child, parent_rows, dur[has_parent])
        self_ns = dur - child
        out: Dict[str, Dict[str, float]] = {}
        n_names = len(self.names)
        calls = np.bincount(names[rows], minlength=n_names)
        total = np.bincount(names[rows], weights=dur[rows], minlength=n_names)
        own = np.bincount(names[rows], weights=self_ns[rows], minlength=n_names)
        for nid, name in enumerate(self.names):
            if calls[nid]:
                out[name] = {
                    "calls": int(calls[nid]),
                    "total_ns": float(total[nid]),
                    "self_ns": float(own[nid]),
                }
        return out

    def work_sum(self, op_ids: Sequence[int]) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for op_id in op_ids:
            for key, amount in self.work.get(op_id, {}).items():
                out[key] = out.get(key, 0) + amount
        return out

    def write(self, path: str) -> None:
        """Write every kept span to a compressed ``.npz``.

        Columns ``id``, ``name`` (index into ``names``), ``start_ns``,
        ``end_ns``, ``parent`` (span id, -1 at the root) and ``op``.
        """
        op_of = np.full(self.n_spans, -1, dtype=np.int64)
        for op_id, lo, hi in self.op_rows:
            op_of[lo:hi] = op_id
        np.savez_compressed(
            path,
            names=np.array(self.names),
            id=np.array(self.col_id, dtype=np.int64),
            name=np.array(self.col_name, dtype=np.int64),
            start_ns=np.array(self.col_start, dtype=np.int64),
            end_ns=np.array(self.col_end, dtype=np.int64),
            parent=np.array(self.col_parent, dtype=np.int64),
            op=op_of,
        )
