"""In-memory span recorder and the layer hooks of the traced pass.

Spans are recorded from the benchmark's side only: :class:`Hooks`
wraps the public entry points of each ``repro`` layer (class methods and
module functions) and the callbacks handed to ``Kernel.schedule_at``, so
the simulator source stays untouched.  Every span has a name, a start, an
end and the index of its parent span; they live in flat ``array`` buffers
until the pass ends and :meth:`Tracer.save` writes them out.

A span's *self* time is its duration minus the durations of its direct
children.  Spans nest strictly (each wrapper closes in ``finally``), so
the self times of all spans, the root included, add up to the root's
duration.  A wrapper's own cost lands in the self time of the span that
called it; ``trace.overhead_frac`` reports the total.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Tuple


class Tracer:
    """Flat, append-only span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        index = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.open(self.intern(name))
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        nid = self.intern(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        return traced

    # ------------------------------------------------------------ summaries

    def __len__(self) -> int:
        return len(self.starts)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (spans, total seconds, self seconds)}``; the total
        counts only the outermost of nested same-name spans."""
        import numpy as np

        if not len(self):
            return {}
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        duration = (np.frombuffer(self.ends, dtype=np.float64)
                    - np.frombuffer(self.starts, dtype=np.float64))
        nested = parents >= 0
        children = np.bincount(parents[nested], weights=duration[nested],
                               minlength=len(duration))
        own = duration - children
        k = len(self.names)
        counts = np.bincount(ids, minlength=k)
        # a span nested in a span of its own name is already covered
        outer = ~nested | (ids[np.maximum(parents, 0)] != ids)
        total = np.bincount(ids[outer], weights=duration[outer], minlength=k)
        selfs = np.bincount(ids, weights=own, minlength=k)
        return {
            name: (int(counts[i]), float(total[i]), float(selfs[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) as one ``.npz``."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            parents=np.frombuffer(self.parents, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
        )


# --------------------------------------------------------------------------
# Layer hooks
# --------------------------------------------------------------------------

#: (module, class, methods, span name): public methods wrapped per layer
_METHODS = (
    ("repro.kernel", "Kernel", ("run", "step"), "kernel.dispatch"),
    ("repro.dram.controller", "MemoryController", ("submit",),
     "dram.controller.submit"),
    ("repro.cache.hierarchy", "CacheHierarchy",
     ("lookup", "fill_from_memory", "write", "complete_write_fill",
      "occupancy", "flush_dirty"), "cache"),
    ("repro.sim.system", "MemorySystem",
     ("issue_fetch", "issue_gather", "issue_store_line",
      "issue_gather_store"), "sim.system.issue"),
    ("repro.sim.system", "MemorySystem", ("__init__",), "sim.allocate"),
    ("repro.workloads.base", "Workload", ("materialize",),
     "workloads.materialize"),
    ("repro.workloads.query", "QueryWorkload", ("build",),
     "workloads.build"),
    ("repro.workloads.kernels", "KernelWorkload", ("build",),
     "workloads.build"),
    ("repro.imdb.planner", "Planner", ("plan",), "imdb.plan"),
    ("repro.imdb.lowering", "Lowering", ("lower",), "imdb.lower"),
    ("repro.obs.stalls", "StallAttributor", ("attribute",),
     "obs.stalls.attribute"),
    ("repro.power.model", "PowerModel", ("evaluate_registry",),
     "power.evaluate"),
    ("repro.check.protocol", "TimingProtocolChecker", ("on_command",),
     "check.protocol"),
    ("repro.check.oracle", "PlanValidator",
     ("on_plan", "check_lowered_ops"), "check.oracle"),
    ("repro.check.oracle", "KernelOracle", ("check_build",),
     "check.oracle"),
    ("repro.check.oracle", "DataOracle",
     ("check_gather", "check_line_roundtrip", "check_dsd"),
     "check.oracle"),
    ("repro.ecc.chipkill", "_RSCodecBase", ("encode_many", "check_many"),
     "ecc.codec"),
    ("repro.ecc.chipkill", "ChipAlignedSSC",
     ("encode_sectors", "check_sectors"), "ecc.codec"),
    ("repro.dram.datapath", "RankDatapath",
     ("write_line", "read_line", "read_line_logical", "read_parity",
      "gather_sectors", "expected_sector", "expected_parity_sector"),
     "dram.datapath"),
    ("repro.exp.cache", "ResultCache", ("get",), "exp.cache_get"),
    ("repro.exp.cache", "ResultCache", ("put",), "exp.cache_put"),
    ("repro.exp.engine", "SweepEngine", ("run",), "exp.sweep"),
)

#: (defining module, function, span name): module functions, rebound in
#: every loaded ``repro`` module that imported them by name
_FUNCTIONS = (
    ("repro.core.registry", "make_scheme", "core.make_scheme"),
    ("repro.sim.runner", "allocate_placements", "sim.allocate"),
    ("repro.exp.engine", "execute_point", "exp.point"),
    ("repro.exp.cache", "point_digest", "exp.digest"),
    ("repro.exp.cache", "source_digest", "exp.digest"),
    ("repro.check.fuzz", "run_case", "check.fuzz.run_case"),
) + tuple(
    ("repro.dram.datapath", f"{verb}_{layout}", "dram.datapath")
    for verb in ("pack", "unpack") for layout in ("default", "transposed")
)

#: dispatch span per callback owner (see :func:`_dispatch_name`)
_OWNERS = {
    "repro.cpu.core": "cpu.core.callback",
    "repro.sim.system": "sim.system.callback",
    "repro.check.fuzz": "check.fuzz.callback",
}

#: every span name a dispatched kernel event can carry
DISPATCH_SPANS = ("dram.controller.wake", "cpu.core.advance",
                  "kernel.callback") + tuple(_OWNERS.values())


def _dispatch_name(callback: Callable) -> str:
    """The layer that owns a scheduled callback.

    Bound methods belong to their object's class; the controller's
    completion lambda forwards to the requester's ``on_complete`` and is
    charged to that requester (the memory system, or the fuzz harness).
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        name = callback.__func__.__name__
        if name == "_wakeup":
            return "dram.controller.wake"
        if name == "_advance":
            return "cpu.core.advance"
        return _OWNERS.get(type(owner).__module__, "kernel.callback")
    module = getattr(callback, "__module__", "")
    if module == "repro.dram.controller" and callback.__closure__:
        for cell in callback.__closure__:
            target = cell.cell_contents
            if callable(target):
                return _dispatch_name(target)
    return _OWNERS.get(module, "kernel.callback")


class Hooks:
    """Installs the layer wrappers on import-level objects; ``remove``
    puts every original back."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        #: CommandStats of every controller built while installed
        self.controller_stats: list = []
        #: memory operations lowered by every workload build
        self.ops_built = 0
        self._undo: List[Tuple[object, str, object]] = []

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Hooks":
        import importlib

        tracer = self.tracer
        for module, cls_name, methods, span in _METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            for method in methods:
                self._set(cls, method, tracer.wrap(span, cls.__dict__[method]))
        for module, func, span in _FUNCTIONS:
            original = getattr(importlib.import_module(module), func)
            wrapped = tracer.wrap(span, original)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and loaded.__dict__.get(func) is original):
                    self._set(loaded, func, wrapped)

        from repro.dram.controller import MemoryController
        from repro.kernel import Kernel
        from repro.workloads import KernelWorkload, QueryWorkload

        for cls in (QueryWorkload, KernelWorkload):
            self._set(cls, "build", self._counting(cls.__dict__["build"]))

        schedule_at = Kernel.schedule_at
        intern, open_, close = tracer.intern, tracer.open, tracer.close

        def traced_schedule_at(kernel, when, callback):
            nid = intern(_dispatch_name(callback))

            def dispatch():
                index = open_(nid)
                try:
                    callback()
                finally:
                    close(index)

            return schedule_at(kernel, when, dispatch)

        self._set(Kernel, "schedule_at", traced_schedule_at)

        init = MemoryController.__init__
        stats = self.controller_stats

        def traced_init(controller, *args, **kwargs):
            init(controller, *args, **kwargs)
            stats.append(controller.stats)

        self._set(MemoryController, "__init__", traced_init)
        return self

    def _counting(self, build: Callable) -> Callable:
        def counted(*args, **kwargs):
            result = build(*args, **kwargs)
            self.ops_built += result.total_ops
            return result

        return counted

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
