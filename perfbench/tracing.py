"""Span tracer that wraps the program's public functions from outside.

Nothing in ``src/`` changes: :meth:`Tracer.install` replaces each traced
function in every loaded ``enaqt`` module that holds a reference to it
(including names bound by ``from .propagate import ...``), plus
``numpy.linalg.eigh``, ``scipy.linalg.expm``, ``SweepResult.write_csv`` and
``concurrent.futures.ProcessPoolExecutor``.  :meth:`Tracer.uninstall` puts
the originals back.  Spans (name, start, end, parent, info) stay in memory
until the run writes them out.
"""

from __future__ import annotations

import concurrent.futures
import os
import resource
import sys
import time


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _z_points(args, kwargs, result):
    return {"z_points": int(result.z_grid.size)}


def _ensemble_info(args, kwargs, result):
    net = args[0] if args else kwargs["net"]
    eta = 1.0 - float(result.averaged_populations[: net.n_sites].sum())
    return {"nodes": int(result.node_count), "eta": eta}


def _csv_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, info extractor)
FUNCTIONS = [
    ("enaqt.config", "parse_config", "config.parse_config", None),
    ("enaqt.lattice", "build_hamiltonian", "lattice.build_hamiltonian", None),
    ("enaqt.propagate", "evolve_unitary", "propagate.evolve_unitary", None),
    ("enaqt.propagate", "evolve_trapped", "propagate.evolve_trapped", None),
    ("enaqt.propagate", "evolve_lindblad", "propagate.evolve_lindblad", _z_points),
    ("enaqt.propagate", "sink_no_return_check", "propagate.sink_no_return_check", None),
    ("enaqt.decoherence", "ensemble_average", "decoherence.ensemble_average",
     _ensemble_info),
    ("enaqt.decoherence", "decoherence_strength", "decoherence.decoherence_strength", None),
    ("enaqt.analysis", "sweep_bandwidth", "analysis.sweep_bandwidth", None),
    ("enaqt.analysis", "enaqt_map", "analysis.enaqt_map", None),
    ("enaqt.analysis", "sweep_wavelength", "analysis.sweep_wavelength", None),
    ("enaqt.analysis", "dark_state_diagnostics", "analysis.dark_state_diagnostics", None),
    ("numpy.linalg", "eigh", "linalg.eigh", None),
    ("scipy.linalg", "expm", "linalg.expm", None),
]


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1, info]
        self._stack: list = []
        self._undo: list = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, info=None):
        self.spans[idx][2] = time.perf_counter()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")
        self.spans[idx][4] = info

    def wrap(self, fn, name: str, info=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                tracer.spans[idx][4] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        enaqt_modules = [m for n, m in list(sys.modules.items())
                         if (n == "enaqt" or n.startswith("enaqt.")) and m is not None]
        for module_name, attr, name, info in FUNCTIONS:
            original = getattr(sys.modules[module_name], attr)
            traced = self.wrap(original, name, info)
            self._replace(sys.modules[module_name], attr, traced)
            for mod in enaqt_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)
        result_cls = sys.modules["enaqt.analysis"].SweepResult
        self._replace(result_cls, "write_csv",
                      self.wrap(result_cls.write_csv, "cli.write_csv", _csv_bytes))
        self._replace(concurrent.futures, "ProcessPoolExecutor", self._traced_pool())

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _traced_pool(self):
        tracer = self
        base = concurrent.futures.ProcessPoolExecutor

        class TracedPool(base):
            """Pool whose lifetime is the ``analysis.pool`` span; counts the
            tasks mapped and the CPU its reaped workers used."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._span = tracer.open("analysis.pool")
                self._cpu0 = _children_cpu()
                self._tasks = 0
                self._closed = False

            def map(self, fn, *iterables, **kwargs):
                items = [list(it) for it in iterables]
                self._tasks += len(items[0]) if items else 0
                return super().map(fn, *items, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if not self._closed:
                    self._closed = True
                    tracer.close(self._span, {"tasks": self._tasks,
                                              "child_cpu_s": _children_cpu() - self._cpu0})

        return TracedPool


def aggregate(spans: list) -> dict:
    """Per span name: calls, total and self seconds, and summed info fields."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for k, (name, start, end, parent, info) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += end - start
        agg["self_s"] += end - start - child_time[k]
        for key, value in (info or {}).items():
            if key != "eta":
                agg[key] = agg.get(key, 0) + value
    return out


def ensemble_etas(spans: list) -> list:
    return [s[4]["eta"] for s in spans
            if s[0] == "decoherence.ensemble_average" and s[4] is not None]
