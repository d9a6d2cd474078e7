"""In-process span tracer for one factormom command child.

Every public function of ``panel``, ``riskpipe``, ``momentum``, ``analytics``
and ``model`` (their ``__all__`` functions, plus ``Calendar.periods`` on the
class) is replaced by a timing wrapper at *every* factormom module attribute
that binds it: ``momentum.vol_normalize`` is the same object as
``riskpipe.vol_normalize``, and calls from the grid resolve through
``momentum``'s globals, so wrapping only ``riskpipe`` would miss them. The
CLI layer is the root span around ``cli.main``.

A span is ``[name, start, end, parent, rss_hwm_start_kb, rss_hwm_end_kb]``;
spans stay in memory until :meth:`Tracer.export`. Computed-work counters
(cells and bytes per CSV call, grid cells, distinct signal windows,
simulated cells) are taken from each call's arguments and result after its
span has closed.
"""

from __future__ import annotations

import functools
import os
import resource
import time

import numpy as np

LAYERS = ("panel", "riskpipe", "momentum", "analytics", "model")
ROOT_SPAN = "cli.main"
COUNTERS = (
    "panel.load_panel.cells", "panel.load_panel.bytes", "panel.emit_csv.cells",
    "panel.emit_csv.bytes", "panel.Calendar.periods.labels", "momentum.grid_sweep.cells",
    "momentum.grid_sweep.cells_missing", "model.simulated_cells",
)


def _rss_hwm_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _values_size(obj) -> int:
    cells = getattr(obj, "cells", None)
    return int((obj.values if cells is None else cells).size)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.wrapped: list[str] = [ROOT_SPAN]
        # panels whose signal windows were computed; held so ids stay unique
        self._signal_panels: dict[int, object] = {}
        self._signal_windows: set[tuple[int, int]] = set()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``count(tracer, result, *args, **kwargs)`` runs after the span ends.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, _rss_hwm_kb(), 0]
            self.spans.append(rec)
            self._stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                rec[5] = _rss_hwm_kb()
                self._stack.pop()
            if count is not None:
                count(self, result, *args, **kwargs)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules in place."""
        modules = [package] + [getattr(package, m) for m in (*LAYERS, "cli")]
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, type) or not callable(fn):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, _COUNTERS.get(name))
                self.wrapped.append(name)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapper)
        calendar = package.panel.Calendar
        periods = calendar.__dict__["periods"].__func__
        name = "panel.Calendar.periods"
        calendar.periods = staticmethod(self.wrap(name, periods, _COUNTERS[name]))
        self.wrapped.append(name)

    def export(self) -> dict:
        return {
            "spans": self.spans,
            "counters": self.counters,
            "signal_windows": len(self._signal_windows),
            "wrapped": self.wrapped,
        }


def _count_load(tr, result, path, *args, **kwargs):
    tr.counters["panel.load_panel.cells"] += _values_size(result)
    tr.counters["panel.load_panel.bytes"] += os.path.getsize(path)


def _count_emit(tr, result, obj, path, *args, **kwargs):
    tr.counters["panel.emit_csv.cells"] += _values_size(obj)
    tr.counters["panel.emit_csv.bytes"] += os.path.getsize(path)


def _count_periods(tr, result, *args, **kwargs):
    tr.counters["panel.Calendar.periods.labels"] += len(result)


def _count_grid(tr, result, *args, **kwargs):
    tr.counters["momentum.grid_sweep.cells"] += result.cells.size
    tr.counters["momentum.grid_sweep.cells_missing"] += int(np.isnan(result.cells).sum())


def _count_signal(tr, result, panel, m, n):
    tr._signal_panels[id(panel)] = panel
    tr._signal_windows.add((id(panel), int(n)))


def _count_simulate(tr, result, *args, **kwargs):
    tr.counters["model.simulated_cells"] += result.panel.values.size


_COUNTERS = {
    "panel.load_panel": _count_load,
    "panel.emit_csv": _count_emit,
    "panel.Calendar.periods": _count_periods,
    "momentum.grid_sweep": _count_grid,
    "momentum.signal": _count_signal,
    "model.simulate": _count_simulate,
}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, self seconds and RSS high-water-mark growth (MB).

    Self time is a span's duration minus the durations of its direct child
    spans, which nest inside it on the one thread a command runs on.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for (name, start, end, _, rss0, rss1), inner in zip(spans, child_s):
        t = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "rss_growth_mb": 0.0})
        t["calls"] += 1
        t["self_s"] += (end - start) - inner
        t["rss_growth_mb"] += (rss1 - rss0) / 1024.0
    return totals
