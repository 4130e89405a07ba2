"""Span tracing of g4vlines from outside the program.

``Tracer.install`` replaces every public function of the traced modules with
a timing wrapper, at every attribute of the package where a caller looks it
up: ``g4vlines.physics.linewidth_c`` as well as aliases made by
``from ._kernels import coincidence_histogram`` (``g4vlines.simulate``) or
re-exports in ``g4vlines/__init__.py``. ``uninstall`` puts the originals
back, so one process can alternate traced and untraced operations.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index of
the enclosing span (or -1) and ``counts`` holds work counts read off the
call's arguments and result at the same boundary. Spans stay in memory;
the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

# traced module -> layer name used as the span prefix
LAYERS = {
    "g4vlines._kernels": "kernels",
    "g4vlines.simulate": "simulate",
    "g4vlines.fitting": "fitting",
    "g4vlines.physics": "physics",
    "g4vlines.dataio": "dataio",
    "g4vlines.cli": "cli",
}


def _public_names(module) -> set[str]:
    if module.__name__ == "g4vlines.cli":
        return {"main"}
    return set(getattr(module, "__all__", ()))


def _file_bytes(args) -> int:
    """Size of every existing file named by a path argument (dataio calls)."""
    total = 0
    for arg in args:
        if isinstance(arg, (str, os.PathLike)) and os.path.isfile(arg):
            total += os.path.getsize(arg)
    return total


def _counts(layer: str, fn_name: str, args, result) -> dict | None:
    """Work counts at a layer boundary, read off arguments and result."""
    if layer == "kernels" and fn_name == "coincidence_histogram":
        a, b = args[0], args[1]
        photons = len(a) if a is b else len(a) + len(b)
        return {"photons": photons, "pairs": int(result.sum()),
                "bins": int(len(result))}
    if layer == "simulate" and fn_name == "simulate_scan_series":
        spectra, events = result
        return {"scan_points": sum(len(s) for s in spectra),
                "charge_events": sum(e.kind != "scan_start" for e in events)}
    if layer == "simulate" and fn_name == "simulate_ple_scan":
        return {"scan_points": len(result)}
    if layer == "fitting" and fn_name.startswith("fit_"):
        return {"fits": 1, "iterations": int(result.n_iterations),
                "converged": int(bool(result.converged))}
    if layer == "dataio":
        return {"bytes": _file_bytes(args)}
    return None


class Tracer:
    """In-memory span recorder with install/uninstall of call wrappers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name (the benchmark's op root)."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx][4] = _counts(layer, fn.__name__, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every traced layer where looked up."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        targets = {}
        for mod_name, layer in LAYERS.items():
            module = sys.modules[mod_name]
            for attr in _public_names(module):
                fn = getattr(module, attr)
                if inspect.isfunction(fn):
                    targets[fn] = layer
        wrappers = {}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "g4vlines" and not mod_name.startswith("g4vlines."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    if value not in wrappers:
                        wrappers[value] = self._wrap(targets[value], value)
                    setattr(module, attr, wrappers[value])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(span_lists, n_ops: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    Each element of ``span_lists`` is the span list of one process. A layer
    is entered by a span whose parent belongs to another layer; its busy time
    and call count add up only those entry spans, so nested calls inside a
    layer are not counted twice. Per-op values are averaged over ``n_ops``.
    Returns the metrics and the number of spans recorded under each name.
    """
    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, int] = {}
    self_time: dict[str, float] = {}
    duration: dict[str, float] = {}
    names_called: dict[str, int] = {}
    op_time = 0.0
    hbt_photons = 0
    kernel_bins = 0
    for spans in span_lists:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, counts) in enumerate(spans):
            dur = end - start
            names_called[name] = names_called.get(name, 0) + 1
            self_time[name] = self_time.get(name, 0.0) + dur - child_time[i]
            duration[name] = duration.get(name, 0.0) + dur
            if name == "op":
                op_time += dur
                continue
            layer = _layer(name)
            parent_name = spans[parent][0] if parent >= 0 else ""
            if _layer(parent_name) != layer:
                busy[layer] = busy.get(layer, 0.0) + dur
                calls[layer] = calls.get(layer, 0) + 1
            for key, value in (counts or {}).items():
                totals[f"{layer}.{key}"] = totals.get(f"{layer}.{key}", 0) + value
            if name == "kernels.coincidence_histogram" and counts:
                kernel_bins = max(kernel_bins, counts["bins"])
                if parent_name == "simulate.simulate_hbt":
                    hbt_photons += counts["photons"]

    ops = max(n_ops, 1)
    kernel_busy = busy.get("kernels", 0.0)
    pairs = totals.get("kernels.pairs", 0)
    fits = totals.get("fitting.fits", 0)
    metrics = {
        "kernels.busy_s": kernel_busy / ops,
        "kernels.calls": calls.get("kernels", 0) / ops,
        "kernels.photons": totals.get("kernels.photons", 0) / ops,
        "kernels.pairs": pairs / ops,
        "kernels.bins": kernel_bins,
        "kernels.pairs_per_s": pairs / kernel_busy if kernel_busy else 0.0,
        "kernels.share": kernel_busy / op_time if op_time else 0.0,
        "simulate.hbt_self_s": self_time.get("simulate.simulate_hbt", 0.0) / ops,
        "simulate.photons": hbt_photons / ops,
        "simulate.series_busy_s":
            duration.get("simulate.simulate_scan_series", 0.0) / ops,
        "simulate.scan_points": totals.get("simulate.scan_points", 0) / ops,
        "simulate.charge_events": totals.get("simulate.charge_events", 0) / ops,
        "fitting.busy_s": busy.get("fitting", 0.0) / ops,
        "fitting.fits": fits / ops,
        "fitting.iterations": totals.get("fitting.iterations", 0) / fits if fits else 0.0,
        "fitting.converged_ratio": totals.get("fitting.converged", 0) / fits if fits else 0.0,
        "physics.busy_s": busy.get("physics", 0.0) / ops,
        "physics.calls": calls.get("physics", 0) / ops,
        "dataio.busy_s": busy.get("dataio", 0.0) / ops,
        "dataio.bytes": totals.get("dataio.bytes", 0) / ops,
        "cli.self_s": self_time.get("cli.main", 0.0) / ops,
    }
    return metrics, names_called

