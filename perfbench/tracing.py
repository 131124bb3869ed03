"""Per-layer tracing of chaoslab from outside the package.

A :class:`Tracer` replaces public functions of ``chaoslab`` by wrappers at
the names the calling modules look up (``chaoslab.operator.eval_K_many``,
``chaoslab.models.gaussian_mean``, ...), only in this process and only
between :meth:`Tracer.install` and :meth:`Tracer.uninstall`.  Each wrapped
call records a span ``(layer, start, end, parent)`` and adds to the layer's
counters.  Self time is a span's duration minus the duration of its child
spans; it is computed from the recorded spans once the run ends.

Count-only hooks (``rng.substream``) add to a counter without opening a
span, so their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

import numpy as np

# layer name -> metric names, in reporting order: (count metric or None,
# second count metric or None, self-time metric or None)
LAYER_METRICS = {
    "kernel": ("kernel.builds", "kernel.pairs", "kernel.eval_K_s"),
    "geometry": (None, "geometry.metric_points", "geometry.metric_s"),
    "operator": ("operator.apply_calls", None, "operator.apply_s"),
    "field.spectrum": ("field.spectrum_calls", None, "field.spectrum_s"),
    "field.synth": (None, "field.draws", "field.synth_s"),
    "rng": ("rng.substreams", None, None),
    "chaos": (None, "chaos.trig_points", "chaos.trig_s"),
    "experiments": (None, "experiments.bootstrap_resamples",
                    "experiments.bootstrap_s"),
    "models.field": (None, None, "models.field_build_s"),
    "models.sample": (None, "models.draws", "models.sample_s"),
    "nonlinearity.gaussian_mean": ("nonlinearity.gaussian_mean_calls", None,
                                   "nonlinearity.gaussian_mean_s"),
    "nonlinearity.deriv": (None, "nonlinearity.deriv_points",
                           "nonlinearity.deriv_s"),
    "nonlinearity.window": (None, None, "nonlinearity.window_s"),
}


def _n_points(points) -> int:
    shape = np.shape(points)
    return int(np.prod(shape[:-1])) if len(shape) else 1


def _bootstrap_resamples(values, *args, **kwargs) -> int:
    # moment_norm returns before resampling when every value is zero
    from chaoslab import experiments
    if np.all(np.asarray(values) == 0.0):
        return 0
    return int(experiments.BOOTSTRAP_RESAMPLES)


# (module, attribute, layer, work(args, kwargs) -> int or None, span?)
# The work function gives the second count metric of the layer.
HOOKS = [
    ("chaoslab.operator", "eval_K_many", "kernel",
     lambda a, k: len(np.atleast_2d(a[0])) * len(np.atleast_2d(a[1])), True),
    *[(mod, "metric_many", "geometry", lambda a, k: _n_points(a[0]), True)
      for mod in ("chaoslab.geometry", "chaoslab.kernel", "chaoslab.operator",
                  "chaoslab.field", "chaoslab.models")],
    ("chaoslab.experiments", "apply_batch", "operator", None, True),
    ("chaoslab.experiments", "build_spectrum", "field.spectrum", None, True),
    ("chaoslab.experiments", "sample_field_values", "field.synth",
     lambda a, k: len(np.asarray(a[2])), True),
    ("chaoslab.rng", "substream", "rng", None, False),
    ("chaoslab.operator", "truncated_trig_deriv", "chaos",
     lambda a, k: int(np.size(a[0])), True),
    ("chaoslab.experiments", "moment_norm", "experiments",
     lambda a, k: _bootstrap_resamples(*a, **k), True),
    ("chaoslab.models", "moment_norm", "experiments",
     lambda a, k: _bootstrap_resamples(*a, **k), True),
    ("chaoslab.models", "build_model_field", "models.field", None, True),
    ("chaoslab.models", "sample_model_field", "models.sample",
     lambda a, k: 1, True),
    ("chaoslab.models", "gaussian_mean", "nonlinearity.gaussian_mean", None,
     True),
    ("chaoslab.nonlinearity", "NonlinearitySpec.deriv", "nonlinearity.deriv",
     lambda a, k: int(np.size(a[2])), True),
    ("chaoslab.nonlinearity", "window_norm_difference", "nonlinearity.window",
     None, True),
]


class Tracer:
    """Spans and counts of the wrapped chaoslab functions, kept in memory."""

    ROOT = "call"

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int]] = []
        self.calls = defaultdict(int)  # layer -> number of calls
        self.work = defaultdict(int)   # layer -> work items
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn, layer: str, work, span: bool):
        name_id = self._name_id(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[layer] += 1
            if work is not None:
                self.work[layer] += work(args, kwargs)
            if not span:
                return fn(*args, **kwargs)
            return self._run_span(name_id, fn, args, kwargs)
        return wrapper

    def _run_span(self, name_id, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        start = time.perf_counter()
        self.spans.append((name_id, start, start, parent))
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx] = (name_id, start, time.perf_counter(), parent)

    def call(self, fn, *args, **kwargs):
        """Run fn as a root span (one workload call)."""
        return self._run_span(self._name_id(self.ROOT), fn, args, kwargs)

    def install(self):
        for mod_name, attr, layer, work, span in HOOKS:
            owner = importlib.import_module(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if not hasattr(owner, leaf):
                continue  # layer absent from this version of the package
            fn = getattr(owner, leaf)
            self._saved.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, layer, work, span))

    def uninstall(self):
        while self._saved:
            owner, leaf, fn = self._saved.pop()
            setattr(owner, leaf, fn)

    def self_times(self) -> list[dict[str, float]]:
        """Per root span: layer -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_root: list[dict[str, float]] = []
        root_of = [0] * len(self.spans)
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            if parent < 0:
                per_root.append(defaultdict(float))
                root_of[i] = len(per_root) - 1
            else:
                root_of[i] = root_of[parent]
            per_root[root_of[i]][self.names[name_id]] += end - start - child[i]
        return per_root

    def sample_spans(self, limit: int) -> list[dict]:
        """The first ``limit`` spans, times relative to the first span."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [{"name": self.names[n], "start": s - t0, "end": e - t0,
                 "parent": p} for n, s, e, p in self.spans[:limit]]


def layer_metrics(tracer: Tracer, scales: list[float]) -> dict[str, float]:
    """Per-call counts (totals / calls) and median per-call self times.

    ``scales`` holds the host-speed factor of every traced call, in call
    order; self times are reported in the same nominal seconds as wall_s.
    """
    per_root = [{k: v * s for k, v in r.items()}
                for r, s in zip(tracer.self_times(), scales)]
    n_calls = len(scales)
    out: dict[str, float] = {}
    for layer, (calls_name, work_name, time_name) in LAYER_METRICS.items():
        if calls_name:
            out[calls_name] = tracer.calls[layer] / n_calls
        if work_name:
            out[work_name] = tracer.work[layer] / n_calls
        if time_name:
            out[time_name] = float(np.median([r.get(layer, 0.0)
                                              for r in per_root]))
    return out
