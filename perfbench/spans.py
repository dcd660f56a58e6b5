"""In-memory span tracer around the public functions of the bck_sim modules.

``instrument`` wraps every public function defined in a layer module and
patches each module attribute that holds it, so a call is traced whichever
module a caller looks the function up through (``bck_sim.nonlinear.
acceleration`` as well as ``bck_sim.model.acceleration``).  It also wraps
``PropagatorTable.build`` and the validation and arithmetic methods of
``SpectralField`` (so that field work lands in the spectral layer, not in
its caller's), and counts scipy.fft dispatches from the spectral module.
``restore`` puts every patched attribute back.  Nothing in the package
itself is changed on disk.

Spans are kept in flat arrays in call order (a parent precedes its
children), written out once at the end, and reduced to per-function call
counts, inclusive times and self times (span time minus child spans).
"""

import functools
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "bck_sim"
# The cli module is not wrapped: its layer time is the traced run_s minus
# the time of all top-level spans (cli.other_s).
LAYERS = ("config", "spectral", "model", "linear", "nonlinear", "energy")
# SpectralField methods traced as spectral spans; __post_init__ runs once per
# field built, and __rmul__ is the same function as __mul__.
FIELD_METHODS = ("__post_init__", "__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "copy")


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = [-1]

    def _name(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, func, on_result=None):
        """Return ``func`` recording one span per call under ``name``."""
        nid = self._name(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def counting(self, key, func):
        """Return ``func`` counting its calls under ``key``, without a span."""
        counters = self.counters
        counters.setdefault(key, 0)

        @functools.wraps(func)
        def counted(*args, **kwargs):
            counters[key] += 1
            return func(*args, **kwargs)

        return counted

    def save(self, path):
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class _CountingModule:
    """Stand-in for a module object that counts calls to its functions."""

    def __init__(self, module, tracer, key):
        self._module = module
        self._tracer = tracer
        self._key = key
        self._cache = {}
        tracer.counters.setdefault(key, 0)

    def __getattr__(self, attr):
        if attr not in self._cache:
            value = getattr(self._module, attr)
            if callable(value):
                value = self._tracer.counting(self._key, value)
            self._cache[attr] = value
        return self._cache[attr]


def _steps_taken(tracer, traj):
    tracer.count("nonlinear.steps", traj.n_samples - 1)


def _picard_iterations(tracer, result):
    tracer.count("nonlinear.picard_iterations", result[1].iterations)


_RESULT_HOOKS = {
    "nonlinear.solve": _steps_taken,
    "nonlinear.picard_solve": _picard_iterations,
}


def package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions(module, layer):
    """name -> function for the public functions ``module`` defines itself."""
    return {
        f"{layer}.{name}": obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    }


def _patch(patches, owner, attr, value):
    patches.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def instrument(tracer):
    """Wrap the layer modules' public functions; return the patch list."""
    layers = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    wrappers = {}
    for layer, module in layers.items():
        for name, func in public_functions(module, layer).items():
            wrappers[id(func)] = tracer.wrap(name, func, _RESULT_HOOKS.get(name))
    patches = []
    try:
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    _patch(patches, module, attr, wrappers[id(value)])
        table = layers["linear"].PropagatorTable
        build = table.__dict__["build"].__func__
        _patch(patches, table, "build", classmethod(tracer.wrap("linear.PropagatorTable.build", build)))
        field = layers["spectral"].SpectralField
        field_wrappers = {}
        for attr in FIELD_METHODS:
            func = field.__dict__[attr]
            if id(func) not in field_wrappers:
                name = f"spectral.SpectralField.{func.__name__}"
                field_wrappers[id(func)] = tracer.wrap(name, func)
            _patch(patches, field, attr, field_wrappers[id(func)])
        spectral = layers["spectral"]
        _patch(patches, spectral, "_fft", _CountingModule(spectral._fft, tracer, "spectral.fft_calls"))
    except BaseException:
        restore(patches)
        raise
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    patches.clear()


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------


def self_times(parent, start, end):
    """Span duration minus the summed duration of its direct children."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def descends_from(parent, mask):
    """True where some strict ancestor of the span is flagged in ``mask``."""
    anc = np.asarray(parent, dtype=np.int64).copy()
    flag = np.zeros(anc.size, dtype=bool)
    seen = np.asarray(mask, dtype=bool)
    while True:
        valid = anc >= 0
        if not valid.any():
            return flag
        flag[valid] |= seen[anc[valid]]
        nxt = np.full_like(anc, -1)
        nxt[valid] = anc[anc[valid]]
        seen = seen | flag
        anc = nxt


def reduce_spans(names, name_id, parent, start, end, run_start, run_end):
    """Per-function totals plus the accounting of the run interval."""
    name_id = np.asarray(name_id, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    dur = end - start
    self_t = self_times(parent, start, end)
    k = len(names)
    calls = np.bincount(name_id, minlength=k)
    total = np.bincount(name_id, weights=dur, minlength=k)
    self_sum = np.bincount(name_id, weights=self_t, minlength=k)
    functions = {
        name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_sum[i])}
        for i, name in enumerate(names)
    }
    top = parent < 0
    order = np.argsort(start[top])
    top_start, top_end = start[top][order], end[top][order]
    run_s = run_end - run_start
    top_s = float(dur[top].sum())
    accounting = {
        "min_self_s": float(self_t.min()) if self_t.size else 0.0,
        "top_level_overlap": bool(np.any(top_start[1:] < top_end[:-1])),
        "inside_run": bool(
            top_start.size == 0 or (top_start[0] >= run_start and top_end[-1] <= run_end)
        ),
    }
    layers_self = float(self_t.sum())
    other_s = run_s - top_s
    accounting["error_s"] = abs(layers_self + other_s - run_s)
    accounting["ok"] = (
        accounting["min_self_s"] >= -1e-9
        and not accounting["top_level_overlap"]
        and accounting["inside_run"]
        and accounting["error_s"] <= 1e-9 * max(run_s, 1.0)
    )
    return {
        "functions": functions,
        "run_s": run_s,
        "top_level_s": top_s,
        "other_s": other_s,
        "spans": int(dur.size),
        "accounting": accounting,
    }


def summarize(tracer, run_start, run_end):
    """JSON-ready summary of a finished traced run."""
    out = reduce_spans(
        tracer.names, tracer.name_id, tracer.parent, tracer.start, tracer.end, run_start, run_end
    )
    names = tracer.names
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    solve = np.zeros(len(names), dtype=bool)
    accel = np.zeros(len(names), dtype=bool)
    if "nonlinear.solve" in names:
        solve[names.index("nonlinear.solve")] = True
    if "model.acceleration" in names:
        accel[names.index("model.acceleration")] = True
    in_solve = descends_from(parent, solve[name_id])
    out["counters"] = dict(tracer.counters)
    out["counters"]["nonlinear.solve_accelerations"] = int(np.sum(in_solve & accel[name_id]))
    return out


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _fn(summary, name):
    return summary["functions"].get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})


def _sum(summary, names, field):
    return sum(_fn(summary, n)[field] for n in names)


def _per(num, den):
    return num / den if den else None


# metric prefix -> functions whose calls and self times it sums
_FUNCTION_METRICS = {
    "linear.solve_duhamel": ("linear.solve_duhamel",),
    "nonlinear.solve": ("nonlinear.solve",),
    "nonlinear.picard_apply": ("nonlinear.picard_apply",),
    "model.acceleration": ("model.acceleration",),
    "model.forcing_f": ("model.forcing_f",),
    "model.guard": ("model.check_degeneracy_guard",),
    "model.pde_residual": ("model.pde_residual",),
    "model.degeneracy_factor": ("model.degeneracy_factor",),
    "spectral.product_dealiased": ("spectral.product_dealiased",),
    "spectral.gradient_dot": ("spectral.gradient_dot",),
    "spectral.to_grid": ("spectral.to_grid",),
    "spectral.gauss": ("spectral.evaluate_gauss", "spectral.gradient_gauss", "spectral.project_gauss"),
    "energy.energy_series": ("energy.energy_series",),
    "energy.forcing_series": ("energy.forcing_series",),
    "energy.decay_fit": ("energy.decay_fit",),
}


def layer_metrics(summary, setup_s):
    """Metric name -> (value, unit); value None where it is undefined."""
    fns = summary["functions"]
    counters = summary["counters"]
    steps = counters.get("nonlinear.steps", 0)
    out = {
        "setup.import_s": (setup_s, "s"),
        "config.load_s": (_fn(summary, "config.load_config")["total_s"], "s"),
        "linear.table_builds": (_fn(summary, "linear.PropagatorTable.build")["calls"], "count"),
        "linear.table_build_s": (_fn(summary, "linear.PropagatorTable.build")["total_s"], "s"),
    }
    for metric, names in _FUNCTION_METRICS.items():
        out[f"{metric}.calls"] = (_sum(summary, names, "calls"), "count")
        out[f"{metric}.self_s"] = (_sum(summary, names, "self_s"), "s")
    solve_s = _fn(summary, "nonlinear.solve")["total_s"]
    step_s = _per(solve_s, steps)
    out.update(
        {
            "nonlinear.steps": (steps, "count"),
            "nonlinear.step_ms": (None if step_s is None else 1e3 * step_s, "ms"),
            # acceleration evaluations per accepted step; 0 when no step is taken
            "nonlinear.evals_per_step": (
                _per(counters.get("nonlinear.solve_accelerations", 0), steps) or 0.0,
                "evals/step",
            ),
            "nonlinear.picard_iterations": (counters.get("nonlinear.picard_iterations", 0), "count"),
            "nonlinear.norms.self_s": (
                _sum(summary, ("nonlinear.v_norm", "nonlinear.vtilde_norm"), "self_s"),
                "s",
            ),
            "model.guards_per_eval": (
                _per(out["model.guard.calls"][0], out["model.acceleration.calls"][0]) or 0.0,
                "guards/eval",
            ),
            "spectral.fft_calls": (counters.get("spectral.fft_calls", 0), "count"),
            "spectral.fields_built": (
                _fn(summary, "spectral.SpectralField.__post_init__")["calls"],
                "count",
            ),
            "energy.audits.self_s": (
                _sum(summary, ("energy.estimate_audit_linear", "energy.barrier_audit"), "self_s"),
                "s",
            ),
            "cli.other_s": (summary["other_s"], "s"),
        }
    )
    for layer in LAYERS:
        names = [n for n in fns if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = (_sum(summary, names, "self_s"), "s")
    return out
