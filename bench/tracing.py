"""Per-layer spans and counters for the traced benchmark pass.

``Tracer.install()`` replaces the public functions of every ``tpcurves``
module with wrappers, at every place the function object is bound: the
defining module, each module that did ``from .x import f``, and the package
namespace.  The methods ``SurfacePatch.jet`` and ``SurfacePatch.value`` are
wrapped on the class, ``expr.evaluate`` on its module (it recurses through
that attribute, so every node evaluation is counted) and ``numpy.cross`` on
numpy.  ``Tracer.uninstall()`` puts every original back.  Nothing under
``src/`` changes, and the untraced passes run the program untouched.

A span records calls, its inclusive time (outermost call of its group only)
and its self time: its duration minus the time covered by child spans.
``expr.evaluate`` and ``numpy.cross`` are counted without a span, so their
time shows inside the span that called them.  ``report.fmt`` (once per CSV
value) and the ``jets`` module (operator overloads) have no boundary cheap
enough to wrap; their time shows in the calling span.
"""

import functools
import inspect
import sys
import types
from time import perf_counter

# Spans with per-layer metrics of their own (README.md); every other public
# function is grouped under its module (layer) name.
NAMED_GROUPS = {
    "scene.load_scene": "scene.load",
    "surface.SurfacePatch.jet": "surface.jet",
    "surface.SurfacePatch.value": "surface.value",
    "surface.ambient_jet": "surface.ambient_jet",
    "forms.first_form": "forms.first_form",
    "forms.second_form": "forms.second_form",
    "forms.christoffel": "forms.christoffel",
    "curves.reparametrize_arclength": "curves.reparametrize",
    "curves.surface_curvatures": "curves.surface_curvatures",
    "tangent.trace_tangent_curve": "tangent.trace",
    "tangent.decompose_position": "tangent.decompose",
    "tangent.frame_coefficients": "tangent.identity",
    "tangent.velocity_coefficients": "tangent.identity",
    "tangent.position_component_report": "tangent.identity",
    "tangent.binormal_formula_check": "tangent.identity",
    "tangent.ratio_identity_check": "tangent.identity",
    "tangent.geodesic_curvature_formula": "tangent.identity",
    "isometry.register_pair": "isometry.sweep",
    "isometry.verify_metric_match": "isometry.sweep",
    "isometry.invariance_report": "isometry.invariance",
    "isometry.tangent_position_preservation": "isometry.invariance",
    "isometry.second_form_relation": "isometry.invariance",
    "checks.run_checks": "checks.run",
}

LAYERS = ("cli", "checks", "scene", "expr", "surface", "forms", "curves",
          "tangent", "isometry", "report")
_METHODS = (("surface", "SurfacePatch", "jet"),
            ("surface", "SurfacePatch", "value"))


class _Group:
    __slots__ = ("calls", "self_s", "total_s", "depth", "jets", "ambient",
                 "_jets0", "_ambient0")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.jets = 0  # patch.jet calls made inside the outermost span
        self.ambient = 0  # ambient_jet calls made inside the outermost span
        self._jets0 = self._ambient0 = 0


class Tracer:
    """Aggregated spans and counters for one traced pass."""

    def __init__(self, package):
        self.package = package
        self.groups = {}
        self.counters = {}
        self._stack = []
        self._restore = []
        self._seen_keys = set()

    # --- counters --------------------------------------------------------

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _repeat(self, counter, key):
        if key in self._seen_keys:
            self.count(counter)
        self._seen_keys.add(key)

    def group(self, name):
        grp = self.groups.get(name)
        if grp is None:
            grp = self.groups[name] = _Group()
        return grp

    # --- wrappers --------------------------------------------------------

    def _span(self, fn, group_name, hook):
        grp = self.group(group_name)
        jet_grp = self.group("surface.jet")
        ambient_grp = self.group("surface.ambient_jet")
        stack = self._stack
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = grp.depth == 0
            if outer:
                grp._jets0, grp._ambient0 = jet_grp.calls, ambient_grp.calls
            grp.depth += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                grp.depth -= 1
                grp.calls += 1
                grp.self_s += elapsed - frame[0]
                if outer:
                    grp.total_s += elapsed
                    grp.jets += jet_grp.calls - grp._jets0
                    grp.ambient += ambient_grp.calls - grp._ambient0
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
            return result

        return wrapper

    def _counter(self, fn, name):
        counters = self.counters
        counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _modules(self):
        prefix = self.package.__name__ + "."
        return [self.package] + sorted(
            (m for name, m in sys.modules.items() if name.startswith(prefix)),
            key=lambda m: m.__name__)

    def install(self):
        """Wrap every public function at every binding site."""
        import numpy

        modules = self._modules()
        replacements = {}  # id(original) -> wrapper
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for name, obj in list(vars(module).items()):
                if (name.startswith("_")
                        or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != module.__name__):
                    continue
                key = f"{layer}.{name}"
                if key == "expr.evaluate":
                    replacements[id(obj)] = self._counter(
                        obj, "expr.evaluate_calls")
                elif key != "report.fmt":
                    replacements[id(obj)] = self._span(
                        obj, NAMED_GROUPS.get(key, layer), _HOOKS.get(key))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    self._replace(module, name, replacements[id(obj)])
        for layer, cls_name, attr in _METHODS:
            cls = getattr(sys.modules[f"{self.package.__name__}.{layer}"],
                          cls_name)
            key = f"{layer}.{cls_name}.{attr}"
            self._replace(cls, attr, self._span(
                vars(cls)[attr], NAMED_GROUPS[key], None))
        self._replace(numpy, "cross",
                      self._counter(numpy.cross, "numpy.cross_calls"))

    def _replace(self, owner, name, value):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def __enter__(self):
        """Install for one operation; repeats are counted per operation."""
        self._seen_keys.clear()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# --- hooks: counts that need a call's arguments or result -----------------

def _on_reparametrize(tracer, args, result):
    tracer.count("curves.samples", len(result))
    tracer._repeat("curves.repeat_reparametrize",
                   ("reparametrize", args["patch"].name, args["curve"].name,
                    args["samples"]))


def _on_sweep(tracer, args, result):
    grid = tuple(args["grid"])
    tracer.count("isometry.grid_nodes", grid[0] * grid[1])
    if "pair" in args:
        source, target = args["pair"].source, args["pair"].target
    else:
        source, target = args["source"], args["target"]
    tracer._repeat("isometry.repeat_sweeps",
                   ("sweep", source.name, target.name, grid))


def _on_trace(tracer, args, result):
    tracer.count("tangent.trace_vertices", len(result.vertices))


def _on_write_text(tracer, args, result):
    tracer.count("report.write_calls")
    tracer.count("report.bytes_written", len(args["text"].encode("utf-8")))


_HOOKS = {
    "curves.reparametrize_arclength": _on_reparametrize,
    "isometry.register_pair": _on_sweep,
    "isometry.verify_metric_match": _on_sweep,
    "tangent.trace_tangent_curve": _on_trace,
    "report.write_text": _on_write_text,
}


def layer_metrics(tracer, scale=1.0):
    """Every per-layer metric, times multiplied by ``scale``."""
    g = tracer.group
    c = tracer.counters.get

    def ratio(num, den):
        return num / den if den else 0.0

    layer_self = {f"{name}.layer_self_s": 0.0 for name in LAYERS}
    for name, grp in tracer.groups.items():
        layer_self[f"{name.partition('.')[0]}.layer_self_s"] += \
            grp.self_s * scale
    report_self = layer_self["report.layer_self_s"]
    out = {
        "scene.load_calls": g("scene.load").calls,
        "scene.load_s": g("scene.load").total_s * scale,
        "expr.evaluate_calls": c("expr.evaluate_calls", 0),
        "surface.jet_calls": g("surface.jet").calls,
        "surface.jet_self_s": g("surface.jet").self_s * scale,
        "surface.ambient_jet_calls": g("surface.ambient_jet").calls,
        "surface.ambient_jet_self_s":
            g("surface.ambient_jet").self_s * scale,
        "surface.value_calls": g("surface.value").calls,
        "forms.first_form_calls": g("forms.first_form").calls,
        "forms.first_form_self_s": g("forms.first_form").self_s * scale,
        "forms.second_form_calls": g("forms.second_form").calls,
        "forms.second_form_self_s": g("forms.second_form").self_s * scale,
        "forms.christoffel_calls": g("forms.christoffel").calls,
        "forms.christoffel_self_s": g("forms.christoffel").self_s * scale,
        "numpy.cross_calls": c("numpy.cross_calls", 0),
        "curves.reparametrize_calls": g("curves.reparametrize").calls,
        "curves.reparametrize_self_s":
            g("curves.reparametrize").self_s * scale,
        "curves.samples": c("curves.samples", 0),
        "curves.ambient_jets_per_sample":
            ratio(g("curves.reparametrize").ambient, c("curves.samples", 0)),
        "curves.repeat_reparametrize": c("curves.repeat_reparametrize", 0),
        "curves.surface_curvatures_self_s":
            g("curves.surface_curvatures").self_s * scale,
        "tangent.trace_calls": g("tangent.trace").calls,
        "tangent.trace_self_s": g("tangent.trace").self_s * scale,
        "tangent.trace_vertices": c("tangent.trace_vertices", 0),
        "tangent.jets_per_vertex":
            ratio(g("tangent.trace").jets, c("tangent.trace_vertices", 0)),
        "tangent.identity_calls": g("tangent.identity").calls,
        "tangent.identity_self_s": g("tangent.identity").self_s * scale,
        "tangent.jets_per_identity":
            ratio(g("tangent.identity").jets, g("tangent.identity").calls),
        "tangent.decompose_calls": g("tangent.decompose").calls,
        "isometry.sweep_calls": g("isometry.sweep").calls,
        "isometry.sweep_self_s": g("isometry.sweep").self_s * scale,
        "isometry.grid_nodes": c("isometry.grid_nodes", 0),
        "isometry.repeat_sweeps": c("isometry.repeat_sweeps", 0),
        "isometry.invariance_self_s":
            g("isometry.invariance").self_s * scale,
        "checks.run_self_s": g("checks.run").self_s * scale,
        "report.write_calls": c("report.write_calls", 0),
        "report.write_s": report_self,
        "report.bytes_written": c("report.bytes_written", 0),
        "cli.self_s": layer_self["cli.layer_self_s"],
    }
    out.update(layer_self)
    return out
