"""Outside-in span tracing of torseform's public functions.

Each traced function or method is replaced by a wrapper that records a span
(id, parent span, root span, start, end) and per-function call counts, self
time and propagated exceptions.  ``from .metric import christoffel`` binds a
second name in the importing module, so a plain function is rebound under
every name in every torseform module that refers to it; patching only the
defining module would miss the calls made through those copies.  Methods are
patched once on their class.  Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

PACKAGE = "torseform"

# <module>.<qualname> of every traced layer boundary.
TARGETS = (
    "expr.parse", "expr.eval_float",
    "jets.eval_jet_env",
    "metric.MetricField.at", "metric.VectorField.at",
    "metric.VectorField.unit_at", "metric.VectorField.norm_jet",
    "metric.christoffel", "metric.riemann_components",
    "metric.covariant_derivative", "metric.sectional_curvature",
    "linalg.orthonormalize",
    "immersion.Immersion.jets", "immersion.Immersion.point",
    "immersion.induced_metric", "immersion.frames",
    "immersion.gauss_equation_residual",
    "classify.classify", "classify.fit_torse_forming",
    "classify.geodesic_unit_check",
    "rectifying.rectifying_scene", "rectifying.verify_tangential_vanishes",
    "rectifying.verify_normal_vanishes",
    "warped.trace_integral_curve", "warped.warping_ode_residual",
    "warped.fit_tanh_integral", "warped.verify_ambient_decomposition",
    "scenes.load_scene", "scenes.sample_ambient_points",
    "scenes.sample_parameter_points",
    "runner.run", "runner.report_to_json", "cli.main",
)


class Tracer:
    """Install with ``install()``, remove with ``uninstall()``.

    ``keep_results`` names targets whose return values are kept, for ratios
    that need what a call produced.
    """

    def __init__(self, keep_results=()):
        self.names = TARGETS
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.spans = []     # (span id, parent id or -1, root id, target index, t0, t1)
        self.results = {name: [] for name in keep_results}
        self._stack = []    # open spans: [span id, root id, seconds in children]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original) in install order

    def _wrap(self, index: int, fn):
        kept = self.results.get(self.names[index])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, parent[1] if parent else sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[index] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.calls[index] += 1
                self.self_s[index] += (t1 - t0) - frame[2]
                if parent is not None:
                    parent[2] += t1 - t0
                self.spans.append((sid, parent[0] if parent else -1, frame[1],
                                   index, t0, t1))
            if kept is not None:
                kept.append(result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and name.partition(".")[0] == PACKAGE]
        for index, target in enumerate(self.names):
            module_name, _, qualname = target.partition(".")
            # import_module, not getattr on the package: the package attribute
            # `torseform.classify` is the function, not the module
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original, self._wrap(index, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(index, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, original, wrapped)

    def _patch(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def counts_by_root(self) -> dict:
        """{root span id: {target: calls}} in root order."""
        out: dict = {}
        for _, _, root, index, _, _ in sorted(self.spans):
            per = out.setdefault(root, {})
            per[self.names[index]] = per.get(self.names[index], 0) + 1
        return out
