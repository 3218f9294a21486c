"""Layer tracing of nil3lab from outside the package.

`Tracer.install` replaces each seam function below with a timing wrapper in
every loaded ``nil3lab`` module that binds it, so a call is counted whichever
module made it (``verify`` and ``surface`` import ``christoffel_closed_form``
by name, ``solver`` binds ``barrier_f`` and ``spsolve``).  A seam whose name
no longer exists is skipped and reports zero calls.  Spans (layer, start,
end, parent) are kept in memory; ``layer_metrics`` turns them into call
counts and self times (span minus the child spans inside it).

Newton steps are counted from the ``nil3lab.solver`` logger, which emits one
record per Newton iteration: records emitted inside a ``dirichlet_solve``
span, minus the number of those solves (the converged check logs too).
"""

from __future__ import annotations

import functools
import importlib
import json
import logging
import os
import sys
from time import perf_counter


def _exterior_radii(args, kwargs, result):
    # truncation radii that run the outer-value search (s = 0 solves nothing)
    return {"exterior_radii": len(result.schedule) if result.s > 0 else 0}


def _mesh_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[1]
    return {"mesh_bytes": os.path.getsize(path)}


# (layer, defining module, attribute, patch every nil3lab binding?, note hook)
SEAMS = [
    ("solver.exterior_solve", "nil3lab.solver", "exterior_solve", True, _exterior_radii),
    ("solver.asymptotic_solve", "nil3lab.solver", "asymptotic_solve", True, None),
    ("solver.dirichlet_solve", "nil3lab.solver", "dirichlet_solve", True, None),
    ("solver.mse_operator", "nil3lab.solver", "mse_operator", True, None),
    ("solver.jacobian", "nil3lab.solver", "_newton_jacobian", True, None),
    # the linear-solve layer is scipy's spsolve as the solver module calls it
    ("solver.linsolve", "nil3lab.solver", "spsolve", False, None),
    ("radial.barrier_f", "nil3lab.radial", "barrier_f", True, None),
    ("radial.radial_mse_solve", "nil3lab.radial", "radial_mse_solve", True, None),
    ("radial.flux_height_difference", "nil3lab.radial", "flux_height_difference", True, None),
    ("radial.catenoid_height", "nil3lab.radial", "catenoid_height", True, None),
    ("nilcore.integrate_geodesic", "nil3lab.nilcore", "integrate_geodesic", True, None),
    ("nilcore.christoffel_closed_form", "nil3lab.nilcore", "christoffel_closed_form", True, None),
    (
        "nilcore.balanced_metric_from_translations",
        "nil3lab.nilcore",
        "balanced_metric_from_translations",
        True,
        None,
    ),
    ("surface.gaussian_curvature_riemann", "nil3lab.surface", "gaussian_curvature_riemann", True, None),
    ("surface.circle_action", "nil3lab.surface", "circle_action", True, None),
    ("surface.splitting_isometry", "nil3lab.surface", "splitting_isometry", True, None),
    ("verify.mean_curvature_residual", "nil3lab.verify", "mean_curvature_residual", True, None),
    ("verify.run_claim_checks", "nil3lab.verify", "run_claim_checks", True, None),
    ("meshio.export_mesh", "nil3lab.meshio", "export_mesh", True, _mesh_bytes),
]

# per-layer metrics reported by the benchmark: (name, unit)
PER_LAYER = [
    ("solver.linsolve.calls", "count"),
    ("solver.linsolve.s", "s"),
    ("solver.jacobian.calls", "count"),
    ("solver.jacobian.s", "s"),
    ("solver.mse_operator.calls", "count"),
    ("solver.mse_operator.s", "s"),
    ("solver.newton_steps", "count"),
    ("solver.dirichlet_solve.calls", "count"),
    ("solver.dirichlet_solve.s", "s"),
    ("solver.outer_evals_per_m", "count"),
    ("solver.exterior_search.s", "s"),
    ("radial.barrier_f.calls", "count"),
    ("radial.barrier_f.s", "s"),
    ("radial.radial_mse_solve.calls", "count"),
    ("radial.radial_mse_solve.s", "s"),
    ("radial.flux_height_difference.calls", "count"),
    ("nilcore.integrate_geodesic.calls", "count"),
    ("nilcore.integrate_geodesic.s", "s"),
    ("nilcore.christoffel_closed_form.calls", "count"),
    ("nilcore.christoffel_closed_form.s", "s"),
    ("nilcore.balanced_metric_from_translations.calls", "count"),
    ("nilcore.balanced_metric_from_translations.s", "s"),
    ("surface.gaussian_curvature_riemann.s", "s"),
    ("surface.circle_action.calls", "count"),
    ("surface.splitting_isometry.calls", "count"),
    ("verify.mean_curvature_residual.calls", "count"),
    ("verify.mean_curvature_residual.s", "s"),
    ("verify.run_claim_checks.s", "s"),
    ("radial.catenoid_height.calls", "count"),
    ("radial.catenoid_height.s", "s"),
    ("meshio.export_mesh.s", "s"),
    ("meshio.bytes_written", "bytes"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
]

START, END, PARENT = 1, 2, 3


class _NewtonRecords(logging.Handler):
    """Counts solver log records emitted while a Dirichlet solve is open."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.DEBUG)
        self.tracer = tracer

    def emit(self, record):
        spans = self.tracer.spans
        if any(spans[i][0] == "solver.dirichlet_solve" for i in self.tracer.stack):
            self.tracer.notes["solver_records"] = self.tracer.notes.get("solver_records", 0) + 1


class Tracer:
    """In-memory span recorder for one traced pass; install, run, uninstall."""

    def __init__(self, seams=SEAMS):
        self.seams = seams
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.stack: list[int] = []
        self.notes: dict[str, int] = {}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._handler = _NewtonRecords(self)
        self._logger_state = None

    def reset(self):
        self.spans, self.stack, self.notes = [], [], {}

    def span(self, layer):
        """Context manager recording one span around benchmark-side code."""
        return _Span(self, layer)

    def _wrap(self, layer, fn, note):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(layer):
                result = fn(*args, **kwargs)
            if note is not None:
                for key, val in note(args, kwargs, result).items():
                    tracer.notes[key] = tracer.notes.get(key, 0) + val
            return result

        return traced

    def install(self):
        for home in sorted({seam[1] for seam in self.seams}):
            try:
                importlib.import_module(home)
            except ImportError:
                pass  # every seam of a module that is gone reports zero calls
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "nil3lab" or name.startswith("nil3lab."))
        ]
        self.missing = []
        for layer, home, attr, everywhere, note in self.seams:
            home_mod = sys.modules.get(home)
            orig = getattr(home_mod, attr, None) if home_mod is not None else None
            if orig is None:
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, orig, note)
            targets = modules if everywhere else [home_mod]
            for mod in targets:
                for name, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        log = logging.getLogger("nil3lab.solver")
        self._logger_state = (log.level, log.propagate)
        log.setLevel(logging.INFO)
        log.propagate = False
        log.addHandler(self._handler)

    def uninstall(self):
        for mod, name, orig in reversed(self._patched):
            setattr(mod, name, orig)
        self._patched = []
        log = logging.getLogger("nil3lab.solver")
        log.removeHandler(self._handler)
        if self._logger_state is not None:
            log.setLevel(self._logger_state[0])
            log.propagate = self._logger_state[1]
            self._logger_state = None

    def nesting_errors(self) -> list[str]:
        """Spans whose parent does not enclose them (empty when tracing is sound)."""
        errors = []
        for idx, (layer, start, end, parent) in enumerate(self.spans):
            if end < start:
                errors.append(f"span {idx} {layer} ends before it starts")
            if parent >= 0:
                _, p_start, p_end, _ = self.spans[parent]
                if not (parent < idx and p_start <= start and end <= p_end):
                    errors.append(f"span {idx} {layer} escapes its parent {parent}")
        return errors

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls and self seconds, plus the derived solver counters."""
        child_time = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for idx, (layer, start, end, _) in enumerate(self.spans):
            calls[layer] = calls.get(layer, 0) + 1
            self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child_time[idx]

        # Dirichlet solves made inside an exterior solve, and the time the
        # exterior solve spends outside them (outer-value search, barrier)
        search_s = 0.0
        outer_solves = 0
        for idx, (layer, start, end, _) in enumerate(self.spans):
            if layer == "solver.exterior_solve":
                search_s += end - start
            elif layer == "solver.dirichlet_solve" and self._has_ancestor(idx, "solver.exterior_solve"):
                outer_solves += 1
                search_s -= end - start
        radii = self.notes.get("exterior_radii", 0)

        out = {}
        for name, _unit in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = calls.get(layer, 0)
            elif kind == "s" and not name.startswith("trace."):
                out[name] = self_s.get(layer, 0.0)
        solves = calls.get("solver.dirichlet_solve", 0)
        out["solver.newton_steps"] = self.notes.get("solver_records", 0) - solves
        out["solver.outer_evals_per_m"] = outer_solves / radii if radii else 0.0
        out["solver.exterior_search.s"] = search_s
        out["meshio.bytes_written"] = self.notes.get("mesh_bytes", 0)
        return out

    def _has_ancestor(self, idx, layer) -> bool:
        parent = self.spans[idx][PARENT]
        while parent >= 0:
            if self.spans[parent][0] == layer:
                return True
            parent = self.spans[parent][PARENT]
        return False

    def dump(self, path):
        """Write the spans as JSON lines: one [layer, start, end, parent] per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, layer: str):
        self.tracer = tracer
        self.layer = layer

    def __enter__(self):
        tr = self.tracer
        self.idx = len(tr.spans)
        self.rec = [self.layer, 0.0, 0.0, tr.stack[-1] if tr.stack else -1]
        tr.spans.append(self.rec)
        tr.stack.append(self.idx)
        self.rec[START] = perf_counter()
        return self

    def __exit__(self, *exc):
        self.rec[END] = perf_counter()
        self.tracer.stack.pop()
        return False
