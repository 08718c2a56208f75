"""Span recording around the package's public functions, from outside it.

``Tracer.install`` replaces each function in ``TARGETS`` with a wrapper that
records a span (name, start, end, parent span, op id) and counts the
exceptions that start in it.  The wrapper is put in place of every name
bound to the original anywhere in the package, so calls between modules
(``cauchypot.arcs.singular_S``, ``cauchypot.cli.bounded_solution``, ...)
are traced as well as calls from the benchmark.  Spans stay in memory until
the run ends.  Nothing inside the package is edited.
"""

import contextlib
import functools
import sys
import time
import weakref
from collections import Counter

import numpy as np

LAYERS = ("cli", "geometry", "cauchy", "closed", "arcs", "quadrature",
          "potential", "sampling")

# (module, attribute, span name); the span name starts with its layer.  The
# grid readers and writers live in potential.py but are file I/O like the
# CSV tables of sampling.py, so both count as the sampling (I/O) layer.
TARGETS = [
    ("cauchypot.cli", "main", "cli.main"),
    ("cauchypot.cli", "run_config", "cli.run_config"),
    ("cauchypot.geometry", "build_closed_contour", "geometry.build_closed"),
    ("cauchypot.geometry", "build_arc_system", "geometry.build_arcs"),
    ("cauchypot.geometry", "ArcSystem.sqrtR_plus_nodes", "geometry.sqrtR_plus"),
    ("cauchypot.cauchy", "singular_S", "cauchy.singular_S"),
    ("cauchypot.cauchy", "cauchy_transform", "cauchy.cauchy_transform"),
    ("cauchypot.cauchy", "boundary_value", "cauchy.boundary_value"),
    ("cauchypot.cauchy", "plemelj_residuals", "cauchy.plemelj_residuals"),
    ("cauchypot.closed", "solve_closed", "closed.solve_closed"),
    ("cauchypot.closed", "involution_residual", "closed.involution_residual"),
    ("cauchypot.arcs", "bounded_solution", "arcs.bounded_solution"),
    ("cauchypot.arcs", "general_solution", "arcs.general_solution"),
    ("cauchypot.arcs", "solvability_moments", "arcs.solvability_moments"),
    ("cauchypot.arcs", "candidate_f0", "arcs.candidate_f0"),
    ("cauchypot.arcs", "defect_polynomial", "arcs.defect_polynomial"),
    ("cauchypot.arcs", "modified_residual", "arcs.modified_residual"),
    ("cauchypot.arcs", "sqrtR_polynomial_part", "arcs.sqrtR_polynomial_part"),
    ("cauchypot.quadrature", "host_rule", "quadrature.host_rule"),
    ("cauchypot.quadrature", "integrate", "quadrature.integrate"),
    ("cauchypot.quadrature", "integrate_arclength", "quadrature.integrate_arclength"),
    ("cauchypot.quadrature", "closed_node_derivative", "quadrature.closed_node_derivative"),
    ("cauchypot.quadrature", "fd4_arc_derivative", "quadrature.fd4_arc_derivative"),
    ("cauchypot.quadrature", "analytic_pole_kernel", "quadrature.analytic_pole_kernel"),
    ("cauchypot.potential", "log_potential", "potential.log_potential"),
    ("cauchypot.potential", "recover_curve_density", "potential.recover_curve_density"),
    ("cauchypot.potential", "recover_area_density", "potential.recover_area_density"),
    ("cauchypot.potential", "detect_point_masses", "potential.detect_point_masses"),
    ("cauchypot.potential", "equilibrium_density", "potential.equilibrium_density"),
    ("cauchypot.sampling", "read_density_csv", "sampling.read_density_csv"),
    ("cauchypot.sampling", "write_density_csv", "sampling.write_density_csv"),
    ("cauchypot.sampling", "read_solution_csv", "sampling.read_solution_csv"),
    ("cauchypot.sampling", "write_solution_csv", "sampling.write_solution_csv"),
    ("cauchypot.potential", "read_potential_csv", "sampling.read_potential_csv"),
    ("cauchypot.potential", "write_potential_csv", "sampling.write_potential_csv"),
    ("cauchypot.potential", "read_potential_binary", "sampling.read_potential_binary"),
    ("cauchypot.potential", "write_potential_binary", "sampling.write_potential_binary"),
]


def _s_nodes(f, at_indices=None, density_class="smooth"):
    return f.host.n_nodes if at_indices is None else int(np.size(at_indices))


def _recovery_nodes(u, host, *args, **kwargs):
    return host.n_nodes


# work recorded per span, for the rate and per-node metrics
WORK = {
    "cauchy.singular_S": _s_nodes,
    "potential.recover_curve_density": _recovery_nodes,
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, op id, work]."""

    def __init__(self):
        self.spans = []
        self.errors = Counter()
        self.u_calls = 0
        self.op = None
        self._systems = {}
        self._stack = []
        self._patches = []
        self._last_error = None

    def _open(self, name, work):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self.op, work]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _error(self, name, exc):
        # count an exception once, in the innermost span it passes through
        if exc is not self._last_error:
            self._last_error = exc
            self.errors[name.split(".")[0]] += 1

    @contextlib.contextmanager
    def span(self, name):
        rec = self._open(name, 0)
        try:
            yield
        except Exception as exc:
            self._error(name, exc)
            raise
        finally:
            self._close(rec)

    def _first_call(self, system, *args, **kwargs):
        # 1 on the uncached first call of sqrtR_plus_nodes on a system; the
        # systems hold numpy arrays and do not hash, hence ids and weakrefs
        ref = self._systems.get(id(system))
        if ref is not None and ref() is system:
            return 0
        self._systems[id(system)] = weakref.ref(system)
        return 1

    def _wrap(self, name, fn):
        work = self._first_call if name == "geometry.sqrtR_plus" else WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self._error(name, exc)
                raise
            finally:
                self._close(rec)

        return wrapper

    def counting(self, u):
        """Evaluator that counts its calls, for potential.u_calls_per_node."""

        def counted(z):
            self.u_calls += 1
            return u(z)

        return counted

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cauchypot" or n.startswith("cauchypot.")]
        for modname, attr, name in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
            orig = getattr(owner, attr)
            wrapper = self._wrap(name, orig)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, wrapper)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def layer_metrics(tracer, n_ops):
    """Per-layer figures from the spans of one traced run.

    Counts and self times are per traced op.  A figure whose spans never run
    inside an op (geometry on library, which is built in set-up) is
    reported per traced set-up instead.  Self time is a span's duration
    minus that of its child spans.  Package calls made by the benchmark's
    own checks (spans under a bench.oracle span) belong to no layer: they
    count as unattributed time.
    """
    spans = tracer.spans
    dur = np.array([s[2] - s[1] for s in spans])
    child = np.zeros(len(spans))
    checking = np.zeros(len(spans), dtype=bool)  # a bench.oracle span or under one
    for i, s in enumerate(spans):  # a parent is recorded before its children
        if s[3] >= 0:
            child[s[3]] += dur[i]
            checking[i] = checking[s[3]]
        checking[i] |= s[0] == "bench.oracle"
    own = dur - child
    n_setups = max(1, sum(1 for s in spans if s[0] == "bench.setup"))

    def pick(match, anchor=None):
        """Spans that match, with the count to divide by: those in ops if
        any span matching ``anchor`` (default: ``match``) ran in an op,
        else those in set-up."""
        idx = [i for i, s in enumerate(spans) if match(s) and not checking[i]]
        in_ops = [i for i in idx if spans[i][4] is not None]
        anchored = in_ops if anchor is None else [
            i for i in in_ops if anchor(spans[i])]
        if anchored:
            return in_ops, max(n_ops, 1)
        return [i for i in idx if spans[i][4] is None], n_setups

    def named(*names):
        return pick(lambda s: s[0] in names)

    def layer(prefix):
        # geometry is per op only where geometry is built in ops, as its
        # build counts are; cached sqrtR_plus lookups alone do not count
        anchor = (lambda s: s[0].startswith("geometry.build_")) if prefix == "geometry" else None
        return pick(lambda s: s[0].startswith(prefix + "."), anchor)

    def calls(sel):
        return len(sel[0]) / sel[1]

    def self_s(sel):
        return float(np.sum(own[sel[0]])) / sel[1]

    def count(name):
        return sum(1 for i, s in enumerate(spans) if s[0] == name and not checking[i])

    def under(name, parent_match):
        return sum(1 for i, s in enumerate(spans) if s[0] == name and s[3] >= 0
                   and not checking[i] and parent_match(spans[s[3]][0]))

    def ratio(num, den):
        return num / den if den else 0.0

    s_sel = named("cauchy.singular_S")
    s_work = float(sum(spans[i][5] for i in s_sel[0]))
    closed_sel = named("geometry.build_closed")
    arcs_sel = named("geometry.build_arcs")
    out = {
        "cli.run_config.self_s": self_s(named("cli.run_config")),
        "geometry.build_closed.calls": calls(closed_sel),
        "geometry.build_closed.p50_s":
            float(np.median(dur[closed_sel[0]])) if closed_sel[0] else 0.0,
        "geometry.build_arcs.calls": calls(arcs_sel),
        "geometry.build_arcs.p50_s":
            float(np.median(dur[arcs_sel[0]])) if arcs_sel[0] else 0.0,
        "geometry.sqrtR_plus.self_s": self_s(pick(
            lambda s: s[0] == "geometry.sqrtR_plus" and s[5] == 1)),
        "cauchy.singular_S.calls": calls(s_sel),
        "cauchy.singular_S.self_s": self_s(s_sel),
        "cauchy.singular_S.nodes_per_s": ratio(s_work, float(np.sum(own[s_sel[0]]))),
        "cauchy.plemelj_residuals.self_s": self_s(named("cauchy.plemelj_residuals")),
        "closed.solve_closed.self_s": self_s(named("closed.solve_closed")),
        "closed.S_calls_per_solve": ratio(
            under("cauchy.singular_S", lambda n: n == "closed.solve_closed"),
            count("closed.solve_closed")),
        "arcs.moments_calls_per_solve": ratio(
            count("arcs.solvability_moments"), count("arcs.bounded_solution")),
        "arcs.S_calls_per_solve": ratio(
            under("cauchy.singular_S", lambda n: n.startswith("arcs.")),
            count("arcs.bounded_solution")),
        "quadrature.integrate.calls": calls(named("quadrature.integrate")),
        "quadrature.integrate.self_s": self_s(named("quadrature.integrate")),
        "potential.recover_curve_density.self_s":
            self_s(named("potential.recover_curve_density")),
        "potential.u_calls_per_node": ratio(tracer.u_calls, sum(
            s[5] for s in spans if s[0] == "potential.recover_curve_density")),
        "potential.log_potential.calls": calls(named("potential.log_potential")),
        "potential.log_potential.self_s": self_s(named("potential.log_potential")),
        "potential.grid.self_s": self_s(named(
            "potential.detect_point_masses", "potential.recover_area_density")),
    }
    for name in LAYERS:
        key = "sampling.io.self_s" if name == "sampling" else f"{name}.self_s"
        out[key] = self_s(layer(name))
        out[f"{name}.errors"] = float(tracer.errors[name])
    # unattributed: the own time of the bench.op spans, plus the whole time
    # of the checks inside them
    roots = [i for i, s in enumerate(spans) if s[0] == "bench.op"]
    checks = [i for i, s in enumerate(spans) if s[0] == "bench.oracle" and s[4] is not None]
    out["bench.unattributed_frac"] = ratio(
        float(np.sum(own[roots]) + np.sum(dur[checks])), float(np.sum(dur[roots])))
    return out
