"""The workloads of the benchmark: cli-mix, and library, which deals the
closed-large, arcs-large and recovery op groups in one deck.

A workload builds what stays fixed in ``setup`` (timed as ``setup_s``) and
then hands out decks of ops.  An op returns its wall time and its relative
error against a closed form from ``oracles``; it raises ``OpFailure`` (or
any exception) when it fails.  Every input an op gets is drawn from the
seeded generator when its deck is dealt, outside the op's timer.  A run
measures whole decks, so every run sees the same mix of op kinds.
"""

import contextlib
import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np

from oracles import (
    arcsine_density,
    cheb_values,
    laurent_parts,
    real_union_moments,
    segment_bounded,
    segment_general_times_sqrt,
    segment_green,
)

# Pinned tolerances on the relative oracle error, per op kind.  An op past
# its tolerance counts as failed.  Each is at least five times the worst
# error seen over many seeds; the atom tolerances are criterion 11's.
TOLERANCES = {
    # closed-large
    "closed.ellipse": 1e-12,
    "closed.rounded-polygon": 1e-5,
    # arcs-large
    "arcs.segment": 1e-10,
    "arcs.union": 1e-9,
    "arcs.circular": 1e-8,
    "arcs.three-segment": 1e-8,
    # recovery
    "recovery.disk": 1e-6,
    "recovery.segment": 1e-4,
    "recovery.ellipse-charges": 1e-6,
    "recovery.log-potential-loop": 1e-3,
    "recovery.grid-atoms": 1e-2,
    "recovery.plemelj": 1e-6,
    # cli-mix
    "cli.solve-closed-circle": 1e-10,
    "cli.solve-closed-ellipse": 1e-10,
    "cli.solve-closed-polygon": 1e-3,
    "cli.solve-arcs": 1e-6,
    "cli.bounded": 1e-7,
    "cli.bounded-csv": 1e-5,
    "cli.moments": 1e-10,
    "cli.bounded-circular": 1e-6,
    "cli.recover-curve-disk": 1e-6,
    "cli.recover-curve-segment": 1e-4,
    "cli.recover-curve-charges": 1e-6,
    "cli.recover-area-csv": 1e-6,
    "cli.recover-area-binary": 1e-6,
    "cli.point-masses-csv": 1e-2,
    "cli.point-masses-binary": 1e-2,
    "cli.equilibrium": 1e-10,
    "cli.rerun": 0.0,
}


class OpFailure(Exception):
    """An op ended with a wrong exit code, mismatched bytes or a bad answer."""


# Every op belongs to one of three groups, the package's three jobs: the
# closed-contour solve, the arc-system solves and measure recovery.  Each
# workload has ops of all three, and each group's time is an end-to-end
# metric of its own, so that a change to one job shows even where the
# other two take most of a deck's time.
GROUPS = ("closed", "arcs", "recovery")


class Op:
    def __init__(self, kind, run, group):
        self.kind = kind
        self.tol = TOLERANCES[kind]
        self.run = run
        self.group = group


def _complex_normal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class Workload:
    """Shared plumbing: the package handle, the checker and the trace hooks.

    ``env`` is the environment for child processes, ``workdir`` a scratch
    directory inside the checkout.
    """

    # a run holds min_ops to max_ops ops, so its tail percentile is fixed:
    # p75 from 40 to 99 samples, p90 from 100 to 199
    min_ops, max_ops = 40, 99
    setup_every = 2  # decks per repeat of the set-up

    def __init__(self, cp, check, workdir, env):
        self.cp = cp
        self.check = check
        self.workdir = workdir
        self.env = env
        self.tracer = None
        self.in_process = False

    def oracle(self):
        return self.tracer.span("bench.oracle") if self.tracer else contextlib.nullcontext()

    def evaluator(self, u):
        return self.tracer.counting(u) if self.tracer else u

    def _timed(self, solve, check):
        t0 = time.perf_counter()
        answer = solve()
        with self.oracle():
            err = check(answer)
        return time.perf_counter() - t0, err


# ---------------------------------------------------------------------------
# closed-large: the on-curve S on closed contours, geometry out of the loop
# ---------------------------------------------------------------------------

# The geometry check rejects some valid rounded polygons: two nearly
# collinear samples of one straight edge can test as crossing.  Random
# vertices would trip it now and then, so the polygon is fixed.
POLYGON = {"type": "rounded-polygon", "corner_radius": 0.25,
           "vertices": [[1.2, 0.0], [0.0, 1.0], [-1.1, 0.1], [-0.2, -1.0]]}


class ClosedLarge(Workload):
    name = "closed-large"
    degree = 32

    def setup(self, rng):
        base = {"panels": 8, "nodes_per_panel": 512}
        return {
            "ellipse": self.cp.build_closed_contour(
                dict(base, type="ellipse", semi_axes=[2.0, 1.0])),
            "rounded-polygon": self.cp.build_closed_contour(dict(base, **POLYGON)),
        }

    def deck(self, rng, hosts):
        return [self._op(kind, host, rng) for kind, host in hosts.items()]

    def _op(self, kind, host, rng):
        t = host.nodes
        p = _complex_normal(rng, self.degree + 1)
        q = _complex_normal(rng, self.degree + 1)
        P, Q = laurent_parts(t, p, q, np.max(np.abs(t)), np.min(np.abs(t)))
        cp = self.cp

        def run():
            return self._timed(
                lambda: cp.solve_closed(cp.SampledDensity(host, P + Q), tolerance=None),
                lambda f: self.check.rel(f.values, P - Q))

        return Op("closed." + kind, run, "closed")


# ---------------------------------------------------------------------------
# arcs-large: moments, bounded and general solutions on arc systems
# ---------------------------------------------------------------------------

def _segment(a, b, per):
    return {"type": "segment", "a": a, "b": b, "panels": 8, "nodes_per_panel": per}


def _circular(theta_a, theta_b, per):
    return {"type": "circular", "center": [0.0, 0.0], "radius": 1.0,
            "theta_a": theta_a, "theta_b": theta_b, "panels": 8,
            "nodes_per_panel": per}


UNION = [(-1.0, -0.3), (0.2, 1.0)]  # the two intervals of criterion 07


class ArcsLarge(Workload):
    name = "arcs-large"
    degree = 8
    check_nodes = 64

    def setup(self, rng):
        specs = {
            "segment": [_segment([-1.0, 0.0], [1.0, 0.0], 256)],
            "union": [_segment([a, 0.0], [b, 0.0], 128) for a, b in UNION],
            "circular": [_circular(0.3, 1.4, 128), _circular(2.2, 4.0, 128)],
            "three-segment": [_segment([-1.0, 0.0], [-0.4, 0.0], 86),
                              _segment([0.1, 0.0], [1.0, 0.0], 86),
                              _segment([-0.5, 0.5], [0.5, 0.8], 84)],
        }
        systems = {}
        for kind, spec in specs.items():
            systems[kind] = self.cp.build_arc_system(spec)
            systems[kind].sqrtR_plus_nodes()
        return systems

    def deck(self, rng, systems):
        return [self._op(kind, system, rng) for kind, system in systems.items()]

    def _op(self, kind, system, rng):
        cp = self.cp
        t = system.nodes
        c = _complex_normal(rng, self.degree + 1)
        if kind == "segment":
            g_values = cheb_values(c, t.real)
        else:
            g_values = np.polynomial.polynomial.polyval(t, c)
        idx = np.arange(0, t.size, t.size // self.check_nodes)

        def solve():
            g = cp.SampledDensity(system, g_values)
            return cp.bounded_solution(g), cp.general_solution(g)

        def check(answer):
            report, general = answer
            if kind == "segment":
                return self._segment_error(c, t.real, report, general)
            return self._system_error(kind, system, c, g_values, idx, report, general)

        return Op("arcs." + kind, lambda: self._timed(solve, check), "arcs")

    def _segment_error(self, c, x, report, general):
        f0, p0, m0 = segment_bounded(c, x)
        scale = np.max(np.abs(c))
        if report.bounded:
            raise OpFailure("g with a nonzero T_0 part reported as bounded")
        return max(
            self.check.rel(report.solution.values, f0),
            self.check.rel(report.defect_poly.coefficients[0], p0, scale),
            self.check.rel(report.moments[0], m0, math.pi * scale),
            self.check.rel(general.values * 1j * np.sqrt(1.0 - x ** 2),
                           segment_general_times_sqrt(c, x)))

    def _system_error(self, kind, system, c, g_values, idx, report, general):
        # the residuals are a consistency check, not an independent oracle:
        # S is the package's own, applied at 64 evenly spaced nodes
        cp = self.cp
        scale = np.max(np.abs(g_values))
        t = system.nodes[idx]
        sf0 = cp.singular_S(report.solution, at_indices=idx, density_class="sqrt")
        sf = cp.singular_S(general, at_indices=idx, density_class="inverse_sqrt")
        err = max(
            self.check.rel(sf0, g_values[idx] + report.defect_poly(t), scale),
            self.check.rel(sf, g_values[idx], scale))
        if kind == "union":
            want = real_union_moments(
                UNION, lambda x: np.polynomial.polynomial.polyval(x, c),
                report.moments.size)
            err = max(err, self.check.rel(report.moments, want))
        return err


# ---------------------------------------------------------------------------
# recovery: curve, loop, grid and boundary-limit work, no on-curve solve
# ---------------------------------------------------------------------------

class Recovery(Workload):
    name = "recovery"

    def setup(self, rng):
        cp = self.cp
        circle = {"type": "circle", "radius": 1.0, "panels": 8}
        return {
            "disk": cp.build_closed_contour(dict(circle, nodes_per_panel=128)),
            "segment": cp.build_arc_system([_segment([-1.0, 0.0], [1.0, 0.0], 64)]),
            "ellipse": cp.build_closed_contour({
                "type": "ellipse", "semi_axes": [1.5, 0.75], "panels": 8,
                "nodes_per_panel": 64}),
            "plemelj": cp.build_closed_contour(dict(circle, nodes_per_panel=2048)),
        }

    def deck(self, rng, hosts):
        # the log-potential loop runs twice so that, in library's deck, the
        # p90 tail falls inside a pair of like ops rather than between two
        return [
            self._disk(hosts["disk"], rng),
            self._segment(hosts["segment"], rng),
            self._charges(hosts["ellipse"], rng),
            self._loop(hosts["segment"], rng),
            self._loop(hosts["segment"], rng),
            self._grid(rng),
            self._plemelj(hosts["plemelj"], rng),
        ]

    @staticmethod
    def _harmonic(rng):
        # harmonic additions to u leave every recovered density unchanged
        a = 0.3 * _complex_normal(rng, 3)
        return lambda z: float(np.real(a[0] * z + a[1] * z * z + a[2] * z ** 3))

    def _disk(self, host, rng):
        h = self._harmonic(rng)

        def u(z):
            return max(math.log(abs(z)), 0.0) + h(z)

        def check(est):
            return max(self.check.rel(est.curve_density.values.real * 2 * math.pi, 1.0),
                       self.check.rel(est.total_mass, 1.0))

        return Op("recovery.disk", lambda: self._timed(
            lambda: self.cp.recover_curve_density(self.evaluator(u), host), check),
            "recovery")

    def _segment_check(self, host):
        x = host.nodes.real
        keep = np.abs(x) <= 0.9
        want = arcsine_density(x[keep], -1.0, 1.0)

        def check(est):
            return max(self.check.rel(est.curve_density.values.real[keep] / want, 1.0),
                       self.check.rel(est.total_mass, 1.0))

        return check

    def _segment(self, host, rng):
        green, h = segment_green(-1.0, 1.0), self._harmonic(rng)

        def u(z):
            return green(z) + h(z)

        return Op("recovery.segment", lambda: self._timed(
            lambda: self.cp.recover_curve_density(self.evaluator(u), host),
            self._segment_check(host)), "recovery")

    def _charges(self, host, rng):
        inside = complex(*(0.3 * rng.uniform(-1, 1, 2)))
        outside = 3.0 * np.exp(2j * math.pi * rng.uniform())
        masses = rng.uniform(0.5, 1.5, 2) * rng.choice([-1.0, 1.0], 2)
        charges = [(inside, masses[0]), (outside, masses[1])]

        def u(z):
            return math.fsum(m * math.log(abs(z - a)) for a, m in charges)

        # no charge sits on the curve, so the density must vanish; scale it
        # by the density the charges would have if spread along the curve
        scale = float(np.sum(np.abs(masses))) / (2 * math.pi * 1.5)

        def check(est):
            return max(self.check.rel(est.curve_density.values, 0.0, scale),
                       self.check.rel(est.total_mass, 0.0, 1.0))

        return Op("recovery.ellipse-charges", lambda: self._timed(
            lambda: self.cp.recover_curve_density(self.evaluator(u), host), check),
            "recovery")

    def _loop(self, host, rng):
        # criterion 09: the recovered arcsine measure has potential -log 2
        # at every node of the segment
        cp = self.cp
        green, h = segment_green(-1.0, 1.0), self._harmonic(rng)

        def u(z):
            return green(z) + h(z)

        def solve():
            est = cp.recover_curve_density(self.evaluator(u), host)
            return np.array([cp.log_potential(est, z) for z in host.nodes])

        return Op("recovery.log-potential-loop", lambda: self._timed(
            solve, lambda loop: self.check.rel(loop, -math.log(2.0), 1.0)), "recovery")

    def _grid(self, rng):
        # two atoms near -1 and +1 on an 801^2 lattice over [-2, 2]^2; an atom
        # on a lattice point would make u infinite there, so each sits at a
        # seeded cell with a fixed offset inside it
        cp = self.cp
        h = 0.005
        xs = -2.0 + h * np.arange(801)
        cells = rng.integers(-10, 11, size=(2, 2))
        atoms = [complex(-1.0 + h * (cells[0, 0] + 0.37), h * (cells[0, 1] + 0.61)),
                 complex(1.0 + h * (cells[1, 0] + 0.37), h * (cells[1, 1] + 0.61))]
        masses = rng.uniform(0.5, 1.5, 2)
        X, Y = np.meshgrid(xs, xs)
        Z = X + 1j * Y
        U = sum(m * np.log(np.abs(Z - a)) for a, m in zip(atoms, masses))
        radius = 0.1

        def solve():
            grid = cp.PotentialField(values=U, x0=xs[0], y0=xs[0], h=h)
            return (cp.detect_point_masses(grid, cluster_radius=radius),
                    cp.recover_area_density(grid))

        def check(answer):
            pm, area = answer
            found = sorted(pm.point_masses, key=lambda r: r[0].real)
            if len(found) != 2:
                raise OpFailure(f"found {len(found)} atoms, expected 2")
            return max(
                self.check.rel([a for a, _ in found], atoms, radius),
                self.check.rel([m for _, m in found], masses),
                self.check.rel(area.total_mass, float(np.sum(masses))))

        return Op("recovery.grid-atoms", lambda: self._timed(solve, check), "recovery")

    def _plemelj(self, host, rng):
        # criterion 03 settings: degree-16 trigonometric density, h0 = 0.02,
        # five levels; both Plemelj identities hold exactly
        t = host.nodes
        a, b = _complex_normal(rng, 17), _complex_normal(rng, 16)
        values = (np.polynomial.polynomial.polyval(t, a)
                  + np.polynomial.polynomial.polyval(1.0 / t, np.concatenate(([0], b))))
        scale = float(np.max(np.abs(values)))
        cp = self.cp
        return Op("recovery.plemelj", lambda: self._timed(
            lambda: cp.plemelj_residuals(cp.SampledDensity(host, values),
                                         h0=0.02, levels=5),
            lambda res: self.check.rel(max(res), 0.0, scale)), "recovery")


# ---------------------------------------------------------------------------
# library: the three op groups above, one deck of each per library deck
# ---------------------------------------------------------------------------

class Library(Workload):
    name = "library"
    min_ops, max_ops = 100, 199
    groups = (ClosedLarge, ArcsLarge, Recovery)

    def __init__(self, *args):
        self.members = [group(*args) for group in self.groups]
        super().__init__(*args)

    @property
    def tracer(self):
        return self._tracer

    @tracer.setter
    def tracer(self, tracer):
        self._tracer = tracer
        for member in self.members:
            member.tracer = tracer

    def setup(self, rng):
        return [member.setup(rng) for member in self.members]

    def deck(self, rng, states):
        return [op for member, state in zip(self.members, states)
                for op in member.deck(rng, state)]


# ---------------------------------------------------------------------------
# cli-mix: what a command-line user waits for, one child process at a time
# ---------------------------------------------------------------------------

def _read_table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _solution(out):
    """Nodes and samples from a solution.csv: index, s, re_z, im_z, re_f, im_f."""
    data = _read_table(out / "solution.csv")
    return data[:, 2] + 1j * data[:, 3], data[:, 4] + 1j * data[:, 5]


def _summary(out):
    return json.loads((out / "summary.json").read_text())


def _group(config):
    return {"solve-closed": "closed", "solve-arcs": "arcs", "bounded": "arcs",
            "moments": "arcs"}.get(config["command"], "recovery")


def _pairs(values):
    return np.array([complex(re, im) for re, im in values])


def _write_grid(stem, values, x0, h, binary):
    """A potential lattice in the CLI's csv (x,y,u) or binary+header form."""
    ny, nx = values.shape
    if binary:
        values.astype("<f8").tofile(f"{stem}.f64")
        with open(f"{stem}.json", "w", encoding="ascii") as fh:
            json.dump({"nx": nx, "ny": ny, "x0": x0, "y0": x0, "h": h}, fh)
        return {"family": "binary", "data": f"{stem}.f64", "header": f"{stem}.json"}
    X, Y = np.meshgrid(x0 + h * np.arange(nx), x0 + h * np.arange(ny))
    table = np.column_stack([X.ravel(), Y.ravel(), values.ravel()])
    np.savetxt(f"{stem}.csv", table, fmt="%.17g", delimiter=",", header="x,y,u",
               comments="")
    return {"family": "csv", "path": f"{stem}.csv"}


class CliMix(Workload):
    name = "cli-mix"
    setup_every = 1
    # configs run a second time (criterion 13), drawn per deck without
    # replacement: one solve-closed, three arc-system and two cheap recovery
    # configs.  Within each group the costs are close, so the draw barely
    # moves the timings.  The cheap reruns also set where the median op
    # falls: op times cluster near 0.3 s (arc-system, segment and grid
    # runs) and 0.75 s (runs that validate a closed curve), and with 14 of
    # 22 ops in the cheap cluster the median lies well inside it, not at
    # the gap, where a few slow ops would flip it to the other cluster.
    rerun_groups = ((("solve-closed-circle", "solve-closed-ellipse", "solve-closed-polygon"), 1),
                    (("solve-arcs", "bounded", "bounded-csv", "moments", "bounded-circular"), 3),
                    (("recover-curve-segment", "point-masses-csv", "point-masses-binary"), 2))

    def __init__(self, *args):
        super().__init__(*args)
        self.decks = 0

    def setup(self, rng):
        """Grids for the grid commands and a solution.csv fed back as a rhs."""
        cp = self.cp
        work = self.workdir / "inputs"
        work.mkdir(parents=True, exist_ok=True)
        state = {"area": [], "atoms": []}
        # recover-area: a quadratic whose discrete Laplacian is exactly 2 alpha
        h = 0.01
        xs = -1.0 + h * np.arange(201)
        X, Y = np.meshgrid(xs, xs)
        for binary in (False, True):
            alpha, beta, gamma = rng.uniform(0.5, 2.0), rng.normal(), rng.normal()
            U = alpha * (X ** 2 + Y ** 2) / 2 + beta * (X ** 2 - Y ** 2) + gamma * X * Y
            spec = _write_grid(work / f"area-{int(binary)}", U, xs[0], h, binary)
            state["area"].append((spec, alpha / math.pi))
        # point-masses: two atoms at seeded cells, off the lattice points
        h = 0.02
        xs = -2.0 + h * np.arange(201)
        X, Y = np.meshgrid(xs, xs)
        for binary in (False, True):
            cells = rng.integers(-5, 6, size=(2, 2))
            atoms = np.array([complex(-1.0 + h * (cells[0, 0] + 0.37), h * (cells[0, 1] + 0.61)),
                              complex(1.0 + h * (cells[1, 0] + 0.37), h * (cells[1, 1] + 0.61))])
            masses = rng.uniform(0.5, 1.5, 2)
            U = sum(m * np.log(np.abs(X + 1j * Y - a)) for a, m in zip(atoms, masses))
            spec = _write_grid(work / f"atoms-{int(binary)}", U, xs[0], h, binary)
            state["atoms"].append((spec, atoms, masses))
        # a 6-column solution table of T_n on the segment, as `moments` writes it
        host = cp.build_arc_system([_segment([-1.0, 0.0], [1.0, 0.0], 32)])
        n = int(rng.integers(1, 9))
        path = work / "fed-back-solution.csv"
        cp.write_solution_csv(path, host, cheb_values(np.eye(n + 1)[n], host.nodes.real))
        state["fed_back"] = (str(path), n)
        return state

    def deck(self, rng, state):
        # the outputs of the previous deck are checked by now
        shutil.rmtree(self.workdir / f"deck-{self.decks}", ignore_errors=True)
        self.decks += 1
        deck_dir = self.workdir / f"deck-{self.decks}"
        deck_dir.mkdir(parents=True, exist_ok=True)
        ops = []
        for kind, config, check in self._configs(rng, state):
            path = deck_dir / f"{len(ops)}.json"
            path.write_text(json.dumps(config))
            ops.append((kind, path, check, _group(config)))
        kinds = [op[0] for op in ops]
        picks = [kinds.index(kind) for group, n in self.rerun_groups
                 for kind in rng.choice(group, size=n, replace=False)]
        deck = [Op("cli." + kind, self._run(path, deck_dir / f"out-{i}", check), group)
                for i, (kind, path, check, group) in enumerate(ops)]
        deck += [Op("cli.rerun", self._rerun(ops[i][1], deck_dir / f"out-{i}",
                                             deck_dir / f"rerun-{i}"), ops[i][3])
                 for i in picks]
        return deck

    def _cli(self, config, out):
        argv = ["--config", str(config), "--out", str(out), "--serial"]
        t0 = time.perf_counter()
        if self.in_process:
            code, err = self.cp.cli.main(argv), ""
        else:
            proc = subprocess.run([sys.executable, "-m", "cauchypot.cli", *argv],
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=150)
            code, err = proc.returncode, proc.stderr
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise OpFailure(f"exit code {code} (expected 0): {err.strip()[-300:]}")
        return elapsed

    def _run(self, config, out, check):
        def run():
            elapsed = self._cli(config, out)
            with self.oracle():
                return elapsed, check(out)

        return run

    def _rerun(self, config, first, out):
        def run():
            elapsed = self._cli(config, out)
            names = sorted(p.name for p in first.iterdir())
            if names != sorted(p.name for p in out.iterdir()) or any(
                    (first / n).read_bytes() != (out / n).read_bytes() for n in names):
                raise OpFailure(f"rerun of {config.name} is not byte-identical")
            return elapsed, 0.0

        return run

    def _configs(self, rng, state):
        """(kind, config, check) for one deck, covering all eight commands."""
        makers = [self._closed_circle, self._closed_ellipse, self._closed_polygon,
                  self._solve_arcs, self._bounded, self._bounded_csv, self._moments,
                  self._bounded_circular, self._curve_disk, self._curve_segment,
                  self._curve_charges]
        out = [make(rng, state) for make in makers]
        for i, form in enumerate(("csv", "binary")):
            out.append(self._area(form, *state["area"][i]))
            out.append(self._atoms(form, *state["atoms"][i]))
        out.append(self._equilibrium(rng, state))
        return out

    def _closed(self, kind, spec, n, tolerance=None):
        config = {"command": "solve-closed",
                  "geometry": {"curve": dict(spec, panels=8)},
                  "rhs": {"family": "monomial", "degree": n}}
        if tolerance:
            config["tolerances"] = {"residual": tolerance}

        def check(out):
            z, f = _solution(out)
            return self.check.rel(f, z ** n)  # 0 lies inside every curve

        return kind, config, check

    def _closed_circle(self, rng, state):
        return self._closed("solve-closed-circle", {
            "type": "circle", "radius": rng.uniform(0.5, 2.0), "nodes_per_panel": 32},
            int(rng.integers(0, 9)))

    def _closed_ellipse(self, rng, state):
        r = rng.uniform(0.5, 1.5)
        return self._closed("solve-closed-ellipse", {
            "type": "ellipse", "semi_axes": [2 * r, r], "nodes_per_panel": 64},
            int(rng.integers(0, 9)))

    def _closed_polygon(self, rng, state):
        # corners converge only algebraically: 512 nodes give about 1e-4
        return self._closed("solve-closed-polygon", dict(POLYGON, nodes_per_panel=64),
                            int(rng.integers(0, 5)), tolerance=1e-2)

    def _solve_arcs(self, rng, state):
        n, p0 = int(rng.integers(0, 9)), complex(*rng.normal(size=2))
        config = {"command": "solve-arcs", "rhs": {"family": "chebyshev-T", "degree": n},
                  "geometry": {"arcs": [_segment([-1.0, 0.0], [1.0, 0.0], 32)]},
                  "defect_poly": [[p0.real, p0.imag]], "tolerances": {"residual": 1e-4}}

        def check(out):
            z, f = _solution(out)
            x = z.real
            return self.check.rel(f * 1j * np.sqrt(1.0 - x ** 2),
                                  segment_general_times_sqrt(np.eye(n + 1)[n], x, p0))

        return "solve-arcs", config, check

    def _bounded_segment(self, kind, rhs, n, per):
        config = {"command": "bounded", "rhs": rhs,
                  "geometry": {"arcs": [_segment([-1.0, 0.0], [1.0, 0.0], per)]}}

        def check(out):
            z, f = _solution(out)
            f0, _, _ = segment_bounded(np.eye(n + 1)[n], z.real)
            summary = _summary(out)
            if summary["bounded"] is not True:
                raise OpFailure("T_n with n >= 1 must have a bounded solution")
            return max(self.check.rel(f, f0),
                       self.check.rel(_pairs(summary["moments"]), 0.0, math.pi))

        return kind, config, check

    def _bounded(self, rng, state):
        n = int(rng.integers(1, 9))
        return self._bounded_segment("bounded", {"family": "chebyshev-T", "degree": n}, n, 64)

    def _bounded_csv(self, rng, state):
        path, n = state["fed_back"]
        return self._bounded_segment("bounded-csv", {"family": "csv", "path": path}, n, 32)

    def _moments(self, rng, state):
        ivs = [(rng.uniform(-1.2, -0.9), rng.uniform(-0.4, -0.2)),
               (rng.uniform(0.1, 0.3), rng.uniform(0.9, 1.2))]
        n = int(rng.integers(0, 7))
        config = {"command": "moments", "rhs": {"family": "monomial", "degree": n},
                  "geometry": {"arcs": [_segment([a, 0.0], [b, 0.0], 32) for a, b in ivs]}}

        def check(out):
            want = real_union_moments(ivs, lambda x: x ** n, 2)
            return self.check.rel(_pairs(_summary(out)["moments"]), want)

        return "moments", config, check

    def _bounded_circular(self, rng, state):
        lo, n = rng.uniform(0.1, 0.5), int(rng.integers(0, 5))
        config = {"command": "bounded", "rhs": {"family": "monomial", "degree": n},
                  "geometry": {"arcs": [_circular(lo, lo + 1.1, 16),
                                        _circular(lo + 1.9, lo + 3.7, 16)]}}

        def check(out):
            # the summary residual of S f0 = g + P: a consistency check
            return self.check.rel(_summary(out)["residual"], 0.0, 1.0)

        return "bounded-circular", config, check

    def _curve_disk(self, rng, state):
        r, center = rng.uniform(0.5, 2.0), list(rng.uniform(-0.5, 0.5, 2))
        config = {"command": "recover-curve",
                  "geometry": {"curve": {"type": "circle", "radius": r, "center": center,
                                         "panels": 8, "nodes_per_panel": 32}},
                  "potential": {"family": "disk-wall", "radius": r, "center": center}}

        def check(out):
            _, f = _solution(out)
            return max(self.check.rel(f * 2 * math.pi * r, 1.0),
                       self.check.rel(_summary(out)["total_mass"], 1.0))

        return "recover-curve-disk", config, check

    def _curve_segment(self, rng, state):
        a, b = rng.uniform(-1.5, -0.5), rng.uniform(0.5, 1.5)
        config = {"command": "recover-curve",
                  "geometry": {"arcs": [_segment([a, 0.0], [b, 0.0], 32)]},
                  "potential": {"family": "segment-green", "a": a, "b": b}}

        def check(out):
            z, f = _solution(out)
            x = z.real
            keep = np.abs(x - 0.5 * (a + b)) <= 0.45 * (b - a)
            return max(self.check.rel(f[keep] / arcsine_density(x[keep], a, b), 1.0),
                       self.check.rel(_summary(out)["total_mass"], 1.0))

        return "recover-curve-segment", config, check

    def _curve_charges(self, rng, state):
        inside = list(0.3 * rng.uniform(-1, 1, 2))
        outside = list(np.array([3.0, 1.5]) * rng.choice([-1.0, 1.0], 2))
        masses = [rng.uniform(0.5, 1.5), -rng.uniform(0.5, 1.5)]
        config = {"command": "recover-curve",
                  "geometry": {"curve": {"type": "ellipse", "semi_axes": [1.5, 0.75],
                                         "panels": 8, "nodes_per_panel": 32}},
                  "potential": {"family": "point-charges",
                                "charges": [inside + masses[:1], outside + masses[1:]]}}
        scale = sum(abs(m) for m in masses) / (2 * math.pi * 1.5)

        def check(out):
            # no charge on the curve: the density and the mass must vanish
            _, f = _solution(out)
            return max(self.check.rel(f, 0.0, scale),
                       self.check.rel(_summary(out)["total_mass"], 0.0, 1.0))

        return "recover-curve-charges", config, check

    def _area(self, form, spec, density):
        def check(out):
            return self.check.rel(_read_table(out / "density.csv")[:, 2], density)

        return f"recover-area-{form}", {"command": "recover-area", "potential": spec}, check

    def _atoms(self, form, spec, atoms, masses):
        radius = 0.2

        def check(out):
            found = _read_table(out / "masses.csv")
            if found.shape[0] != 2:
                raise OpFailure(f"found {found.shape[0]} atoms, expected 2")
            found = found[np.argsort(found[:, 1])]
            return max(self.check.rel(found[:, 1] + 1j * found[:, 2], atoms, radius),
                       self.check.rel(found[:, 3], masses))

        return (f"point-masses-{form}",
                {"command": "point-masses", "potential": spec, "cluster_radius": radius},
                check)

    def _equilibrium(self, rng, state):
        r, center = rng.uniform(0.5, 2.0), list(rng.uniform(-0.5, 0.5, 2))
        config = {"command": "equilibrium", "shape": {
            "type": "disk", "radius": r, "center": center, "panels": 8,
            "nodes_per_panel": 32}}

        def check(out):
            _, f = _solution(out)
            return max(self.check.rel(f * 2 * math.pi * r, 1.0),
                       self.check.rel(_summary(out)["total_mass"], 1.0))

        return "equilibrium", config, check
