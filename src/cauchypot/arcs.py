"""Solution theory for the dominant singular equation on systems of arcs.

With L a union of N disjoint arcs, R the monic degree-2N polynomial with
roots at the endpoints, and sqrt(R) the branch that is single-valued off L
and ~ z^N at infinity, the operator S_L has an N-dimensional kernel spanned
by p(t)/sqrt(R)+(t) over polynomials p of degree < N.  Every L^1 solution of
S_L f = g is

    f(x) = S[g * sqrtR+](x) / sqrtR+(x) + P(x) / sqrtR+(x),

with P an arbitrary polynomial of degree <= N-1.  A bounded solution

    f0(x) = sqrtR+(x) * S[g / sqrtR+](x)

exists iff the N solvability moments int t^k g / sqrtR+ dt vanish; when
they do not, f0 instead solves the modified equation S_L f0 = g + P with a
computable defect polynomial P built from the moments and the polynomial
part Q of sqrt(R) at infinity.

Everything here works on the graded node sets of the geometry layer, where
the two weighted quadrature folds (divide or multiply samples by the
plus values of the arc's own square-root factor) are spectrally accurate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cauchy import singular_S
from .errors import GeometryError, ResolutionError
from .geometry import ArcSystem, _by_rows, _number, _read_only
from .quadrature import _exact_sums, _held, _weighted_sums
from .sampling import SampledDensity

__all__ = [
    "ComplexPolynomial",
    "SolveReport",
    "sqrtR_polynomial_part",
    "homogeneous_basis",
    "solvability_moments",
    "general_solution",
    "candidate_f0",
    "defect_polynomial",
    "modified_residual",
    "bounded_solution",
    "holder_diagnostic",
]


@dataclass(frozen=True, eq=False)
class ComplexPolynomial:
    """Polynomial with complex coefficients, ascending degree order."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.coefficients, dtype=complex))
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coefficients must be a non-empty 1-d sequence")
        object.__setattr__(self, "coefficients", c)

    @property
    def degree(self):
        nz = np.nonzero(self.coefficients)[0]
        return int(nz[-1]) if nz.size else 0

    def __call__(self, z):
        return np.polynomial.polynomial.polyval(z, self.coefficients)

    def to_json(self):
        return [[float(c.real), float(c.imag)] for c in self.coefficients]

    @classmethod
    def from_json(cls, pairs):
        """From [re, im] pairs of numbers (``geometry._number``), lowest degree first."""
        return cls(np.array([complex(_number(re), _number(im)) for re, im in pairs]))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of a bounded-solution attempt on an arc system.

    ``solution`` always satisfies the modified equation S_L f = g + P; when
    ``bounded`` is true the defect P is numerically zero and ``residual`` is
    taken against g itself.  ``endpoint_values``, derived from ``bounded``,
    follow the order of the system's endpoint list (a_0, b_0, a_1, ...):
    zero by the continuity limit when bounded, NaN markers otherwise since
    1/sqrt(R) terms blow up.
    """

    solution: SampledDensity
    moments: np.ndarray
    defect_poly: ComplexPolynomial
    residual: float
    bounded: bool

    @property
    def endpoint_values(self):
        fill = 0.0 if self.bounded else complex("nan")
        return np.full(2 * self.moments.size, fill, dtype=complex)

    def to_json(self, solution_csv):
        return {
            "bounded": bool(self.bounded),
            "moments": [[float(m.real), float(m.imag)] for m in self.moments],
            "defect_poly": self.defect_poly.to_json(),
            "residual": float(self.residual),
            "solution_csv": str(solution_csv),
        }


def _require_system(host):
    if not isinstance(host, ArcSystem):
        raise GeometryError("arc-system solver needs an ArcSystem host")
    return host


def sqrtR_polynomial_part(system):
    """Polynomial part Q of sqrt(R) at infinity, monic of degree N.

    R(t)/t^{2N} = 1 + r_1/t + ... feeds the square-root series
    2 s_j = r_j - sum_{i=1}^{j-1} s_i s_{j-i}; only the first N terms enter
    the polynomial part.
    """
    _require_system(system)
    n = system.n_arcs
    c = system.R_coeffs  # ascending, degree 2N, monic
    r = np.zeros(n + 1, dtype=complex)
    r[1:] = c[2 * n - 1:n - 1:-1]  # r_j = c_{2N-j}
    s = np.zeros(n + 1, dtype=complex)
    s[0] = 1.0
    for j in range(1, n + 1):
        acc = r[j]
        for i in range(1, j):
            acc -= s[i] * s[j - i]
        s[j] = 0.5 * acc
    return ComplexPolynomial(s[::-1].copy())


def homogeneous_basis(system):
    """The N kernel elements t^k / sqrt(R)+(t), sampled at the nodes."""
    _require_system(system)
    s_plus = system.sqrtR_plus_nodes()
    return [SampledDensity(system, system.nodes ** k / s_plus) for k in range(system.n_arcs)]


def solvability_moments(g):
    """Moments m_k = int t^k g(t) / sqrt(R)+(t) dt, k = 0..N-1.

    The inverse square root is folded into the graded rule, so polynomial g
    is integrated exactly.  All N sums go through one exact summation, each
    as ``integrate`` takes it.
    """
    system = _require_system(g.host)
    t_powers = _held(system, _moment_powers)[0]
    return _weighted_sums(system.dt_weights, t_powers * (g.values / system.sqrtR_plus_nodes()))


def general_solution(g, P=None):
    """f = S[g * sqrtR+]/sqrtR+ + P/sqrtR+, the full L^1 solution family.

    P selects the kernel component; degree must stay <= N-1.
    """
    system = _require_system(g.host)
    s_plus = system.sqrtR_plus_nodes()
    weighted = SampledDensity(system, g.values * s_plus)
    sw = singular_S(weighted, density_class="sqrt")
    vals = sw.values / s_plus
    if P is not None:
        if not isinstance(P, ComplexPolynomial):
            P = ComplexPolynomial(np.asarray(P, dtype=complex))
        if P.degree > system.n_arcs - 1:
            raise ValueError(
                f"kernel polynomial degree {P.degree} exceeds N-1 = {system.n_arcs - 1}"
            )
        vals = vals + P(system.nodes) / s_plus
    return SampledDensity(system, vals)


def candidate_f0(g):
    """f0 = sqrtR+ * S[g / sqrtR+], the bounded-solution candidate.

    Vanishes like sqrt(distance) at every endpoint whenever g is Hoelder;
    solves S_L f0 = g exactly when the solvability moments vanish, and the
    modified equation S_L f0 = g + P otherwise.
    """
    system = _require_system(g.host)
    s_plus = system.sqrtR_plus_nodes()
    inner = SampledDensity(system, g.values / s_plus)
    si = singular_S(inner, density_class="inverse_sqrt")
    return SampledDensity(system, s_plus * si.values)


def defect_polynomial(g):
    """The defect P with S_L f0 = g + P, degree <= N-1.

    Expanding the divided difference (Q(z) - Q(w))/(z - w) of the polynomial
    part Q of sqrt(R) reduces P to a moment sum:
    P_i = (1/pi i) * sum_{m >= i+1} Q_m * m_{m-1-i}.
    """
    system = _require_system(g.host)
    return _defect_from_moments(system, solvability_moments(g))


def _defect_from_moments(system, m):
    """The defect polynomial of the solvability moments m of g."""
    n = system.n_arcs
    q = sqrtR_polynomial_part(system).coefficients
    p = np.zeros(n, dtype=complex)
    for i in range(n):
        acc = 0.0 + 0.0j
        for mm in range(i + 1, n + 1):
            acc += q[mm] * m[mm - 1 - i]
        p[i] = acc / (np.pi * 1j)
    return ComplexPolynomial(p)


def modified_residual(g):
    """sup-norm residual of the modified equation S_L f0 = g + P at nodes."""
    system = _require_system(g.host)
    f0 = candidate_f0(g)
    sf0 = singular_S(f0, density_class="sqrt")
    P = defect_polynomial(g)
    rhs = g.values + P(system.nodes)
    return float(np.max(np.abs(sf0.values - rhs)))


def _moment_powers(system):
    """(t^k, tau^k, |tau|^k) at the nodes, k < N, stacked by k: the
    solvability moments' powers in t and in tau = (t - c)/rho, c the mean of
    the endpoints and rho their largest distance from c."""
    ends, t = system.endpoints, system.nodes
    c = np.mean(ends)
    tau = (t - c) / np.max(np.abs(ends - c))
    k = range(system.n_arcs)
    return tuple(_read_only(np.array([x ** j for j in k])) for x in (t, tau, np.abs(tau)))


def _moments_vanish(g, system):
    """Whether the N solvability moments of g are zero to rounding.

    They are taken in the basis ((t - c)/rho)^k, c the mean of the endpoints
    and rho their largest distance from c; all N vanish in it exactly when
    they do in t^k.  Each is compared with the same sum over absolute
    values, sum |w| |tau|^k |g| / |sqrtR+|, at 1e-8.  Under z -> az + b both
    change by the same factor, so the verdict does not depend on where the
    system lies or on its size.  Each set of N sums is one exact summation.
    """
    _, tau_powers, abs_powers = _held(system, _moment_powers)
    base = g.values / system.sqrtR_plus_nodes()
    moments = _weighted_sums(system.dt_weights, tau_powers * base)
    sizes = _exact_sums(system.weights * (abs_powers * np.abs(base)))
    return all(abs(m) <= 1e-8 * size for m, size in zip(moments.tolist(), sizes.tolist()))


def bounded_solution(g):
    """Decide existence of a bounded solution and report the full outcome.

    A bounded solution exists when the solvability moments vanish, tested
    by ``_moments_vanish``; the report keeps the moments in t^k.
    """
    system = _require_system(g.host)
    moments = solvability_moments(g)
    bounded = _moments_vanish(g, system)
    f0 = candidate_f0(g)
    P = _defect_from_moments(system, moments)
    sf0 = singular_S(f0, density_class="sqrt")
    rhs = g.values if bounded else g.values + P(system.nodes)
    return SolveReport(
        solution=f0,
        moments=moments,
        defect_poly=P,
        residual=float(np.max(np.abs(sf0.values - rhs))),
        bounded=bounded,
    )


def holder_diagnostic(f, compact_margin, exponent=1.0):
    """Empirical Hoelder quotient away from the endpoints.

    Takes the max of |f(x) - f(y)| / |x - y|^exponent over pairs of nodes on
    the same arc whose distance to every system endpoint is at least
    ``compact_margin``.  Shrinking the margin toward 0 makes the quotient
    blow up exactly for densities in the 1/sqrt(R) class, which is the
    intended diagnostic.  A margin or exponent that is not finite and
    positive raises ValueError.
    """
    system = _require_system(f.host)
    if not (np.isfinite(compact_margin) and compact_margin > 0):
        raise ValueError("compact_margin must be finite and positive")
    if not (np.isfinite(exponent) and exponent > 0):
        raise ValueError("exponent must be finite and positive")
    ends = system.endpoints
    best = 0.0
    total_kept = 0
    off = system.arc_offsets
    for k, arc in enumerate(system.arcs):
        t = arc.nodes
        vals = f.values[off[k]:off[k] + arc.n_nodes]
        dist = np.min(np.abs(t[:, None] - ends[None, :]), axis=1)
        keep = dist >= compact_margin
        total_kept += int(np.count_nonzero(keep))
        tk = t[keep]
        vk = vals[keep]
        if tk.size < 2:
            continue
        col = np.arange(tk.size)

        def row_max(rows):
            # the pairs j > i of rows i; the others give 0 / 1, below any quotient
            later = col > col[rows, None]
            dv = np.where(later, np.abs(vk[rows, None] - vk), 0.0)
            dx = np.where(later, np.abs(tk[rows, None] - tk), 1.0)
            return np.max(dv / dx ** exponent, axis=1)

        # a NaN quotient makes the arc's maximum NaN, which max() then drops
        best = max(best, float(np.max(_by_rows(row_max, tk.size, tk.size))))
    if total_kept < 2:
        raise ResolutionError(
            "fewer than 2 nodes survive the compact margin; refine the mesh "
            "or shrink the margin"
        )
    return best
