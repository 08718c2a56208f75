"""Quadrature rules matched to the node layouts of the geometry layer.

Each host carries one rule over all its nodes, ``host_rule``.  Closed
contours carry the periodic trapezoid rule, which is spectrally accurate
for smooth integrands.  Chain arcs carry the composite trapezoid rule over
their points.  Graded arcs carry the rule induced by the cosine
substitution t = t(cos u): with nodes at the first-kind Chebyshev
parameters the plain weights

    W0_j = (pi/m) * sin(u_j) * (dt/dtau)_j

integrate smooth densities, and dividing the samples by the plus boundary
values of the arc's own square-root factor turns the same sum into the
first-kind Gauss-Chebyshev rule, exact for polynomial numerators.  This is
what makes densities with inverse-square-root endpoint growth integrable to
machine precision on the graded grid.

``singular_values`` is the one S (``pv_integrate`` is pi*i times S at one
node).  Both hosts split S into a part diagonal in a spectral basis and a
smooth remainder summed at a few proxy nodes and interpolated.  On a closed
contour the first part is the periodic Hilbert transform, one FFT sign
multiplier; the remainder at a proxy is the pole-subtracted row there
(subtracted kernel integral pi*i, the Fourier derivative of the density on
the diagonal) minus that transform.  Curves or data that leave the
remainder unresolved (rounded polygons, rough data) get the
pole-subtracted rows at every requested node: summed directly below
``_FMM_MIN_NODES`` nodes, and from there on with their far field taken
from the multipole expansions of ``_fmm_rows``, O(N log N) whether one row
is asked for or all.  On a graded arc, in the parameter tau = cos(u), the
arc's own part is diagonal in Chebyshev coefficients (length-2m FFTs), and
the remainder is the other arcs' sums and, on a circular arc, the
difference between its kernel and 1/(tau - tau_x).  Every other Cauchy sum
over nodes goes through one blocked kernel, ``_cauchy_sum``: the direct
closed-contour rows, the arc remainders, and the Cauchy transform and its
one-sided limits.  ``neville`` is the one extrapolation tableau, fed by
``normal_ladder`` for boundary limits and curve recovery.
``fd4_arc_derivative`` and ``analytic_pole_kernel`` are kept as public
helpers; S no longer uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlignmentError,
    BoundaryLimitError,
    EndpointSingularityError,
    GeometryError,
    InterpolationRequiredError,
)
from .geometry import ArcSystem, ClosedContour, _angles, _by_rows, _open_fd4, _ranges

__all__ = [
    "QuadratureRule",
    "host_rule",
    "integrate",
    "integrate_arclength",
    "pv_integrate",
    "fourier_derivative",
    "analytic_pole_kernel",
    "singular_values",
    "neville",
    "normal_ladder",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights over all nodes of a host.

    ``weights`` are the real magnitudes (arclength scale); ``dt_weights``
    carry the complex line element and are what ``integrate`` uses.  The two
    coincide on real segments.
    """

    params: np.ndarray
    nodes: np.ndarray
    weights: np.ndarray
    dt_weights: np.ndarray


def host_rule(host):
    """The package-default rule over all nodes of a contour or arc system."""
    if isinstance(host, ClosedContour):
        return QuadratureRule(
            params=host.params,
            nodes=host.nodes,
            weights=host.arclength_weights,
            dt_weights=host.complex_weights,
        )
    if isinstance(host, ArcSystem):
        w = np.concatenate([_arc_weights(arc) for arc in host.arcs])
        return QuadratureRule(
            params=np.concatenate([arc.params for arc in host.arcs]),
            nodes=host.nodes,
            weights=np.abs(w),
            dt_weights=w,
        )
    raise GeometryError(f"no quadrature rule for host {type(host).__name__}")


def _arc_weights(arc):
    if arc.graded:
        m = arc.n_nodes
        return (np.pi / m) * arc.sin_u * arc.dt_dtau
    # chain: composite trapezoid over the supplied points; interior nodes
    # weighted by half the chord to each neighbour, endpoint chords included
    pts = np.concatenate(([arc.a], arc.nodes, [arc.b]))
    d = np.diff(pts)
    return 0.5 * (d[:-1] + d[1:])


def _values_of(samples, n=None):
    vals = getattr(samples, "values", samples)
    vals = np.asarray(vals, dtype=complex)
    if n is not None and vals.size != n:
        raise AlignmentError(f"expected {n} samples, got {vals.size}")
    return vals


def integrate(samples, rule):
    """Weighted sum of the samples against the rule's complex dt weights.

    Accumulation is compensated (exact summation of the products), which is
    deterministic and at least as accurate as the plain ascending-order sum.
    """
    vals = _values_of(samples, rule.nodes.size)
    prod = rule.dt_weights * vals
    return complex(math.fsum(prod.real), math.fsum(prod.imag))


def integrate_arclength(samples, rule):
    vals = _values_of(samples, rule.nodes.size)
    prod = rule.weights * vals
    return complex(math.fsum(prod.real), math.fsum(prod.imag))


# ---------------------------------------------------------------------------
# spectral derivatives on the two node layouts
# ---------------------------------------------------------------------------

def fourier_derivative(values):
    """d/dtheta of samples on the uniform 2*pi-periodic grid."""
    n = values.size
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0  # zero the Nyquist mode for a real-symmetric derivative
    return np.fft.ifft(1j * k * np.fft.fft(values))


def closed_node_derivative(host, values):
    """df/dt on a closed contour, for subtracted principal-value diagonals.

    Trigonometric differentiation: the involution identity S(Sg) = g is
    only reproduced to 1e-10 on band-limited data if the diagonal term is
    exact for trigonometric polynomials, which rules out fixed-order
    difference stencils at moderate node counts.
    """
    return fourier_derivative(values) / host.dz_dtheta


def fd4_arc_derivative(arc, values):
    """df/dt on a graded arc from 4th-order differences in the angle u.

    The cosine grading makes u uniform (step pi/m, descending along the
    node order), so classic stencils apply; the ends use skewed 4th-order
    stencils.
    """
    if not arc.graded:
        raise GeometryError("arc derivative needs cosine-graded nodes")
    m = values.size
    df_du = _open_fd4(values, -np.pi / m)
    dt_du = -arc.dt_dtau * arc.sin_u
    return df_du / dt_du


def neville(d):
    """Extrapolate samples d(h), d(h/2), d(h/4), ... to h = 0.

    Neville's tableau on the halving ladder, for errors in powers of h, along
    the last axis of ``d`` (one ladder per leading index).  Returns the
    extrapolated values and the gaps between the two finest diagonal
    entries, the usual convergence estimate (inf for one level).
    """
    row = np.asarray(d)
    gap = np.full(row.shape[:-1], math.inf)
    for lev in range(1, row.shape[-1]):
        nxt = (2.0 ** lev * row[..., 1:] - row[..., :-1]) / (2.0 ** lev - 1.0)
        gap = np.abs(nxt[..., -1] - row[..., -1])
        row = nxt
    return row[..., -1][()], gap[()]


def normal_ladder(host, idx, sides, h0, levels, tol, sample):
    """Limits at h = 0 of samples at nodes[k] + s*h*i*tangent[k], k in ``idx``.

    s = +1 or -1 per side (``plus``, ``minus``), h = h0 / 2**i for i < levels,
    ``h0`` a scalar or one per node.  ``sample(z, h)`` gets all points in one
    call, shaped (node, side, level); ``neville`` extrapolates each ladder.
    Returns limits, gaps and gaps > 10 * tol (all False without tol or with
    one level).  A bad ``h0``, ``levels`` or ``tol`` raises BoundaryLimitError.
    """
    h0 = np.asarray(h0, dtype=float)
    if not np.all(np.isfinite(h0) & (h0 > 0)):
        raise BoundaryLimitError("h0 must be finite and positive")
    if not isinstance(levels, (int, np.integer)) or levels < 1:
        raise BoundaryLimitError("levels must be an integer >= 1")
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise BoundaryLimitError("tol must be finite and positive")
    hs = h0.reshape(-1, 1, 1) / 2.0 ** np.arange(levels)
    nu = (host.tangents[idx] * 1j)[:, None] * [1.0 if s == "plus" else -1.0 for s in sides]
    z = host.nodes[idx, None, None] + hs * nu[:, :, None]
    value, gap = neville(sample(z, hs))
    return value, gap, gap > (math.inf if tol is None or levels == 1 else 10.0 * tol)


# ---------------------------------------------------------------------------
# principal values
# ---------------------------------------------------------------------------

def analytic_pole_kernel(host, pole_index):
    """Closed-form PV integral of dt/(t - x) over the pole's own component.

    Closed contour: pi*i regardless of shape.  Segment from a to b with the
    pole at an interior point x: log(|b - x|/|x - a|).  Circular arc: the
    sine-ratio log plus half the sweep times i.  ``pole_index`` is a node
    index, or an array of node indices on one arc.
    """
    if isinstance(host, ClosedContour):
        return 1j * np.pi
    k = np.asarray(pole_index)
    if np.any((k < 0) | (k >= host.n_nodes)):
        raise IndexError(f"pole index {pole_index} out of range")
    a = int(np.searchsorted(host.arc_offsets, np.min(k), side="right")) - 1
    arc, local = host.arcs[a], k - host.arc_offsets[a]
    x = arc.nodes[local]
    if arc.kind == "segment":
        # hypot forms |z| as numpy's scalar abs does (the array abs may differ)
        db, da = arc.b - x, x - arc.a
        val = np.log(np.hypot(db.real, db.imag) / np.hypot(da.real, da.imag))
    elif arc.kind == "circular":
        thx = arc.theta_a + (arc.theta_b - arc.theta_a) * 0.5 * (arc.params[local] + 1.0)
        num = np.sin(0.5 * (arc.theta_b - thx))
        den = np.sin(0.5 * (arc.theta_a - thx))
        val = np.log(np.abs(num / den)) + 0.5j * (arc.theta_b - arc.theta_a)
    else:
        raise GeometryError("analytic pole kernel needs a segment or circular arc")
    return complex(val) if k.ndim == 0 else val


def resolve_pole(host, pole):
    """Node index of a pole given as an index or a point on the curve.

    Points must land on a node: the singularity subtraction needs the
    sample there.  A point at an arc endpoint is rejected separately, since
    no principal value exists where the density may blow up.
    """
    if isinstance(pole, (int, np.integer)):
        k = int(pole)
        if not 0 <= k < host.n_nodes:
            raise IndexError(f"pole index {k} out of range")
        return k
    x = complex(pole)
    tol = 1e-9 * max(host.diameter(), 1.0)
    if isinstance(host, ArcSystem):
        for e in host.endpoints:
            if abs(x - e) <= tol:
                raise EndpointSingularityError(
                    f"pole {x} lies at an arc endpoint"
                )
    d = np.abs(host.nodes - x)
    k = int(np.argmin(d))
    if d[k] > tol:
        raise InterpolationRequiredError(
            f"pole {x} is {d[k]:.3g} from the nearest node; "
            "principal values are only computed at nodes"
        )
    return k


def pv_integrate(samples, host, pole, endpoint_singular=False):
    """PV integral of f(t)/(t - x) dt with the pole x at a host node.

    ``pole`` is a node index or a point coinciding with a node.
    ``endpoint_singular=True`` declares that f carries the inverse of the
    arc's own square-root factor (f = smooth / s_plus); the smooth cofactor
    is recovered by folding, which turns the rule into the exact weighted
    one.  On closed contours the flag is ignored (there are no endpoints).
    The value is pi*i times the singular operator S f at that node.
    """
    values = _values_of(samples, host.n_nodes)
    k = resolve_pole(host, pole)
    density_class = "inverse_sqrt" if endpoint_singular else "smooth"
    return 1j * np.pi * complex(singular_values(host, values, [k], density_class)[0])


def singular_values(host, values, idx, density_class="smooth"):
    """S f = (1/pi i) PV int f(t)/(t - x) dt at the host nodes ``idx``.

    ``values`` are the samples of f at every host node; ``density_class``
    (``smooth``, ``inverse_sqrt`` or ``sqrt``) picks the fold on arcs.
    """
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    if isinstance(host, ClosedContour):
        return _S_closed(host, values, idx)
    if isinstance(host, ArcSystem):
        return _S_arcs(host, values, idx, density_class)
    raise GeometryError(f"no singular operator for host {type(host).__name__}")


def _cauchy_sum(t, z, phi, s=None, w=None, div=None, diag=None, diag_value=None):
    """sum_j w_j (phi_j - s_i) / ((t_j - z_i) div_j) for every target z_i.

    Columns j are nodes, rows i targets; ``s``, ``w`` and ``div`` may be
    left out.  ``diag[i]`` is the column of row i whose node is z_i:
    its t_j - z_i is taken as 1, and its term before the weight is replaced
    by ``diag_value[i]`` when given.  A row's sum does not depend on the
    other rows, whatever the blocks (``geometry._ROW_BLOCK`` elements each).
    """
    def block(rows):
        den = t - z[rows, None]
        if diag is not None:
            on = (np.arange(den.shape[0]), diag[rows])
            den[on] = 1.0
        if div is not None:
            den *= div
        if s is None:
            reg = np.divide(phi, den, out=den)
        else:
            reg = phi - s[rows, None]
            reg /= den
        if diag_value is not None:
            reg[on] = diag_value[rows]
        if w is not None:
            reg = np.multiply(w, reg, out=reg)
        return np.sum(reg, axis=1)

    return _by_rows(block, z.size, t.size, complex)


def _S_closed(host, values, idx):
    """S on a closed contour: the periodic Hilbert transform plus a smooth remainder.

    z'(th)/(z(th) - z(ph)) = cot((th - ph)/2)/2 + K(th, ph) with K smooth on
    a smooth curve, so S f = H f + R with H f = ifft(sgn(k) fft(f)) and R
    smooth in ph.  When f and z' are resolved, R is taken at p = 32, 64, ...
    nested proxy nodes as the pole-subtracted row there minus H f until it
    is resolved too, and trigonometrically interpolated.  Otherwise, and
    past p = n/4 or when p does not divide n, the requested rows are the
    pole-subtracted ones: summed directly below ``_FMM_MIN_NODES`` nodes, the
    probed ones reused, and from there on by ``_fmm_rows``.  The choice
    depends on the host and f only, so S at any ``idx`` is bitwise the full S.
    """
    n = values.size
    t, w = host.nodes, host.complex_weights
    df = closed_node_derivative(host, values)

    def s_of(total, r):
        return (total + values[r] * 1j * np.pi) / (1j * np.pi)

    def rows(r):
        return s_of(_cauchy_sum(t, t[r], values, values[r], w, diag=r, diag_value=df[r]), r)

    fk = np.fft.fft(values)
    sgn = np.sign(np.fft.fftfreq(n))
    if n % 2 == 0:
        sgn[n // 2] = 0.0
    hf = np.fft.ifft(sgn * fk)
    row = np.empty(n, dtype=complex)
    done = np.zeros(n, dtype=bool)
    scale = np.max(np.abs(values))
    dz = host.dz_dtheta
    # rough data, or a curve with corners, leave R rough: no probes
    p = 32 if _resolved(fk, scale) and _resolved(np.fft.fft(dz), np.max(np.abs(dz))) else n
    while 4 * p <= n and n % p == 0:
        proxy = np.arange(0, n, n // p)
        new = proxy[~done[proxy]]
        row[new], done[new] = rows(new), True
        c = np.fft.fft(row[proxy] - hf[proxy])
        if _resolved(c, scale):
            h = p // 2
            pad = np.zeros(n, dtype=complex)
            pad[:h], pad[n - h + 1:] = c[:h], c[h + 1:]
            pad[h] = pad[n - h] = 0.5 * c[h]
            return (hf + np.fft.ifft(pad) * (n / p))[idx]
        p *= 2
    if n >= _FMM_MIN_NODES:
        return s_of(_fmm_rows(t, w, values, df, idx), idx)
    new = idx[~done[idx]]
    row[new] = rows(new)
    return row[idx]


# The far field of the closed-contour rows.  Terms, separation and leaf size
# were fixed together by timing and by the largest difference from the
# direct rows, 1e-15 max|f| on rounded polygons of 1024-16384 nodes (at
# separation 2, 24 terms missed by 2e-13); below _FMM_MIN_NODES nodes the
# direct rows are as fast.
_FMM_TERMS = 24
_FMM_SEPARATION = 3.0
_FMM_LEAF = 32
_FMM_MIN_NODES = 1024
# C(k + l, k): row k, column l
_BINOMIAL = np.array([[math.comb(k + l, k) for l in range(_FMM_TERMS)]
                      for k in range(_FMM_TERMS)], dtype=float)


def _powers(x, first=1.0):
    """first * x**k for k < ``_FMM_TERMS``, stacked along a new first axis."""
    out = np.empty((_FMM_TERMS,) + np.broadcast(x, first).shape, dtype=complex)
    out[0] = first
    for k in range(1, _FMM_TERMS):
        np.multiply(out[k - 1], x, out=out[k])
    return out


def _fmm_rows(t, w, f, df, idx):
    """sum_j w_j (f_j - f_i)/(t_j - t_i), w_i df_i for j = i, at the nodes i in ``idx``.

    The fast multipole method in complex form (Greengard & Rokhlin, J. Comput.
    Phys. 73, 1987) on a binary tree of contiguous node ranges, halved down
    to leaves of about ``_FMM_LEAF`` nodes.  A box has the midpoint c of its
    bounding box as centre and the largest |t - c| as radius r.  The
    children of two boxes that were not separated are paired again; boxes
    A and B with |c_A - c_B| > alpha (r_A + r_B) exchange their far field:
    the multipoles about c_B of w f and of w, summed straight from the
    nodes, go into local expansions about c_A through one product with the
    table C(k + l, k).  The far field at a target t_i is summed level by
    level from the expansions of its boxes, as sum w f/(t - t_i) minus f_i
    times sum w/(t - t_i).  Leaf pairs still not separated keep the pole
    subtraction (f_j - f_i), in blocks of about ``geometry._ROW_BLOCK``
    elements.  The expansions depend on t, w and f only, and each target is
    summed on its own, so a row does not depend on the others asked for.
    """
    n, p = t.size, _FMM_TERMS
    depth = max(1, math.ceil(math.log2(n / _FMM_LEAF)))
    src = np.stack((w * f, w))
    far = np.zeros((2, idx.size), dtype=complex)
    near = np.zeros((1, 2), dtype=np.int64)  # (target, source) boxes not separated
    for lev in range(1, depth + 1):
        lo = (np.arange((1 << lev) + 1) * n) >> lev
        first, box = lo[:-1], np.repeat(np.arange(1 << lev), np.diff(lo))
        c = 0.5 * (np.minimum.reduceat(t.real, first) + np.maximum.reduceat(t.real, first)
                   + 1j * (np.minimum.reduceat(t.imag, first)
                           + np.maximum.reduceat(t.imag, first)))
        r = np.maximum.reduceat(np.abs(t - c[box]), first)
        a = (2 * near[:, :1] + [0, 0, 1, 1]).ravel()
        b = (2 * near[:, 1:] + [0, 1, 0, 1]).ravel()
        d = c[a] - c[b]
        sep = np.abs(d) > _FMM_SEPARATION * (r[a] + r[b])
        near = np.stack((a[~sep], b[~sep]), axis=1)
        if not sep.any():
            continue
        a, b, d = a[sep], b[sep], d[sep]
        # sum_j s_j/(t_j - z) = -sum_k M_k r_B^k / (z - c_B)^(k+1), and with
        # z - c_B = d + r_A v, d = c_A - c_B, the coefficient of v^l is
        # -(1/d) (-r_A/d)^l sum_k C(k + l, k) (r_B/d)^k M_k
        multipole = np.add.reduceat(_powers((t - c[box]) / r[box], src), first, axis=2)
        m2l = np.einsum("kl,ksn->lsn", _BINOMIAL, multipole[:, :, b] * _powers(r[b] / d)[:, None])
        m2l *= _powers(-r[a] / d, -1.0 / d)[:, None]
        local = np.zeros_like(multipole)
        np.add.at(local, (slice(None), slice(None), a), m2l)
        k = box[idx]
        v = (t[idx] - c[k]) / r[k]
        acc = local[p - 1][:, k]
        for j in range(p - 2, -1, -1):
            acc *= v
            acc += local[j][:, k]
        far += acc

    # lo and box are the leaves' now
    a, b = near[np.lexsort((near[:, 1], near[:, 0]))].T
    size = lo[b + 1] - lo[b]
    count = np.bincount(a, size, minlength=1 << depth).astype(np.int64)
    # leaf row a of ``cols``: the nodes of its near leaves, padded with node 0
    # at weight 0
    owner, node = np.repeat(a, size), _ranges(lo[b], size)
    col = _ranges(np.zeros_like(count), count)
    cols = np.zeros((1 << depth, int(count.max())), dtype=np.int64)
    wts = np.zeros(cols.shape, dtype=complex)
    cols[owner, col] = node
    wts[owner, col] = w[node]
    leaf = box[idx]

    def block(rows):
        i, k = idx[rows], leaf[rows]
        j = cols[k]
        on = j == i[:, None]
        den = t[j] - t[i, None]
        den[on] = 1.0
        reg = f[j] - f[i, None]
        reg /= den
        reg[on] = np.broadcast_to(df[i, None], on.shape)[on]
        reg *= wts[k]
        return np.sum(reg, axis=1)

    return _by_rows(block, idx.size, cols.shape[1], complex) + (far[0] - f[idx] * far[1])


def _resolved(c, scale):
    """Whether the DFT c of m samples has its top eighth of frequencies below
    1e-14 * scale (a size of the samples)."""
    m = c.size
    return np.max(np.abs(c[7 * m // 16:m - 7 * m // 16])) <= 1e-14 * m * scale


def _S_arcs(host, values, idx, density_class):
    off = host.arc_offsets
    arc_of = np.searchsorted(off, idx, side="right") - 1
    # a requested node must lie on a graded arc; the first bad one decides
    ok = np.array([arc.graded for arc in host.arcs] + [False])[arc_of]
    if not ok.all():
        k = idx[np.argmin(ok)]
        if 0 <= k < host.n_nodes:
            raise GeometryError("the singular operator needs cosine-graded arcs")
        raise IndexError(f"pole index {k} out of range")

    # every arc is a source: its samples times its rule's dt weights, the
    # weights of a graded arc taken through the class fold
    folds = [_fold(arc, values[off[a]:off[a + 1]], density_class) if arc.graded else None
             for a, arc in enumerate(host.arcs)]
    wf = np.concatenate([(np.pi / arc.n_nodes) * fold[1] * arc.dt_dtau if arc.graded
                         else _arc_weights(arc) * values[off[a]:off[a + 1]]
                         for a, (arc, fold) in enumerate(zip(host.arcs, folds))])
    out = np.empty(idx.size, dtype=complex)
    for a in np.flatnonzero(np.bincount(arc_of)):
        arc, (g, q) = host.arcs[a], folds[a]
        rows = arc_of == a
        pv = _own_pv(g, arc.params, density_class)
        other = np.ones(host.n_nodes, dtype=bool)
        other[off[a]:off[a + 1]] = False
        t, w = host.nodes[other], wf[other]
        if t.size or arc.kind == "circular":
            pv = pv + _interpolated(lambda tau: _remainder(arc, q, t, w, tau), arc.params)
        out[rows] = pv[idx[rows] - off[a]] / (1j * np.pi)
    return out


# ---------------------------------------------------------------------------
# the spectral operator on graded arcs
# ---------------------------------------------------------------------------

def _trig_coeffs(v, odd=False):
    """c_n, n < m, with v = sum_n c_n cos(n u) (sin with ``odd``) at ``_angles(m)``.

    One length-2m FFT of the even (odd) extension; the cosine coefficients
    are the Chebyshev coefficients of the interpolant of v in tau.
    """
    m = v.size
    c = np.fft.fft(np.concatenate((v[::-1], -v if odd else v)))[:m]
    c *= np.exp(-0.5j * np.pi * np.arange(m) / m) / m
    if odd:
        return 1j * c
    c[0] *= 0.5
    return c


def _trig_sum(c, m, odd=False):
    """sum_n c_n cos(n u) (sin with ``odd``) at ``_angles(m)``, for c.size <= m."""
    n = np.arange(1, c.size)
    ph = np.exp(0.5j * np.pi * n / m)
    b = np.zeros(2 * m, dtype=complex)
    b[0] = 0.0 if odd else 2.0 * c[0]
    b[n] = c[1:] * ph
    b[2 * m - n] = (-1.0 if odd else 1.0) * c[1:] * ph.conj()
    out = m * np.fft.ifft(b)[m - 1::-1]
    return -1j * out if odd else out


def _own_sigma(arc, u):
    """The arc's own factor over sin(u), s_own / sqrt(1 - tau^2), in closed form.

    On a segment it is i(b - a)/2.  On a circular arc of radius r, sweep D
    and mid angle th_m, (t - a)(t - b) = 4 r^2 e^{i(th + th_m)}
    sin(D c^2/2) sin(D s^2/2) with c = cos(u/2), s = sin(u/2), sin(u) = 2cs,
    so 1 - tau^2 is never formed; the root is the one ``sqrt_own_plus`` takes.
    """
    if arc.kind == "segment":
        return np.full(u.size, 0.5j * (arc.b - arc.a))
    half = 0.5 * (arc.theta_b - arc.theta_a)
    c2, s2 = np.cos(0.5 * u) ** 2, np.sin(0.5 * u) ** 2
    mid = 0.5 * (arc.theta_a + arc.theta_b)
    sigma = arc.radius * np.exp(1j * (mid + 0.5 * half * arc.params)) * np.sqrt(
        np.sin(half * c2) / c2 * (np.sin(half * s2) / s2))
    return sigma if np.vdot(sigma * np.sin(u), arc.sqrt_own_plus).real > 0 else -sigma


def _fold(arc, f, density_class):
    """(g, q) for the samples f of a density on one graded arc.

    g is what the own-arc transform expands: f = g / sin(u) for
    ``inverse_sqrt``, f = g otherwise (for ``sqrt``, g is a sine series).
    The arc's own factor is undone with the ``sqrt_own_plus`` samples the
    density was built with, so their rounding cancels, and sin(u) comes
    from u in closed form.
    q = f sin(u) gives int f h dtau = (pi/m) sum_j q_j h(tau_j) for smooth h.
    """
    u = _angles(arc.n_nodes)
    if density_class == "inverse_sqrt":
        g = f * arc.sqrt_own_plus / _own_sigma(arc, u)
        return g, g
    if density_class == "sqrt":
        f = f / arc.sqrt_own_plus * _own_sigma(arc, u) * np.sin(u)
    return f, f * np.sin(u)


def _own_pv(g, tau, density_class):
    """PV int f(tau)/(tau - tau_x) dtau over (-1, 1) at every node, f from g.

    Diagonal in Chebyshev coefficients (S. Olver, Math. Comp. 80, 2011):
    sqrt(1 - tau^2) U_{n-1} -> -pi T_n, and T_n / sqrt(1 - tau^2) -> pi U_{n-1},
    summed as the T series (2 - delta_k0) pi (c_{k+1} + c_{k+3} + ...), so
    nothing is divided by sin(u).  A smooth f gives f(x) log((1 - x)/(1 + x))
    plus the integral of its divided difference, the T series
    (2 - delta_k0) sum_{n>k} c_n mu_{n-1-k} with mu_j = int U_j = 2/(j+1) for
    even j and 0 for odd j: one FFT correlation.
    """
    m = g.size
    if density_class == "sqrt":
        return -np.pi * _trig_sum(_trig_coeffs(g, odd=True), m)
    c = _trig_coeffs(g)
    if density_class == "inverse_sqrt":
        e = np.empty(m - 1, dtype=complex)
        for r in (0, 1):
            e[r::2] = np.pi * np.cumsum(c[1 + r::2][::-1])[::-1]
    else:
        j = np.arange(m - 1)
        mu = np.where(j % 2 == 0, 2.0 / (j + 1), 0.0)
        e = np.fft.ifft(np.fft.fft(c[1:], 2 * m) * np.fft.fft(mu, 2 * m).conj())[:m - 1]
    e[1:] *= 2.0
    out = _trig_sum(e, m)
    return out if density_class == "inverse_sqrt" else out + g * np.log((1.0 - tau) / (1.0 + tau))


def _remainder(arc, q, t, wf, tau):
    """The smooth part of pi*i*S on one arc, at its parameters ``tau``.

    Every other arc's plain sum over its nodes t with weighted samples wf
    and, on a circular arc of sweep D, the own-arc correction
    (pi/m) sum_j q_j K(tau_j - tau), where t'(tau)/(t(tau) - t(tau_x)) =
    1/(tau - tau_x) + K(tau - tau_x) and K(s) = (D/4)(cot(Ds/4) - 4/(Ds))
    + iD/4 is smooth for |s| < 2 (a series where |Ds/4| < 0.05).
    """
    out = _cauchy_sum(t, arc.point_at(tau), wf) if t.size else np.zeros(tau.size, complex)
    if arc.kind != "circular":
        return out
    d4 = 0.25 * (arc.theta_b - arc.theta_a)

    def block(rows):
        y = d4 * (arc.params - tau[rows, None])
        small = np.abs(y) < 0.05
        y_far = np.where(small, 1.0, y)
        y2 = y * y
        k = np.where(small, -y * (1 / 3 + y2 * (1 / 45 + y2 * (2 / 945 + y2 / 4725))),
                     1.0 / np.tan(y_far) - 1.0 / y_far)
        return k @ q

    kq = _by_rows(block, tau.size, q.size, complex) + 1j * np.sum(q)
    return out + (np.pi / q.size) * d4 * kq


def _interpolated(fn, tau):
    """fn at the nodes ``tau`` (first-kind points) of a smooth fn of tau.

    fn is sampled at p first-kind proxies, p = 32, 64, ..., until the last
    p/8 Chebyshev coefficients are below 1e-14 of the largest, and its
    interpolant is summed at the nodes; from p >= m on fn takes the nodes.
    """
    m = tau.size
    p = 32
    while p < m:
        c = _trig_coeffs(fn(np.cos(_angles(p))))
        if np.max(np.abs(c[-(p // 8):])) <= 1e-14 * np.max(np.abs(c)):
            return _trig_sum(c, m)
        p *= 2
    return fn(tau)
