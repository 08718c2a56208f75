"""Independent reference values for the test suite.

Everything here is deliberately low-tech: dense composite Gauss-Legendre
panels, explicit regularization of principal values, and scipy special
functions.  None of it shares code with the package under test.
"""

import math
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

# frozen constants used by tests (recomputed live by the oracle functions)
ELLIPSE_2_1_PERIMETER = 9.688448220547675  # semi-axes (2, 1)


def ellipse_perimeter(sa, sb):
    """Perimeter of an axis-aligned ellipse via the complete elliptic E."""
    a, b = max(sa, sb), min(sa, sb)
    m = 1.0 - (b / a) ** 2
    return 4.0 * a * special.ellipe(m)


def composite_gl(f, a, b, n_panels=64, order=12):
    """Composite Gauss-Legendre integral of f over the real interval [a, b]."""
    x0, w0 = leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        total += half * np.sum(w0 * f(mid + half * x0))
    return total


def pv_segment_dense(f, a, b, x, n_panels=256, order=12):
    """PV integral of f(t)/(t - x) over the straight segment [a, b].

    x must lie strictly inside.  The pole is split off analytically:
    the regularized part (f(t) - f(x))/(t - x) is smooth, and
    PV int dt/(t - x) = log(|b - x| / |x - a|) along a straight path.
    """
    a, b, x = complex(a), complex(b), complex(x)
    e = (b - a) / abs(b - a)
    alpha = abs(x - a)
    beta = abs(b - x)
    fx = f(x)

    def reg(u):
        t = x + u * e
        return (f(t) - fx) / u  # (f(t)-f(x))/(t-x) * e, with dt = e du

    val = composite_gl(reg, -alpha, beta, n_panels, order)
    return val + fx * np.log(beta / alpha)


def pv_arc_theta_dense(G, t_of_theta, dt_dtheta, theta_x, x,
                       n_panels=256, order=12):
    """PV integral of G(theta)/(t(theta) - x) dtheta over theta in (0, pi).

    G must be smooth on [0, pi] (endpoint-singular densities become smooth
    after the cosine substitution).  The pole at theta_x is regularized by
    subtracting the matching simple pole in theta, whose PV integral over
    (0, pi) is log((pi - theta_x) / theta_x).
    """
    res = G(theta_x) / dt_dtheta(theta_x)

    def reg(th):
        t = t_of_theta(th)
        return G(th) / (t - x) - res / (th - theta_x)

    val = composite_gl(reg, 0.0, theta_x, n_panels, order)
    val += composite_gl(reg, theta_x, np.pi, n_panels, order)
    return val + res * np.log((np.pi - theta_x) / theta_x)


def pv_closed_dense(f, z_of_theta, dz_dtheta, theta0, n=8192):
    """PV integral of f(t)/(t - t0) dt over a smooth closed contour.

    Subtracts the value at the pole; the remaining integrand is smooth and
    periodic, so an offset trapezoid rule (no node at theta0) is spectrally
    accurate.  The analytic part is PV int dt/(t - t0) = pi*i on any smooth
    closed curve.
    """
    t0 = z_of_theta(theta0)
    f0 = f(t0)
    # grid offset so no sample lands on the pole
    th = theta0 + (2.0 * np.pi) * (np.arange(n) + 0.5) / n
    t = z_of_theta(th)
    vals = (f(t) - f0) / (t - t0) * dz_dtheta(th)
    return (2.0 * np.pi / n) * np.sum(vals) + f0 * 1j * np.pi


def sL_union_dense(segments, x, n_panels=256, order=12):
    """(1/pi i) PV int of f(t)/(t - x) dt over a union of real segments.

    Each entry of ``segments`` is (a, b, F) with F(u) the u-space numerator
    on the cosine parametrization t(u) = mid + half*cos(u), u in (0, pi):
    F(u) = f(t(u)) * half * sin(u), so that the ascending-t integral is
    int_0^pi F(u)/(t(u) - x) du.  Endpoint-singular densities must have the
    sin(u) cancellation done analytically by the caller.  x must lie inside
    exactly one segment.
    """
    total = 0.0 + 0.0j
    hit = 0
    for a, b, F in segments:
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        t_of_u = lambda u, mid=mid, half=half: mid + half * np.cos(u)
        if a < x < b:
            hit += 1
            u_x = np.arccos((x - mid) / half)
            dt_du = lambda u, half=half: -half * np.sin(u)
            total += pv_arc_theta_dense(F, t_of_u, dt_du, u_x, x,
                                        n_panels, order)
        else:
            total += composite_gl(lambda u: F(u) / (t_of_u(u) - x),
                                  0.0, np.pi, n_panels, order)
    if hit != 1:
        raise ValueError("x must lie inside exactly one segment")
    return total / (1j * np.pi)


def cauchy_dense(f, z_of_theta, dz_dtheta, z, n=8192):
    """Plain dense trapezoid for (1/2pi i) int f(t)/(t - z) dt, z off curve."""
    th = 2.0 * np.pi * np.arange(n) / n
    t = z_of_theta(th)
    vals = f(t) / (t - z) * dz_dtheta(th)
    return (2.0 * np.pi / n) * np.sum(vals) / (2j * np.pi)


def chebyshev_T(n, x):
    return special.eval_chebyt(n, x)


def chebyshev_U(n, x):
    return special.eval_chebyu(n, x)


def _halving_neville(d):
    """Neville's tableau on the ladder d(h), d(h/2), ...: the value at h = 0
    and the gap between the two finest extrapolants."""
    row = np.asarray(d)
    gap = math.inf
    for lev in range(1, row.size):
        nxt = (2.0 ** lev * row[1:] - row[:-1]) / (2.0 ** lev - 1.0)
        gap = np.abs(nxt[-1] - row[-1])
        row = nxt
    return row[-1], gap


def recover_curve_density_loop(u, host, weights, h0=None, levels=3, tol=None):
    """Curve-density recovery node by node, one side and one offset at a time.

    Returns (density, total mass, flagged nodes) as the package's
    ``recover_curve_density`` defines them: the sum of the two extrapolated
    one-sided normal derivatives of u over 2*pi at each node, zeroed and
    flagged where an evaluation fails or the sum is not finite, flagged
    where a ladder's gap exceeds 10 * tol; ``weights`` are the host's
    arclength weights.
    """
    nodes = host.nodes
    normals = 1j * host.tangents
    scale = np.full(host.n_nodes, host.local_panel_length)
    if hasattr(host, "endpoints"):
        ends = host.endpoints
        gap = np.min(np.abs(nodes[:, None] - ends[None, :]), axis=1)
        scale = np.minimum(scale, gap)
    h0_k = np.full(host.n_nodes, h0) if h0 is not None else 1e-3 * scale
    dens = np.zeros(host.n_nodes)
    flagged = []
    for k in range(host.n_nodes):
        z = nodes[k]
        n_hat = normals[k]
        hs = h0_k[k] / 2.0 ** np.arange(levels)
        try:
            u0 = float(u(z))
            total = 0.0
            worst = 0.0
            for sgn in (1.0, -1.0):
                d = np.array([(float(u(z + sgn * hh * n_hat)) - u0) / hh
                              for hh in hs])
                val, gap = _halving_neville(d)
                total += val
                worst = max(worst, gap)
            if not math.isfinite(total):
                raise ValueError("non-finite derivative")
            dens[k] = total / (2.0 * math.pi)
            if tol is not None and worst > 10.0 * tol:
                flagged.append(k)
        except (ValueError, OverflowError, FloatingPointError):
            flagged.append(k)
            dens[k] = 0.0
    return dens, float(np.sum(dens * weights)), flagged


# ---------------------------------------------------------------------------
# logarithmic potentials in closed form: (density, potential on the support)
# ---------------------------------------------------------------------------

def segment_potentials():
    """Densities on [-1, 1] with U(x) = int log|x - y| rho(y) dy in closed form.

    From int T_n(y) log|x - y| dy / (pi sqrt(1 - y^2)) = -log 2 (n = 0) and
    -T_n(x)/n (n >= 1), and for the semicircle from its Chebyshev-U
    expansion; rho = 1 integrates directly.
    """
    def arcsine(x):
        return 1.0 / (np.pi * np.sqrt((1.0 - x) * (1.0 + x)))

    def t3(x):
        return chebyshev_T(3, x)

    return {
        "arcsine": (arcsine, lambda x: np.full_like(x, -math.log(2.0))),
        "T3": (lambda x: t3(x) * arcsine(x), lambda x: -t3(x) / 3.0),
        "semicircle": (lambda x: 2.0 / np.pi * np.sqrt((1.0 - x) * (1.0 + x)),
                       lambda x: x * x - 0.5 - math.log(2.0)),
        "constant": (np.ones_like,
                     lambda x: (1.0 - x) * np.log(1.0 - x) + (1.0 + x) * np.log(1.0 + x) - 2.0),
    }


def circular_arc_equilibrium(alpha, theta):
    """The equilibrium density of the unit-circle arc |theta| <= alpha at the
    angles theta, per unit length; its potential on the arc is
    log sin(alpha/2), the log of the arc's capacity."""
    s = np.sin(0.5 * theta)
    return np.cos(0.5 * theta) / (2.0 * np.pi * np.sqrt(math.sin(0.5 * alpha) ** 2 - s * s))


def ellipse_equilibrium(dz_dtheta):
    """The equilibrium density of the ellipse z = a cos th + i b sin th,
    d(mu) = d(th)/(2 pi), per unit length; its potential on the ellipse is
    log((a + b)/2)."""
    return 1.0 / (2.0 * np.pi * np.abs(dz_dtheta))


def angle_sum_winding(host, z):
    """The winding number of a closed contour's node polyline about each
    point of the 1-d array z, as the sum of the angles its segments subtend
    there, and each point's distance to the polyline, where that sum is
    undefined.  O(n) per point, in chunks of about 2**20 point-node pairs."""
    turns, dist = [], []
    p, q = host.nodes, np.roll(host.nodes, -1)
    z = np.asarray(z, dtype=complex)
    for chunk in np.array_split(z, max(1, z.size * p.size >> 20)):
        v = p - chunk[:, None]
        turns.append(np.rint(np.sum(np.angle(np.roll(v, -1, axis=1) / v), axis=1) / (2 * np.pi)))
        s = np.clip(np.real(-v * np.conj(q - p)) / np.abs(q - p) ** 2, 0.0, 1.0)
        dist.append(np.min(np.abs(v + s * (q - p)), axis=1))
    return np.concatenate(turns).astype(int), np.concatenate(dist)


def log_potential_nodes_direct(host, rho):
    """u(t_k) = int log|t_k - t| rho(t) ds(t) at every node of a contour or of
    a system of graded arcs, the smooth remainder summed directly at each node.

    q = w rho with the host's arclength weights.  Closed contour: the
    Fourier-diagonal part of log|2 sin((th - th_k)/2)| (one real FFT pair,
    R. Kress, Linear Integral Equations, ch. 12) plus, row by row, sum_j q_j
    log(|t_j - t_k| / 2|sin((th_j - th_k)/2)|) with log|z'_k| on the
    diagonal: the arithmetic of the package's direct rows, so bitwise its
    values where it sums them.  Graded arc: the Chebyshev-diagonal part of
    log|tau - tau_k| (S. Olver, Math. Comp. 80, 2011), its coefficients from
    an explicit cosine sum at the first-kind points, plus log(L/2) c_0 on a segment, the other arcs'
    plain sums, and on a circular arc sum_j q_j log(|t_j - t_k| / |tau_j -
    tau_k|) with log|dt/dtau| on the diagonal.
    """
    t, q = host.nodes, host.weights * rho
    n = t.size
    if not hasattr(host, "arcs"):
        c = np.fft.rfft(q)
        c[0] = 0.0
        c[1:] *= -0.5 * n / np.arange(1, c.size)
        u = np.fft.irfft(c, n)
        chord = np.abs(2.0 * np.sin(np.pi * np.arange(n) / n))
        for lo in range(0, n, 16):
            k = np.arange(lo, min(lo + 16, n))
            d = np.abs(t - t[k, None])
            e = chord[(np.arange(n) - k[:, None]) % n]
            on = (np.arange(k.size), k)
            d[on] = e[on] = 1.0
            d /= e
            d[on] = np.abs(host.dz_dtheta[k])
            np.log(d, out=d)
            d *= q
            u[k] += np.sum(d, axis=1)
        return u
    u = np.empty(n)
    start = 0
    for arc in host.arcs:
        m = arc.n_nodes
        mine = np.arange(start, start + m)
        start += m
        # cos(k u_j) at the first-kind angles u_j = pi (2(m - j) - 1)/(2m),
        # the angle reduced in integers
        turns = np.outer(np.arange(m), 2 * np.arange(m, 0, -1) - 1) % (4 * m)
        cosines = np.cos(np.pi * turns / (2 * m))
        coeff = (2.0 / m) * (cosines @ (m * q[mine]))
        coeff[0] *= 0.5
        scale = np.concatenate(([-math.log(2.0)], -1.0 / np.arange(1, m)))
        if arc.kind == "segment":
            scale[0] += math.log(0.5 * abs(arc.b - arc.a))
        u[mine] = (coeff * scale) @ cosines
        for k, j in enumerate(mine):
            d = np.abs(t - t[j])
            if arc.kind == "circular":
                gap = np.abs(arc.params - arc.params[k])
                gap[k] = 1.0
                d[mine] /= gap
                d[j] = abs(arc.dt_dtau[k])
            else:
                d[mine] = 1.0
            u[j] += np.sum(q * np.log(d))
    return u


# ---------------------------------------------------------------------------
# grid recoveries: the area density over the whole lattice, bitwise the
# package's, and the point masses' clusters and contour moments point by point
# ---------------------------------------------------------------------------

def _lattice_laplacian(values, h):
    return (values[1:-1, :-2] + values[1:-1, 2:] +
            values[:-2, 1:-1] + values[2:, 1:-1] -
            4.0 * values[1:-1, 1:-1]) / (h * h)


def cluster_labels_8(mask):
    """Labels 1, 2, ... of the 8-connected components of a boolean grid,
    numbered in the reading order of their first cells, and their count."""
    ny, nx = mask.shape
    labels = np.zeros((ny, nx), dtype=int)
    current = 0
    for iy, ix in zip(*np.nonzero(mask)):
        if labels[iy, ix]:
            continue
        current += 1
        stack = [(iy, ix)]
        labels[iy, ix] = current
        while stack:
            cy, cx = stack.pop()
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = cy + dy, cx + dx
                    if (0 <= yy < ny and 0 <= xx < nx
                            and mask[yy, xx] and not labels[yy, xx]):
                        labels[yy, xx] = current
                        stack.append((yy, xx))
    return labels, current


# weights of u(x + j h) - u(x - j h), j = 1, 2, ..., in the centred first
# difference of each even order
CENTRED_FIRST = {2: [1 / 2], 4: [2 / 3, -1 / 12], 6: [3 / 4, -3 / 20, 1 / 60],
                 8: [4 / 5, -1 / 5, 4 / 105, -1 / 280]}


def _first_derivative(line, k, h):
    """d/ds of the samples ``line`` at index k, by the centred difference of
    order 8 or of the highest even order whose stencil fits in the line."""
    reach = min(k, len(line) - 1 - k, 4)
    return sum(c * (line[k + j] - line[k - j])
               for j, c in enumerate(CENTRED_FIRST[2 * reach], 1)) / h


def _edge_weight(k, n):
    """Trapezoid weight of point k of n, in units of the spacing: end
    corrections 3/8, 7/6, 23/24 from 6 points on."""
    end = min(k, n - 1 - k)
    if n >= 6:
        return (3 / 8, 7 / 6, 23 / 24, 1.0)[min(end, 3)]
    return 0.0 if n == 1 else (0.5 if end == 0 else 1.0)


def point_mass_moments(values, x0, y0, h, cluster_radius):
    """Per cluster of the thresholded lattice Laplacian, in the reading order
    of their first cells: its Laplacian-weighted centroid c, taken as masks
    over the whole lattice, and round the box of the interior rows and
    columns within ``cluster_radius`` of c the contour moments of F = u_x -
    i u_y, (c, M0, M1, S) with M0 = (1/2 pi i) oint F dz, M1 = (1/2 pi i)
    oint (z - c) F dz and S = (1/2 pi) oint |F| |dz|.  The boundary is walked
    one lattice point at a time, counterclockwise from the box's lower left
    corner, each point's stencils chosen on their own.  The overlap warning
    as the package words it, on the centroids."""
    lap = _lattice_laplacian(values, h)
    ny, nx = lap.shape
    xs = x0 + h * (1 + np.arange(nx))
    ys = y0 + h * (1 + np.arange(ny))
    peak = float(np.max(np.abs(lap)))
    if peak == 0.0:
        return []
    labels, count = cluster_labels_8(np.abs(lap) >= 1e-3 * peak)
    X, Y = np.meshgrid(xs, ys)
    out = []
    for label in range(1, count + 1):
        sel = labels == label
        wgt = np.abs(lap[sel])
        c = complex(float(np.sum(X[sel] * wgt) / np.sum(wgt)),
                    float(np.sum(Y[sel] * wgt) / np.sum(wgt)))
        rows = [i + 1 for i in range(ny) if abs(ys[i] - c.imag) <= cluster_radius]
        cols = [j + 1 for j in range(nx) if abs(xs[j] - c.real) <= cluster_radius]
        edges = [([(rows[0], j) for j in cols], h),
                 ([(i, cols[-1]) for i in rows], 1j * h),
                 ([(rows[-1], j) for j in reversed(cols)], -h),
                 ([(i, cols[0]) for i in reversed(rows)], -1j * h)]
        m0 = m1 = scale = 0.0
        for points, dz in edges:
            for k, (i, j) in enumerate(points):
                f = (_first_derivative(values[i, :], j, h)
                     - 1j * _first_derivative(values[:, j], i, h))
                w = _edge_weight(k, len(points)) * dz
                z = complex(x0 + j * h, y0 + i * h)
                m0 += f * w
                m1 += (z - c) * f * w
                scale += abs(f) * abs(w)
        out.append((c, m0 / (2j * math.pi), m1 / (2j * math.pi), scale / (2.0 * math.pi)))
    for a in range(len(out)):
        for b in range(a + 1, len(out)):
            if abs(out[a][0] - out[b][0]) < cluster_radius:
                warnings.warn(
                    f"clusters at {out[a][0]:.4g} and {out[b][0]:.4g} "
                    "overlap within the cluster radius; masses are ambiguous",
                    stacklevel=2,
                )
    return out


def area_density_full_lattice(values, h):
    """(density, mass) of a gridded potential: the Laplacian over 2 pi with
    the cells under the noise floor replaced by a full-lattice ``where``."""
    lap = _lattice_laplacian(values, h)
    floor = 10.0 / (h * h) * np.finfo(float).eps * np.max(np.abs(values))
    lap = np.where(np.abs(lap) <= floor, 0.0, lap)
    dens = lap / (2.0 * math.pi)
    return dens, float(np.sum(dens)) * h ** 2


def grid_csv_per_cell(path, column, values, x0, y0, h):
    """Rows x, y and the value at each lattice point, each cell formatted and
    written on its own, coordinates recomputed per cell, 17 significant digits."""
    ny, nx = values.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"x,y,{column}\n")
        for iy in range(ny):
            for ix in range(nx):
                fh.write(f"{x0 + ix * h:.17g},{y0 + iy * h:.17g},{values[iy, ix]:.17g}\n")
