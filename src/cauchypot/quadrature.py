"""Sums over the nodes of a host: integrals, principal values, limits.

A host is its own quadrature rule: its ``params``, ``nodes``, ``weights``
(arclength) and ``dt_weights`` (complex line element), derived once by the
geometry layer.  ``integrate`` and ``integrate_arclength`` take the host.
They sum the weighted samples exactly and round once, by ``_exact_sums``,
which gives ``math.fsum`` of each row of an array bit for bit, all rows in
one vectorized pass; the solvability moments of ``arcs`` sum theirs a block
of rows at a time, each row's powers formed as it is summed.
Closed contours carry the periodic trapezoid rule, which is spectrally
accurate for smooth integrands.  Chain arcs carry the composite trapezoid
rule over their points.  Graded arcs carry the rule induced by the cosine
substitution t = t(cos u): with nodes at the first-kind Chebyshev
parameters the plain weights

    W0_j = (pi/m) * sin(u_j) * (dt/dtau)_j

integrate smooth densities, and dividing the samples by the plus boundary
values of the arc's own square-root factor turns the same sum into the
first-kind Gauss-Chebyshev rule, exact for polynomial numerators.  This is
what makes densities with inverse-square-root endpoint growth integrable to
machine precision on the graded grid.

On the nodes, S and the log potential u are each a part diagonal in a
spectral basis plus a smooth remainder taken at a few proxy nodes and
interpolated: ``_S_closed`` and ``_log_closed`` on a closed contour,
``_S_arcs`` and ``_log_arcs`` on an arc system.  S is reached only through
``cauchy.singular_S``, which checks the density class, the host and the
node indices; u is formed once per density by ``potential``.  The routes:

- closed contour: the periodic Hilbert transform for S, log|2 sin| for u,
  both diagonal in Fourier.  The remainder goes through
  ``_proxy_remainder``, the one proxy loop, at the counts of
  ``_proxy_counts``; S's needs the data and z' resolved, u's z' alone.
  From ``_FMM_MIN_NODES`` nodes on, S's comes instead from the 2-d Fourier
  table of its smooth kernel (``_kernel_table``, p x p entries at most
  16 n); with no table, S probes only up to that p.  Where the loop does
  not interpolate, it keeps the rows it probed, and the others are the
  pole-subtracted rows: u's summed directly (``_log_rows``), S's directly
  below ``_FMM_MIN_NODES`` nodes, and from there on by the contour's
  ``_MultipolePlan``.
- graded arc, in the parameter tau = cos(u): the arc's own part is
  diagonal in Chebyshev coefficients (length-2m FFTs, whose twiddles and
  node factors the arc holds), and ``_interpolated`` takes the remainder:
  the other arcs' sums and, on a circular arc, the difference between its
  kernel and the one in tau.  From ``_FMM_MIN_NODES`` nodes on, a system
  keeps the kernels of S's remainders at the first proxies
  (``_proxy_plan``), built on its first S, and there they are products
  with the data.  Chain arcs have no u at their nodes (NaN).

Each route depends on the host and the density alone, and each row on its
own node, so S at any nodes is bitwise the full S.

``_held(host, build)`` keeps ``build(host)`` on the host under the
builder's name, from first use, for what a route reads of the geometry
alone: a contour's ``_dz_resolved``, ``_kernel_table`` and
``_multipole_plan``, a system's ``_proxy_plan`` and a graded arc's
``_twiddles`` and ``_smooth``; none grows with arcs times nodes.
``potential`` holds a density's charges and on-node potential the same
way, on the frozen density.

Every off-curve Cauchy sum on a closed contour (the ladders of the
one-sided limits and the Cauchy transform) goes through
``_closed_cauchy_sum``, summed directly or by a walk of each point down the
tree of the contour's ``_MultipolePlan``.  Every other Cauchy sum over nodes
goes through one blocked kernel, ``_cauchy_sum``.  ``neville`` is the one
extrapolation tableau, fed by ``normal_ladder`` for boundary limits and
curve recovery.

``host_rule`` checks the host of ``integrate`` and ``integrate_arclength``.
No code in the package calls ``closed_node_derivative`` (the tests' diagonal
of the pole-subtracted rows), ``fd4_arc_derivative`` or
``analytic_pole_kernel``: they stay because ``perfbench/spans.py`` names them.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AlignmentError, BoundaryLimitError, GeometryError
from .geometry import _ROW_BLOCK, ArcSystem, ClosedContour, _angles, _by_rows, _open_fd4, _read_only

__all__ = [
    "host_rule",
    "integrate",
    "integrate_arclength",
    "analytic_pole_kernel",
    "neville",
    "normal_ladder",
]


def host_rule(host):
    """The rule over all nodes of a contour or arc system: the host itself."""
    if isinstance(host, (ClosedContour, ArcSystem)):
        return host
    raise GeometryError(f"no quadrature rule for host {type(host).__name__}")


def _held(host, build):
    """``build(host)``, kept in ``vars(host)`` under ``build``'s name from the first
    call on, as ``cached_property`` keeps it: per host (arc or density), and gone
    with it."""
    held, name = vars(host), build.__name__
    if name not in held:
        held[name] = build(host)
    return held[name]


def _off_arc(x, off, a):
    """The entries of ``x``, one per node of a system, off its arc ``a``."""
    return np.concatenate((x[:off[a]], x[off[a + 1]:]))


def _exact_sums(rows):
    """``math.fsum`` of each row of the 2-d float array ``rows``, bit for bit.

    Error-free extraction onto one power-of-two grid per row (Rump, Ogita
    & Oishi, "Accurate floating-point summation part I", SIAM J. Sci.
    Comput. 31, 2008): with sigma = 2**k > 2 n max|x| for n columns,
    q = (x + sigma) - sigma is exact, and so are x - q and the sum of the
    q's, whose terms are all multiples of 2**-53 sigma and whose total is
    below sigma.  Each pass extracts the leading bits of every row, and
    the next takes what is left, until nothing is; fsum of a row's few
    exact pass sums is then its correctly rounded total, as fsum of the
    row is.  Rows with a value that is not finite, within a factor 4n of
    overflow, or whose exact sum is zero go to ``math.fsum`` itself, so
    its inf, NaN, errors and signed zeros are kept.
    """
    n_rows, n = rows.shape
    bits = n.bit_length() + 1
    peak = np.max(np.abs(rows), axis=1, initial=0.0)
    top = np.frexp(peak)[1] + bits
    # below 2**1022 in all, no partial sum of fsum's can overflow
    exact = np.isfinite(peak) & (top < 1023)
    rest, top = np.where(exact[:, None], rows, 0.0), np.where(exact, top, 0)
    passes = []
    while True:
        sigma = np.ldexp(1.0, top)[:, None]
        q = rest + sigma
        q -= sigma
        passes.append(np.sum(q, axis=1).tolist())
        rest -= q
        peak = np.max(np.abs(rest), axis=1, initial=0.0)
        if not peak.any():
            break
        top = np.frexp(peak)[1] + bits
    out = np.empty(n_rows)
    for i, parts in enumerate(zip(*passes)):
        total = math.fsum(parts)
        out[i] = total if exact[i] and total else math.fsum(rows[i])
    return out


def _weighted_sums(weights, rows):
    """sum_j weights_j rows_ij for each row i, summed exactly (``_exact_sums``).

    Each row's real part goes before its imaginary part, as ``integrate``
    takes them, so a sum that ``math.fsum`` refuses raises the same error.
    """
    prod = weights * rows
    return _exact_sums(np.stack((prod.real, prod.imag), axis=1).reshape(-1, weights.size)).view(
        complex)


def _weighted_sum(weights, samples):
    vals = np.asarray(getattr(samples, "values", samples), dtype=complex)
    if vals.size != weights.size:
        raise AlignmentError(f"expected {weights.size} samples, got {vals.size}")
    return complex(_weighted_sums(weights, vals.reshape(1, -1))[0])


def integrate(samples, host):
    """int f(t) dt: the samples summed against the host's ``dt_weights``.

    ``samples`` is a SampledDensity or an array of one value per node.
    The products are summed exactly and rounded once (``_exact_sums``), so
    the result is deterministic, the correctly rounded sum, and bitwise
    ``math.fsum`` of the real and of the imaginary parts.  A ``host`` that
    is not a contour or arc system raises GeometryError (``host_rule``).
    """
    return _weighted_sum(host_rule(host).dt_weights, samples)


def integrate_arclength(samples, host):
    """int f(t) |dt|: the samples summed against the host's ``weights``."""
    return _weighted_sum(host_rule(host).weights, samples)


# ---------------------------------------------------------------------------
# spectral derivatives on the two node layouts
# ---------------------------------------------------------------------------

def closed_node_derivative(host, values):
    """df/dt on a closed contour, for subtracted principal-value diagonals.

    Trigonometric differentiation, df/dtheta by one FFT pair over dz/dtheta:
    the involution identity S(Sg) = g is only reproduced to 1e-10 on
    band-limited data if the diagonal term is exact for trigonometric
    polynomials, which rules out fixed-order difference stencils at moderate
    node counts.
    """
    fk = np.fft.fft(values)
    return np.fft.ifft(1j * _wavenumbers(fk.size) * fk) / host.dz_dtheta


def _wavenumbers(n):
    """The wavenumbers of an n-point DFT, the Nyquist mode's zeroed (real-symmetric)."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return k


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


def _proxy_counts(n, capped=False):
    """The proxy counts of a closed contour of n nodes: each the smallest even
    divisor of n at or above twice the last, from 32 on, while 4p <= n and,
    if ``capped``, p**2 <= 16 n (a kernel table's bound)."""
    p, top = 16, min(n // 4, math.isqrt(16 * n) if capped else n)
    while p := next((d for d in range(2 * p, top + 1, 2) if n % d == 0), 0):
        yield p


def _proxy_remainder(n, rows, part, scale, idx, rest=None):
    """``rows`` at the nodes ``idx`` of a closed contour of n nodes.

    ``rows(r)`` gives the rows at the nodes r, and ``part``, given only
    where the caller's kernel is resolved, their part diagonal in Fourier
    at every node.  The remainder, rows less part, is taken at the p
    proxies of ``_proxy_counts``, rows already probed reused, until its DFT
    is resolved against ``scale``, and trigonometrically interpolated to
    ``idx``.  Else the probed rows are kept, and ``rest(r)`` (else
    ``rows``) gives the others; a ``rest`` caps the probes, since its rows
    cost less.  The probes depend on n, ``part``, ``scale`` and ``rest``.
    """
    row = np.empty(n, dtype=complex)
    done = np.zeros(n, dtype=bool)
    for p in _proxy_counts(n, rest is not None) if part is not None else ():
        proxy = np.arange(0, n, n // p)
        new = proxy[~done[proxy]]
        row[new], done[new] = rows(new), True
        c = np.fft.fft(row[proxy] - part[proxy])
        if _resolved(c, scale):
            h = p // 2
            pad = np.zeros(n, dtype=complex)
            pad[:h], pad[n - h + 1:] = c[:h], c[h + 1:]
            pad[h] = pad[n - h] = 0.5 * c[h]
            return (part + np.fft.ifft(pad) * (n / p))[idx]
    missing = idx[~done[idx]]
    row[missing] = (rest or rows)(missing)
    return row[idx]


def _kernel_table(host):
    """(p, G^) for S's smooth kernel on a closed contour, or None.

    G(th, ph) = z'(th)/(z(th) - z(ph)) - cot((th - ph)/2)/2 - i/2, with
    z''(ph)/(2 z'(ph)) - i/2 on the diagonal, is smooth in both variables on
    a smooth curve and 0 on a circle.  It is sampled at p x p proxies, p of
    ``_proxy_counts``, and G^ is its 2-d DFT over p**2, G^_ab the
    coefficient of e^{i a th} e^{i b ph}, |a|, |b| < p/2.  The first p whose
    top eighth of frequencies in either variable is below max(1e-14,
    sqrt(p) e) max(1, max|G^|) is kept; none is once p**2 > 16 n (256
    bytes per node).  e = eps max|t| / (2 max|t - mean t|), over the
    diameter on an ellipse, is the nodes' own rounding, which G's
    1/(z(th) - z(ph)) amplifies: it put up to 0.65 sqrt(p) e in the top
    frequencies of 180 ellipses 5 to 50 semi-axes from the origin.  sqrt(p) e
    passes 1e-14 from 3 (p = 512) to 15 (p = 32) semi-axes out; nearer, the
    test is the plain 1e-14, since a sum let truncation through.
    """
    n, dz, x = host.n_nodes, host.dz_dtheta, host.nodes
    rounding = np.finfo(float).eps * np.max(np.abs(x)) / (2.0 * np.max(np.abs(x - np.mean(x))))
    # z'' spectrally, without the modes at rounding level that k would amplify
    # (they tripled S's error on a 16384-node circle)
    dk = np.fft.fft(dz)
    dk[np.abs(dk) <= 1e-14 * math.sqrt(n) * np.max(np.abs(dz))] = 0.0
    ddz = np.fft.ifft(1j * _wavenumbers(n) * dk)
    for p in _proxy_counts(n, capped=True):
        proxy = np.arange(0, n, n // p)
        t, d = host.nodes[proxy], dz[proxy]
        half_cot = np.zeros(p)
        half_cot[1:] = 0.5 / np.tan(np.pi * np.arange(1, p) / p)
        den = t[:, None] - t
        np.fill_diagonal(den, 1.0)
        g = d[:, None] / den
        g -= half_cot[np.subtract.outer(np.arange(p), np.arange(p)) % p]
        np.fill_diagonal(g, 0.5 * ddz[proxy] / d)
        g -= 0.5j
        c = np.fft.fft2(g) / (p * p)
        top = slice(7 * p // 16, p - 7 * p // 16)
        if max(np.max(np.abs(c[top])), np.max(np.abs(c[:, top]))) <= max(
                1e-14, math.sqrt(p) * rounding) * max(1.0, np.max(np.abs(c))):
            keep = np.r_[:p // 2, p // 2 + 1:p]
            return p, _read_only(c[np.ix_(keep, keep)])
    return None


def _table_S(table, values, fk, k):
    """S f = H f + f^_0 + R f at every node from the kernel table (p, G^).

    R f(ph) = (2/(i n)) sum_j (f_j - f(ph)) G(th_j, ph) = (2/i) [sum_b
    e^{i b ph} sum_a G^_ab f^_{-a} - f(ph) sum_b G^_0b e^{i b ph}], f^ =
    fft(f)/n; the last sum is 0 in exact arithmetic (PV int dt/(t - t(ph))
    = i pi) and cancels the table's own error.  One inverse FFT of two rows;
    the sum over a is ``np.einsum``, not BLAS: at p = 128 a BLAS product at
    default threads took 8 ms, ``np.einsum`` 0.05 ms (2 cores).
    """
    p, ghat = table
    n, h = values.size, p // 2
    a = np.r_[:h, 1 - h:0]  # the table's frequencies, in its order
    pad = np.zeros((2, n), dtype=complex)
    pad[0] = np.sign(k) * fk
    pad[0, 0] = fk[0]
    pad[0, a] -= 2j * np.einsum("a,ab->b", fk[-a], ghat)
    pad[1, a] = (-2j * n) * ghat[0]
    s, rest = np.fft.ifft(pad)
    return s - values * rest


def _S_closed(host, values, idx):
    """S on a closed contour: the periodic Hilbert transform plus a smooth remainder.

    z'(th)/(z(th) - z(ph)) = cot((th - ph)/2)/2 + K(th, ph) with K smooth on
    a smooth curve, so S f = H f + R with H f = ifft(sgn(k) fft(f)) and R
    smooth in ph.  With f and z' resolved, from ``_FMM_MIN_NODES`` nodes on
    R comes from the host's kernel table (``_table_S``, no rows); below
    that, or on a host with no table, H f is the part of the pole-subtracted
    rows that ``_proxy_remainder`` is given.  Rows it neither interpolates
    nor probed are summed directly below ``_FMM_MIN_NODES`` nodes and by
    the host's multipole plan from there on, where the probes stop as the
    table's do.  The choice depends on the host and f only, and each row on
    its own node, so S at any ``idx`` is bitwise the full S.
    """
    n = values.size
    t, w = host.nodes, host.dt_weights
    fk, k = np.fft.fft(values), _wavenumbers(n)
    scale = np.max(np.abs(values))
    # rough data, or a curve with corners, leave R rough: no probes, no table
    resolved = _resolved(fk, scale) and _held(host, _dz_resolved)
    table = resolved and n >= _FMM_MIN_NODES and _held(host, _kernel_table)
    if table:
        return _table_S(table, values, fk, k)[idx]
    df = np.fft.ifft(1j * k * fk) / host.dz_dtheta

    def s_of(total, r):
        return (total + values[r] * 1j * np.pi) / (1j * np.pi)

    def rows(r):
        return s_of(_cauchy_sum(t, t[r], values, values[r], w, diag=r, diag_value=df[r]), r)

    def multipole(r):
        return s_of(_held(host, _multipole_plan).rows(values, df, r), r)

    part = np.fft.ifft(np.sign(k) * fk) if resolved else None
    return _proxy_remainder(n, rows, part, scale, idx, None if n < _FMM_MIN_NODES else multipole)


def _log_rows(t, q, x, pole=None, dist=None, speed=None):
    """sum_j q_j log|t_j - x_i| for every target x_i.

    With ``dist``, x_i is the node ``pole[i]`` and ``dist(rows)`` the
    parameter distances of those rows to every column: the log is that of
    |t_j - x_i| / dist, smooth through the pole, and log ``speed[i]`` (its
    limit) on the diagonal.  A row's sum does not depend on the other rows.
    """
    def block(rows):
        d = np.abs(t - x[rows, None])
        if dist is not None:
            e = dist(rows)
            on = (np.arange(e.shape[0]), pole[rows])
            d[on] = e[on] = 1.0
            d /= e
            d[on] = speed[rows]
        np.log(d, out=d)
        d *= q
        return np.sum(d, axis=1)

    return _by_rows(block, x.size, t.size)


def _log_closed(host, q):
    """u at every node of a closed contour for the weighted density q.

    With v = rho |z'| (q = 2 pi v / n) the kernel log|2 sin((th - th_k)/2)|
    is diagonal in Fourier, e^{i j th} -> -pi/|j| e^{i j th_k} and 1 -> 0,
    the Nyquist mode taken as its cosine (R. Kress, Linear Integral
    Equations, ch. 12); one real FFT pair.  The remainder, the
    pole-subtracted ``_log_rows`` of chord over 2|sin((th_j - th_k)/2)|, is
    smooth for any q on a curve whose dz/dtheta is resolved; its DFT is
    judged against sum |q|.
    """
    n, t = q.size, host.nodes
    c = np.fft.rfft(q)
    c[0] = 0.0
    c[1:] *= -0.5 * n / np.arange(1, c.size)
    ring = sliding_window_view(np.tile(np.abs(2.0 * np.sin(np.pi * np.arange(n) / n)), 2), n)

    def rows(r):  # ring[n - k, j] = 2|sin(pi (j - k)/n)|
        return _log_rows(t, q, t[r], r, lambda b: ring[n - r[b]], np.abs(host.dz_dtheta[r]))

    part = np.zeros(n) if _held(host, _dz_resolved) else None
    rest = _proxy_remainder(n, rows, part, np.sum(np.abs(q)), np.arange(n))
    return np.fft.irfft(c, n) + rest.real


# The far field of the closed-contour rows.  Terms and separation were fixed
# together by timing and by the largest difference from the direct rows,
# 1e-15 max|f| on rounded polygons of 1024-16384 nodes (at separation 2, 24
# terms missed by 2e-13); below _FMM_MIN_NODES nodes the direct rows are as
# fast.  S's leaves hold about _FMM_LEAF nodes: once the upward and downward
# passes made the far field cheap, leaves of 16 took S on the 4096-node
# polygon from 14.5 to 10.8 ms against leaves of 32, and with the near field
# a kernel held per leaf pair (_kernel) S takes 7.4 ms against 13.5 ms for
# leaves of 32 without it (2 cores, one BLAS thread, alternating runs).
_FMM_TERMS = 24
_FMM_SEPARATION = 3.0
_FMM_LEAF = 16
_FMM_MIN_NODES = 1024
# C(k + l, k): row k, column l
_BINOMIAL = np.array([[math.comb(k + l, k) for l in range(_FMM_TERMS)]
                      for k in range(_FMM_TERMS)], dtype=float)
# Off-curve targets.  A point is separated from box B where |z - c_B| >
# _TARGET_SEPARATION r_B: a box pair's alpha plus one, fixed by the largest
# difference from the direct sums, 2e-15 max|f| on 1024-16384 nodes (at 3,
# 6e-13).  The walk stops a level above the leaves and sums a box still not
# separated there over its two leaves (walking down to the leaves made
# plemelj_residuals on the 16384-node circle about 10 % slower), and takes
# _TARGET_BLOCK targets at a time.  The tree costs about the direct sums of
# _TREE_TARGETS targets plus _TREE_PAIRS target-node pairs: it broke even at
# about 28, 56 and 150 targets on 16384, 4096 and 1024 nodes (2 cores, one
# BLAS thread).
_TARGET_SEPARATION = _FMM_SEPARATION + 1.0
_TARGET_BLOCK = 1024
_TREE_TARGETS = 16
_TREE_PAIRS = 1 << 17
# pairs per product with _BINOMIAL: 24 x 24 x 256 (the real and imaginary
# parts of 128 pairs) stays under OpenBLAS's threshold for threads (one
# unblocked product made S at 4096 nodes up to 2.5x slower at default
# threads on 2 cores); the gathered source expansions are formed one block
# at a time
_M2L_BLOCK = 128


def _powers(x, first=1.0):
    """first * x**k for k < ``_FMM_TERMS``, stacked along a new first axis."""
    out = np.empty((_FMM_TERMS,) + np.broadcast(x, first).shape, dtype=np.result_type(x, first))
    out[0] = first
    for k in range(1, _FMM_TERMS):
        np.multiply(out[k - 1], x, out=out[k])
    return out


class _MultipolePlan:
    """The multipole sums of one closed contour: a plan over its nodes, a pass per density.

    The fast multipole method in complex form (Greengard & Rokhlin, J. Comput.
    Phys. 73, 1987; Carrier, Greengard & Rokhlin, SIAM J. Sci. Stat. Comput.
    9, 1988) on a binary tree of contiguous node ranges, halved down to
    leaves of about ``_FMM_LEAF`` nodes.  Box q of level l (2**l <= q <
    2**(l + 1), children 2q and 2q + 1) has the midpoint c of its bounding
    box as centre and the largest |t - c| as radius r.  The children of two
    boxes that were not separated are paired again; boxes A and B with
    |c_A - c_B| > alpha (r_A + r_B) exchange their far field.  S sums at
    the leaves (level ``depth``); the off-curve walk stops a level above
    them and sums each box it reaches there over its two leaves.

    The plan is what depends on the nodes t and weights w alone, every
    array of it read-only.  Built at once: the tree, each box's shift to
    its parent (the powers of rho = r_child/r_parent and delta = (c_child -
    c_parent)/r_parent), each node's leaf and leaf coordinate (t - c)/r,
    and each leaf's first node and its columns: its nodes padded with its
    last, their t and w (0 on the padding) and where they are its own.
    Built on first use and kept, each a cached property:
    ``multipole_of_weights``, ``_pairs``, ``_m2l``, ``_kernel`` (the near
    field) and ``rows_of_weights``.

    ``rows`` (S at nodes) uses all of them; ``off_curve`` (targets off the
    curve) walks the tree and needs only the first.
    """

    def __init__(self, t, w):
        n = t.size
        self.depth = depth = max(1, math.ceil(math.log2(n / _FMM_LEAF)))
        # by box number; boxes 0 and 1 (the root) are in no pass
        center = np.zeros(2 << depth, dtype=complex)
        radius = np.ones(2 << depth)
        for lev in range(1, depth + 1):
            lo = (np.arange((1 << lev) + 1) * n) >> lev
            first, box = lo[:-1], np.repeat(np.arange(1 << lev), np.diff(lo))
            c = 0.5 * (np.minimum.reduceat(t.real, first) + np.maximum.reduceat(t.real, first)
                       + 1j * (np.minimum.reduceat(t.imag, first)
                               + np.maximum.reduceat(t.imag, first)))
            r = np.maximum.reduceat(np.abs(t - c[box]), first)
            center[1 << lev:2 << lev], radius[1 << lev:2 << lev] = c, r
        # the root's radius is that of its larger child, so the shifts of level
        # 1, which no pass uses, stay finite however large the contour
        radius[:2] = radius[2:4].max()
        parent = np.arange(2 << depth) >> 1
        self.center, self.radius = center, radius
        self.rho = _powers(radius / radius[parent])
        self.delta = (center - center[parent]) / radius[parent]
        self.nodes, self.weights = t, w
        # the loop ends at the leaves: first and box are theirs
        self.first, self.leaf = first, box
        self.coords = (t - center[box + (1 << depth)]) / radius[box + (1 << depth)]
        size = np.diff(lo)
        col = np.arange(size.max())
        self.leaf_cols = first[:, None] + np.minimum(col, size[:, None] - 1)
        self.leaf_own = col < size[:, None]
        self.leaf_nodes = t[self.leaf_cols]
        self.leaf_weights = np.where(self.leaf_own, w[self.leaf_cols], 0.0)
        for a in (center, radius, self.rho, self.delta, self.first, self.leaf, self.coords,
                  self.leaf_cols, self.leaf_own, self.leaf_nodes, self.leaf_weights):
            _read_only(a)

    @cached_property
    def _pairs(self):
        """The separated box pairs (A, B) of every level, and the leaf pairs
        that are not separated, each sorted by A and then B."""
        near = np.zeros((1, 2), dtype=np.int64)  # (target, source) boxes not separated
        pairs = []
        for lev in range(1, self.depth + 1):
            c, r = self.center[1 << lev:2 << lev], self.radius[1 << lev:2 << lev]
            a = (2 * near[:, :1] + [0, 0, 1, 1]).ravel()
            b = (2 * near[:, 1:] + [0, 1, 0, 1]).ravel()
            sep = np.abs(c[a] - c[b]) > _FMM_SEPARATION * (r[a] + r[b])
            near = np.stack((a[~sep], b[~sep]), axis=1)
            pairs.append(np.stack((a[sep], b[sep]), axis=1) + (1 << lev))
        pairs = np.concatenate(pairs)
        return (_read_only(pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]),
                _read_only(near[np.lexsort((near[:, 1], near[:, 0]))]))

    @cached_property
    def _m2l(self):
        """(source box, r_B/d, -r_A/d, -1/d, first pair per target, target box),
        and the top level, the first with a separated pair."""
        # sum_j s_j/(t_j - z) = -sum_k M_k r_B^k / (z - c_B)^(k+1), and with
        # z - c_B = d + r_A v, d = c_A - c_B, the coefficient of v^l is
        # -(1/d) (-r_A/d)^l sum_k C(k + l, k) (r_B/d)^k M_k
        a, b = self._pairs[0].T
        d = self.center[a] - self.center[b]
        first_pair = np.flatnonzero(np.diff(a, prepend=-1))
        top = int(a[0]).bit_length() - 1 if a.size else self.depth
        return tuple(map(_read_only, (b, self.radius[b] / d, -self.radius[a] / d, -1.0 / d,
                                      first_pair, a[first_pair]))) + (top,)

    @cached_property
    def _kernel(self):
        """(D, A, B, at, starts) over the leaf pairs (A, B) that are not
        separated, A < B first and then A = B, each sorted by A.

        D[p, i, j] = 1/(t_j - t_i) for the i-th column of leaf A and the
        j-th of leaf B, 0 for i = j and on the padding of leaves shorter
        than the longest.  Pair p gives leaf A the row sums of D[p] (partial
        p) and, if A < B, leaf B the negated column sums (partial P + p, P
        pairs in all).  ``at`` puts each partial in the order of the leaf
        that takes it and then of the other leaf of its pair; leaf L's
        partials start at ``starts[L]``, since each leaf has its self pair.
        """
        a, b = self._pairs[1].T
        order = np.concatenate((np.flatnonzero(a < b), np.flatnonzero(a == b)))
        a, b = a[order], b[order]
        t, own = self.leaf_nodes, self.leaf_own
        den = t[b][:, None, :] - t[a][:, :, None]
        off = own[a][:, :, None] & own[b][:, None, :]
        off[a == b] &= ~np.eye(t.shape[1], dtype=bool)
        den[~off] = 1.0
        kernel = np.divide(1.0, den, out=den)
        kernel[~off] = 0.0
        cross = a < b
        owner = np.concatenate((a, b[cross]))
        by = np.lexsort((np.concatenate((b, a[cross])), owner))
        at = np.empty_like(by)
        at[by] = np.arange(by.size)
        starts = np.searchsorted(owner[by], np.arange(t.shape[0]))
        return tuple(map(_read_only, (kernel, a, b, at, starts)))

    def _near(self, x, need):
        """sum_j D_ij x_j over the near leaves at the nodes of the leaves with
        ``need``: row r for the r-th of those leaves, by position in the leaf.

        Only the pairs that touch those leaves are summed, each a
        contraction by ``np.einsum`` (no BLAS call, no product array), in
        blocks of about ``geometry._ROW_BLOCK`` kernel entries.  Each pair's
        partial sums depend on that pair alone.  Only the partials of the
        leaves asked for are formed, packed run after run, and one
        ``np.add.reduceat`` adds each leaf's partials one by one in the order
        of ``_kernel``, so a node's sum does not depend on the other leaves
        asked for.
        """
        kernel, a, b, at, starts = self._kernel
        width = kernel.shape[1]
        h = width // 2
        xs = x[self.leaf_cols]
        # the runs of the leaves asked for, packed one after the other: the
        # partial at ``at`` = g of leaf L goes to g + shift[L]
        leaves = np.flatnonzero(need)
        runs = np.diff(starts, append=at.size)[leaves]
        packed = np.cumsum(runs) - runs
        shift = np.zeros_like(starts)
        shift[leaves] = packed - starts[leaves]
        part = np.empty((int(np.sum(runs)), width), dtype=complex)
        step = max(1, _ROW_BLOCK // width ** 2)

        def blocks(pairs):
            for lo in range(0, pairs.size, step):
                p = pairs[lo:lo + step]
                yield p, kernel[p[0]:p[-1] + 1] if p[-1] - p[0] == p.size - 1 else kernel[p]

        for p, d in blocks(np.flatnonzero(need[a])):
            # a row summed in two halves, which halves the rounding of one run
            y = xs[b[p]]
            part[at[p] + shift[a[p]]] = (np.einsum("pij,pj->pi", d[:, :, :h], y[:, :h])
                                         + np.einsum("pij,pj->pi", d[:, :, h:], y[:, h:]))
        for p, d in blocks(np.flatnonzero(need[b] & (a < b))):
            part[at[a.size + p] + shift[b[p]]] = -np.einsum("pij,pi->pj", d, xs[a[p]])
        return np.add.reduceat(part, packed) if leaves.size else part

    @cached_property
    def multipole_of_weights(self):
        """The expansions of w in every box down to the leaves (``_upward``)."""
        return _read_only(self._upward(self.weights))

    @cached_property
    def rows_of_weights(self):
        """sum_j w_j/(t_j - t_i) over j != i at every node i: near plus far."""
        nodes = np.arange(self.nodes.size)
        need = np.ones(self.first.size, dtype=bool)
        near = self._near(self.weights, need)[self.leaf, nodes - self.first[self.leaf]]
        return _read_only(near + self._far(self.multipole_of_weights, nodes))

    def _upward(self, s, top=1):
        """The multipole expansions of the sources s in every box of the
        levels ``top`` to ``depth``, the leaves.

        M_k(B) = sum_j s_j ((t_j - c_B)/r_B)**k over B's nodes: P2M at the
        leaves and M2M up the tree.  A box's expansion does not depend on
        ``top``.
        """
        p, depth = _FMM_TERMS, self.depth
        multipole = np.zeros((p, 2 << depth), dtype=complex)
        multipole[:, 1 << depth:] = np.add.reduceat(_powers(self.coords, s), self.first, axis=1)
        for lev in range(depth, top, -1):
            # M_k(parent) = sum_j C(k, j) rho^j delta^(k - j) M_j(child): the
            # Pascal triangle, one diagonal per step
            box = slice(1 << lev, 2 << lev)
            y, delta = self.rho[:, box] * multipole[:, box], self.delta[box]
            for k in range(1, p):
                y[k:] += delta * y[k - 1:-1]
            multipole[:, 1 << (lev - 1):1 << lev] = y[:, 0::2] + y[:, 1::2]
        return multipole

    def _far(self, multipole, idx):
        """sum_j s_j/(t_j - t_i) over the boxes separated from node i's, i in ``idx``.

        From the expansions of s down to the leaves (``_upward``): M2L
        between the separated pairs (products with the real table
        C(k + l, k) in blocks of ``_M2L_BLOCK`` pairs, summed per target
        box), L2L down the tree, and each target's local expansion summed
        at its leaf by Horner's rule.  The M2L factor powers are formed per
        pass.  The expansions are needed
        from the top level (``_m2l``) down only.  Every expansion is formed
        whatever ``idx``, and each target is summed on its own, so a row
        does not depend on the others asked for.
        """
        p, depth = _FMM_TERMS, self.depth
        source, rb, ra, inv, first_pair, target, top = self._m2l
        from_source, to_target = _powers(rb), _powers(ra, inv)
        m2l = np.empty_like(to_target)
        for lo in range(0, source.size, _M2L_BLOCK):
            pairs = slice(lo, lo + _M2L_BLOCK)
            # the real table times the real and imaginary parts
            x = (multipole[:, source[pairs]] * from_source[:, pairs]).view(float)
            m2l[:, pairs] = (_BINOMIAL.T @ x).view(complex) * to_target[:, pairs]
        local = np.zeros_like(multipole)
        local[:, target] = np.add.reduceat(m2l, first_pair, axis=1)
        for lev in range(top, depth):
            # L_j(child) = rho^j sum_l C(l, j) delta^(l - j) L_l(parent): the
            # transposed triangle
            box = slice(2 << lev, 4 << lev)
            y, delta = local[:, 1 << lev:2 << lev].repeat(2, axis=1), self.delta[box]
            for k in range(p - 1, 0, -1):
                y[k - 1:-1] += delta * y[k:]
            local[:, box] += self.rho[:, box] * y

        k = self.leaf[idx] + (1 << depth)
        v = self.coords[idx]
        acc = local[p - 1, k]
        for j in range(p - 2, -1, -1):
            acc *= v
            acc += local[j, k]
        return acc

    def rows(self, f, df, idx):
        """sum_j w_j (f_j - f_i)/(t_j - t_i), w_i df_i for j = i, at the nodes i in ``idx``.

        The pass over one density f, on top of the plan: with K_ij =
        w_j/(t_j - t_i) for j != i, the row is sum_j K_ij f_j - f_i sum_j
        K_ij + w_i df_i.  The first sum is the near leaves' kernel times
        w f, over the pairs that touch the leaves of ``idx`` (``_near``),
        plus the far field of w f from the expansions (``_far``); the second
        is the plan's ``rows_of_weights``.
        """
        k = self.leaf[idx]
        need = np.zeros(self.first.size, dtype=bool)
        need[k] = True
        wf = self.weights * f
        near = self._near(wf, need)[np.cumsum(need)[k] - 1, idx - self.first[k]]
        far = self._far(self._upward(wf, self._m2l[-1]), idx)
        return (near + far) - f[idx] * self.rows_of_weights[idx] + self.weights[idx] * df[idx]

    def off_curve(self, z, f, s=None):
        """sum_j w_j (f_j - s_i)/(t_j - z_i) at points z_i off the nodes (s_i = 0 without s).

        A treecode (Barnes & Hut, Nature 324, 1986) on the plan's
        expansions: those of w f by one upward pass, those of w kept by the
        plan.  Each target walks down the tree from the root's children to
        the level above the leaves, one level at a time for all (target,
        box) pairs at once.  A box with |z - c_B| > ``_TARGET_SEPARATION``
        r_B gives its far field sum_j s_j/(t_j - z) = -(1/D) sum_k M_k
        (r_B/D)**k, D = z - c_B, by Horner's rule in r_B/D (M2P), for the
        sources w f minus s_i times w; the others pass their children on.
        A box still not separated at the bottom is summed directly over the
        columns of its two leaves, with the pole subtraction (f_j - s_i), as
        the direct sums are.  Targets go in blocks of ``_TARGET_BLOCK``, and
        each target's pairs, and their sums, follow its own walk, so its
        value does not depend on the other targets.
        """
        mf = self._upward(self.weights * f)
        mw = None if s is None else self.multipole_of_weights
        # row q: the columns of leaves 2q and 2q + 1, the children of box q
        # of the level above
        f_box = f[self.leaf_cols].reshape(self.first.size // 2, -1)
        out = np.empty(z.size, dtype=complex)
        for lo in range(0, z.size, _TARGET_BLOCK):
            rows = slice(lo, lo + _TARGET_BLOCK)
            out[rows] = self._walk(z[rows], f_box, mf, mw, None if s is None else s[rows])
        return out

    def _walk(self, z, f_box, mf, mw, s):
        """``off_curve`` for one block of targets."""
        i, box = np.arange(z.size), np.ones(z.size, dtype=np.int64)
        # (target, box, z - c_B) of the separated pairs, level by level; the
        # empty first entry is all there is at depth 1, where no level is tested
        far = [(i[:0], box[:0], z[:0])]
        for _ in range(1, self.depth):
            i, box = np.repeat(i, 2), (2 * box[:, None] + [0, 1]).ravel()
            d = z[i] - self.center[box]
            sep = np.abs(d) > _TARGET_SEPARATION * self.radius[box]
            far.append((i[sep], box[sep], d[sep]))
            i, box = i[~sep], box[~sep]
        fi, fb, d = (np.concatenate(x) for x in zip(*far))
        u = self.radius[fb] / d
        sf = None if s is None else s[fi]
        acc = np.zeros(fi.size, dtype=complex)
        for k in range(_FMM_TERMS - 1, -1, -1):
            acc *= u
            acc += mf[k, fb] if s is None else mf[k, fb] - sf * mw[k, fb]
        acc /= -d

        q = box - (1 << (self.depth - 1))
        t, w = (a.reshape(f_box.shape) for a in (self.leaf_nodes, self.leaf_weights))

        def block(rows):
            den = t[q[rows]]
            den -= z[i[rows], None]
            reg = f_box[q[rows]]
            if s is not None:
                reg -= s[i[rows], None]
            reg /= den
            reg *= w[q[rows]]
            return np.sum(reg, axis=1)

        near = _by_rows(block, q.size, f_box.shape[1], complex)
        return _sum_by(i, near, z.size) + _sum_by(fi, acc, z.size)


def _multipole_plan(host):
    """The ``_MultipolePlan`` of a closed contour's nodes and ``dt_weights``."""
    return _MultipolePlan(host.nodes, host.dt_weights)


def _sum_by(index, values, n):
    """The complex ``values`` summed per ``index`` in [0, n), each in the order given."""
    out = np.empty(n, dtype=complex)
    out.real = np.bincount(index, values.real, minlength=n)
    out.imag = np.bincount(index, values.imag, minlength=n)
    return out


def _closed_cauchy_sum(host, z, f, s=None):
    """sum_j w_j (f_j - s_i)/(t_j - z_i) over a closed contour's nodes, at points z_i off it.

    w is the host's ``dt_weights``, s_i = 0 without s.  Below
    ``_FMM_MIN_NODES`` nodes, or while (targets - ``_TREE_TARGETS``) x nodes
    is below ``_TREE_PAIRS``, the sum is ``_cauchy_sum``'s; from there on
    the host's multipole plan walks the targets down its tree to the level
    above its leaves, the leaves S sums at, and sums the boxes left there
    over their two leaves (``_MultipolePlan.off_curve``).  The route depends
    on the number of nodes and of targets only.
    """
    t, w = host.nodes, host.dt_weights
    if t.size < _FMM_MIN_NODES or (z.size - _TREE_TARGETS) * t.size < _TREE_PAIRS:
        return _cauchy_sum(t, z, w * f) if s is None else _cauchy_sum(t, z, f, s, w)
    return _held(host, _multipole_plan).off_curve(z, f, s)


def _resolved(c, scale):
    """Whether the DFT c of m samples has its top eighth of frequencies below
    1e-14 * scale (a size of the samples)."""
    m = c.size
    return np.max(np.abs(c[7 * m // 16:m - 7 * m // 16])) <= 1e-14 * m * scale


def _dz_resolved(host):
    """Whether a closed contour's dz/dtheta is resolved on its nodes, as the proxy sums need."""
    return _resolved(np.fft.fft(host.dz_dtheta), np.max(np.abs(host.dz_dtheta)))


def _S_arcs(host, values, idx, density_class):
    """S on an arc system: per graded arc, ``_own_pv`` of its class fold plus
    the ``_remainder`` interpolated from proxies (the first of them from the
    proxy plan).  S is formed at every node of each arc that holds one of
    ``idx``, and the route depends on the host alone, so S at any ``idx`` is
    bitwise the full S.
    """
    off = host.arc_offsets
    needed = np.flatnonzero(np.bincount(np.searchsorted(off, idx, side="right") - 1))
    if not all(host.arcs[a].graded for a in needed):
        raise GeometryError("the singular operator needs cosine-graded arcs")

    # every arc is a source: its samples times its rule's dt weights, the
    # weights of a graded arc taken through the class fold
    folds = [_fold(arc, values[off[a]:off[a + 1]], density_class) if arc.graded else None
             for a, arc in enumerate(host.arcs)]
    wf = np.concatenate([(np.pi / arc.n_nodes) * fold[1] * arc.dt_dtau if arc.graded
                         else arc.dt_weights * values[off[a]:off[a + 1]]
                         for a, (arc, fold) in enumerate(zip(host.arcs, folds))])
    large = host.n_nodes >= _FMM_MIN_NODES
    plan = _held(host, _proxy_plan) if large else (None,) * host.n_arcs
    out = np.empty(host.n_nodes, dtype=complex)
    for a in needed:
        arc, (g, q) = host.arcs[a], folds[a]
        pv = _own_pv(g, arc, density_class)
        t, w = (_off_arc(x, off, a) for x in (host.nodes, wf))
        if t.size or arc.kind == "circular":
            first = None if plan[a] is None else _remainder(arc, q, t, w, _FIRST_PROXIES, plan[a])
            pv = pv + _interpolated(lambda tau: _remainder(arc, q, t, w, tau, large=large),
                                    arc, first)
        out[off[a]:off[a + 1]] = pv / (1j * np.pi)
    return out[idx]


def _log_arcs(host, q):
    """u at every node of an arc system for the weighted density q; NaN on chain arcs.

    With phi = pi sin(u) |dt/dtau| rho = m q expanded in T_n(tau), the
    kernel log|tau - tau_k| is diagonal, T_0 -> -log 2 and T_n -> -T_n/n
    (S. Olver, Math. Comp. 80, 2011).  On a segment |t - t_k| / |tau -
    tau_k| is L/2, which adds log(L/2) c_0.  The remainder is
    ``_interpolated`` of a smooth fn(tau), as S's ``_remainder``: the other
    arcs' plain sums and, on a circular arc of radius r and sweep D, the log
    of chord over parameter distance, log(r|D|/2) + log|sin y / y| with y =
    D (tau_j - tau)/4.
    """
    u = np.full(q.size, math.nan)
    off = host.arc_offsets
    for a, arc in enumerate(host.arcs):
        if not arc.graded:
            continue
        m, mine = arc.n_nodes, np.s_[off[a]:off[a + 1]]
        q_own, others, q_others = q[mine], _off_arc(host.nodes, off, a), _off_arc(q, off, a)
        coeff, total = _held(arc, _twiddles)
        c = _trig_coeffs(m * q_own, coeff)
        c[1:] /= -np.arange(1, m)
        log_half = math.log(0.5 * arc.total_length) if arc.kind == "segment" else 0.0
        c[0] *= log_half - math.log(2.0)
        u[mine] = _trig_sum(c, total).real
        sweep = arc.theta_b - arc.theta_a

        def circular(rows, tau):  # y / pi = D (tau_j - tau) / (4 pi)
            ratio = np.sinc((0.25 / math.pi * sweep) * (arc.params - tau[rows, None]))
            return np.sum(np.log(ratio, out=ratio) * q_own, axis=1)

        def fn(tau):
            out = _log_rows(others, q_others, arc.point_at(tau)) if others.size else 0.0
            if arc.kind != "circular":
                return out
            return out + (math.log(0.5 * arc.radius * abs(sweep)) * np.sum(q_own)
                          + _by_rows(lambda rows: circular(rows, tau), tau.size, q_own.size))

        if others.size or arc.kind == "circular":
            u[mine] += np.real(_interpolated(fn, arc))
    return u


# ---------------------------------------------------------------------------
# the spectral operator on graded arcs
# ---------------------------------------------------------------------------

def _coeff_twiddle(m):
    """exp(-i pi n/2m)/m, n < m: Chebyshev coefficients at ``_angles(m)`` from a length-2m FFT."""
    return np.exp(-0.5j * np.pi * np.arange(m) / m) / m


def _twiddles(arc):
    """(``_coeff_twiddle(m)``, exp(i pi n/2m) for 0 < n < m) on a graded arc of m
    nodes: its Chebyshev coefficients and sums at ``_angles(m)`` by length-2m FFTs."""
    m = arc.n_nodes
    return _read_only(_coeff_twiddle(m)), _read_only(np.exp(0.5j * np.pi * np.arange(1, m) / m))


def _smooth(arc):
    """(the conjugate length-2m DFT of mu_j = int U_j over (-1, 1), j < m - 1:
    2/(j + 1) for even j and 0 for odd; log((1 - tau)/(1 + tau)) at the nodes)
    of a graded arc of m nodes, for ``_own_pv`` of smooth densities."""
    m = arc.n_nodes
    j = np.arange(m - 1)
    mu = np.where(j % 2 == 0, 2.0 / (j + 1), 0.0)
    return (_read_only(np.fft.fft(mu, 2 * m).conj()),
            _read_only(np.log((1.0 - arc.params) / (1.0 + arc.params))))


def _trig_coeffs(v, twiddle, odd=False):
    """c_n, n < m, with v = sum_n c_n cos(n u) (sin with ``odd``) at ``_angles(m)``.

    One length-2m FFT of the even (odd) extension, times ``twiddle``, which
    is ``_coeff_twiddle(m)``; the cosine coefficients are the
    Chebyshev coefficients of the interpolant of v in tau.
    """
    m = v.size
    c = np.fft.fft(np.concatenate((v[::-1], -v if odd else v)))[:m]
    c *= twiddle
    if odd:
        return 1j * c
    c[0] *= 0.5
    return c


def _trig_sum(c, twiddle, odd=False):
    """sum_n c_n cos(n u) (sin with ``odd``) at ``_angles(m)``, for c.size <= m,
    with ``twiddle`` the m - 1 sum twiddles of ``_twiddles``."""
    m = twiddle.size + 1
    n = np.arange(1, c.size)
    ph = twiddle[:c.size - 1]
    b = np.zeros(2 * m, dtype=complex)
    b[0] = 0.0 if odd else 2.0 * c[0]
    b[n] = c[1:] * ph
    b[2 * m - n] = (-1.0 if odd else 1.0) * c[1:] * ph.conj()
    out = m * np.fft.ifft(b)[m - 1::-1]
    return -1j * out if odd else out


def _fold(arc, f, density_class):
    """(g, q) for the samples f of a density on one graded arc.

    g is what the own-arc transform expands: f = g / sin(u) for
    ``inverse_sqrt``, f = g otherwise (for ``sqrt``, g is a sine series).
    The arc's own factor is undone with the ``sqrt_own_plus`` samples the
    density was built with, so their rounding cancels, and sin(u) comes
    from u in closed form (the arc's ``_sigma`` and ``_sin_of_u``).
    q = f sin(u) gives int f h dtau = (pi/m) sum_j q_j h(tau_j) for smooth h.
    """
    if density_class == "inverse_sqrt":
        g = f * arc.sqrt_own_plus / arc._sigma
        return g, g
    if density_class == "sqrt":
        f = f / arc.sqrt_own_plus * arc._sigma * arc._sin_of_u
    return f, f * arc._sin_of_u


def _own_pv(g, arc, density_class):
    """PV int f(tau)/(tau - tau_x) dtau over (-1, 1) at the nodes of ``arc``, f from g.

    Diagonal in Chebyshev coefficients (S. Olver, Math. Comp. 80, 2011):
    sqrt(1 - tau^2) U_{n-1} -> -pi T_n, and T_n / sqrt(1 - tau^2) -> pi U_{n-1},
    summed as the T series (2 - delta_k0) pi (c_{k+1} + c_{k+3} + ...), so
    nothing is divided by sin(u).  A smooth f gives f(x) log((1 - x)/(1 + x))
    plus the integral of its divided difference, the T series
    (2 - delta_k0) sum_{n>k} c_n mu_{n-1-k} with mu_j = int U_j = 2/(j+1) for
    even j and 0 for odd j: one FFT correlation with the arc's ``_smooth``
    spectrum of mu.
    """
    m = g.size
    coeff, total = _held(arc, _twiddles)
    if density_class == "sqrt":
        return -np.pi * _trig_sum(_trig_coeffs(g, coeff, odd=True), total)
    c = _trig_coeffs(g, coeff)
    if density_class == "inverse_sqrt":
        e = np.empty(m - 1, dtype=complex)
        for r in (0, 1):
            e[r::2] = np.pi * np.cumsum(c[1 + r::2][::-1])[::-1]
    else:
        mu, log_ratio = _held(arc, _smooth)
        e = np.fft.ifft(np.fft.fft(c[1:], 2 * m) * mu)[:m - 1]
    e[1:] *= 2.0
    out = _trig_sum(e, total)
    return out if density_class == "inverse_sqrt" else out + g * log_ratio


# the first proxies of every arc remainder, and the only ones a proxy plan
# keeps, with the twiddle of their Chebyshev coefficients
_FIRST_PROXIES = _read_only(np.cos(_angles(32)))
_FIRST_TWIDDLE = _read_only(_coeff_twiddle(32))


def _circular_kernel(d4, params, tau):
    """K(tau_j - tau_i) / (D/4) - i, K of ``_remainder``, for rows tau_i and columns params_j."""
    y = d4 * (params - tau[:, None])
    small = np.abs(y) < 0.05
    y_far = np.where(small, 1.0, y)
    y2 = y * y
    return np.where(small, -y * (1 / 3 + y2 * (1 / 45 + y2 * (2 / 945 + y2 / 4725))),
                    1.0 / np.tan(y_far) - 1.0 / y_far)


def _proxy_plan(host):
    """The proxy plan of an arc system: per arc, (R, K) or None.

    What the geometry alone fixes of ``_remainder`` at the first 32 proxies
    z_i of each graded arc holding at least a quarter of the system's nodes:
    R_ij = 1/(t_j - z_i) over the other arcs' nodes t_j and, on a circular
    arc of m nodes and sweep D, the real (pi/m)(D/4) K(tau_j - tau_i) over
    its own parameters.  At most four arcs are planned (none of five equal
    ones), so the plan holds at most 2 KB per node.
    """
    plan = []
    for a, arc in enumerate(host.arcs):
        if not arc.graded or 4 * arc.n_nodes < host.n_nodes:
            plan.append(None)
            continue
        t = _off_arc(host.nodes, host.arc_offsets, a)
        r = _read_only(1.0 / (t - arc.point_at(_FIRST_PROXIES)[:, None]))
        k = None
        if arc.kind == "circular":
            d4 = 0.25 * (arc.theta_b - arc.theta_a)
            k = _read_only((np.pi / arc.n_nodes) * d4
                           * _circular_kernel(d4, arc.params, _FIRST_PROXIES))
        plan.append((r, k))
    return tuple(plan)


def _remainder(arc, q, t, wf, tau, kernels=None, large=False):
    """The smooth part of pi*i*S on one arc, at its parameters ``tau``.

    Every other arc's plain sum over its nodes t with weighted samples wf
    and, on a circular arc of sweep D, the own-arc correction
    (pi/m) sum_j q_j K(tau_j - tau), where t'(tau)/(t(tau) - t(tau_x)) =
    1/(tau - tau_x) + K(tau - tau_x) and K(s) = (D/4)(cot(Ds/4) - 4/(Ds))
    + iD/4 is smooth for |s| < 2 (a series where |Ds/4| < 0.05).

    With ``kernels``, the arc's (R, K) from the proxy plan, tau are the
    first proxies and the sums are the products sum_j R_ij wf_j and
    sum_j K_ij q_j.  Otherwise they are summed directly.  Only the K rows
    of a system that is not ``large`` go through BLAS (``@``), whose threads
    cost more than these products.
    """
    if kernels is not None:
        r, k = kernels
        out = np.sum(r * wf, axis=1)
    else:
        out = _cauchy_sum(t, arc.point_at(tau), wf) if t.size else np.zeros(tau.size, complex)
    if arc.kind != "circular":
        return out
    d4 = 0.25 * (arc.theta_b - arc.theta_a)
    scale = (np.pi / q.size) * d4
    if kernels is not None:
        return out + (np.sum(k * q, axis=1) + 1j * scale * np.sum(q))

    def block(rows):
        k = _circular_kernel(d4, arc.params, tau[rows])
        return np.sum(k * q, axis=1) if large else k @ q

    kq = _by_rows(block, tau.size, q.size, complex) + 1j * np.sum(q)
    return out + scale * kq


def _interpolated(fn, arc, first=None):
    """fn at the nodes of ``arc`` (first-kind points) of a smooth fn of tau.

    fn is sampled at p first-kind proxies, p = 32, 64, ..., until the last
    p/8 Chebyshev coefficients are below 1e-14 of the largest, and its
    interpolant is summed at the nodes; from p >= m on fn takes the nodes.
    ``first``, when given, stands for fn at the first 32 proxies.
    """
    m = arc.n_nodes
    p = 32
    while p < m:
        if p == 32:
            c = _trig_coeffs(fn(_FIRST_PROXIES) if first is None else first, _FIRST_TWIDDLE)
        else:
            c = _trig_coeffs(fn(np.cos(_angles(p))), _coeff_twiddle(p))
        if np.max(np.abs(c[-(p // 8):])) <= 1e-14 * np.max(np.abs(c)):
            return _trig_sum(c, _held(arc, _twiddles)[1])
        p *= 2
    return fn(arc.params)
