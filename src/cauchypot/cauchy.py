"""Cauchy transform and the principal-value singular operator.

For a density f on a host curve L, the two central objects are

    (C f)(z) = (1/2 pi i) int_L f(t)/(t - z) dt        (z off L)
    (S f)(x) = (1/pi i)  PV int_L f(t)/(t - x) dt      (x on L)

linked by the Plemelj limits C+ - C- = f and C+ + C- = S f, with the plus
side on the left of the direction of travel.

Densities on arc systems come in three regularity classes, named by their
behaviour at arc endpoints:

* ``smooth``        -- bounded with bounded derivatives,
* ``inverse_sqrt``  -- smooth divided by the plus values of sqrt(R),
* ``sqrt``          -- smooth times the plus values of sqrt(R).

The class picks the folding that turns every quadrature into the exact
weighted Gauss rule of the graded grid; mislabelling costs accuracy but not
correctness.  On closed contours the classes coincide.

S itself is evaluated by the pole-subtraction kernels of the quadrature
layer (``quadrature.singular_values``), the same ones ``pv_integrate`` uses.

Near-boundary values of C f are taken by one-sided limits: compensated
evaluation (the nearest node sample is subtracted and added back through an
analytically known transform) at a short ladder of distances h0, h0/2, h0/4
along the normal, extrapolated to h = 0 through ``quadrature.neville``.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryLimitError, NearBoundaryError
from .geometry import ArcSystem, ClosedContour
from .quadrature import host_rule, neville, singular_values
from .sampling import SampledDensity

__all__ = [
    "DENSITY_CLASSES",
    "singular_S",
    "cauchy_transform",
    "boundary_value",
    "plemelj_residuals",
]

DENSITY_CLASSES = ("smooth", "inverse_sqrt", "sqrt")


def _check_class(density_class):
    if density_class not in DENSITY_CLASSES:
        raise ValueError(f"density_class must be one of {DENSITY_CLASSES}")


def _host_values(f):
    if isinstance(f, SampledDensity):
        return f.host, f.values
    raise TypeError("expected a SampledDensity")


# ---------------------------------------------------------------------------
# the singular operator at nodes
# ---------------------------------------------------------------------------

def singular_S(f, at_indices=None, density_class="smooth"):
    """S f at host nodes.

    With ``at_indices=None`` the full node set is used and the result is a
    SampledDensity on the same host; an index array gives an array, a single
    index a complex number.  Arc endpoints are not nodes, so the endpoint
    singularities of Sf never appear in the output.
    """
    _check_class(density_class)
    host, values = _host_values(f)
    scalar = np.isscalar(at_indices)
    full = at_indices is None
    if full:
        at_indices = np.arange(host.n_nodes)
    out = singular_values(host, values, at_indices, density_class)
    if scalar:
        return complex(out[0])
    return SampledDensity(host, out) if full else out


# ---------------------------------------------------------------------------
# off-curve transform
# ---------------------------------------------------------------------------

def cauchy_transform(f, z, density_class="smooth"):
    """C f at points strictly off the curve.

    Accuracy degrades within a few node spacings of the curve; inside the
    hard cutoff the call is refused.  Use ``boundary_value`` for one-sided
    limits on the curve itself.
    """
    _check_class(density_class)
    host, values = _host_values(f)
    rule = host_rule(host)
    z = np.asarray(z, dtype=complex)
    scalar = z.ndim == 0
    zs = np.atleast_1d(z).ravel()
    cutoff = _hard_cutoff(host)
    for zz in zs:
        if host.distance_to(zz) < cutoff:
            raise NearBoundaryError(
                "point is on top of the curve; use boundary_value for limits"
            )
    wf = rule.dt_weights * values
    out = np.array([np.sum(wf / (rule.nodes - zz)) for zz in zs]) / (2j * np.pi)
    out = out.reshape(np.atleast_1d(z).shape)
    return complex(out.ravel()[0]) if scalar else out


def _hard_cutoff(host):
    if isinstance(host, ArcSystem):
        return host.near_cutoff
    return 1e-8 * host.diameter()


# ---------------------------------------------------------------------------
# one-sided boundary limits
# ---------------------------------------------------------------------------

def boundary_value(f, side="plus", node=0, h0=None, levels=3, tol=None,
                   density_class="smooth"):
    """One-sided limit of C f at a host node by compensated extrapolation.

    Walks to the node along the side normal at distances h0 > h0/2 > ... ,
    evaluates the compensated transform, and extrapolates the ladder to
    h = 0.  ``h0`` defaults to 1e-2 times the local panel length; it must
    stay a few node spacings away from the curve at the smallest level or
    the quadrature under the ladder is meaningless.

    With ``tol`` set, the two finest extrapolants must agree to within
    10 * tol, else the limit is declared non-convergent.
    """
    _check_class(density_class)
    host, values = _host_values(f)
    rule = host_rule(host)
    return _boundary_value(host, rule, values, side, int(node), h0, levels,
                           tol, density_class)


def _boundary_value(host, rule, values, side, k, h0, levels, tol,
                    density_class):
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if h0 is None:
        h0 = 1e-2 * host.local_panel_length
    if h0 <= 0:
        raise BoundaryLimitError("h0 must be positive")
    nu = host.tangents[k] * 1j
    if side == "minus":
        nu = -nu
    hs = [h0 / 2.0 ** j for j in range(levels)]
    if hs[-1] < _hard_cutoff(host) * 10.0:
        raise BoundaryLimitError("extrapolation ladder descends into the cutoff zone")
    vals = [_compensated_cauchy(host, rule, values, host.nodes[k] + h * nu, k)
            for h in hs]
    value, gap = neville(vals)
    if tol is not None and levels >= 2 and gap > 10.0 * tol:
        raise BoundaryLimitError(
            f"extrapolation at node {k} ({side}) not converged: "
            f"last estimates differ by {gap:.3g}"
        )
    return complex(value)


def _compensated_cauchy(host, rule, values, z, k):
    """C f(z) with the nearest-node sample subtracted and restored exactly.

    Closed contour:  C[f - f_k](z) + f_k * chi(z), chi the exact indicator
    of the bounded side (winding number of the node polyline).

    Arc system:  fold phi = f * sqrtR_plus (phi is smooth on the graded
    grid for every density class), subtract phi_k, and restore through
    C[1/sqrtR](z) = 1/(2 sqrtR(z)), exact for the system branch.
    """
    t = rule.nodes
    w = rule.dt_weights
    if isinstance(host, ClosedContour):
        fk = values[k]
        total = np.sum(w * (values - fk) / (t - z)) / (2j * np.pi)
        return complex(total + fk * host.winding_number(z))
    sqrtR_plus = host.sqrtR_plus_nodes()
    phi = values * sqrtR_plus
    phik = phi[k]
    total = np.sum(w * (phi - phik) / (sqrtR_plus * (t - z))) / (2j * np.pi)
    return complex(total + phik / (2.0 * host.eval_sqrtR(z, check_distance=False)))


def plemelj_residuals(f, at_indices=None, h0=None, levels=3, tol=None,
                      density_class="smooth"):
    """Worst-case residuals of the two Plemelj identities.

    Returns (jump_residual, sum_residual): the max over the sampled nodes of
    |C+ - C- - f| and of |C+ + C- - Sf|.  By default at most 64 evenly
    spaced nodes are sampled; pass ``at_indices`` for a different set.
    """
    host, values = _host_values(f)
    if at_indices is None:
        n = host.n_nodes
        step = max(1, n // 64)
        at_indices = np.arange(0, n, step)
    idx = np.atleast_1d(np.asarray(at_indices, dtype=int))
    rule = host_rule(host)
    sf = singular_S(f, at_indices=idx, density_class=density_class)
    jump = np.empty(idx.size)
    total = np.empty(idx.size)
    for i, k in enumerate(idx):
        cp = _boundary_value(host, rule, values, "plus", int(k), h0, levels,
                             tol, density_class)
        cm = _boundary_value(host, rule, values, "minus", int(k), h0, levels,
                             tol, density_class)
        jump[i] = abs(cp - cm - values[k])
        total[i] = abs(cp + cm - sf[i])
    return float(jump.max()), float(total.max())
