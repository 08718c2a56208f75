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
weighted Gauss rule of the graded grid.  It must be the class the density
was built in: a wrong label gives a wrong result on arcs, without an error
(``general_solution`` returns ``inverse_sqrt`` densities, ``candidate_f0``
``sqrt`` ones).  On closed contours the classes coincide.

``singular_S`` is the one S, through ``quadrature._S_closed`` and
``_S_arcs``: on closed contours the periodic Hilbert transform (an FFT sign
multiplier) plus an interpolated smooth remainder, with the pole-subtracted
rows where the remainder is not resolved (their far field from multipole
expansions from 1024 nodes on); on graded arcs a Chebyshev transform of
each arc's own part plus an interpolated smooth remainder.  S at a node of
a chain arc raises ``GeometryError``.

Near-boundary values of C f are taken by one-sided limits: compensated
evaluation (the nearest node sample is subtracted and added back through an
analytically known transform) at a short ladder of distances h0, h0/2, h0/4
along the normal, extrapolated to h = 0.  On a closed contour the transform
added back is f_k * chi, chi the one-sided limit of C[1]: 1 from the plus
side, 0 from the minus side, so each rung takes it from the side its ladder
walks on.  ``quadrature.normal_ladder`` lays out the ladders and extrapolates
them; all points of a call (node x side x level) go through the quadrature
layer's Cauchy-sum kernel as one batch.
"""

from __future__ import annotations

import numpy as np

from .errors import BoundaryLimitError, GeometryError, NearBoundaryError
from .geometry import ArcSystem, ClosedContour
from .quadrature import _S_arcs, _S_closed, _cauchy_sum, normal_ladder
from .sampling import SampledDensity

__all__ = [
    "DENSITY_CLASSES",
    "singular_S",
    "cauchy_transform",
    "boundary_value",
    "plemelj_residuals",
]

DENSITY_CLASSES = ("smooth", "inverse_sqrt", "sqrt")


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
    SampledDensity on the same host; a 1-d index array gives an array, a
    single index a complex number.  Indices must be integers in [0, n) (an
    empty array gives an empty one); anything else raises IndexError.  Arc
    endpoints are not nodes, so the endpoint singularities of Sf never
    appear in the output.  ``density_class`` must be the class f was built
    in: a wrong one gives a wrong S f on arcs, and no error.
    """
    if density_class not in DENSITY_CLASSES:
        raise ValueError(f"density_class must be one of {DENSITY_CLASSES}")
    host, values = _host_values(f)
    if not isinstance(host, (ClosedContour, ArcSystem)):
        raise GeometryError(f"no singular operator for host {type(host).__name__}")
    n = host.n_nodes
    idx = np.arange(n) if at_indices is None else np.atleast_1d(np.asarray(at_indices))
    if idx.size == 0:
        idx = idx.astype(int)
    if idx.ndim != 1 or idx.dtype.kind not in "iu" or np.any((idx < 0) | (idx >= n)):
        raise IndexError(f"node indices must be a 1-d integer array in [0, {n})")
    out = (_S_closed(host, values, idx) if isinstance(host, ClosedContour)
           else _S_arcs(host, values, idx, density_class))
    if np.isscalar(at_indices):
        return complex(out[0])
    return SampledDensity(host, out) if at_indices is None else out


# ---------------------------------------------------------------------------
# off-curve transform
# ---------------------------------------------------------------------------

def cauchy_transform(f, z):
    """C f at points strictly off the curve.

    Accuracy degrades within a few node spacings of the curve; inside the
    host's ``near_cutoff`` the call is refused.  Use ``boundary_value`` for
    one-sided limits on the curve itself.
    """
    host, values = _host_values(f)
    z = np.asarray(z, dtype=complex)
    zs = z.ravel()
    if np.any(host.distance_to(zs) < host.near_cutoff):
        raise NearBoundaryError(
            "point is on top of the curve; use boundary_value for limits"
        )
    out = _cauchy_sum(host.nodes, zs, host.dt_weights * values) / (2j * np.pi)
    return complex(out[0]) if z.ndim == 0 else out.reshape(z.shape)


# ---------------------------------------------------------------------------
# one-sided boundary limits
# ---------------------------------------------------------------------------

def boundary_value(f, side="plus", node=0, h0=None, levels=3, tol=None):
    """One-sided limit of C f at a host node by compensated extrapolation.

    Walks to the node along the side normal at distances h0 > h0/2 > ... ,
    evaluates the compensated transform, and extrapolates the ladder to
    h = 0.  ``h0`` defaults to 1e-2 times the local panel length; it must
    stay a few node spacings away from the curve at the smallest level or
    the quadrature under the ladder is meaningless.

    With ``tol`` set, the two finest extrapolants must agree to within
    10 * tol, else the limit is declared non-convergent.
    """
    host, values = _host_values(f)
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    return complex(_boundary_values(host, values, [int(node)], (side,), h0,
                                    levels, tol)[0, 0])


def _boundary_values(host, values, idx, sides, h0, levels, tol):
    """One-sided limits at the nodes ``idx`` (rows) on each of ``sides`` (columns).

    With ``tol`` set, the first node and side, in that order, whose ladder
    has not converged raises."""
    idx = np.asarray(idx)
    chi = np.array([1.0 if s == "plus" else 0.0 for s in sides])

    def sample(z, hs):
        if hs.min() < host.near_cutoff * 10.0:
            raise BoundaryLimitError("extrapolation ladder descends into the cutoff zone")
        k = np.broadcast_to(idx[:, None, None], z.shape)
        side = np.broadcast_to(chi[None, :, None], z.shape)
        return _compensated_cauchy(host, values, z.ravel(), k.ravel(),
                                   side.ravel()).reshape(z.shape)

    h0 = 1e-2 * host.local_panel_length if h0 is None else h0
    value, gap, bad = normal_ladder(host, idx, sides, h0, levels, tol, sample)
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise BoundaryLimitError(
            f"extrapolation at node {idx[i]} ({sides[j]}) not converged: "
            f"last estimates differ by {gap[i, j]:.3g}"
        )
    return value


def _compensated_cauchy(host, values, z, k, chi):
    """C f(z_i) with the sample at node k_i subtracted and restored exactly.

    Closed contour:  C[f - f_k](z) + f_k * chi_i, chi_i the one-sided limit
    of C[1] at node k_i from the side z_i lies on: 1 on the plus (bounded)
    side, 0 on the minus side.  That is the winding number of every rung
    nearer the curve than its local feature size; a rung beyond it can lie
    across the curve, and the ladder then spans a jump either way.

    Arc system:  fold phi = f * sqrtR_plus (phi is smooth on the graded
    grid for every density class), subtract phi_k, and restore through
    C[1/sqrtR](z) = 1/(2 sqrtR(z)), exact for the system branch.
    """
    if isinstance(host, ClosedContour):
        total = _cauchy_sum(host.nodes, z, values, values[k], host.dt_weights)
        return total / (2j * np.pi) + values[k] * chi
    sqrtR_plus = host.sqrtR_plus_nodes()
    phi = values * sqrtR_plus
    total = _cauchy_sum(host.nodes, z, phi, phi[k], host.dt_weights, div=sqrtR_plus)
    return total / (2j * np.pi) + phi[k] / (2.0 * host.eval_sqrtR(z, check_distance=False))


def plemelj_residuals(f, at_indices=None, h0=None, levels=3, tol=None,
                      density_class="smooth"):
    """Worst-case residuals of the two Plemelj identities.

    Returns (jump_residual, sum_residual): the max over the sampled nodes of
    |C+ - C- - f| and of |C+ + C- - Sf|.  By default at most 64 evenly
    spaced nodes are sampled; pass ``at_indices`` for a different set.
    """
    host, values = _host_values(f)
    if at_indices is None:
        at_indices = np.arange(0, host.n_nodes, max(1, host.n_nodes // 64))
    idx = np.atleast_1d(np.asarray(at_indices))
    sf = singular_S(f, at_indices=idx, density_class=density_class)
    cp, cm = _boundary_values(host, values, idx, ("plus", "minus"), h0, levels, tol).T
    jump = np.abs(cp - cm - values[idx])
    total = np.abs(cp + cm - sf)
    return float(jump.max()), float(total.max())
