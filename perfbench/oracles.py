"""Closed-form answers the benchmark checks the package against.

Only numpy is used here, and none of the package's own numerics: every
expected value is a formula in the inputs, or a Gauss-Chebyshev sum whose
nodes and branch of sqrt(R) are worked out below from scratch.
"""

import cmath
import math

import numpy as np


class Check:
    """Relative-error measurement shared by every op.

    ``perturb`` scales each computed answer by (1 + perturb) before it is
    compared; the smoke test uses it to show that a wrong answer counts as a
    failed op.
    """

    def __init__(self, perturb=0.0):
        self.perturb = float(perturb)

    def rel(self, got, want, scale=None):
        got = np.asarray(got, dtype=complex) * (1.0 + self.perturb)
        want = np.asarray(want, dtype=complex)
        if scale is None:
            scale = np.max(np.abs(want))
        return float(np.max(np.abs(got - want)) / max(float(scale), 1e-300))


# ---------------------------------------------------------------------------
# closed contours with 0 inside: S P(t) = P(t), S Q(1/t) = -Q(1/t) when Q(0) = 0
# ---------------------------------------------------------------------------

def laurent_parts(t, p, q, rho, r):
    """P(t / rho) and Q(r / t), coefficients ascending, q[0] ignored."""
    q = np.array(q, dtype=complex)
    q[0] = 0.0
    return (np.polynomial.polynomial.polyval(t / rho, p),
            np.polynomial.polynomial.polyval(r / t, q))


# ---------------------------------------------------------------------------
# the segment [-1, 1], where sqrtR+(x) = i sqrt(1 - x^2)
# ---------------------------------------------------------------------------

def cheb_values(c, x):
    """g(x) = sum_n c_n T_n(x)."""
    return np.polynomial.chebyshev.chebval(x, c)


def segment_bounded(c, x):
    """f0 = sqrtR+ S[g / sqrtR+] for g = sum c_n T_n on [-1, 1].

    T_n / sqrtR+ maps to -U_(n-1) under S, and T_0 / sqrtR+ is in the kernel,
    so f0 = -i sum_(n>=1) c_n sin(n theta) with x = cos(theta); the defect
    polynomial is P = -c_0 and the one moment is m_0 = -i pi c_0.
    """
    theta = np.arccos(np.clip(x, -1.0, 1.0))
    f0 = np.zeros(np.shape(x), dtype=complex)
    for n in range(1, len(c)):
        f0 -= 1j * c[n] * np.sin(n * theta)
    return f0, -complex(c[0]), -1j * math.pi * complex(c[0])


def segment_general_times_sqrt(c, x, p0=0.0):
    """i sqrt(1 - x^2) f for the general solution with kernel constant p0.

    f sqrtR+ = S[g sqrtR+] + p0, and S[i sqrt(1 - t^2) T_n] equals
    (1/pi) PV int sqrt(1 - t^2) T_n(t) / (t - x) dt, which is -T_1 for n = 0,
    -T_2 / 2 for n = 1 and -(T_(n+1) - T_(n-1)) / 2 beyond.
    """
    out = np.zeros(len(c) + 1, dtype=complex)
    for n, cn in enumerate(c):
        if n == 0:
            out[1] -= cn
        elif n == 1:
            out[2] -= 0.5 * cn
        else:
            out[n + 1] -= 0.5 * cn
            out[n - 1] += 0.5 * cn
    return np.polynomial.chebyshev.chebval(x, out) + p0


# ---------------------------------------------------------------------------
# unions of real intervals: moments by Gauss-Chebyshev
# ---------------------------------------------------------------------------

def _plus_sqrt(d):
    # boundary value from the upper half-plane of sqrt(x - e)
    return np.where(d > 0, np.sqrt(np.abs(d)), 1j * np.sqrt(np.abs(d)))


def real_union_moments(intervals, g, n_moments, m=128):
    """m_k = int t^k g(t) / sqrtR+(t) dt over a union of real intervals.

    For real endpoints the product of principal square roots
    prod_e sqrt(z - e) is the branch of sqrt(R) that behaves like z^N at
    infinity, so its plus value is the product of the one-sided roots.  On
    [a, b] the own factor is i sqrt((x - a)(b - x)), which the first-kind
    Gauss-Chebyshev rule absorbs; the rest is smooth, so the rule is
    spectrally accurate.
    """
    ends = np.array([e for iv in intervals for e in iv], dtype=float)
    out = np.zeros(n_moments, dtype=complex)
    j = np.arange(1, m + 1)
    for a, b in intervals:
        x = 0.5 * (a + b) + 0.5 * (b - a) * np.cos((2 * j - 1) * np.pi / (2 * m))
        others = np.ones(m, dtype=complex)
        for e in ends:
            if e not in (a, b):
                others *= _plus_sqrt(x - e)
        h = g(x) / (1j * others)
        for k in range(n_moments):
            out[k] += np.pi / m * np.sum(x ** k * h)
    return out


# ---------------------------------------------------------------------------
# measures and their potentials
# ---------------------------------------------------------------------------

def arcsine_density(x, a, b):
    """Equilibrium density of the real segment [a, b]."""
    return 1.0 / (np.pi * np.sqrt((x - a) * (b - x)))


def segment_green(a, b):
    """Equilibrium potential of [a, b]: log((b - a) / 4) on the segment."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)

    def u(z):
        w = (complex(z) - mid) / half
        return math.log(abs(w + cmath.sqrt(w - 1.0) * cmath.sqrt(w + 1.0))) \
            + math.log(half / 2.0)

    return u
