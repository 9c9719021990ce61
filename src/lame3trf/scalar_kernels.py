"""Scalar special-function kernels: Pochhammer symbols, terminating-aware
Gauss hypergeometric series, Jacobi polynomials with their generating
function, the paired sum/closed-form product identity, and the Jacobi
elliptic sine via descending Landen transformations.

All complex powers and square roots use the principal branch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConvergenceError",
    "InvalidParameterError",
    "SingularValueError",
    "ToleranceConfig",
    "pochhammer",
    "gauss_2f1",
    "jacobi_polynomial",
    "jacobi_gf_closed",
    "lemma1_identity",
    "lemma1_radius",
    "jacobi_sn",
    "jacobi_sn_cn_dn",
]

_INT_TOL = 1e-12


def _fsum_terms(terms):
    """Exactly-rounded sum of a list of real or complex terms."""
    if any(isinstance(t, complex) for t in terms):
        return complex(
            math.fsum(t.real if isinstance(t, complex) else t for t in terms),
            math.fsum(t.imag if isinstance(t, complex) else 0.0 for t in terms),
        )
    return math.fsum(terms)


class ConvergenceError(ValueError):
    """A series cannot converge for the requested arguments."""


class InvalidParameterError(ValueError):
    """Parameters hit a genuine singularity of the formula."""


class SingularValueError(ValueError):
    """A closed form is evaluated exactly on a branch point or pole."""


@dataclass
class ToleranceConfig:
    """Absolute/relative tolerances and a series-length cap."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_terms: int = 200

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise InvalidParameterError("tolerances must be positive")
        if self.max_terms < 1:
            raise InvalidParameterError("max_terms must be at least 1")


def pochhammer(x, n):
    """Rising factorial x(x+1)...(x+n-1) as an iterated product."""
    if n < 0 or n != int(n):
        raise InvalidParameterError(f"pochhammer order must be a nonnegative integer, got {n}")
    out = 1.0 if not isinstance(x, complex) else complex(1.0)
    for k in range(int(n)):
        out = out * (x + k)
    return out


def _terminates_at(a):
    """Return the termination index m if a is a nonpositive integer, else None."""
    r = round(a.real if isinstance(a, complex) else a)
    val = a.real if isinstance(a, complex) else a
    img = a.imag if isinstance(a, complex) else 0.0
    if abs(val - r) < _INT_TOL and abs(img) < _INT_TOL and r <= 0:
        return int(-r)
    return None


def gauss_2f1(a, b, c, x, tol: ToleranceConfig | None = None):
    """Gauss hypergeometric sum 2F1(a, b; c; x) by direct term recursion.

    Terminating cases (a or b a nonpositive integer) are summed exactly as
    polynomials and are valid for any x.  Non-terminating series require
    |x| < 1 and stop once both absolute and relative tolerances are met.
    """
    tol = tol or ToleranceConfig()
    ma = _terminates_at(a)
    mb = _terminates_at(b)
    stop = None
    if ma is not None and mb is not None:
        stop = min(ma, mb)
    elif ma is not None:
        stop = ma
    elif mb is not None:
        stop = mb

    if stop is None and abs(x) >= 1:
        raise ConvergenceError(
            f"non-terminating 2F1 requires |x| < 1, got |x| = {abs(x):.6g}"
        )

    term = 1.0 + 0.0 * x  # promotes to complex when x is complex
    terms = [term]
    running = term
    converged = stop is not None
    n_limit = stop if stop is not None else tol.max_terms
    for k in range(n_limit):
        denom = (c + k) * (k + 1)
        if denom == 0:
            raise InvalidParameterError(
                f"2F1 denominator parameter hits a pole at term {k + 1} (c = {c})"
            )
        term = term * (a + k) * (b + k) / denom * x
        terms.append(term)
        running = running + term
        if stop is None and abs(term) <= max(tol.abs_tol, tol.rel_tol * abs(running)):
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"2F1 did not meet tolerance within {tol.max_terms} terms"
        )
    return _fsum_terms(terms)


def _jacobi_terms(n, a, b, x, w=1.0):
    """Yield w^k P_k^(a,b)(x) for k = 0..n, elementwise in x.

    The three-term recurrence (DLMF 18.9.1) is carried on w^k P_k, which
    stays bounded where P_k itself overflows; the cost is O(n).  Where it
    leaves P_k free (its leading coefficient 2k(k+a+b)(2k+a+b-2) vanishes,
    at integer a + b <= -2) the term comes from the 2F1 form
    (a+1)_k/k! 2F1(-k, k+a+b+1; a+1; (1-x)/2) (DLMF 18.5.7), for scalar x.
    """
    p_prev = 0 * x + 1.0
    yield p_prev
    if n == 0:
        return
    p = ((a + 1) + (a + b + 2) * (x - 1) / 2) * w
    yield p
    for k in range(2, n + 1):
        s = 2 * k + a + b
        den = 2 * k * (k + a + b) * (s - 2)
        if den == 0:
            q = pochhammer(a + 1, k) / math.factorial(k) * w**k
            q = q * gauss_2f1(-float(k), k + a + b + 1, a + 1, (1 - x) / 2)
        else:
            lead = (s - 1) * s * (s - 2) / den
            shift = (s - 1) * (a * a - b * b) / den
            back = 2 * (k + a - 1) * (k + b - 1) * s / den
            q = (lead * x + shift) * w * p - back * w * w * p_prev
        p_prev, p = p, q
        yield p


def jacobi_polynomial(n, a, b, x):
    """Jacobi polynomial P_n^(a,b)(x) by the three-term recurrence."""
    if n < 0 or n != int(n):
        raise InvalidParameterError(f"degree must be a nonnegative integer, got {n}")
    *_, p = _jacobi_terms(int(n), a, b, x)
    return p


def _principal_sqrt(v):
    """Principal square root, staying real for nonnegative real input."""
    if isinstance(v, complex) or (isinstance(v, np.ndarray) and np.iscomplexobj(v)):
        return np.sqrt(v + 0j) if isinstance(v, np.ndarray) else complex(v) ** 0.5
    if isinstance(v, np.ndarray):
        return np.sqrt(v) if (v >= 0).all() else np.sqrt(v + 0j)
    return math.sqrt(v) if v >= 0 else complex(v) ** 0.5


def _gf_radical(x, w):
    """R = sqrt(w^2 - 2xw + 1), elementwise, guarded against the branch point."""
    R = _principal_sqrt(w * w - 2 * x * w + 1)
    if np.min(np.abs(R)) < 1e-12:
        raise SingularValueError("generating-function radical vanished")
    return R


def jacobi_gf_closed(a, b, x, w):
    """Closed form ((1-w+R)/2)^(-a) ((1+w+R)/2)^(-b) / R of sum_n P_n^(a,b)(x) w^n,
    R = sqrt(w^2 - 2xw + 1); elementwise, and the a = 0 factor is skipped."""
    R = _gf_radical(x, w)
    out = ((1 + w + R) / 2) ** (-b) / R
    return out if a == 0 else ((1 - w + R) / 2) ** (-a) * out


def lemma1_radius(x):
    """Convergence radius in w of the weighted sum: the smaller root modulus
    of w^2 - 2(1-2x)w + 1 (1 for 0 <= x <= 1, 0.3033 at x = -0.4)."""
    y = 1 - 2 * x
    d = _principal_sqrt(y * y - 1)
    return min(abs(y + d), abs(y - d))


def lemma1_identity(gamma, A, w, x, N):
    """Compare the weighted terminating-2F1 sum against its product closed form.

    The n-th term (gamma)_n / n! * w^n * 2F1(-n, n+A; gamma; x) equals
    w^n P_n^(gamma-1, A-gamma)(1-2x), so the terms come from the Jacobi
    recurrence of _jacobi_terms; the cost is O(N).  The sum converges for
    |w| < lemma1_radius(x); outside it ConvergenceError is raised.

    Returns a dict with keys lhs (N+1-term sum), rhs (closed form), gap.
    """
    if N < 0:
        raise InvalidParameterError("N must be nonnegative")
    if not all(cmath.isfinite(v) for v in (gamma, A, w, x)):
        raise InvalidParameterError("identity arguments must be finite")
    radius = lemma1_radius(x)
    if abs(w) >= radius:
        raise ConvergenceError(
            f"identity requires |w| < {radius:.6g} at x = {x}, got {abs(w):.6g}"
        )
    a, b = gamma - 1, A - gamma
    y = 1 - 2 * x
    lhs = _fsum_terms(list(_jacobi_terms(N, a, b, y, w)))
    rhs = jacobi_gf_closed(a, b, y, w)
    gap = abs(lhs - rhs)
    if not (cmath.isfinite(lhs) and math.isfinite(gap)):
        raise ConvergenceError("weighted sum or closed form is not finite")
    return {"lhs": lhs, "rhs": rhs, "gap": gap}


_LANDEN_CUTOFF = 1e-15


def _complete_k(rho):
    """Complete elliptic integral K at modulus rho in (0, 1), by the AGM.

    K = pi / (2 M(1, sqrt(1 - rho**2))) (DLMF 19.8.1).
    """
    a, b = 1.0, math.sqrt(1 - rho * rho)
    while abs(a - b) > 1e-15 * a:
        a, b = (a + b) / 2, math.sqrt(a * b)
    return math.pi / (a + b)


def jacobi_sn_cn_dn(z, rho):
    """Jacobi elliptic sn, cn, dn of real z at modulus rho in [0, 1].

    For 0 < rho < 1 an argument beyond 2K is first reduced modulo the real
    period 4K (DLMF 22.4).  The rounding of 4K shifts the reduced argument by
    up to about |z| 2**-53, so the argument is rejected once |z| 2**-52
    reaches 1e-8 K, a shift near 1e-8 of a quarter period.  Then the
    descending Landen ladder runs until the modulus falls below 1e-15,
    evaluates trigonometric values at the bottom, and unwinds.
    """
    if not 0 <= rho <= 1:
        raise InvalidParameterError(f"modulus must lie in [0, 1], got {rho}")
    if not math.isfinite(z):
        raise InvalidParameterError(f"argument must be finite, got {z}")
    if rho == 0:
        return math.sin(z), math.cos(z), 1.0
    if rho == 1:
        t = math.tanh(z)
        # cosh overflows past |z| = 710; there sech = 2 exp(-|z|) to rounding
        sech = 1.0 / math.cosh(z) if abs(z) < 700 else 2 * math.exp(-abs(z))
        return t, sech, sech

    quarter = _complete_k(rho)
    if abs(z) > 2 * quarter:
        if abs(z) * 2.0**-52 >= 1e-8 * quarter:
            raise InvalidParameterError(
                f"argument {z} is too large to reduce by the period 4K = {4 * quarter}"
            )
        z = math.remainder(z, 4 * quarter)
    ks = []
    u = z
    k = rho
    while k > _LANDEN_CUTOFF:
        kp = math.sqrt(1 - k * k)
        k_next = (1 - kp) / (1 + kp)
        ks.append(k_next)
        u = u / (1 + k_next)
        k = k_next

    sn = math.sin(u)
    dsn = math.cos(u)  # derivative with respect to the bottom argument
    for k_next in reversed(ks):
        s2 = sn * sn
        dsn = dsn * (1 - k_next * s2) / (1 + k_next * s2) ** 2
        sn = (1 + k_next) * sn / (1 + k_next * s2)
    dn = math.sqrt(max(1 - rho * rho * sn * sn, 0.0))
    if dn == 0:
        raise SingularValueError("dn vanished; modulus too close to 1 for this z")
    cn = dsn / dn  # sn' = cn*dn, so cn carries the sign of the derivative
    return sn, cn, dn


def jacobi_sn(z, rho):
    """Jacobi elliptic sine sn(z, rho) for real z and modulus rho in [0, 1]."""
    return jacobi_sn_cn_dn(z, rho)[0]
