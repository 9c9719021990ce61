"""The Lame ODE in algebraic and Weierstrass forms: Frobenius recurrence,
truncated series solutions, termination classification, and the Heun
parameter correspondence.

The algebraic form treated here is

    y'' + (1/2)(1/xi + 1/(xi-1) + 1/(xi-1/rho^2)) y'
        + (-alpha(alpha+1) xi + h/rho^2) / (4 xi (xi-1)(xi-1/rho^2)) y = 0,

obtained from y''(z) = {alpha(alpha+1) rho^2 sn^2(z,rho) - h} y(z) by the
substitution xi = sn^2(z, rho).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .scalar_kernels import (
    InvalidParameterError,
    SingularValueError,
    jacobi_sn,
    jacobi_sn_cn_dn,
)

__all__ = [
    "LameParams",
    "IndicialExponent",
    "RecurrenceCoeffs",
    "FrobeniusSeries",
    "EvaluationPoint",
    "TerminationFamily",
    "HeunParams",
    "indicial_exponents",
    "recurrence_coeffs",
    "series_coefficients",
    "eval_series",
    "eval_series_derivatives",
    "ode_residual",
    "termination_alpha",
    "heun_correspondence",
    "heun_form_residual",
]

_LAMBDA_VALUES = (0.0, 0.5)


def lam_value(lam):
    """Accept an IndicialExponent or a bare float in {0, 1/2}."""
    v = lam.lam if isinstance(lam, IndicialExponent) else float(lam)
    if v not in _LAMBDA_VALUES:
        raise InvalidParameterError(f"indicial exponent must be 0 or 1/2, got {v}")
    return v


@dataclass
class LameParams:
    """Modulus rho, degree parameter alpha, spectral parameter h."""

    rho: float
    alpha: float
    h: float

    def __post_init__(self):
        if not 0 < self.rho < 1:
            raise InvalidParameterError(f"modulus must satisfy 0 < rho < 1, got {self.rho}")
        if not (np.isfinite(self.alpha) and np.isfinite(self.h)):
            raise InvalidParameterError(
                f"alpha and h must be finite, got alpha={self.alpha}, h={self.h}"
            )


@dataclass(frozen=True)
class IndicialExponent:
    """One of the two exponents at xi = 0, tagged by solution kind."""

    lam: float
    kind: str = field(default="", compare=False)

    def __post_init__(self):
        if self.lam not in _LAMBDA_VALUES:
            raise InvalidParameterError(
                f"indicial exponent must be 0 or 1/2, got {self.lam}"
            )
        if not self.kind:
            object.__setattr__(self, "kind", "first" if self.lam == 0.0 else "second")


@dataclass
class RecurrenceCoeffs:
    """Coefficients of c_{n+1} = A_n c_n + B_n c_{n-1} at one index."""

    A_n: float
    B_n: float
    n: int
    D_n: float  # shared positive denominator, kept for scale-aware tests


@dataclass
class FrobeniusSeries:
    """Truncated local solution xi^lam * sum_{n<=N} c_n xi^n."""

    lam: float
    c: np.ndarray
    N: int

    def __post_init__(self):
        self.lam = lam_value(self.lam)
        self.c = np.asarray(self.c, dtype=float)
        if self.c.shape != (self.N + 1,):
            raise InvalidParameterError("coefficient array must have length N+1")
        if self.c[0] == 0.0:
            raise InvalidParameterError("leading coefficient c_0 must be nonzero")


@dataclass
class EvaluationPoint:
    """A point xi with the derived weights mu = -rho^2 xi, eta = -rho^2 xi^2."""

    xi: float
    mu: float
    eta: float
    z: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.xi):
            raise InvalidParameterError(f"xi must be finite, got {self.xi}")
        scale = max(1.0, self.mu * self.mu)
        if abs(self.eta - self.mu * self.xi) > 1e-12 * scale:
            raise InvalidParameterError(
                "inconsistent point: eta must equal mu*xi (i.e. rho^2 eta = -mu^2)"
            )
        if self.z is not None and self.xi != 0.0:
            rho2 = -self.mu / self.xi
            if not 0 < rho2 < 1:
                raise InvalidParameterError("implied rho^2 outside (0, 1)")
            sn = jacobi_sn(self.z, rho2**0.5)
            if abs(self.xi - sn * sn) > 1e-12:
                raise InvalidParameterError("z inconsistent with xi = sn^2(z, rho)")

    @classmethod
    def from_xi(cls, xi, rho, z=None):
        """Build the point from xi and the modulus."""
        r2 = rho * rho
        return cls(xi=xi, mu=-r2 * xi, eta=-r2 * xi * xi, z=z)


@dataclass
class TerminationFamily:
    """Termination data: level index i, count alpha_i, and root branch."""

    i: int
    alpha_i: int
    branch: str

    def __post_init__(self):
        if self.i < 0 or self.alpha_i < 0:
            raise InvalidParameterError("indices must be nonnegative")
        if self.branch not in ("plus", "minus"):
            raise InvalidParameterError("branch must be 'plus' or 'minus'")


@dataclass
class HeunParams:
    """Parameters of the Heun-form equation matched to the Lame ODE."""

    gamma: float
    delta: float
    epsilon: float
    a: float
    alpha_h: float
    beta_h: float
    q: float


def indicial_exponents(params: LameParams):
    """Roots of the indicial equation lam(lam-1) + lam/2 = 0 at xi = 0."""
    del params  # exponents do not depend on rho, alpha, h
    return {IndicialExponent(0.0), IndicialExponent(0.5)}


def recurrence_coeffs(params: LameParams, lam, n: int) -> RecurrenceCoeffs:
    """A_n and B_n of the three-term recurrence at index n (B_0 = 0)."""
    if n < 0:
        raise InvalidParameterError("index must be nonnegative")
    lm = lam_value(lam)
    r = params.rho ** -2
    D = 2 * r * (n + 1 + lm) * (2 * n + 2 * lm + 1)
    A = (4 * (1 + r) * (n + lm) ** 2 - params.h * r) / D
    if n == 0:
        B = 0.0
    else:
        B = (
            params.alpha * (params.alpha + 1)
            - 2 * (n - 1 + lm) * (2 * (n + lm) - 1)
        ) / D
    return RecurrenceCoeffs(A_n=A, B_n=B, n=n, D_n=D)


def series_coefficients(params: LameParams, lam, c0: float, N: int) -> FrobeniusSeries:
    """Coefficients c_0..c_N of the Frobenius solution with leading value c0."""
    if c0 == 0.0:
        raise InvalidParameterError("c0 must be nonzero")
    if N < 0:
        raise InvalidParameterError("N must be nonnegative")
    lm = lam_value(lam)
    c = np.empty(N + 1)
    c[0] = c0
    if N >= 1:
        c[1] = recurrence_coeffs(params, lm, 0).A_n * c[0]
    for n in range(1, N):
        rc = recurrence_coeffs(params, lm, n)
        c[n + 1] = rc.A_n * c[n] + rc.B_n * c[n - 1]
    return FrobeniusSeries(lam=lm, c=c, N=N)


_RADIUS_HEURISTIC = 0.5


def eval_series(series: FrobeniusSeries, pt: EvaluationPoint) -> float:
    """Horner evaluation of xi^lam * sum c_n xi^n at the point."""
    xi = pt.xi
    if abs(xi) > _RADIUS_HEURISTIC:
        warnings.warn(
            f"|xi| = {abs(xi):.3g} exceeds the series radius heuristic 0.5; "
            "truncation error may be large",
            RuntimeWarning,
        )
    acc = 0.0
    for cn in series.c[::-1]:
        acc = acc * xi + cn
    if series.lam == 0.0:
        return acc
    return acc * xi**series.lam if xi != 0.0 else 0.0


def eval_series_derivatives(series: FrobeniusSeries, xi: float):
    """Value, first, and second xi-derivative of the truncated solution."""
    lm = series.lam
    n = np.arange(series.N + 1)
    p = n + lm
    if xi == 0.0:
        raise SingularValueError("derivatives at xi = 0 are singular for lam = 1/2")
    powers = xi ** (p - 2)
    y = float(np.sum(series.c * powers * xi * xi))
    yp = float(np.sum(series.c * p * powers * xi))
    ypp = float(np.sum(series.c * p * (p - 1) * powers))
    return y, yp, ypp


def _algebraic_residual(params: LameParams, y, yp, ypp, xi):
    """Residual of the algebraic-form ODE as written, for given derivatives."""
    r = params.rho ** -2
    pcoef = 0.5 * (1 / xi + 1 / (xi - 1) + 1 / (xi - r))
    qcoef = (-params.alpha * (params.alpha + 1) * xi + params.h * r) / (
        4 * xi * (xi - 1) * (xi - r)
    )
    return ypp + pcoef * yp + qcoef * y


def ode_residual(params: LameParams, series: FrobeniusSeries, pt: EvaluationPoint, form: str) -> float:
    """Residual of the chosen ODE form for the truncated solution at the point."""
    if form == "algebraic":
        r = params.rho ** -2
        if min(abs(pt.xi), abs(pt.xi - 1), abs(pt.xi - r)) < 1e-12:
            raise SingularValueError(
                f"algebraic form is singular at xi in {{0, 1, {r:g}}}"
            )
        if not np.any(series.c):
            return 0.0
        y, yp, ypp = eval_series_derivatives(series, pt.xi)
        return _algebraic_residual(params, y, yp, ypp, pt.xi)
    if form == "weierstrass":
        if pt.z is None:
            raise InvalidParameterError("weierstrass form requires pt.z")
        if not np.any(series.c):
            return 0.0
        sn, cn, dn = jacobi_sn_cn_dn(pt.z, params.rho)
        xi = sn * sn
        y, yp, ypp = eval_series_derivatives(series, xi)
        rho2 = params.rho**2
        xi_p = 2 * sn * cn * dn
        xi_pp = 2 * ((1 - xi) * (1 - rho2 * xi) - xi * (1 + rho2 - 2 * rho2 * xi))
        d2y_dz2 = ypp * xi_p**2 + yp * xi_pp
        return d2y_dz2 - (params.alpha * (params.alpha + 1) * rho2 * xi - params.h) * y
    raise InvalidParameterError(f"unknown form {form!r}")


def termination_alpha(fam: TerminationFamily, lam) -> float:
    """Degree parameter that makes B_n vanish at index n = 2*alpha_i + i + 1."""
    lm = lam_value(lam)
    base = 2 * (2 * fam.alpha_i + fam.i + lm)
    return base if fam.branch == "plus" else -base - 1


def heun_correspondence(params: LameParams) -> HeunParams:
    """Heun-form parameters corresponding to the algebraic Lame ODE."""
    r = params.rho ** -2
    return HeunParams(
        gamma=0.5,
        delta=0.5,
        epsilon=0.5,
        a=r,
        alpha_h=(params.alpha + 1) / 2,
        beta_h=-params.alpha / 2,
        q=-params.h * r / 4,
    )


def heun_form_residual(hp: HeunParams, y, yp, ypp, x) -> float:
    """Polynomial-multiplied Heun residual x(x-1)(x-a)*[ODE] for given derivatives."""
    poly_p = (
        hp.gamma * (x - 1) * (x - hp.a)
        + hp.delta * x * (x - hp.a)
        + hp.epsilon * x * (x - 1)
    )
    return (
        x * (x - 1) * (x - hp.a) * ypp
        + poly_p * yp
        + (hp.alpha_h * hp.beta_h * x - hp.q) * y
    )
