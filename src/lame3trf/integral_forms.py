"""Nested contour-plus-Gauss-Jacobi evaluation of the higher-order series terms.

Each order-n term is a chain of n levels.  A level carries a pair of
Gauss-Jacobi integrals over (0, 1) in t and u and a circular contour
integral in v around the origin.  The chained variable at each level is a
rational function of (v, t, u) and the chained variable one level further
out; the outermost level is pinned at the squared-modulus coordinate eta.
Per power of the chained variable the contour integrand folds into

    (1/v) ((v - 1)/v)**(alpha_l - i) (1 - X v)**(-(l + 1/4 + lam + alpha_l + i))

with X = x (1 - t)(1 - u), which is regular at v = 1, so each level
contracts to a polynomial of degree alpha_l in the next chained variable.
The contraction is carried either by numerical contour quadrature or by
the exact terminating hypergeometric residue; both routes are exposed so
they can be cross-checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from .scalar_kernels import (
    InvalidParameterError,
    SingularValueError,
    _principal_sqrt,
    pochhammer,
)
from .lame_series import LameParams, lam_value

__all__ = [
    "AlphaChain",
    "LevelRule",
    "PolePair",
    "QuadratureGrid",
    "SParameters",
    "WChainValue",
    "base_series_coefficients",
    "choose_contour_radius",
    "contour_integral",
    "diag_operator_multipliers",
    "gauss_jacobi_unit",
    "make_quadrature_grid",
    "pole_locations",
    "s_partial_product",
    "w_arrow",
    "w_tilde",
    "y_n_term",
    "y_n_term_closed",
    "y_total",
]

_TINY = 1e-13


@dataclass(frozen=True)
class SParameters:
    """Tuple of geometric weights s_0..s_K, each strictly inside the unit disc."""

    values: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidParameterError("at least one weight s_0 is required")
        for v in vals:
            if not abs(v) < 1.0:
                raise InvalidParameterError(f"weights must satisfy |s| < 1, got {v}")

    @property
    def K(self):
        return len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class WChainValue:
    """Value of a chained variable together with its level indices."""

    value: complex
    level_i: int
    level_j: int


@dataclass(frozen=True)
class PolePair:
    """Interior and exterior roots of the level quadratic in v."""

    v_in: complex
    v_out: complex


@dataclass(frozen=True, eq=False)
class LevelRule:
    """Gauss-Jacobi nodes and weights for the t and u integrals of one level."""

    t_nodes: np.ndarray
    t_weights: np.ndarray
    u_nodes: np.ndarray
    u_weights: np.ndarray
    t_exponent: float
    u_exponent: float


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Per-level Gauss-Jacobi rules plus a shared contour rule."""

    levels: tuple
    contour_m: int
    contour_nodes: np.ndarray
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", lam_value(self.lam))
        if not self.levels:
            raise InvalidParameterError("grid needs at least one level")
        for lev in self.levels:
            for nodes in (lev.t_nodes, lev.u_nodes):
                if len(nodes) < 16:
                    raise InvalidParameterError("need at least 16 nodes per level")
            for w in (lev.t_weights, lev.u_weights):
                if not (np.asarray(w) > 0).all():
                    raise InvalidParameterError("quadrature weights must be positive")
        if self.contour_m < 128:
            raise InvalidParameterError("need at least 128 contour nodes")
        if len(self.contour_nodes) != self.contour_m:
            raise InvalidParameterError("contour node count mismatch")


@dataclass(frozen=True)
class AlphaChain:
    """Non-decreasing chain of nonnegative summation indices alpha_0..alpha_n."""

    values: tuple

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals:
            raise InvalidParameterError("alpha chain must be nonempty")
        if any(v < 0 for v in vals):
            raise InvalidParameterError("alpha indices must be nonnegative")
        if any(b < a for a, b in zip(vals, vals[1:])):
            raise InvalidParameterError("alpha chain must be non-decreasing")

    @property
    def order(self):
        return len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


def s_partial_product(s, a, b):
    """Product of the weights s_a * s_{a+1} * ... * s_b (s_a when a == b)."""
    if a > b:
        raise IndexError(f"empty weight range: a={a} > b={b}")
    if a < 0 or b > s.K:
        raise IndexError(f"weight range [{a}, {b}] outside 0..{s.K}")
    out = 1.0
    for k in range(a, b + 1):
        out *= s.values[k]
    return out


def w_arrow(level_i, level_j, v, t, u, inner, eta):
    """Chained variable at level i built from the value one level further in.

    Returns eta when level_i > level_j (the empty chain).  Raises on the
    pole at v = 1 and on a vanishing kernel denominator.
    """
    if level_i > level_j:
        return eta
    if abs(v - 1) < _TINY * max(1.0, abs(v)):
        raise SingularValueError("chained variable has a pole at v = 1")
    den = 1 - inner * v * (1 - t) * (1 - u)
    if abs(den) < _TINY:
        raise SingularValueError("kernel denominator vanished in the chain")
    return inner * v * t * u / ((v - 1) * den)


def pole_locations(s, t, u, x):
    """Roots of x(1-t)(1-u) v^2 + (s-1) v - s, interior branch first.

    The interior root is the minus branch of the quadratic formula; it is
    computed through the stable plus branch and the root product to avoid
    cancellation at small s.
    """
    lead = x * (1 - t) * (1 - u)
    if abs(lead) < 1e-14 * max(1.0, abs(x), 1.0):
        raise InvalidParameterError("degenerate quadratic: x*(1-t)*(1-u) is zero")
    disc = (1 - s) ** 2 + 4 * lead * s
    root = _principal_sqrt(disc)
    v_out = ((1 - s) + root) / (2 * lead)
    v_in = -s / (lead * v_out)
    return PolePair(v_in, v_out)


def w_tilde(level_i, level_j, s_eff, t, u, x):
    """Closed form of the chained variable after the contour is taken.

    Equals w_arrow evaluated at the interior pole.  A vanishing effective
    weight (or any vanishing factor of the numerator) gives exactly zero.
    """
    if s_eff == 0 or t == 0 or u == 0 or x == 0:
        return WChainValue(0.0, level_i, level_j)
    if abs(1 - x * (1 - t) * (1 - u)) < _TINY:
        raise SingularValueError("kernel denominator vanished in the closed chain")
    return WChainValue(_w_tilde_vals(s_eff, t, u, x), level_i, level_j)


def _w_tilde_vals(s_eff, t, u, x):
    """Closed chained variable, vectorized over Gauss-Jacobi meshes t, u."""
    if s_eff == 0:
        return np.zeros(np.broadcast(t, u).shape)
    xt = x * (1 - t) * (1 - u)
    rad = s_eff * s_eff - 2 * (1 - 2 * xt) * s_eff + 1
    root = _principal_sqrt(rad)
    num = 1 + (s_eff + 2 * xt) * s_eff - (1 + s_eff) * root
    return x * t * u * num / (2 * (1 - xt) ** 2 * s_eff)


def contour_integral(f, m, radius=1.0):
    """Trapezoid rule for (1/2 pi i) times the circular contour integral of f.

    Uses m equispaced nodes on the circle of the given radius; f may return
    a scalar or an ndarray, which is integrated component-wise.
    """
    if m < 128:
        raise InvalidParameterError(f"need at least 128 contour nodes, got {m}")
    if radius <= 0:
        raise InvalidParameterError("contour radius must be positive")
    nodes = radius * np.exp(2j * np.pi * np.arange(m) / m)
    total = None
    for v in nodes:
        try:
            val = f(complex(v))
        except ZeroDivisionError as exc:
            raise SingularValueError("integrand is singular on the contour") from exc
        term = np.asarray(val, dtype=complex) * complex(v)
        total = term if total is None else total + term
    out = total / m
    if not np.all(np.isfinite(out)):
        raise SingularValueError("integrand is non-finite on the contour")
    return complex(out) if out.ndim == 0 else out


def choose_contour_radius(pole_moduli, tol=1e-6):
    """Unit radius, nudged to 1.1 or 0.9 when a pole hugs the unit circle.

    The nudge must keep every pole on its designated side; an impossible
    configuration raises.
    """
    mods = [float(abs(m)) for m in pole_moduli]
    hug_in = any(abs(m - 1) <= tol and m <= 1 for m in mods)
    hug_out = any(abs(m - 1) <= tol and m > 1 for m in mods)
    if hug_in and hug_out:
        raise SingularValueError("poles hug the unit circle from both sides")
    if not hug_in and not hug_out:
        return 1.0
    radius = 1.1 if hug_in else 0.9
    for m in mods:
        inside = m <= 1 if abs(m - 1) <= tol else m < 1
        if inside != (m < radius):
            raise SingularValueError("radius nudge would move a pole across the contour")
    return radius


def gauss_jacobi_unit(n, c):
    """Nodes and weights integrating t**c f(t) over (0, 1) exactly for poly f."""
    if n < 1:
        raise InvalidParameterError("need at least one quadrature node")
    if c <= -1:
        raise InvalidParameterError(f"endpoint exponent must exceed -1, got {c}")
    x, w = roots_jacobi(n, 0.0, c)
    return (1 + x) / 2, w * 2.0 ** (-(c + 1))


def make_quadrature_grid(lam, n_levels, nodes=64, contour_m=512):
    """Build the per-level Gauss-Jacobi rules and the shared contour rule."""
    lam = lam_value(lam)
    if n_levels < 1:
        raise InvalidParameterError("need at least one level")
    if nodes < 16:
        raise InvalidParameterError("need at least 16 nodes per level")
    levels = []
    for level in range(1, n_levels + 1):
        te = (level - 2.5 + lam) / 2
        ue = (level - 2.0 + lam) / 2
        tn, tw = gauss_jacobi_unit(nodes, te)
        un, uw = gauss_jacobi_unit(nodes, ue)
        levels.append(LevelRule(tn, tw, un, uw, te, ue))
    cnodes = np.exp(2j * np.pi * np.arange(contour_m) / contour_m)
    return QuadratureGrid(tuple(levels), contour_m, cnodes, lam)


def diag_operator_multipliers(params, a, power, i_max):
    """Diagonal action -(1 + rho^-2)(i + a)**power + h/(16 rho^2) on w**i."""
    if power not in (1, 2):
        raise InvalidParameterError(f"operator power must be 1 or 2, got {power}")
    if i_max < 0:
        raise InvalidParameterError("need a nonnegative top power")
    r = params.rho ** -2
    i = np.arange(i_max + 1, dtype=float)
    return -(1 + r) * (i + a) ** power + params.h / (16 * params.rho**2)


def base_series_coefficients(alpha0, lam):
    """Coefficients of the terminating base series in the chained variable."""
    lam = lam_value(lam)
    if alpha0 < 0 or alpha0 != int(alpha0):
        raise InvalidParameterError("alpha_0 must be a nonnegative integer")
    alpha0 = int(alpha0)
    out = np.empty(alpha0 + 1)
    for i in range(alpha0 + 1):
        num = pochhammer(-float(alpha0), i) * pochhammer(alpha0 + 0.25 + lam, i)
        den = pochhammer(1 + lam / 2, i) * pochhammer(0.75 + lam / 2, i)
        out[i] = num / den
    return out


def _f21_terminating(n_top, c, x):
    """Terminating 2F1(-n_top, c; 1; x) on an ndarray argument, by Horner steps."""
    acc = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, n_top + 1):
        term = term * (((-n_top + k - 1) * (c + k - 1)) / (k * k)) * x
        acc = acc + term
    return acc


def _jacobi_rows(m_top, beta, x):
    """Rows _f21_terminating(m, m + beta + 1, x) for m = 0..m_top, stacked.

    Row m is the Jacobi polynomial P_m^(0, beta)(1 - 2x); all rows come from
    the three-term recurrence in m (DLMF 18.9.2 with alpha = 0).
    """
    rows = np.empty((m_top + 1,) + np.shape(x), dtype=np.result_type(x, float))
    rows[0] = 1.0
    if m_top >= 1:
        rows[1] = 1 - (beta + 2) * x
    for m in range(2, m_top + 1):
        s = 2 * m + beta
        den = 2 * m * (m + beta) * (s - 2)
        lead = (s - 1) * s * (s - 2) / den
        shift = (s - 1) * beta * beta / den
        back = 2 * (m - 1) * (m + beta - 1) * s / den
        rows[m] = (lead - shift - 2 * lead * x) * rows[m - 1] - back * rows[m - 2]
    return rows


def _contour_f21(n_top, c, x_arr, vnodes):
    """Contour-quadrature twin of _f21_terminating via the folded integrand."""
    flat = x_arr.ravel()[:, None]
    v = vnodes[None, :]
    vals = ((v - 1) / v) ** n_top * (1 - flat * v) ** (-c)
    return vals.mean(axis=1).reshape(x_arr.shape)


def _y_n_nested(params, lam, n, chain, pt, grid, op_power, use_contour):
    lam = lam_value(lam)
    if len(chain) != n + 1:
        raise InvalidParameterError(
            f"order-{n} term needs an alpha chain of length {n + 1}, got {len(chain)}"
        )
    if op_power not in (1, 2):
        raise InvalidParameterError(f"operator power must be 1 or 2, got {op_power}")
    if n == 0:
        kap = base_series_coefficients(chain[0], lam)
        return pt.xi ** lam * float(np.polyval(kap[::-1], pt.eta))
    if grid is None:
        raise InvalidParameterError("orders n >= 1 need a quadrature grid")
    if grid.lam != lam:
        raise InvalidParameterError("grid was built for a different indicial exponent")
    if len(grid.levels) < n:
        raise InvalidParameterError(f"grid has {len(grid.levels)} levels, need {n}")
    if pt.xi == 0:
        return 0.0

    g = base_series_coefficients(chain[0], lam).astype(complex)
    top = 0.0
    for level in range(1, n + 1):
        al = chain[level]
        a_conj = (level - 1 + lam) / 2
        g = g * diag_operator_multipliers(params, a_conj, op_power, len(g) - 1)
        lev = grid.levels[level - 1]
        t_mesh, u_mesh = np.meshgrid(lev.t_nodes, lev.u_nodes, indexing="ij")
        weights = np.outer(lev.t_weights, lev.u_weights)
        tbar = (1 - t_mesh) * (1 - u_mesh)
        tu = t_mesh * u_mesh
        if level == n:
            r_x = 1.0
            xs = np.array([pt.eta], dtype=complex)
        else:
            r_x = 0.8
            xs = r_x * np.exp(2j * np.pi * np.arange(al + 1) / (al + 1))
        h_vals = np.empty(len(xs), dtype=complex)
        for ix, x in enumerate(xs):
            big_x = x * tbar
            acc = np.zeros(t_mesh.shape, dtype=complex)
            for i in range(len(g)):
                if g[i] == 0:
                    continue
                c_i = level + 0.25 + lam + al + i
                if use_contour:
                    block = _contour_f21(al - i, c_i, big_x, grid.contour_nodes)
                else:
                    block = _f21_terminating(al - i, c_i, big_x)
                acc = acc + g[i] * (x**i) * tu**i * block
            h_vals[ix] = np.sum(weights * acc)
        if level == n:
            top = h_vals[0].real
        else:
            g = np.fft.fft(h_vals) / (len(xs) * r_x ** np.arange(len(xs)))
            g = g.real.astype(complex)
    return float(pt.mu**n * pt.xi**lam * top)


def y_n_term(params, lam, n, chain, pt, grid, op_power=2):
    """Order-n series term via numerical contour quadrature at every level."""
    return _y_n_nested(params, lam, n, chain, pt, grid, op_power, True)


def y_n_term_closed(params, lam, n, chain, pt, grid, op_power=2):
    """Order-n series term via the exact per-level residue polynomials."""
    return _y_n_nested(params, lam, n, chain, pt, grid, op_power, False)


def y_total(params, lam, chains, pt, n_max, grid, op_power=2):
    """Sum of the order-0..n_max terms for the given per-order alpha chains."""
    if n_max < 0:
        raise InvalidParameterError("n_max must be nonnegative")
    if len(chains) < n_max + 1:
        raise InvalidParameterError(f"need {n_max + 1} alpha chains, got {len(chains)}")
    total = 0.0
    for n in range(n_max + 1):
        total += y_n_term(params, lam, n, chains[n], pt, grid, op_power)
    return total
