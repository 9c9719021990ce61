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
y_n_term carries the contraction by numerical contour and Gauss-Jacobi
quadrature, as the integral form is written.  y_n_term_closed takes the
residue, the terminating 2F1(-m, c; 1; X), and integrates it over t and u
term by term with the Beta integral: each level is then an exact triangular
map on coefficient vectors (_level_map), with no mesh.  The two routes
cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalar_kernels import (
    InvalidParameterError,
    SingularValueError,
    _jacobi_terms,
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
    """Per-level Gauss-Jacobi rules plus the shared contour node count."""

    levels: tuple
    contour_m: int
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


def _circle(m, radius):
    """m equispaced points radius exp(2 pi i k/m), k = 0..m-1, on a circle."""
    return radius * np.exp(2j * np.pi * np.arange(m) / m)


def _circle_taylor(vals, radius):
    """Taylor coefficients 0..m-1 by FFT of values at _circle(m, radius), last axis."""
    m = np.shape(vals)[-1]
    return np.fft.fft(vals) / (m * radius ** np.arange(m))


def contour_integral(f, m, radius=1.0):
    """Trapezoid rule for (1/2 pi i) times the circular contour integral of f.

    Uses m equispaced nodes on the circle of the given radius.  f is called
    once, on the complex ndarray of all m nodes, and must return an array
    whose last axis runs over those nodes (or anything that broadcasts
    against them, such as a scalar); every other axis is integrated
    component-wise.  A singular or overflowing integrand raises
    SingularValueError.
    """
    if m < 128:
        raise InvalidParameterError(f"need at least 128 contour nodes, got {m}")
    if radius <= 0:
        raise InvalidParameterError("contour radius must be positive")
    nodes = _circle(m, radius)
    with np.errstate(all="ignore"):
        try:
            vals = f(nodes)
        except ZeroDivisionError as exc:
            raise SingularValueError("integrand is singular on the contour") from exc
        out = np.sum(np.asarray(vals, dtype=complex) * nodes, axis=-1) / m
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


def _jacobi_derivative(n, a, b, x):
    """d/dx P_n^(a, b)(x) = (n + a + b + 1)/2 P_{n-1}^(a+1, b+1)(x) (DLMF 18.9.15)."""
    *_, p = _jacobi_terms(n - 1, a + 1, b + 1, x)
    return (n + a + b + 1) / 2 * p


def _gauss_jacobi(n, a, b):
    """Gauss-Jacobi rule for the weight (1 - x)**a (1 + x)**b on (-1, 1).

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the symmetric Jacobi matrix, polished by two Newton steps on the
    recurrence (_jacobi_terms).  The weights are

        2**(a+b+1) G(n+a+1) G(n+b+1) / (n! G(n+a+b+1)) / ((1 - x**2) P_n'(x)**2);

    the constant is fixed here by the zeroth moment
    mu0 = 2**(a+b+1) G(a+1) G(b+1) / G(a+b+2) instead, which also cancels
    their common rounding bias.  1 - x**2 is taken as (1 - x)(1 + x), exact
    near either endpoint.  Up to n = 128 the weights stay within 1e-12
    relative of a 40-digit reference (scipy's roots_jacobi misses it by up
    to 1e-10).  Hale & Townsend (SIAM J. Sci. Comput. 35, 2013) give the
    asymptotic route for much larger n.
    """
    k = np.arange(1, n, dtype=float)
    s = 2 * k + a + b
    diag = np.empty(n)
    # the k = 0 entry (b**2 - a**2)/((a+b)(a+b+2)) is 0/0 at a + b = 0;
    # its limit (b - a)/(a + b + 2) holds for every a + b
    diag[0] = (b - a) / (a + b + 2)
    diag[1:] = (b * b - a * a) / (s * (s + 2))
    off = np.sqrt(4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        *_, p = _jacobi_terms(n, a, b, x)
        x = x - p / _jacobi_derivative(n, a, b, x)
    dp = _jacobi_derivative(n, a, b, x)
    w = 1 / ((1 - x) * (1 + x) * dp * dp)
    mu0 = math.exp(
        (a + b + 1) * math.log(2)
        + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
    )
    return x, w * (mu0 / math.fsum(w))


def gauss_jacobi_unit(n, c):
    """Nodes and weights integrating t**c f(t) over (0, 1) exactly for poly f."""
    if n < 1:
        raise InvalidParameterError("need at least one quadrature node")
    if c <= -1:
        raise InvalidParameterError(f"endpoint exponent must exceed -1, got {c}")
    x, w = _gauss_jacobi(n, 0.0, c)
    return (1 + x) / 2, w * 2.0 ** (-(c + 1))


def _level_exponents(level, lam):
    """Endpoint exponents (t_e, u_e) of the t and u integrals at a level."""
    return (level - 2.5 + lam) / 2, (level - 2.0 + lam) / 2


def make_quadrature_grid(lam, n_levels, nodes=64, contour_m=512):
    """Build the per-level Gauss-Jacobi rules; QuadratureGrid checks the counts."""
    lam = lam_value(lam)
    levels = []
    for level in range(1, n_levels + 1):
        te, ue = _level_exponents(level, lam)
        tn, tw = gauss_jacobi_unit(nodes, te)
        un, uw = gauss_jacobi_unit(nodes, ue)
        levels.append(LevelRule(tn, tw, un, uw, te, ue))
    return QuadratureGrid(tuple(levels), contour_m, lam)


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


def _level_map(level, lam, alpha):
    """Exact map of one level on coefficient vectors, g -> g @ T, to degree alpha.

    Per input power i the level integral of (t u x)**i 2F1(-m, c; 1; x(1-t)(1-u))
    against t**t_e u**u_e over the unit square, taken term by term with the
    Beta integral (DLMF 5.12.1, 16.2.1), is sum_k T[i, i+k] x**(i+k) with

        T[i, i+k] = (-m)_k (c)_k / k!**2 B(a, k+1) B(b, k+1)
                  = (-m)_k (c)_k / ((a)_(k+1) (b)_(k+1)),

    m = alpha - i, c = level + 1/4 + lam + alpha + i, a = t_e + i + 1 and
    b = u_e + i + 1; each row is one running product of term ratios.
    """
    te, ue = _level_exponents(level, lam)
    i = np.arange(alpha + 1.0)[:, None]
    k = np.arange(alpha + 1.0)
    a = te + i + 1
    b = ue + i + 1
    c = level + 0.25 + lam + alpha + i
    ratios = (k - 1 - (alpha - i)) * (c + k - 1) / ((a + k) * (b + k))
    ratios[:, :1] = 1 / (a * b)
    rows = np.cumprod(ratios, axis=1)
    out = np.zeros((alpha + 1, alpha + 1))
    ii, jj = np.triu_indices(alpha + 1)
    out[ii, jj] = rows[ii, jj - ii]
    return out


def _require_grid(grid, lam, n_levels):
    """grid, checked for lam and at least n_levels levels; a default grid when None."""
    if grid is None:
        return make_quadrature_grid(lam, n_levels)
    if grid.lam != lam:
        raise InvalidParameterError("grid was built for a different indicial exponent")
    if len(grid.levels) < n_levels:
        raise InvalidParameterError(f"grid has {len(grid.levels)} levels, need {n_levels}")
    return grid


def _check_term(lam, n, chain, grid, op_power):
    lam = lam_value(lam)
    if len(chain) != n + 1:
        raise InvalidParameterError(
            f"order-{n} term needs an alpha chain of length {n + 1}, got {len(chain)}"
        )
    if op_power not in (1, 2):
        raise InvalidParameterError(f"operator power must be 1 or 2, got {op_power}")
    if n >= 1:
        if grid is None:
            raise InvalidParameterError("orders n >= 1 need a quadrature grid")
        _require_grid(grid, lam, n)
    return lam


def y_n_term(params, lam, n, chain, pt, grid, op_power=2):
    """Order-n series term via numerical contour quadrature at every level.

    Against the 40-digit chain oracle (tests/chain_oracle.py), at 32 nodes,
    contour_m 256, lam 0 and op_power 1, it loses 6.2e-11 relative on the chain
    (5, 8, 12) at (rho, xi) = (0.5, 0.1) and 6.1e-10 at (0.9, 0.9).  More contour
    points do not shrink the loss (op_power 2 at (0.5, 0.1): 5.9e-11, 3.0e-10 and
    1.7e-11 at contour_m 256, 512 and 1024), and a last-bit change of the contour
    integrand moves the value by up to 1.6e-11, so it acts as amplified rounding,
    not quadrature error; its cause is open.
    """
    lam = _check_term(lam, n, chain, grid, op_power)
    if n == 0 or pt.xi == 0:  # no level integral to take
        return y_n_term_closed(params, lam, n, chain, pt, grid, op_power)

    g = base_series_coefficients(chain[0], lam).astype(complex)
    top = 0.0
    for level in range(1, n + 1):
        al = chain[level]
        g = g * diag_operator_multipliers(params, (level - 1 + lam) / 2, op_power, len(g) - 1)
        lev = grid.levels[level - 1]
        t_mesh, u_mesh = np.meshgrid(lev.t_nodes, lev.u_nodes, indexing="ij")
        weights = np.outer(lev.t_weights, lev.u_weights)
        tbar = (1 - t_mesh) * (1 - u_mesh)
        tu = t_mesh * u_mesh
        # the top level at eta; below it, the al + 1 points of a radius-0.8 transfer circle
        xs = np.array([pt.eta], dtype=complex) if level == n else _circle(al + 1, 0.8)
        h_vals = np.empty(len(xs), dtype=complex)
        for ix, x in enumerate(xs):
            big_x = x * tbar
            acc = np.zeros(t_mesh.shape, dtype=complex)
            for i in range(len(g)):
                if g[i] == 0:
                    continue
                m_i, c_i = al - i, level + 0.25 + lam + al + i
                # the folded integrand of the module docstring: 2F1(-m_i, c_i; 1; X)
                block = contour_integral(
                    lambda v: ((v - 1) / v) ** m_i * (1 - big_x[..., None] * v) ** (-c_i) / v,
                    grid.contour_m)
                acc = acc + g[i] * (x**i) * tu**i * block
            h_vals[ix] = np.sum(weights * acc)
        if level == n:
            top = h_vals[0].real
        else:
            g = _circle_taylor(h_vals, 0.8).real.astype(complex)
    return float(pt.mu**n * pt.xi**lam * top)


def y_n_term_closed(params, lam, n, chain, pt, grid, op_power=2):
    """Order-n series term via the exact Beta-sum map at every level."""
    lam = _check_term(lam, n, chain, grid, op_power)
    if n and pt.xi == 0:
        return 0.0
    g = base_series_coefficients(chain[0], lam)
    for level in range(1, n + 1):
        g = g * diag_operator_multipliers(params, (level - 1 + lam) / 2, op_power, len(g) - 1)
        g = g @ _level_map(level, lam, chain[level])[: len(g)]
    return float(pt.mu**n * pt.xi**lam * np.polyval(g[::-1], pt.eta))


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
