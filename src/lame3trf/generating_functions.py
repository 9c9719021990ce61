"""Order-by-order verification of the weighted-sum generating identities.

The left-hand side applies the weight operator (a Pochhammer-weighted sum
over alpha_0 and nested geometric sums over alpha_1..alpha_K) to the
per-order terms of the series solution.  One chain-sum loop sums it level
by level from the weighted kappa rows: per level a join over the level
below, the operator multipliers, then the exact Beta-sum level map of
integral_forms, so no chain is visited and no quadrature is taken.  The
right-hand side resums each level's geometric sum under the contour
integral: per level the one closed kernel, jacobi_gf_closed at the
effective weight, times the level below in the closed w-substitution
(through an FFT transfer), on Gauss-Jacobi meshes.

The order-1 resummation also adds the chains alpha_1 < alpha_0 (their origin
residues), which the left side lacks, so the as-written identity carries a
finite gap on generic weights.  gf_order1_origin_residue is minus those chain
terms: the same loop on strict suffix sums, with no mesh; what is left of
lhs - rhs - residue is the quadrature error of the right side alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .scalar_kernels import (
    ConvergenceError,
    InvalidParameterError,
    _gf_radical,
    jacobi_gf_closed,
)
from .lame_series import lam_value
from .integral_forms import (
    AlphaChain,
    SParameters,
    _circle,
    _circle_taylor,
    _level_map,
    _require_grid,
    _w_tilde_vals,
    base_series_coefficients,
    diag_operator_multipliers,
    s_partial_product,
    y_n_term_closed,
)

__all__ = [
    "GFOrderReport",
    "GFWeights",
    "gf_lhs_order",
    "gf_order1_origin_residue",
    "gf_remark",
    "gf_rhs_order",
    "gf_verify_order",
    "kernel_A",
    "kernel_B",
    "kernel_gamma",
    "kernel_psi",
    "upsilon",
]

_DEFAULT_TOLERANCES = {0: 1e-8, 1: 1e-6, 2: 1e-4}
_M_X = 48  # points of the FFT transfer between levels


@dataclass(frozen=True)
class GFWeights:
    """Weight parameters: Pochhammer base gamma and the geometric chain s."""

    gamma: float
    s: SParameters
    A_max: int
    K: int

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise InvalidParameterError(f"gamma must be finite, got {self.gamma}")
        if not self.gamma > 0:
            raise InvalidParameterError(f"gamma must be positive, got {self.gamma}")
        if self.A_max < 1:
            raise InvalidParameterError("A_max must be at least 1")
        if self.K != self.s.K:
            raise InvalidParameterError(
                f"K={self.K} does not match the chain length {self.s.K}"
            )


@dataclass(frozen=True)
class GFOrderReport:
    """Left/right values of one order of the generating identity."""

    order_n: int
    lhs: complex
    rhs: complex
    gap: float
    truncation_estimate: float

    def passes(self, tolerance=None):
        """Gap below tolerance plus the truncation allowance."""
        if tolerance is None:
            tolerance = _DEFAULT_TOLERANCES.get(self.order_n, 1e-6)
        return self.gap < tolerance + self.truncation_estimate


def _gw_weights(gamma, a_max):
    """Pochhammer weights (gamma)_a / a! for a = 0..a_max."""
    out = np.empty(a_max + 1)
    out[0] = 1.0
    for a in range(a_max):
        out[a + 1] = out[a] * (gamma + a) / (a + 1)
    return out


def upsilon(lam, gamma, s_eff, x, pt, a_max):
    """Bottom series: weighted sum of the terminating base series at x."""
    lam = lam_value(lam)
    if not abs(s_eff) < 1:
        raise InvalidParameterError(f"effective weight must satisfy |s| < 1, got {s_eff}")
    coeffs = _chain_coeffs(None, lam, gamma, s_eff, [np.ones(a_max + 1)])
    return pt.xi**lam * np.polyval(coeffs[::-1], x)


def kernel_A(s, x):
    """First-kind closed kernel (1-s+R)^(1/4) (1+s+R)^(1/2) / R."""
    return _kernel_ab_derivs(0.25, s, x)[0]


def kernel_B(s, x):
    """Second-kind closed kernel (1-s+R)^(-1/4) (1+s+R)^(1/2) / R."""
    return _kernel_ab_derivs(-0.25, s, x)[0]


def _kernel_ab_derivs(p_exp, s, w):
    """Closed kernel (1-s+R)^p (1+s+R)^(1/2) / R with first two w-derivatives."""
    if not abs(s) < 1:
        raise InvalidParameterError(f"weight must satisfy |s| < 1, got {s}")
    R = _gf_radical(1 - 2 * w, s)
    a = 1 - s + R
    b = 1 + s + R
    f = a**p_exp * b**0.5 / R
    rp = 2 * s / R
    g = (p_exp / a + 0.5 / b - 1 / R) * rp
    gp = (-p_exp / a**2 - 0.5 / b**2 + 1 / R**2) * rp**2 + (
        p_exp / a + 0.5 / b - 1 / R
    ) * (-(rp**2) / R)
    return f, f * g, f * (g * g + gp)


def _kernel_level(lam, level, s_eff, t, u, x):
    """Level kernel [((1+s)+R)/2]^(-e)/R with e = level - 3/4 + lam: the
    Jacobi generating function P^(0,e) at 1 - 2x(1-t)(1-u) and weight s."""
    if not abs(s_eff) < 1:
        raise InvalidParameterError(f"weight must satisfy |s| < 1, got {s_eff}")
    folded = x * (1 - t) * (1 - u)
    return jacobi_gf_closed(0, level - 0.75 + lam, 1 - 2 * folded, s_eff)


def kernel_gamma(level_n, k_offset, s_eff, t, u, x):
    """First-kind level kernel; exponent (level_n - k_offset) - 3/4."""
    return _kernel_level(0.0, level_n - k_offset, s_eff, t, u, x)


def kernel_psi(level_n, k_offset, s_eff, t, u, x):
    """Second-kind level kernel; exponent (level_n - k_offset) - 1/4."""
    return _kernel_level(0.5, level_n - k_offset, s_eff, t, u, x)


def _closed_levels(params, lam, s, grid, x, acted, n, op_power):
    """Closed right side of levels 1..n at x, before the mu^n xi^lam and trailing factors.

    x is the real top point, or below the top an array of points of shape
    (m, 1, 1), one sum each.  Level n runs at the effective weight s_n...s_K:
    the geometric sums of the levels above it, summed first, carry their
    weights down to alpha_n.  Its integrand is acted(w~) at level 1, the
    operator-acted bottom series.  Above level 1 it is the level below as a
    function of the chained variable w~: its Taylor coefficients come from an
    FFT of level n - 1 at 48 points of a circle four times wider than the
    largest |w~|, so this level's operator can act on them power by power.
    At the real top point a complex sum (radicand (1 - S)^2 + 4 S X < 0)
    raises ConvergenceError.
    """
    s_eff = s_partial_product(s, n, s.K)
    rule = grid.levels[n - 1]
    t, u = np.meshgrid(rule.t_nodes, rule.u_nodes, indexing="ij")
    wt = _w_tilde_vals(s_eff, t, u, x)
    if n > 1:
        r_f = max(4 * float(np.max(np.abs(wt))), 0.02)
        xs = _circle(_M_X, r_f)
        below = _closed_levels(params, lam, s, grid, xs[:, None, None], acted, n - 1, op_power)
        taylor = _circle_taylor(below, r_f).real
        mult = diag_operator_multipliers(params, (n - 1 + lam) / 2, op_power, _M_X - 1)
        acted = partial(np.polyval, (taylor * mult)[::-1])
    weights = np.outer(rule.t_weights, rule.u_weights)
    total = np.sum(weights * _kernel_level(lam, n, s_eff, t, u, x) * acted(wt), axis=(-2, -1))
    if np.ndim(x):  # points of the transfer circle of the level above
        return total
    if np.iscomplexobj(total):
        raise ConvergenceError(f"order-{n} closed right side is complex: "
                               "the kernel radicand is negative on the mesh")
    return float(total)


def _geom(s, from_k):
    """Trailing factor prod_{k >= from_k} 1/(1 - s_k...s_K) of the resummed sums."""
    out = 1.0
    for k in range(from_k, s.K + 1):
        out /= 1 - s_partial_product(s, k, s.K)
    return out


def _trailing_table(s, order_n, a_max):
    """Weights of the alpha sums beyond order_n, as a table over alpha."""
    table = np.ones(a_max + 1)
    for m in range(s.K, order_n, -1):
        weighted = s[m] ** np.arange(a_max + 1) * table
        table = np.cumsum(weighted[::-1])[::-1]
    return table


def _strict_suffix_sums(rows):
    """Row a: the sum of the rows above it, over alpha_{l-1} > a."""
    out = np.zeros_like(rows)
    out[:-1] = np.cumsum(rows[:0:-1], axis=0)[::-1]
    return out


def _chain_coeffs(params, lam, gamma, s0, weights, op_power=2,
                  join=partial(np.cumsum, axis=0)):
    """Coefficient vector, in powers of the chained variable, of a weighted chain sum.

    Level 0 row a is (gamma)_a/a! s0^a kappa_a weights[0][a], with kappa_a the
    base series coefficients; rows of zero weight (s0 = 0, a > 0) stay zero and
    kappa is not built.  Each level l >= 1 joins the rows of level l - 1 over
    alpha_{l-1} (by default prefix sums, alpha_{l-1} <= alpha_l: the ordered
    chains), applies the level's operator multipliers, and maps row a by the
    exact level map to degree a at the weight weights[l][a].  No chain is
    visited and no quadrature is taken.  Returns the sum of the top level's rows.
    """
    a_max = len(weights[0]) - 1
    gw = _gw_weights(gamma, a_max)
    rows = np.zeros((a_max + 1, a_max + 1))
    for a in range(a_max + 1):
        wa = gw[a] * s0**a
        if wa == 0 and a > 0:
            continue
        rows[a, : a + 1] = wa * base_series_coefficients(a, lam) * weights[0][a]
    for level in range(1, len(weights)):
        joined = join(rows) * diag_operator_multipliers(
            params, (level - 1 + lam) / 2, op_power, a_max)
        rows = np.zeros_like(rows)
        for a in np.flatnonzero(weights[level]):
            rows[a, : a + 1] = weights[level][a] * (
                joined[a, : a + 1] @ _level_map(level, lam, a))
    return rows.sum(axis=0)


def _check_order(weights, order_n):
    if order_n not in (0, 1, 2):
        raise InvalidParameterError(f"order must be 0, 1, or 2, got {order_n}")
    if order_n > weights.K:
        raise InvalidParameterError(f"order {order_n} exceeds chain length K={weights.K}")


def _lhs_value(params, lam, weights, pt, order_n, grid, op_power):
    """Left side of the order-n identity.  It stays apart from gf_lhs_order because
    perfbench's tracer reads gf_verify_order's left side as its span minus its
    gf_rhs_order child; a gf_lhs_order call there would be timed twice."""
    lam = lam_value(lam)
    _check_order(weights, order_n)
    if grid is not None:
        _require_grid(grid, lam, order_n)
    s = weights.s
    powers = np.arange(weights.A_max + 1)
    # level 0 carries no weight beyond its kappa rows; the top level also
    # carries the sums over alpha_{n+1}..alpha_K
    level_weights = [np.ones(len(powers))] + [s[l] ** powers for l in range(1, order_n + 1)]
    level_weights[-1] = level_weights[-1] * _trailing_table(s, order_n, weights.A_max)
    coeffs = _chain_coeffs(params, lam, weights.gamma, s[0], level_weights, op_power)
    return pt.mu**order_n * pt.xi**lam * float(np.polyval(coeffs[::-1], pt.eta))


def _lhs_tail(params, lam, weights, pt, order_n, grid, op_power):
    """Truncation estimate: A_max times the size of the all-A_max chain term."""
    s = weights.s
    a_max = weights.A_max
    weight = _gw_weights(weights.gamma, a_max)[a_max]
    for k in range(order_n + 1):
        weight *= s[k] ** a_max
    weight *= _trailing_table(s, order_n, a_max)[a_max]
    if weight == 0:
        return 0.0
    chain = AlphaChain((a_max,) * (order_n + 1))
    return abs(weight * y_n_term_closed(params, lam, order_n, chain, pt, grid, op_power)) * a_max


def gf_lhs_order(params, lam, weights, pt, order_n, grid=None, op_power=2):
    """Weight operator applied to the order-n terms of the series solution."""
    return _lhs_value(params, lam, weights, pt, order_n, grid, op_power)


def gf_rhs_order(params, lam, weights, pt, order_n, grid=None, op_power=2):
    """Closed-form right-hand side of the order-n generating identity."""
    lam = lam_value(lam)
    _check_order(weights, order_n)
    s = weights.s
    a_max = weights.A_max
    prefactor = _geom(s, order_n + 1)

    if order_n == 0:
        return prefactor * upsilon(lam, weights.gamma, s_partial_product(s, 0, s.K),
                                   pt.eta, pt, a_max)

    grid = _require_grid(grid, lam, order_n)
    mult = diag_operator_multipliers(params, lam / 2, op_power, a_max)
    # operator-acted bottom series, in powers of the chained variable
    bottom = _chain_coeffs(params, lam, weights.gamma, s[0], [np.ones(a_max + 1)])
    coeffs = (bottom * mult)[::-1]
    total = _closed_levels(params, lam, s, grid, pt.eta,
                           partial(np.polyval, coeffs), order_n, op_power)
    return pt.mu**order_n * pt.xi**lam * prefactor * total


def gf_order1_origin_residue(params, lam, weights, pt, grid=None, op_power=2):
    """Origin residues dropped by the order-1 closed-form reduction.

    Adding this to the order-1 right-hand side restores equality with the
    left-hand side.  Resumming the geometric sum over alpha_1 under the contour
    integral also sums the chains alpha_1 < alpha_0, which the left side does
    not have; their level-1 terms with i <= alpha_1 are the origin residues.
    So the residue is minus those chain terms at the weight S^alpha_1,
    S = s_1...s_K: the exact level map on the suffix sums over alpha_0 > alpha_1.
    """
    lam = lam_value(lam)
    if grid is not None:
        _require_grid(grid, lam, 1)
    s = weights.s
    powers = np.arange(weights.A_max + 1)
    level_weights = [np.ones(len(powers)), s_partial_product(s, 1, s.K) ** powers]
    coeffs = _chain_coeffs(params, lam, weights.gamma, s[0], level_weights, op_power,
                           _strict_suffix_sums)
    top = np.polyval(coeffs[::-1], pt.eta)
    return -pt.mu * pt.xi**lam * _geom(s, 2) * float(top)


def gf_verify_order(params, lam, weights, pt, order_n, grid=None, op_power=2):
    """Compute both sides of the order-n identity and report the gap."""
    lam = lam_value(lam)
    _check_order(weights, order_n)
    if order_n >= 1:
        grid = _require_grid(grid, lam, order_n)
    lhs = _lhs_value(params, lam, weights, pt, order_n, grid, op_power)
    tail = _lhs_tail(params, lam, weights, pt, order_n, grid, op_power)
    rhs = gf_rhs_order(params, lam, weights, pt, order_n, grid, op_power)
    return GFOrderReport(
        order_n=order_n,
        lhs=lhs,
        rhs=rhs,
        gap=abs(lhs - rhs),
        truncation_estimate=tail,
    )


def _op_closed(params, a_conj, op_power, f, fp, fpp, w):
    """Diagonal operator applied to a closed kernel through its derivatives."""
    r = params.rho ** -2
    if op_power == 1:
        core = a_conj * f + w * fp
    else:
        core = a_conj**2 * f + (2 * a_conj + 1) * w * fp + w**2 * fpp
    return -(1 + r) * core + params.h / (16 * params.rho**2) * f


def gf_remark(kind, params, weights, pt, grid, n_max):
    """Solution assembly from the closed kernels, first or second kind."""
    if kind == "first":
        lam, p_exp = 0.0, 0.25
        prefactor = 2.0**-0.75
    elif kind == "second":
        lam, p_exp = 0.5, -0.25
        prefactor = (pt.xi**2 / 2) ** 0.25
    else:
        raise InvalidParameterError(f"kind must be 'first' or 'second', got {kind!r}")
    if weights.gamma != lam + 0.75:
        raise InvalidParameterError(
            f"{kind}-kind assembly requires gamma = {lam + 0.75}, got {weights.gamma}"
        )
    _check_order(weights, n_max)
    s = weights.s

    def acted(wt):
        return _op_closed(params, lam / 2, 2, *_kernel_ab_derivs(p_exp, s[0], wt), wt)

    s_all = s_partial_product(s, 0, s.K)
    total = _geom(s, 1) * _kernel_ab_derivs(p_exp, s_all, pt.eta)[0]
    if n_max >= 1:
        grid = _require_grid(grid, lam, n_max)
    for n in range(1, n_max + 1):
        total += pt.mu**n * _geom(s, n + 1) * _closed_levels(
            params, lam, s, grid, pt.eta, acted, n, 2
        )
    return prefactor * total
