"""Order-by-order verification of the weighted-sum generating identities.

The left-hand side applies the weight operator (a Pochhammer-weighted sum
over alpha_0 and nested geometric sums over alpha_1..alpha_K) to the
per-order terms of the series solution.  The right-hand side is the closed
form obtained by resumming each level's geometric sum under the contour
integral and keeping the interior-pole residue: per level a radical kernel
evaluated at the effective weight, chained through the closed w-substitution.

The closed-form reduction drops the residues at the contour origin that the
off-diagonal terms (inner power below alpha_0) acquire, so the as-written
order-1 identity carries a finite gap on generic weights; the explicit
origin-residue correction is provided and restores the identity to
quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scalar_kernels import InvalidParameterError, SingularValueError, _principal_sqrt
from .lame_series import lam_value
from .integral_forms import (
    AlphaChain,
    SParameters,
    _f21_terminating,
    _w_tilde_vals,
    base_series_coefficients,
    diag_operator_multipliers,
    make_quadrature_grid,
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


@dataclass(frozen=True)
class GFWeights:
    """Weight parameters: Pochhammer base gamma and the geometric chain s."""

    gamma: float
    s: SParameters
    A_max: int
    K: int

    def __post_init__(self):
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
    gw = _gw_weights(gamma, a_max)
    total = 0.0
    for a0 in range(a_max + 1):
        kap = base_series_coefficients(a0, lam)
        inner = np.polyval(kap[::-1], x)
        total = total + gw[a0] * s_eff**a0 * inner
        if s_eff == 0:
            break
    return pt.xi**lam * total


def _radical(s, w):
    """R = sqrt(s^2 - 2(1 - 2w)s + 1) with a guard against the branch point."""
    rad = s * s - 2 * (1 - 2 * w) * s + 1
    R = _principal_sqrt(rad)
    if np.min(np.abs(np.asarray(R))) < 1e-12:
        raise SingularValueError("kernel radical vanished")
    return R


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
    R = _radical(s, w)
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
    """Level kernel [((1+s)+R)/2]^(-e)/R with e = level - 3/4 + lam."""
    if not abs(s_eff) < 1:
        raise InvalidParameterError(f"weight must satisfy |s| < 1, got {s_eff}")
    e = level - 0.75 + lam
    folded = x * (1 - t) * (1 - u)
    R = _radical(s_eff, folded)
    return ((1 + s_eff + R) / 2) ** (-e) / R


def kernel_gamma(level_n, k_offset, s_eff, t, u, x):
    """First-kind level kernel; exponent (level_n - k_offset) - 3/4."""
    return _kernel_level(0.0, level_n - k_offset, s_eff, t, u, x)


def kernel_psi(level_n, k_offset, s_eff, t, u, x):
    """Second-kind level kernel; exponent (level_n - k_offset) - 1/4."""
    return _kernel_level(0.5, level_n - k_offset, s_eff, t, u, x)


def _level_mesh(level_rule):
    t, u = np.meshgrid(level_rule.t_nodes, level_rule.u_nodes, indexing="ij")
    w = np.outer(level_rule.t_weights, level_rule.u_weights)
    return t, u, w


def _level_sum(lam, level, s_eff, mesh, x, acted):
    """One closed level: sum of weight * level kernel * acted(w~) on the mesh."""
    t, u, w = mesh
    ker = _kernel_level(lam, level, s_eff, t, u, x)
    return np.sum(w * ker * acted(_w_tilde_vals(s_eff, t, u, x)))


def _closed_levels(params, lam, s, grid, eta, acted, n, op_power):
    """Closed right side of levels 1..n, before the mu^n xi^lam and trailing factors.

    acted(w~) is the operator-acted level-1 integrand.  For n = 2 the level-1
    sum is a function of the level-2 chained variable; its Taylor coefficients
    come from an FFT on a circle four times wider than the largest |w~|, so
    the level-2 operator can act on them power by power.
    """
    s_eff = s_partial_product(s, n, s.K)
    outer = _level_mesh(grid.levels[n - 1])
    if n == 1:
        return float(_level_sum(lam, 1, s_eff, outer, eta, acted))
    inner = _level_mesh(grid.levels[0])
    wt_outer = _w_tilde_vals(s_eff, outer[0], outer[1], eta)
    m_x = 48
    r_f = max(4 * float(np.max(np.abs(wt_outer))), 0.02)
    xs = r_f * np.exp(2j * np.pi * np.arange(m_x) / m_x)
    g_vals = np.array([_level_sum(lam, 1, s[1], inner, x, acted) for x in xs])
    taylor = (np.fft.fft(g_vals) / (m_x * r_f ** np.arange(m_x))).real
    mult2 = diag_operator_multipliers(params, (1 + lam) / 2, op_power, m_x - 1)
    g_op = (taylor * mult2)[::-1]
    return float(
        _level_sum(lam, 2, s_eff, outer, eta, lambda wt: np.polyval(g_op, wt))
    )


def _geom(s, from_k):
    """Trailing factor prod_{k >= from_k} 1/(1 - s_k...s_K) of the resummed sums."""
    out = 1.0
    for k in range(from_k, s.K + 1):
        out /= 1 - s_partial_product(s, k, s.K)
    return out


def _require_grid(grid, lam, n_levels):
    if grid is None:
        return make_quadrature_grid(lam, n_levels)
    if grid.lam != lam:
        raise InvalidParameterError("grid was built for a different indicial exponent")
    if len(grid.levels) < n_levels:
        raise InvalidParameterError(
            f"grid has {len(grid.levels)} levels, need {n_levels}"
        )
    return grid


def _trailing_table(s, order_n, a_max):
    """Weights of the alpha sums beyond order_n, as a table over alpha."""
    table = np.ones(a_max + 1)
    for m in range(s.K, order_n, -1):
        weighted = s[m] ** np.arange(a_max + 1) * table
        table = np.cumsum(weighted[::-1])[::-1]
    return table


def _ups_op_coeffs(lam, gamma, s0, a_max, multipliers):
    """Coefficients of the operator-acted bottom series in chained powers."""
    gw = _gw_weights(gamma, a_max)
    coeffs = np.zeros(a_max + 1)
    for a0 in range(a_max + 1):
        kap = base_series_coefficients(a0, lam)
        coeffs[: a0 + 1] += gw[a0] * s0**a0 * kap
        if s0 == 0:
            break
    return coeffs * multipliers


def _lhs_with_tail(params, lam, weights, pt, order_n, grid, op_power):
    lam = lam_value(lam)
    if order_n > weights.K:
        raise InvalidParameterError(f"order {order_n} exceeds chain length K={weights.K}")
    s = weights.s
    a_max = weights.A_max
    gw = _gw_weights(weights.gamma, a_max)
    trailing = _trailing_table(s, order_n, a_max)

    if order_n == 0:
        total = 0.0
        last = 0.0
        for a0 in range(a_max + 1):
            kap = base_series_coefficients(a0, lam)
            y0 = pt.xi**lam * float(np.polyval(kap[::-1], pt.eta))
            term = gw[a0] * s[0] ** a0 * trailing[a0] * y0
            total += term
            if a0 == a_max:
                last = abs(term)
            if s[0] == 0:
                break
        return total, last * a_max

    grid = _require_grid(grid, lam, order_n)

    if order_n == 1:
        t, u, w = _level_mesh(grid.levels[0])
        tbar = (1 - t) * (1 - u)
        tu_eta = t * u * pt.eta
        big_x = pt.eta * tbar
        mult = diag_operator_multipliers(params, lam / 2, op_power, a_max)
        suffix = [None] * (a_max + 1)
        acc = np.zeros(t.shape)
        last = 0.0
        for a0 in range(a_max, -1, -1):
            for i in range(a0 + 1):
                row = (
                    s[1] ** a0
                    * trailing[a0]
                    * _f21_terminating(a0 - i, 1.25 + lam + a0 + i, big_x)
                )
                suffix[i] = row if suffix[i] is None else suffix[i] + row
            if s[0] == 0 and a0 > 0:
                continue
            kap = base_series_coefficients(a0, lam)
            inner = np.zeros(t.shape)
            for i in range(a0 + 1):
                inner += kap[i] * mult[i] * tu_eta**i * suffix[i]
            acc += gw[a0] * s[0] ** a0 * inner
            if a0 == a_max:
                last = gw[a0] * abs(s[0]) ** a0 * abs(np.sum(w * inner))
        value = pt.mu * pt.xi**lam * float(np.sum(w * acc))
        return value, abs(pt.mu) * pt.xi**lam * last * a_max

    # order 2: brute nested chain sum over the closed integral terms
    total = 0.0
    last = 0.0
    for a0 in range(a_max + 1):
        wa0 = gw[a0] * s[0] ** a0
        if wa0 == 0 and a0 > 0:
            continue
        for a1 in range(a0, a_max + 1):
            wa1 = wa0 * s[1] ** a1
            if wa1 == 0 and a1 > 0:
                continue
            for a2 in range(a1, a_max + 1):
                wa2 = wa1 * s[2] ** a2 * trailing[a2]
                if wa2 == 0 and a2 > 0:
                    continue
                term = wa2 * y_n_term_closed(
                    params, lam, 2, AlphaChain((a0, a1, a2)), pt, grid, op_power
                )
                total += term
                if a0 == a_max and a1 == a_max and a2 == a_max:
                    last = abs(term)
    return total, last * a_max


def gf_lhs_order(params, lam, weights, pt, order_n, grid=None, op_power=2):
    """Weight operator applied to the order-n terms of the series solution."""
    return _lhs_with_tail(params, lam, weights, pt, order_n, grid, op_power)[0]


def gf_rhs_order(params, lam, weights, pt, order_n, grid=None, op_power=2):
    """Closed-form right-hand side of the order-n generating identity."""
    lam = lam_value(lam)
    if order_n not in (0, 1, 2):
        raise InvalidParameterError(f"order must be 0, 1, or 2, got {order_n}")
    if order_n > weights.K:
        raise InvalidParameterError(f"order {order_n} exceeds chain length K={weights.K}")
    s = weights.s
    a_max = weights.A_max
    prefactor = _geom(s, order_n + 1)

    if order_n == 0:
        return prefactor * upsilon(lam, weights.gamma, s_partial_product(s, 0, s.K),
                                   pt.eta, pt, a_max)

    grid = _require_grid(grid, lam, order_n)
    mult = diag_operator_multipliers(params, lam / 2, op_power, a_max)
    coeffs = _ups_op_coeffs(lam, weights.gamma, s[0], a_max, mult)[::-1]
    total = _closed_levels(params, lam, s, grid, pt.eta,
                           lambda wt: np.polyval(coeffs, wt), order_n, op_power)
    return pt.mu**order_n * pt.xi**lam * prefactor * total


def gf_order1_origin_residue(params, lam, weights, pt, grid=None, op_power=2):
    """Origin residues dropped by the order-1 closed-form reduction.

    Adding this to the order-1 right-hand side restores equality with the
    left-hand side: per (alpha_0, i) the resummed contour integrand keeps a
    pole of order alpha_0 - i at the origin whose residue is the coefficient
    of v^(alpha_0-i-1) in (v-1)^(alpha_0-i) (1-Xv)^(-c) / (S+(1-S)v-Xv^2).
    """
    lam = lam_value(lam)
    s = weights.s
    a_max = weights.A_max
    grid = _require_grid(grid, lam, 1)
    s_eff = s_partial_product(s, 1, s.K)
    prefactor = _geom(s, 2)
    gw = _gw_weights(weights.gamma, a_max)
    mult = diag_operator_multipliers(params, lam / 2, op_power, a_max)

    t, u, w = _level_mesh(grid.levels[0])
    big_x = pt.eta * (1 - t) * (1 - u)
    tu_eta = t * u * pt.eta

    # power series of 1/(S + (1-S)v - X v^2) in v, term by term on the mesh
    def den_series(k_top):
        d = [np.full(t.shape, 1.0 / s_eff)]
        if k_top >= 1:
            d.append(-(1 - s_eff) * d[0] / s_eff)
        for k in range(2, k_top + 1):
            d.append(-((1 - s_eff) * d[k - 1] - big_x * d[k - 2]) / s_eff)
        return d

    total = 0.0
    for a0 in range(a_max + 1):
        wa0 = gw[a0] * s[0] ** a0
        if wa0 == 0 and a0 > 0:
            continue
        kap = base_series_coefficients(a0, lam)
        for i in range(a0):  # i = a0 has no origin pole
            n_pole = a0 - i
            c = 0.25 + lam + a0 + i
            d = den_series(n_pole - 1)
            p = [np.ones(t.shape)]
            for k in range(1, n_pole):
                p.append(p[k - 1] * (c + k - 1) / k * big_x)
            coeff = np.zeros(t.shape)
            for j in range(n_pole + 1):
                b = math.comb(n_pole, j) * (-1.0) ** (n_pole - j)
                for k in range(n_pole - j):
                    l = n_pole - 1 - j - k
                    coeff += b * p[k] * d[l]
            node = s_eff**a0 * coeff
            total += wa0 * kap[i] * mult[i] * float(np.sum(w * tu_eta**i * node))
    return pt.mu * pt.xi**lam * prefactor * total


def gf_verify_order(params, lam, weights, pt, order_n, grid=None, op_power=2):
    """Compute both sides of the order-n identity and report the gap."""
    lhs, tail = _lhs_with_tail(params, lam, weights, pt, order_n, grid, op_power)
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
    if n_max not in (0, 1, 2):
        raise InvalidParameterError(f"n_max must be 0, 1, or 2, got {n_max}")
    s = weights.s
    if n_max > s.K:
        raise InvalidParameterError(f"n_max {n_max} exceeds chain length K={s.K}")

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
