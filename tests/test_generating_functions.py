"""Tests for the weighted-sum generating identities: the bottom series, the
closed-form kernels, and order-by-order left/right-hand-side assemblies."""

import itertools
import math

import numpy as np
import pytest

from lame3trf.scalar_kernels import (
    ConvergenceError,
    InvalidParameterError,
    SingularValueError,
    gauss_2f1,
    pochhammer,
)
from lame3trf.lame_series import EvaluationPoint, LameParams
from lame3trf import generating_functions
from lame3trf.integral_forms import (
    AlphaChain,
    SParameters,
    base_series_coefficients,
    diag_operator_multipliers,
    make_quadrature_grid,
    s_partial_product,
    y_n_term_closed,
)
from lame3trf.generating_functions import (
    GFOrderReport,
    GFWeights,
    gf_lhs_order,
    gf_order1_origin_residue,
    gf_remark,
    gf_rhs_order,
    gf_verify_order,
    kernel_A,
    kernel_B,
    kernel_gamma,
    kernel_psi,
    upsilon,
)

STD = LameParams(rho=0.5, alpha=3.0, h=1.0)
PT = EvaluationPoint.from_xi(0.1, rho=0.5)
S_STD = SParameters((0.3, 0.2, 0.1))


def weighted_sum_oracle(gamma, s, x, a_max, lam):
    """Pochhammer-weighted truncated sum of terminating hypergeometrics."""
    total = 0.0
    gw = 1.0
    for a0 in range(a_max + 1):
        f = gauss_2f1(-float(a0), a0 + 0.25 + lam, 0.75 + lam, x)
        total += gw * s**a0 * f
        gw *= (gamma + a0) / (a0 + 1)
    return total


# ------------------------------------------ reference sums (earlier formulas)
#
# The chain sums as they were first written: a brute-force order-1 loop, the
# origin residue by a double loop over binomial and series terms, and the
# order-2 left side chain by chain through y_n_term_closed.  They are slow but
# share no table, recurrence or reordering with the library's level tables.

def ref_chain_weights(gamma, a_max):
    """Pochhammer weights (gamma)_a/a! for a = 0..a_max, as a plain list."""
    gw = [1.0]
    for a in range(a_max):
        gw.append(gw[-1] * (gamma + a) / (a + 1))
    return gw


def ref_trailing(s, order_n, a_max):
    """Trailing geometric sums over s_(order_n+1)..s_K, as a plain list."""
    table = [1.0] * (a_max + 1)
    for m in range(s.K, order_n, -1):
        table = [sum(s[m] ** b * table[b] for b in range(a, a_max + 1))
                 for a in range(a_max + 1)]
    return table


def ref_resummed_factor(s):
    """prod_{k >= 2} 1/(1 - s_k...s_K) of the order-1 right side and residue."""
    out = 1.0
    for k in range(2, s.K + 1):
        out /= 1 - s_partial_product(s, k, s.K)
    return out


def _f21_terminating(n_top, c, x):
    """Terminating 2F1(-n_top, c; 1; x) on an ndarray argument, by Horner steps."""
    acc = np.ones_like(x)
    term = np.ones_like(x)
    for k in range(1, n_top + 1):
        term = term * (((-n_top + k - 1) * (c + k - 1)) / (k * k)) * x
        acc = acc + term
    return acc


def ref_mesh(rule):
    t, u = np.meshgrid(rule.t_nodes, rule.u_nodes, indexing="ij")
    return t, u, np.outer(rule.t_weights, rule.u_weights)


def ref_lhs_order1(params, lam, weights, pt, grid, op_power):
    """Order-1 left side: suffix sums over alpha_1, one 2F1 block per (a0, i)."""
    s, a_max = weights.s, weights.A_max
    gw = ref_chain_weights(weights.gamma, a_max)
    trailing = ref_trailing(s, 1, a_max)
    t, u, w = ref_mesh(grid.levels[0])
    big_x = pt.eta * ((1 - t) * (1 - u))
    tu_eta = t * u * pt.eta
    mult = diag_operator_multipliers(params, lam / 2, op_power, a_max)
    suffix = [None] * (a_max + 1)
    acc = np.zeros(t.shape)
    for a0 in range(a_max, -1, -1):
        for i in range(a0 + 1):
            row = s[1] ** a0 * trailing[a0] * _f21_terminating(
                a0 - i, 1.25 + lam + a0 + i, big_x
            )
            suffix[i] = row if suffix[i] is None else suffix[i] + row
        if s[0] == 0 and a0 > 0:
            continue
        kap = base_series_coefficients(a0, lam)
        inner = np.zeros(t.shape)
        for i in range(a0 + 1):
            inner += kap[i] * mult[i] * tu_eta**i * suffix[i]
        acc += gw[a0] * s[0] ** a0 * inner
    return pt.mu * pt.xi**lam * float(np.sum(w * acc))


def ref_origin_residue(params, lam, weights, pt, grid, op_power):
    """Order-1 origin residue: coefficient of v^(n-1) by a double (j, k) loop."""
    s, a_max = weights.s, weights.A_max
    s_eff = s_partial_product(s, 1, s.K)
    prefactor = ref_resummed_factor(s)
    gw = ref_chain_weights(weights.gamma, a_max)
    mult = diag_operator_multipliers(params, lam / 2, op_power, a_max)
    t, u, w = ref_mesh(grid.levels[0])
    big_x = pt.eta * (1 - t) * (1 - u)
    tu_eta = t * u * pt.eta

    def den_series(k_top):  # 1/(S + (1-S)v - X v^2) in powers of v
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
        for i in range(a0):
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
                    coeff += b * p[k] * d[n_pole - 1 - j - k]
            node = s_eff**a0 * coeff
            total += wa0 * kap[i] * mult[i] * float(np.sum(w * tu_eta**i * node))
    return pt.mu * pt.xi**lam * prefactor * total


def ref_lhs_order2(params, lam, weights, pt, grid, op_power):
    """Order-2 left side chain by chain over a0 <= a1 <= a2."""
    s, a_max = weights.s, weights.A_max
    gw = ref_chain_weights(weights.gamma, a_max)
    trailing = ref_trailing(s, 2, a_max)
    total = 0.0
    for a0 in range(a_max + 1):
        for a1 in range(a0, a_max + 1):
            for a2 in range(a1, a_max + 1):
                weight = gw[a0] * s[0] ** a0 * s[1] ** a1 * s[2] ** a2 * trailing[a2]
                if weight != 0:
                    total += weight * y_n_term_closed(
                        params, lam, 2, AlphaChain((a0, a1, a2)), pt, grid, op_power
                    )
    return total


REF_CASES = [
    (lam, opp, a_max, s)
    for lam in (0.0, 0.5)
    for opp in (1, 2)
    for a_max in (1, 2, 7, 18)
    for s in ((0.3, 0.2, 0.1), (0.0, 0.2, 0.1))
]


def _ref_args(lam, a_max, s, n_levels, nodes):
    weights = GFWeights(lam + 0.75, SParameters(s + (0.05,)), a_max, 3)
    pt = EvaluationPoint.from_xi(0.2, rho=0.6)
    return weights, pt, make_quadrature_grid(lam, n_levels, nodes=nodes, contour_m=256)


@pytest.mark.parametrize("lam,opp,a_max,s", REF_CASES)
def test_order1_tables_match_reference_sums(lam, opp, a_max, s):
    weights, pt, grid = _ref_args(lam, a_max, s, 1, 24)
    lhs = gf_lhs_order(STD, lam, weights, pt, 1, grid=grid, op_power=opp)
    assert lhs == pytest.approx(
        ref_lhs_order1(STD, lam, weights, pt, grid, opp), rel=1e-12, abs=1e-300
    )
    fix = gf_order1_origin_residue(STD, lam, weights, pt, grid, opp)
    assert fix == pytest.approx(
        ref_origin_residue(STD, lam, weights, pt, grid, opp), rel=1e-12, abs=1e-300
    )


# the chain sum at A_max = 18 takes seconds per case unless s0 = 0 prunes it
@pytest.mark.parametrize("lam,opp,a_max,s",
                         [c for c in REF_CASES if c[2] <= 7 or c[3][0] == 0])
def test_order2_tables_match_chain_sum(lam, opp, a_max, s):
    weights, pt, grid = _ref_args(lam, a_max, s, 2, 16)
    lhs = gf_lhs_order(STD, lam, weights, pt, 2, grid=grid, op_power=opp)
    assert lhs == pytest.approx(
        ref_lhs_order2(STD, lam, weights, pt, grid, opp), rel=1e-12
    )


def oracle_chain_sum(params, lam, weights, pt, order_n, op_power):
    """Order-n left side as the 40-digit chain sum over alpha_0 <= ... <= alpha_n."""
    from chain_oracle import mp_chain_term

    s, a_max = weights.s, weights.A_max
    gw = ref_chain_weights(weights.gamma, a_max)
    trailing = ref_trailing(s, order_n, a_max)
    total = 0
    for chain in itertools.combinations_with_replacement(range(a_max + 1), order_n + 1):
        weight = gw[chain[0]] * trailing[chain[-1]]
        for k, a in enumerate(chain):
            weight *= s[k] ** a
        if weight != 0:
            total += weight * mp_chain_term(params, lam, chain, pt, op_power)
    return float(total)


@pytest.mark.parametrize("order_n", [1, 2])
@pytest.mark.parametrize("lam,opp,a_max,s", [c for c in REF_CASES if c[2] <= 5])
def test_lhs_matches_mpmath_chain_sum(order_n, lam, opp, a_max, s):
    pytest.importorskip("mpmath")
    weights, pt, _ = _ref_args(lam, a_max, s, order_n, 16)
    lhs = gf_lhs_order(STD, lam, weights, pt, order_n, op_power=opp)
    assert lhs == pytest.approx(
        oracle_chain_sum(STD, lam, weights, pt, order_n, opp), rel=1e-13, abs=0
    )


def oracle_origin_residue(params, lam, weights, pt, op_power):
    """Order-1 origin residue as minus the 40-digit chain sum over alpha_1 < alpha_0.

    The oracle's level sum keeps only the inner powers i <= alpha_1 of these
    chains, the part that the resummed right side adds and the left side lacks.
    """
    from chain_oracle import mp_chain_term

    s, a_max = weights.s, weights.A_max
    gw = ref_chain_weights(weights.gamma, a_max)
    s_eff = s_partial_product(s, 1, s.K)
    total = 0
    for a0 in range(a_max + 1):
        for a1 in range(a0):
            weight = gw[a0] * s[0] ** a0 * s_eff**a1
            if weight != 0:
                total += weight * mp_chain_term(params, lam, (a0, a1), pt, op_power)
    return -ref_resummed_factor(s) * float(total)


@pytest.mark.parametrize("rho,xi", [(0.5, 0.1), (0.9, 0.9)])
@pytest.mark.parametrize("lam", [0.0, 0.5])
@pytest.mark.parametrize("s", [(0.3, 0.2, 0.1), (0.3, 0.0, 0.1)])
def test_origin_residue_matches_mpmath_chain_sum(rho, xi, lam, s):
    pytest.importorskip("mpmath")
    params = LameParams(rho=rho, alpha=3.0, h=1.0)
    pt = EvaluationPoint.from_xi(xi, rho=rho)
    weights = GFWeights(lam + 0.75, SParameters(s), 7, 2)
    for opp in (1, 2):
        got = gf_order1_origin_residue(params, lam, weights, pt, op_power=opp)
        want = oracle_origin_residue(params, lam, weights, pt, opp)
        assert got == pytest.approx(want, rel=1e-14, abs=0), opp


def test_origin_residue_takes_no_quadrature():
    # the residue is an exact level map: a passed grid is only checked
    w = GFWeights(0.75, S_STD, 24, 2)
    values = {gf_order1_origin_residue(STD, 0.0, w, PT, grid, 1).hex()
              for grid in (None, make_quadrature_grid(0.0, 1, nodes=16),
                           make_quadrature_grid(0.0, 1, nodes=64))}
    assert len(values) == 1
    with pytest.raises(InvalidParameterError, match="indicial exponent"):
        gf_order1_origin_residue(STD, 0.0, w, PT, make_quadrature_grid(0.5, 1, nodes=16))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_order1_corrected_identity_at_large_eta(lam):
    # eta = -0.656 at (rho, xi) = (0.9, 0.9)
    params = LameParams(rho=0.9, alpha=3.0, h=1.0)
    pt = EvaluationPoint.from_xi(0.9, rho=0.9)
    weights = GFWeights(lam + 0.75, S_STD, 24, 2)
    grid = make_quadrature_grid(lam, 1, nodes=64)
    for opp in (1, 2):
        lhs = gf_lhs_order(params, lam, weights, pt, 1, grid=grid, op_power=opp)
        rhs = gf_rhs_order(params, lam, weights, pt, 1, grid, opp)
        fix = gf_order1_origin_residue(params, lam, weights, pt, grid, opp)
        assert abs(lhs - rhs - fix) <= 1e-12, opp


def test_order2_tail_matches_mpmath_chain_term():
    # the tail of `verify gf-order2` at its defaults is A_max times the
    # weighted all-A_max chain term (10, 10, 10)
    pytest.importorskip("mpmath")
    from chain_oracle import mp_chain_term

    w = GFWeights(0.75, S_STD, 10, 2)
    grid = make_quadrature_grid(0.0, 2, nodes=32, contour_m=256)
    rep = gf_verify_order(STD, 0.0, w, PT, 2, grid=grid)
    weight = ref_chain_weights(0.75, 10)[10] * s_partial_product(S_STD, 0, 2) ** 10
    want = abs(weight * mp_chain_term(STD, 0.0, (10, 10, 10), PT, 2)) * 10
    assert rep.truncation_estimate == pytest.approx(float(want), rel=1e-14, abs=0)


def test_order2_lhs_sums_no_chain_terms(monkeypatch):
    # the level tables replace the 220 chain terms at A_max = 9; only the
    # truncation estimate of gf_verify_order evaluates one (the all-9 chain)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return y_n_term_closed(*args, **kwargs)

    monkeypatch.setattr(generating_functions, "y_n_term_closed", counted)
    w = GFWeights(0.75, S_STD, 9, 2)
    grid = make_quadrature_grid(0.0, 2, nodes=16, contour_m=256)
    gf_lhs_order(STD, 0.0, w, PT, 2, grid=grid)
    assert calls == []
    gf_verify_order(STD, 0.0, w, PT, 2, grid=grid)
    assert calls == [AlphaChain((9, 9, 9))]


# ---------------------------------------------------------------- GFWeights

def test_gfweights_validation():
    GFWeights(0.75, S_STD, 30, 2)
    with pytest.raises(InvalidParameterError):
        GFWeights(-0.5, S_STD, 30, 2)
    with pytest.raises(InvalidParameterError):
        GFWeights(0.75, S_STD, 0, 2)
    with pytest.raises(InvalidParameterError):
        GFWeights(0.75, S_STD, 30, 3)  # K does not match len(s) - 1
    for gamma in (math.inf, math.nan):
        with pytest.raises(InvalidParameterError, match="finite"):
            GFWeights(gamma, S_STD, 30, 2)


# ------------------------------------------------------------------ upsilon

def test_upsilon_zero_weight_exact():
    assert upsilon(0.0, 0.75, 0.0, -0.3, PT, 40) == 1.0
    assert upsilon(0.5, 1.25, 0.0, -0.3, PT, 40) == pytest.approx(0.1**0.5, rel=1e-15)


def test_upsilon_x_zero_binomial():
    for gamma in (0.75, 1.25):
        for s in (0.1, 0.3, -0.3):
            got = upsilon(0.0, gamma, s, 0.0, PT, 80)
            assert got == pytest.approx((1 - s) ** (-gamma), rel=1e-13)


def test_upsilon_matches_kernel_a():
    # first-kind family: the bottom series resums to the closed radical form
    for s in (0.1, 0.2, 0.3):
        for x in (-0.2, -0.05, 0.0):
            got = upsilon(0.0, 0.75, s, x, PT, 80)
            want = 2.0**-0.75 * kernel_A(s, x)
            assert got == pytest.approx(want, rel=1e-9)


def test_upsilon_second_kind_matches_kernel_b():
    for s in (0.1, 0.3):
        for x in (-0.2, -0.05):
            got = upsilon(0.5, 1.25, s, x, PT, 80)
            want = 0.1**0.5 * 2.0**-0.25 * kernel_B(s, x)
            assert got == pytest.approx(want, rel=1e-9)


def test_upsilon_validates_weight():
    with pytest.raises(InvalidParameterError):
        upsilon(0.0, 0.75, 1.0, -0.3, PT, 40)


# ------------------------------------------------------------ kernels A, B

def test_kernel_a_trivial_and_reduction():
    assert kernel_A(0.0, -0.3) == pytest.approx(2.0**0.75, rel=1e-14)
    for s in (0.1, 0.3):
        assert kernel_A(s, 0.0) == pytest.approx(
            2.0**0.75 * (1 - s) ** -0.75, rel=1e-12
        )


def test_kernel_b_trivial_and_reduction():
    assert kernel_B(0.0, -0.3) == pytest.approx(2.0**0.25, rel=1e-14)
    for s in (0.1, 0.3):
        assert kernel_B(s, 0.0) == pytest.approx(
            2.0**0.25 * (1 - s) ** -1.25, rel=1e-12
        )


def test_kernel_a_truncated_sum_oracle():
    for s in (0.1, 0.2, 0.3):
        for x in (-0.2, -0.1, -0.0025, 0.0):
            want = weighted_sum_oracle(0.75, s, x, 60, 0.0)
            got = 2.0**-0.75 * kernel_A(s, x)
            assert got == pytest.approx(want, rel=1e-9)


def test_kernel_b_truncated_sum_oracle():
    for s in (0.1, 0.2, 0.3):
        for x in (-0.2, -0.1, -0.0025, 0.0):
            want = weighted_sum_oracle(1.25, s, x, 60, 0.5)
            got = 2.0**-0.25 * kernel_B(s, x)
            assert got == pytest.approx(want, rel=1e-9)


def test_kernel_singular_radicand_raises():
    # s=0.5, x=-0.125 zeroes the radicand exactly in float arithmetic
    with pytest.raises(SingularValueError):
        kernel_A(0.5, -0.125)
    with pytest.raises(SingularValueError):
        kernel_B(0.5, -0.125)


# -------------------------------------------------------- kernels Gamma, Psi

def test_kernel_gamma_reductions():
    assert kernel_gamma(1, 0, 0.0, 0.3, 0.4, -0.1) == pytest.approx(1.0, rel=1e-15)
    for s in (0.1, 0.3):
        want = 1.0 / (1 - s)
        assert kernel_gamma(1, 0, s, 0.3, 0.4, 0.0) == pytest.approx(want, rel=1e-14)
        # t=1 or u=1 kills the x dependence
        assert kernel_gamma(1, 0, s, 1.0, 0.4, -0.1) == pytest.approx(want, rel=1e-14)
        assert kernel_gamma(1, 0, s, 0.3, 1.0, -0.1) == pytest.approx(want, rel=1e-14)


def test_kernel_psi_reductions():
    assert kernel_psi(1, 0, 0.0, 0.3, 0.4, -0.1) == pytest.approx(1.0, rel=1e-15)
    for s in (0.1, 0.3):
        want = 1.0 / (1 - s)
        assert kernel_psi(2, 1, s, 0.3, 0.4, 0.0) == pytest.approx(want, rel=1e-14)
        assert kernel_psi(1, 0, s, 0.3, 1.0, -0.1) == pytest.approx(want, rel=1e-14)


def test_kernel_exponent_semantics():
    s, t, u, x = 0.2, 0.3, 0.4, -0.1
    folded = x * (1 - t) * (1 - u)
    R = math.sqrt(s * s - 2 * (1 - 2 * folded) * s + 1)
    mid = (1 + s + R) / 2
    # gamma family exponent: (level_n - k_offset) - 3/4
    assert kernel_gamma(1, 0, s, t, u, x) == pytest.approx(
        mid**-0.25 / R, rel=1e-14
    )
    assert kernel_gamma(3, 1, s, t, u, x) == pytest.approx(
        mid**-1.25 / R, rel=1e-14
    )
    # psi family exponent: (level_n - k_offset) - 1/4
    assert kernel_psi(2, 0, s, t, u, x) == pytest.approx(mid**-1.75 / R, rel=1e-14)


def test_kernels_positive_on_box():
    for s in (0.05, 0.2, 0.3):
        for x in (-0.2, -0.01):
            va = kernel_A(s, x)
            vb = kernel_B(s, x)
            vg = kernel_gamma(1, 0, s, 0.3, 0.7, x)
            vp = kernel_psi(1, 0, s, 0.3, 0.7, x)
            for v in (va, vb, vg, vp):
                assert v > 0


# ------------------------------------------------------------- gf_lhs_order

def test_gf_lhs_order0_closed_form():
    w = GFWeights(0.75, S_STD, 60, 2)
    got = gf_lhs_order(STD, 0.0, w, PT, 0)
    s0, s1, s2 = S_STD.values
    total = 0.0
    gw = 1.0
    for a0 in range(61):
        y0 = gauss_2f1(-float(a0), a0 + 0.25, 0.75, PT.eta)
        total += gw * (s0 * s1 * s2) ** a0 * y0
        gw *= (0.75 + a0) / (a0 + 1)
    want = total / ((1 - s2) * (1 - s1 * s2))
    assert got == pytest.approx(want, rel=1e-12)


def test_gf_lhs_all_s_zero():
    w = GFWeights(0.75, SParameters((0.0, 0.0, 0.0)), 20, 2)
    assert gf_lhs_order(STD, 0.0, w, PT, 0) == pytest.approx(1.0, rel=1e-15)
    w2 = GFWeights(1.25, SParameters((0.0, 0.0, 0.0)), 20, 2)
    assert gf_lhs_order(STD, 0.5, w2, PT, 0) == pytest.approx(0.1**0.5, rel=1e-15)


def test_gf_lhs_order1_s1_zero_degenerate():
    # s_1 = 0 forces alpha_0 = alpha_1 = 0; only the (0,0) chain survives
    s = SParameters((0.3, 0.0, 0.1))
    w = GFWeights(0.75, s, 20, 2)
    grid = make_quadrature_grid(0.0, 1, nodes=32, contour_m=256)
    got = gf_lhs_order(STD, 0.0, w, PT, 1, grid=grid)
    t2 = sum(0.1**b for b in range(21))
    want = t2 * y_n_term_closed(STD, 0.0, 1, AlphaChain((0, 0)), PT, grid, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_gf_lhs_order1_pins_to_integral_terms():
    # the fast resummation must equal the brute chain-by-chain sum
    a_max = 6
    s = S_STD
    grid = make_quadrature_grid(0.0, 1, nodes=32, contour_m=256)
    w = GFWeights(0.75, s, a_max, 2)
    got = gf_lhs_order(STD, 0.0, w, PT, 1, grid=grid)
    t2 = [sum(s[2] ** b for b in range(a1, a_max + 1)) for a1 in range(a_max + 1)]
    brute = 0.0
    gw = 1.0
    for a0 in range(a_max + 1):
        for a1 in range(a0, a_max + 1):
            y1 = y_n_term_closed(STD, 0.0, 1, AlphaChain((a0, a1)), PT, grid, 2)
            brute += gw * s[0] ** a0 * s[1] ** a1 * t2[a1] * y1
        gw *= (0.75 + a0) / (a0 + 1)
    assert got == pytest.approx(brute, rel=1e-10)


def test_gf_lhs_order2_single_chain():
    s = SParameters((0.0, 0.0, 0.0))
    w = GFWeights(0.75, s, 10, 2)
    grid = make_quadrature_grid(0.0, 2, nodes=32, contour_m=256)
    got = gf_lhs_order(STD, 0.0, w, PT, 2, grid=grid)
    want = y_n_term_closed(STD, 0.0, 2, AlphaChain((0, 0, 0)), PT, grid, 2)
    assert got == pytest.approx(want, rel=1e-12)


def test_gf_lhs_order_exceeding_k_rejected():
    w = GFWeights(0.75, SParameters((0.3, 0.2)), 10, 1)
    with pytest.raises(InvalidParameterError):
        gf_lhs_order(STD, 0.0, w, PT, 2)


@pytest.mark.parametrize("order_n", [3, -1])
def test_order_outside_0_to_2_rejected(order_n):
    # K = 3 leaves room for a chain of order 3, which no left side sums
    w = GFWeights(0.75, SParameters((0.3, 0.2, 0.1, 0.05)), 5, 3)
    grid = make_quadrature_grid(0.0, 3, nodes=16, contour_m=256)
    for fn in (gf_lhs_order, gf_verify_order, gf_rhs_order):
        with pytest.raises(InvalidParameterError, match="order must be 0, 1, or 2"):
            fn(STD, 0.0, w, PT, order_n, grid)


# ------------------------------------------------------------- gf_rhs_order

def test_gf_rhs_order0_matches_lhs():
    for gamma, lam in ((0.75, 0.0), (1.25, 0.5), (1.25, 0.0), (0.75, 0.5)):
        w = GFWeights(gamma, S_STD, 60, 2)
        lhs = gf_lhs_order(STD, lam, w, PT, 0)
        rhs = gf_rhs_order(STD, lam, w, PT, 0)
        assert rhs == pytest.approx(lhs, rel=1e-10)


def test_gf_rhs_order0_all_s_zero():
    w = GFWeights(0.75, SParameters((0.0, 0.0, 0.0)), 20, 2)
    assert gf_rhs_order(STD, 0.0, w, PT, 0) == pytest.approx(1.0, rel=1e-14)


def test_gf_order1_corrected_identity():
    # adding the origin residues dropped by the closed-form reduction makes
    # the order-1 identity exact; this validates both assemblies end to end
    a_max = 10
    w = GFWeights(0.75, S_STD, a_max, 2)
    w2 = GFWeights(1.25, S_STD, a_max, 2)
    for lam, weights in ((0.0, w), (0.5, w2)):
        grid = make_quadrature_grid(lam, 1, nodes=48, contour_m=256)
        for opp in (1, 2):
            lhs = gf_lhs_order(STD, lam, weights, PT, 1, grid=grid, op_power=opp)
            rhs = gf_rhs_order(STD, lam, weights, PT, 1, grid, opp)
            fix = gf_order1_origin_residue(STD, lam, weights, PT, grid, opp)
            assert lhs == pytest.approx(rhs + fix, rel=1e-9, abs=1e-12)


def test_gf_order1_residue_at_zero_effective_weight():
    # s1 = 0 makes S = s1 s2 = 0; the scaled series keeps the residue finite,
    # it closes the identity and joins the s1 -> 0 limit continuously
    grid = make_quadrature_grid(0.0, 1, nodes=32, contour_m=256)
    fixes = []
    for s1 in (0.0, 1e-6):
        w = GFWeights(0.75, SParameters((0.3, s1, 0.1)), 12, 2)
        lhs = gf_lhs_order(STD, 0.0, w, PT, 1, grid=grid)
        rhs = gf_rhs_order(STD, 0.0, w, PT, 1, grid)
        fixes.append(gf_order1_origin_residue(STD, 0.0, w, PT, grid))
        assert abs(lhs - rhs - fixes[-1]) < 1e-9
    assert fixes[0] == pytest.approx(0.01703898, rel=1e-6)
    assert fixes[0] == pytest.approx(fixes[1], rel=1e-6)


def test_gf_order1_as_written_gap_is_large():
    # the as-written order-1 identity misses the origin residues; the gap on
    # the standard box sits near 1e-2 for both operator powers
    w = GFWeights(0.75, S_STD, 20, 2)
    grid = make_quadrature_grid(0.0, 1, nodes=48, contour_m=256)
    for opp in (1, 2):
        rep = gf_verify_order(STD, 0.0, w, PT, 1, grid=grid, op_power=opp)
        assert 1e-3 < rep.gap < 1e-1


def test_gf_order1_s0_zero_passes():
    # s_0 = 0 keeps only the diagonal alpha_0 = 0 term, which has no origin
    # residue, so the as-written identity holds
    s = SParameters((0.0, 0.2, 0.1))
    w = GFWeights(0.75, s, 20, 2)
    grid = make_quadrature_grid(0.0, 1, nodes=48, contour_m=256)
    rep = gf_verify_order(STD, 0.0, w, PT, 1, grid=grid)
    assert rep.gap < 1e-10


def test_gf_verify_report_fields():
    w = GFWeights(0.75, S_STD, 40, 2)
    rep = gf_verify_order(STD, 0.0, w, PT, 0)
    assert isinstance(rep, GFOrderReport)
    assert rep.order_n == 0
    assert rep.gap >= 0
    assert rep.truncation_estimate >= 0
    assert rep.passes()
    assert not rep.passes(tolerance=1e-30)


def test_gf_order2_all_s_zero_identity():
    # with every weight zero only the diagonal (0,0,0) chain contributes and
    # no origin residues are dropped, so order 2 matches exactly
    s = SParameters((0.0, 0.0, 0.0))
    w = GFWeights(0.75, s, 10, 2)
    grid = make_quadrature_grid(0.0, 2, nodes=32, contour_m=256)
    lhs = gf_lhs_order(STD, 0.0, w, PT, 2, grid=grid)
    rhs = gf_rhs_order(STD, 0.0, w, PT, 2, grid)
    assert rhs == pytest.approx(lhs, rel=1e-9)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_gf_order2_closes_when_only_level1_is_weighted(lam):
    # s = (0, s1, 0) has no origin residue; summing alpha_2 >= alpha_1 first
    # carries s2^alpha_1 into level 1, so level 1 runs at s1 s2
    w = GFWeights(lam + 0.75, SParameters((0.0, 0.2, 0.0)), 12, 2)
    grid = make_quadrature_grid(lam, 2, nodes=32, contour_m=256)
    for opp in (1, 2):
        assert gf_verify_order(STD, lam, w, PT, 2, grid=grid, op_power=opp).gap <= 1e-15


@pytest.mark.filterwarnings("error::numpy.exceptions.ComplexWarning")
@pytest.mark.parametrize("order_n", [1, 2])
def test_gf_rhs_off_branch_raises(order_n):
    # at eta = -0.656 the kernel radicand (1 - S)^2 + 4 S X is negative on
    # part of the top-level mesh; the closed form does not hold there
    params = LameParams(rho=0.9, alpha=3.0, h=1.0)
    pt = EvaluationPoint.from_xi(0.9, rho=0.9)
    w = GFWeights(0.75, SParameters((0.9, 0.9, 0.5)), 10, 2)
    grid = make_quadrature_grid(0.0, order_n, nodes=32, contour_m=256)
    with pytest.raises(ConvergenceError, match="right side is complex"):
        gf_rhs_order(params, 0.0, w, pt, order_n, grid)


# ---------------------------------------------------------------- gf_remark

def test_gf_remark_trivial_values():
    s = SParameters((0.0, 0.0, 0.0))
    w1 = GFWeights(0.75, s, 10, 2)
    w2 = GFWeights(1.25, s, 10, 2)
    assert gf_remark("first", STD, w1, PT, None, 0) == pytest.approx(1.0, rel=1e-14)
    assert gf_remark("second", STD, w2, PT, None, 0) == pytest.approx(
        0.1**0.5, rel=1e-14
    )


def test_gf_remark_matches_generic():
    # closed-kernel assembly vs generic series assembly, first and second kind
    for kind, lam, gamma in (("first", 0.0, 0.75), ("second", 0.5, 1.25)):
        w = GFWeights(gamma, S_STD, 40, 2)
        for n_max in (0, 1, 2):
            grid = (
                make_quadrature_grid(lam, max(n_max, 1), nodes=48, contour_m=256)
                if n_max >= 1
                else None
            )
            got = gf_remark(kind, STD, w, PT, grid, n_max)
            want = sum(
                gf_rhs_order(STD, lam, w, PT, n, grid) for n in range(n_max + 1)
            )
            assert got == pytest.approx(want, rel=1e-10)


def test_gf_remark_kind_validation():
    w = GFWeights(0.75, S_STD, 10, 2)
    with pytest.raises(InvalidParameterError):
        gf_remark("third", STD, w, PT, None, 0)
    wbad = GFWeights(1.25, S_STD, 10, 2)  # gamma pinned to 3/4 for first kind
    with pytest.raises(InvalidParameterError):
        gf_remark("first", STD, wbad, PT, None, 0)
    with pytest.raises(InvalidParameterError):
        gf_remark("first", STD, w, PT, None, 3)  # n_max beyond 2
