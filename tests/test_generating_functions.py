"""Tests for the weighted-sum generating identities: the bottom series, the
closed-form kernels, and order-by-order left/right-hand-side assemblies."""

import math

import numpy as np
import pytest

from lame3trf.scalar_kernels import (
    InvalidParameterError,
    SingularValueError,
    gauss_2f1,
    pochhammer,
)
from lame3trf.lame_series import EvaluationPoint, LameParams
from lame3trf.integral_forms import (
    AlphaChain,
    SParameters,
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


# ---------------------------------------------------------------- GFWeights

def test_gfweights_validation():
    GFWeights(0.75, S_STD, 30, 2)
    with pytest.raises(InvalidParameterError):
        GFWeights(-0.5, S_STD, 30, 2)
    with pytest.raises(InvalidParameterError):
        GFWeights(0.75, S_STD, 0, 2)
    with pytest.raises(InvalidParameterError):
        GFWeights(0.75, S_STD, 30, 3)  # K does not match len(s) - 1


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
