"""Tests for scalar special-function kernels.

Expected values were frozen against independent references (closed forms
evaluated by hand, scipy.special cross-checks) before implementation.
"""

import math

import numpy as np
import pytest
from scipy.special import ellipj, eval_jacobi

from lame3trf.scalar_kernels import (
    ConvergenceError,
    InvalidParameterError,
    SingularValueError,
    gauss_2f1,
    jacobi_gf_closed,
    jacobi_polynomial,
    jacobi_sn,
    jacobi_sn_cn_dn,
    lemma1_identity,
    lemma1_radius,
    pochhammer,
)


# ---------------------------------------------------------------- pochhammer

def test_pochhammer_zero_length():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(-2.0, 0) == 1.0
    assert pochhammer(1.5 + 0.5j, 0) == 1.0


def test_pochhammer_known_values():
    assert pochhammer(1.0, 4) == 24.0
    assert pochhammer(0.75, 2) == pytest.approx(21.0 / 16.0, rel=0, abs=0)
    assert pochhammer(-3.0, 5) == 0.0  # crosses zero at x+3


def test_pochhammer_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
        n = int(rng.integers(0, 12))
        lhs = pochhammer(x, n + 1)
        rhs = pochhammer(x, n) * (x + n)
        assert lhs == pytest.approx(rhs, rel=1e-14, abs=1e-300)


# ----------------------------------------------------------------- gauss_2f1

def test_gauss_2f1_trivial_cases():
    assert gauss_2f1(0.0, 2.3, 1.7, 0.31) == 1.0
    assert gauss_2f1(1.1, 2.3, 1.7, 0.0) == 1.0
    # one-term truncation: 1 - b*x/c
    b, c, x = 2.3, 1.7, 0.31
    assert gauss_2f1(-1.0, b, c, x) == pytest.approx(1 - b * x / c, rel=1e-15)


def test_gauss_2f1_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        c = rng.uniform(0.5, 3)
        x = rng.uniform(-0.8, 0.8)
        assert gauss_2f1(a, b, c, x) == pytest.approx(
            gauss_2f1(b, a, c, x), rel=1e-12
        )


def test_gauss_2f1_terminating_outside_disk():
    # polynomial case is exact even for |x| >= 1
    val = gauss_2f1(-2.0, 1.5, 0.75, 3.0)
    # 1 + (-2)(1.5)/0.75*3 + (-2)(-1)(1.5)(2.5)/(0.75*1.75*2)*9
    expect = 1.0 + (-2 * 1.5 / 0.75) * 3.0 + (2 * 1.5 * 2.5 / (0.75 * 1.75 * 2)) * 9.0
    assert val == pytest.approx(expect, rel=1e-14)


def test_gauss_2f1_nonterminating_outside_disk_raises():
    with pytest.raises(ConvergenceError):
        gauss_2f1(0.5, 1.0, 1.5, 1.2)


def test_gauss_2f1_denominator_pole_raises():
    # c = -1 hits a zero denominator at k = 2 before the a = -3 termination
    with pytest.raises(InvalidParameterError):
        gauss_2f1(-3.0, 1.0, -1.0, 0.5)


def test_gauss_2f1_pole_after_termination_ok():
    # c = -1 but the series terminates at k = 1, before the pole bites
    b, x = 2.0, 0.5
    assert gauss_2f1(-1.0, b, -1.0, x) == pytest.approx(1 + b * x, rel=1e-14)


def test_gauss_2f1_against_scipy():
    from scipy.special import hyp2f1

    from lame3trf.scalar_kernels import ToleranceConfig

    tight = ToleranceConfig(abs_tol=1e-13, rel_tol=1e-13, max_terms=400)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = rng.uniform(-2, 2)
        b = rng.uniform(-2, 2)
        c = rng.uniform(0.6, 3)
        x = rng.uniform(-0.7, 0.7)
        assert gauss_2f1(a, b, c, x, tight) == pytest.approx(
            float(hyp2f1(a, b, c, x)), rel=1e-10, abs=1e-12
        )


# ---------------------------------------------------- jacobi_polynomial

def test_jacobi_polynomial_degree_zero_and_one():
    assert jacobi_polynomial(0, 0.3, 0.7, 0.25) == 1.0
    a, b, x = 0.3, 0.7, 0.25
    expect = (a + 1) + (a + b + 2) * (x - 1) / 2
    assert jacobi_polynomial(1, a, b, x) == pytest.approx(expect, rel=1e-15)
    assert expect == pytest.approx(0.175, rel=1e-14)  # frozen


def test_jacobi_polynomial_frozen_value():
    # frozen against scipy.special.eval_jacobi
    assert jacobi_polynomial(3, -0.25, -0.5, 0.4) == pytest.approx(
        -0.36155468749999997, rel=1e-13
    )


def test_jacobi_polynomial_matches_scipy_grid():
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(0, 9))
        a = rng.uniform(-0.6, 1.5)
        b = rng.uniform(-0.6, 1.5)
        x = rng.uniform(-1, 1)
        assert jacobi_polynomial(n, a, b, x) == pytest.approx(
            float(eval_jacobi(n, a, b, x)), rel=1e-10, abs=1e-12
        )


def test_jacobi_polynomial_matches_mpmath_to_degree_60():
    # within 1e-13 max(|P|, 1), plus one ulp of x times |x P'(x)|: near
    # x = +-1 the value's condition number |x P'/P| reaches about 1e4 (x = 0.995,
    # a = 1.5, n = 42), so a backward-stable evaluation may miss by that many ulps
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(61)
    points = [(0.3, 0.7, -0.81)] + [
        tuple(rng.uniform((-0.9, -0.9, -1.0), (2.5, 2.5, 1.0))) for _ in range(11)
    ]
    with mpmath.workdps(40):
        for a, b, x in points:
            for n in range(61):
                want = mpmath.jacobi(n, a, b, x)
                slope = (n + a + b + 1) / 2 * mpmath.jacobi(n - 1, a + 1, b + 1, x) if n else 0
                tol = 1e-13 * max(abs(want), 1) + 2.0**-52 * abs(x * slope)
                assert abs(jacobi_polynomial(n, a, b, x) - want) <= tol, (n, a, b, x)


def test_jacobi_polynomial_hypergeometric_relation():
    # 2F1(-n, n+a+b+1; a+1; x) = n!/(a+1)_n * P_n^(a,b)(1-2x).
    # The gap is measured against the largest series term so that the
    # 1e-12 bound stays meaningful at points where the alternating sum
    # cancels heavily; where there is no cancellation the plain relative
    # gap is held to the same bound.
    for n in range(0, 11):
        for a in (-0.25, 0.3, 0.7):
            for b in (-0.5, 0.2, 0.9):
                for x in (-0.5, -0.3, -0.1, 0.1, 0.3, 0.5):
                    lhs = gauss_2f1(-float(n), n + a + b + 1, a + 1, x)
                    rhs = (
                        math.factorial(n)
                        / pochhammer(a + 1, n)
                        * jacobi_polynomial(n, a, b, 1 - 2 * x)
                    )
                    scale, t = 1.0, 1.0
                    for k in range(n):
                        t *= abs(
                            (-n + k) * (n + a + b + 1 + k)
                            / ((a + 1 + k) * (k + 1)) * x
                        )
                        scale = max(scale, t)
                    gap = abs(lhs - rhs)
                    assert gap <= 1e-12 * scale, (n, a, b, x, gap, scale)
                    if scale <= 10 * abs(rhs):
                        assert gap <= 1e-12 * abs(rhs) * 10, (n, a, b, x)


def test_jacobi_polynomial_specific_hypergeometric_case():
    a, b, y = -0.25, -0.5, 0.2
    lhs = gauss_2f1(-3.0, 3 + 0.25, 0.75, y)
    rhs = (
        math.factorial(3)
        / pochhammer(a + 1, 3)
        * jacobi_polynomial(3, a, b, 1 - 2 * y)
    )
    assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------- jacobi_gf_closed

def test_jacobi_gf_closed_w_zero():
    assert jacobi_gf_closed(-0.25, -0.5, 0.3, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_jacobi_gf_closed_x_one_reduction():
    # at x = 1 the closed form collapses to (1-w)^(-(a+1))
    for a, b, w in [(-0.25, -0.5, 0.2), (0.3, 0.7, -0.25), (0.0, 0.5, 0.3)]:
        val = jacobi_gf_closed(a, b, 1.0, w)
        assert val == pytest.approx((1 - w) ** (-(a + 1)), rel=1e-13)


def test_jacobi_gf_closed_frozen_value():
    assert jacobi_gf_closed(-0.25, -0.5, 0.3, 0.2) == pytest.approx(
        1.0490673267407558, rel=1e-14
    )


def test_jacobi_gf_closed_vs_truncated_sum():
    rng = np.random.default_rng(23)
    for _ in range(12):
        a = rng.uniform(-0.5, 1.0)
        b = rng.uniform(-0.5, 1.0)
        x = rng.uniform(-0.5, 0.5)
        w = rng.uniform(-0.3, 0.3)
        total = sum(
            jacobi_polynomial(n, a, b, x) * w**n for n in range(61)
        )
        assert jacobi_gf_closed(a, b, x, w) == pytest.approx(
            total, rel=1e-9, abs=1e-9
        )


def test_jacobi_gf_closed_elementwise_on_ndarray():
    a, b = 0.3, 1.7
    x = np.array([[0.3, -0.5], [1.0, 0.9]])
    w = np.array([[0.2, -0.25], [0.1, 0.45]])
    got = jacobi_gf_closed(a, b, x, w)
    assert got.shape == x.shape
    want = [jacobi_gf_closed(a, b, xv, wv) for xv, wv in zip(x.flat, w.flat)]
    np.testing.assert_allclose(got.ravel(), want, rtol=1e-15, atol=0)


def test_jacobi_gf_closed_raises_on_branch_point_entry():
    # w = 0.5, x = 1.25 zeroes w^2 - 2xw + 1 exactly in float arithmetic
    with pytest.raises(SingularValueError):
        jacobi_gf_closed(0.0, 0.5, np.array([0.3, 1.25, -0.2]), 0.5)
    with pytest.raises(SingularValueError):
        jacobi_gf_closed(0.0, 0.5, 1.25, 0.5)


# -------------------------------------------------------- lemma1_identity

def test_lemma1_rhs_is_the_jacobi_closed_form():
    for gamma, A, w, x in [(0.75, 0.25, 0.2, -0.3), (1.25, 0.75, -0.1, 0.6),
                           (1.0, 3.0, 0.25, 0.1), (1.3, 0.6, 0.1j, 0.2)]:
        rhs = lemma1_identity(gamma, A, w, x, 20)["rhs"]
        assert rhs == jacobi_gf_closed(gamma - 1, A - gamma, 1 - 2 * x, w)


def test_lemma1_identity_frozen_case():
    rep = lemma1_identity(0.75, 0.25, 0.2, -0.3, 60)
    assert rep["rhs"] == pytest.approx(1.392305430554968, rel=1e-14)
    assert rep["gap"] < 1e-9


def test_lemma1_identity_w_zero():
    rep = lemma1_identity(0.75, 0.25, 0.0, 0.3, 10)
    assert rep["lhs"] == pytest.approx(1.0, rel=0, abs=1e-15)
    assert rep["rhs"] == pytest.approx(1.0, rel=0, abs=1e-14)


def test_lemma1_identity_x_zero_binomial():
    # at x = 0 both sides reduce to (1-w)^(-gamma)
    for g, A, w in [(0.75, 0.25, 0.2), (1.25, 0.75, -0.3), (1.3, 0.6, 0.1)]:
        rep = lemma1_identity(g, A, w, 0.0, 80)
        assert rep["rhs"] == pytest.approx((1 - w) ** (-g), rel=1e-13)
        assert rep["gap"] < 1e-12


def test_lemma1_identity_grid_fast_points():
    # Points whose series converges comfortably within 60 terms.  At
    # x = -0.4 the sum's radius of convergence in w shrinks to ~0.3033,
    # so the w = +/-0.3 points there need thousands of terms; they are
    # exercised separately below and in the acceptance suite.
    for g, A in [(0.75, 0.25), (1.25, 0.75), (1.3, 0.6)]:
        for w in (-0.3, -0.1, 0.1, 0.3):
            for x in (-0.4, 0.0, 0.3):
                if x == -0.4 and abs(w) > 0.2:
                    continue
                rep = lemma1_identity(g, A, w, x, 60)
                assert rep["gap"] < 1e-9, (g, A, w, x, rep["gap"])


def test_lemma1_identity_slow_points_converge_eventually():
    # Near the convergence boundary the 60-term sum is far from the closed
    # form, but a long partial sum (via the equivalent Jacobi-polynomial
    # series) does approach it, confirming the identity itself.
    x2 = 1 - 2 * (-0.4)  # argument of the equivalent Jacobi series
    for g, A in [(0.75, 0.25), (1.3, 0.6)]:
        a, b = g - 1, A - g
        for w in (-0.3, 0.3):
            rep = lemma1_identity(g, A, w, -0.4, 60)
            assert rep["gap"] > 1e-3  # 60 terms genuinely insufficient here
            # sum P_n^(a,b)(x2) w^n via a recurrence on q_n = P_n w^n,
            # which stays bounded where P_n itself overflows
            q_prev = 1.0
            q = w * ((a + 1) + (a + b + 2) * (x2 - 1) / 2)
            total = q_prev + q
            for n in range(2, 6001):
                s = 2 * n + a + b
                c1 = (s - 1) * (s * (s - 2) * x2 + a * a - b * b)
                c2 = 2 * (n + a - 1) * (n + b - 1) * s
                c0 = 2 * n * (n + a + b) * (s - 2)
                q, q_prev = (w * c1 * q - w * w * c2 * q_prev) / c0, q
                total += q
            assert abs(total - rep["rhs"]) < 1e-9


def _lemma1_direct_sum(g, A, w, x, n_top):
    """The weighted sum term by term through its 2F1 form."""
    total, weight = 0.0, 1.0
    for n in range(n_top + 1):
        if n > 0:
            weight = weight * (g + n - 1) / n
        total += weight * w**n * gauss_2f1(-float(n), n + A, g, x)
    return total


def test_lemma1_identity_matches_direct_2f1_sum():
    # the recurrence reproduces the 2F1-form partial sums on the full grid
    for g, A in [(0.75, 0.25), (1.25, 0.75), (1.3, 0.6)]:
        for w in (-0.3, -0.1, 0.1, 0.3):
            for x in (-0.4, 0.0, 0.3):
                lhs = lemma1_identity(g, A, w, x, 60)["lhs"]
                direct = _lemma1_direct_sum(g, A, w, x, 60)
                assert lhs == pytest.approx(direct, rel=1e-14), (g, A, w, x)


def test_lemma1_identity_degenerate_recurrence_steps():
    # for integer A <= 0 the recurrence leaves some P_n undetermined; those
    # terms come from the 2F1 form
    for A in (0.0, -1.0, -2.0, -3.0):
        lhs = lemma1_identity(0.75, A, 0.2, 0.1, 12)["lhs"]
        assert lhs == pytest.approx(
            _lemma1_direct_sum(0.75, A, 0.2, 0.1, 12), rel=1e-14
        )


def test_lemma1_radius_values():
    assert lemma1_radius(0.0) == pytest.approx(1.0, rel=1e-15)
    assert lemma1_radius(0.3) == pytest.approx(1.0, rel=1e-15)
    # x = -0.4 and its mirror x = 1.4 both give |1 - 2x| = 1.8
    r = 1.8 - math.sqrt(1.8**2 - 1)
    assert lemma1_radius(-0.4) == pytest.approx(r, rel=1e-14)
    assert lemma1_radius(1.4) == pytest.approx(r, rel=1e-14)


def test_lemma1_identity_rejects_w_outside_radius():
    # |w| < 1 but outside the radius 0.3033 at x = -0.4 and x = 1.4
    for w, x in ((0.31, -0.4), (-0.5, 1.4), (0.3034, -0.4)):
        with pytest.raises(ConvergenceError):
            lemma1_identity(0.75, 0.25, w, x, 10)
    with pytest.raises(InvalidParameterError):
        lemma1_identity(0.75, 0.25, float("nan"), 0.1, 10)


def test_lemma1_identity_long_sums_stay_finite():
    # thousands of terms at q = 0.989 neither overflow nor lose the identity
    for g, A in [(0.75, 0.25), (1.3, 0.6)]:
        for w in (-0.3, 0.3):
            rep = lemma1_identity(g, A, w, -0.4, 6000)
            assert math.isfinite(rep["lhs"])
            assert rep["gap"] < 1e-9


# -------------------------------------------------------------- jacobi_sn

def test_jacobi_sn_at_zero():
    assert jacobi_sn(0.0, 0.5) == 0.0


def test_jacobi_sn_degenerate_moduli():
    for z in (0.3, 0.7, 1.2, -0.4):
        assert jacobi_sn(z, 0.0) == pytest.approx(math.sin(z), rel=1e-14, abs=1e-15)
        assert jacobi_sn(z, 1.0) == pytest.approx(math.tanh(z), rel=1e-14, abs=1e-15)


def test_jacobi_sn_oddness_and_bound():
    rng = np.random.default_rng(29)
    for _ in range(20):
        z = rng.uniform(-3, 3)
        rho = rng.uniform(0.05, 0.95)
        s = jacobi_sn(z, rho)
        assert jacobi_sn(-z, rho) == pytest.approx(-s, rel=1e-13, abs=1e-14)
        assert abs(s) <= 1 + 1e-12


def test_jacobi_sn_frozen_scipy_values():
    frozen = {
        (0.3, 0.2): 0.29535133847668205,
        (0.3, 0.5): 0.2944655515495562,
        (0.3, 0.9): 0.2921097914310455,
        (0.7, 0.2): 0.6426319283874661,
        (0.7, 0.5): 0.6342932763351123,
        (0.7, 0.9): 0.611965845576637,
        (1.2, 0.2): 0.9288799409525936,
        (1.2, 0.5): 0.9111730783026983,
        (1.2, 0.9): 0.8552565691028542,
    }
    for (z, rho), want in frozen.items():
        assert jacobi_sn(z, rho) == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("z", [1e3, -1e3, 1e6])
@pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
def test_jacobi_sn_cn_dn_reduced_by_period_matches_mpmath(z, rho):
    # beyond 2K the argument is reduced modulo 4K; the reduction costs
    # about |z| 2**-53 in the argument, so the tolerance scales with |z|
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        want = [float(mpmath.ellipfun(f, z, m=rho * rho)) for f in ("sn", "cn", "dn")]
    got = jacobi_sn_cn_dn(z, rho)
    assert got == pytest.approx(want, rel=0, abs=8 * abs(z) * 2.0**-52)


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("rho", [0.2, 0.5, 0.9])
def test_jacobi_sn_cn_dn_just_under_the_reduction_limit_matches_mpmath(sign, rho):
    # the limit |z| 2**-52 < 1e-8 K(rho) keeps the reduced argument within
    # about 1e-8 of the true one
    mpmath = pytest.importorskip("mpmath")
    z = sign * 0.99e-8 * float(mpmath.ellipk(rho * rho)) * 2.0**52
    with mpmath.workdps(40):
        want = [float(mpmath.ellipfun(f, z, m=rho * rho)) for f in ("sn", "cn", "dn")]
    assert jacobi_sn_cn_dn(z, rho) == pytest.approx(want, rel=0, abs=3e-8)


def test_jacobi_sn_cn_dn_rejects_unreducible_argument():
    # once |z| 2**-52 reaches 1e-8 K(rho) fewer than eight digits of the
    # reduced argument are right; z = 1e15 kept about one
    k_half = 1.6857503548125961  # K(0.5)
    jacobi_sn_cn_dn(0.99e-8 * k_half * 2.0**52, 0.5)
    for z in (1.01e-8 * k_half * 2.0**52, 1e15, -1e300):
        with pytest.raises(InvalidParameterError):
            jacobi_sn_cn_dn(z, 0.5)
    # the trigonometric and hyperbolic limits need no reduction
    assert jacobi_sn_cn_dn(1e300, 0.0)[0] == math.sin(1e300)
    assert jacobi_sn_cn_dn(1e300, 1.0) == (1.0, 0.0, 0.0)
    assert jacobi_sn_cn_dn(-720.0, 1.0) == pytest.approx(
        (-1.0, 2 * math.exp(-720.0), 2 * math.exp(-720.0)), rel=1e-15
    )


def test_jacobi_sn_cn_dn_identities():
    rng = np.random.default_rng(31)
    for _ in range(20):
        z = rng.uniform(-2.5, 2.5)
        rho = rng.uniform(0.05, 0.95)
        sn, cn, dn = jacobi_sn_cn_dn(z, rho)
        assert sn * sn + cn * cn == pytest.approx(1.0, rel=0, abs=1e-12)
        assert dn * dn + rho * rho * sn * sn == pytest.approx(1.0, rel=0, abs=1e-12)
        sn2, cn2, dn2, _ = ellipj(z, rho * rho)
        assert sn == pytest.approx(float(sn2), rel=0, abs=1e-12)
        assert cn == pytest.approx(float(cn2), rel=0, abs=1e-12)
        assert dn == pytest.approx(float(dn2), rel=0, abs=1e-12)


def test_jacobi_sn_derivative_is_cn_dn():
    dz = 1e-6
    for z in (0.3, 0.7, 1.4):
        for rho in (0.3, 0.5, 0.8):
            sn, cn, dn = jacobi_sn_cn_dn(z, rho)
            fd = (jacobi_sn(z + dz, rho) - jacobi_sn(z - dz, rho)) / (2 * dz)
            assert fd == pytest.approx(cn * dn, rel=1e-8, abs=1e-9)
