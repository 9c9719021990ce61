"""Tests for the nested integral representation: w-chains, poles and
residues, contour quadrature, the diagonal operator, and per-order terms."""

import math
import warnings

import numpy as np
import pytest

from lame3trf.scalar_kernels import (
    InvalidParameterError,
    SingularValueError,
    gauss_2f1,
)
from lame3trf.lame_series import EvaluationPoint, LameParams
from lame3trf.integral_forms import (
    AlphaChain,
    QuadratureGrid,
    SParameters,
    choose_contour_radius,
    contour_integral,
    diag_operator_multipliers,
    gauss_jacobi_unit,
    make_quadrature_grid,
    pole_locations,
    s_partial_product,
    w_arrow,
    w_tilde,
    y_n_term,
    y_n_term_closed,
    y_total,
)

STD = LameParams(rho=0.5, alpha=3.0, h=1.0)


# ------------------------------------------------------------- SParameters

def test_sparameters_validation():
    SParameters((0.3, 0.2, 0.1))
    with pytest.raises(InvalidParameterError):
        SParameters((0.3, 1.0))
    with pytest.raises(InvalidParameterError):
        SParameters((-1.2,))


def test_s_partial_product_examples():
    s = SParameters((0.5, 0.4, 0.3))
    assert s_partial_product(s, 2, 2) == 0.3
    assert s_partial_product(SParameters((0.5, 0.5)), 0, 1) == 0.25
    # monotone non-increasing prefix products for s_i in (0,1)
    vals = [s_partial_product(s, 0, b) for b in range(3)]
    assert vals[0] >= vals[1] >= vals[2]


def test_s_partial_product_index_errors():
    s = SParameters((0.5, 0.4))
    with pytest.raises(IndexError):
        s_partial_product(s, 1, 0)
    with pytest.raises(IndexError):
        s_partial_product(s, 0, 5)
    with pytest.raises(IndexError):
        s_partial_product(s, -1, 0)


# ----------------------------------------------------------------- w_arrow

def test_w_arrow_base_case_returns_eta():
    assert w_arrow(2, 1, 0.5 + 0.1j, 0.3, 0.4, 123.0, -0.0025) == -0.0025


def test_w_arrow_vanishing_numerator():
    assert w_arrow(1, 1, 0.5, 0.0, 0.4, -0.0025, -0.0025) == 0.0
    assert w_arrow(1, 1, 0.5, 0.3, 0.0, -0.0025, -0.0025) == 0.0


def test_w_arrow_value():
    v, t, u, inner = 0.5 + 0.2j, 0.3, 0.4, -0.0025
    tbar = (1 - t) * (1 - u)
    expect = inner * v * t * u / ((v - 1) * (1 - inner * v * tbar))
    assert w_arrow(1, 1, v, t, u, inner, -0.0025) == pytest.approx(expect, rel=1e-14)


def test_w_arrow_pole_errors():
    with pytest.raises(SingularValueError):
        w_arrow(1, 1, 1.0, 0.3, 0.4, -0.0025, -0.0025)
    # choose inner so that 1 - inner*v*(1-t)(1-u) = 0
    t, u, v = 0.5, 0.5, 2.0
    inner = 1 / (v * (1 - t) * (1 - u))
    with pytest.raises(SingularValueError):
        w_arrow(1, 1, v, t, u, inner, -0.0025)


# ---------------------------------------------------------- pole_locations

def test_pole_locations_vieta():
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = rng.uniform(0.05, 0.6)
        t = rng.uniform(0.05, 0.95)
        u = rng.uniform(0.05, 0.95)
        x = rng.uniform(-0.2, -0.01)
        pp = pole_locations(s, t, u, x)
        lead = x * (1 - t) * (1 - u)
        assert pp.v_in * pp.v_out == pytest.approx(-s / lead, rel=1e-12)
        # both satisfy the quadratic
        for v in (pp.v_in, pp.v_out):
            assert abs(lead * v * v + (s - 1) * v - s) < 1e-12 * max(1, abs(v))


def test_pole_locations_small_s_limit():
    pp = pole_locations(1e-6, 0.4, 0.5, -0.05)
    assert abs(pp.v_in + 1e-6) < 1e-11


def test_pole_locations_interior_exterior():
    pp = pole_locations(0.3, 0.4, 0.5, -0.05)
    assert abs(pp.v_in) < 1.0 < abs(pp.v_out)


def test_pole_locations_interior_sampled():
    # real-discriminant box: (1-s)^2 + 4*x*(1-t)(1-u)*s stays positive
    rng = np.random.default_rng(7)
    for _ in range(50):
        s = rng.uniform(0.02, 0.3)
        t = rng.uniform(0.05, 0.95)
        u = rng.uniform(0.05, 0.95)
        x = rng.uniform(-0.2, -0.01)
        pp = pole_locations(s, t, u, x)
        assert abs(pp.v_in) < 1.0


def test_pole_locations_degenerate():
    with pytest.raises(InvalidParameterError):
        pole_locations(0.3, 1.0, 0.5, -0.05)  # (1-t) = 0
    with pytest.raises(InvalidParameterError):
        pole_locations(0.3, 0.5, 0.5, 0.0)  # x = 0


# ----------------------------------------------------------------- w_tilde

def test_w_tilde_zero_cases():
    assert w_tilde(1, 1, 0.3, 0.0, 0.5, -0.0025).value == 0.0
    assert w_tilde(1, 1, 0.3, 0.5, 0.0, -0.0025).value == 0.0
    assert w_tilde(1, 1, 0.3, 0.5, 0.5, 0.0).value == 0.0
    assert w_tilde(1, 1, 0.0, 0.5, 0.5, -0.0025).value == 0.0  # s -> 0 limit


def test_w_tilde_levels_recorded():
    wc = w_tilde(1, 2, 0.3, 0.5, 0.5, -0.0025)
    assert (wc.level_i, wc.level_j) == (1, 2)


def test_w_tilde_matches_w_arrow_at_interior_pole():
    # the proof's residue substitution: w_tilde = w_arrow(v_in)
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = rng.uniform(0.02, 0.5)
        t = rng.uniform(0.05, 0.95)
        u = rng.uniform(0.05, 0.95)
        x = rng.uniform(-0.2, -0.01)
        pp = pole_locations(s, t, u, x)
        direct = w_arrow(1, 1, pp.v_in, t, u, x, x)
        closed = w_tilde(1, 1, s, t, u, x).value
        assert closed == pytest.approx(direct, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------- contour_integral

def test_contour_integral_examples():
    assert contour_integral(lambda v: 1 / v, 256) == pytest.approx(1.0, abs=1e-14)
    assert contour_integral(lambda v: 1.0 + 0 * v, 256) == pytest.approx(0.0, abs=1e-14)
    assert contour_integral(lambda v: 1 / (v - 0.4), 256) == pytest.approx(
        1.0, abs=1e-12
    )
    assert contour_integral(lambda v: 1 / (v - 2.5), 256) == pytest.approx(
        0.0, abs=1e-12
    )


def test_contour_integral_validates_m():
    with pytest.raises(InvalidParameterError):
        contour_integral(lambda v: 1 / v, 64)


def test_contour_integral_nonfinite_error():
    def bad(v):
        return 1 / (v - v)  # always infinite

    with pytest.raises(SingularValueError):
        contour_integral(bad, 128)


def test_contour_integral_vectorized_integrand():
    # integrand returning an array evaluates component-wise
    out = contour_integral(lambda v: np.array([1 / v, 1 / (v - 0.4)]), 256)
    assert np.allclose(out, [1.0, 1.0], atol=1e-12)


def test_contour_integral_calls_integrand_once_on_node_axis():
    # f sees the whole node array once; the node axis is the last axis, and
    # every leading axis is integrated component-wise
    calls = []
    poles = np.array([[0.1, 0.4], [2.5, -0.3j]])

    def f(v):
        calls.append(np.shape(v))
        return 1 / (v - poles[..., None])

    out = contour_integral(f, 256)
    assert calls == [(256,)]
    assert out.shape == (2, 2)
    assert np.allclose(out, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def test_contour_integral_singular_integrand_leaks_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularValueError):
            contour_integral(lambda v: 1 / (v - 1), 128)
        with pytest.raises(SingularValueError):
            contour_integral(lambda v: np.exp(1e3 / v), 128)


def test_contour_integral_radius():
    # pole at 0.95 escapes radius 0.9 but not 1.0
    got = contour_integral(lambda v: 1 / (v - 0.95), 512, radius=0.9)
    assert got == pytest.approx(0.0, abs=1e-10)
    got = contour_integral(lambda v: 1 / (v - 0.95), 512, radius=1.1)
    assert got == pytest.approx(1.0, abs=1e-10)


def test_choose_contour_radius():
    assert choose_contour_radius([0.5, 2.0]) == 1.0
    # interior pole hugging the circle: grow the radius to keep it inside
    assert choose_contour_radius([1 - 1e-9, 2.0]) == 1.1
    # exterior pole hugging the circle: shrink to keep it outside
    assert choose_contour_radius([0.5, 1 + 1e-9]) == 0.9


# ------------------------------------------------------------- quadrature

def test_gauss_jacobi_unit_monomials():
    # integral of t^c * t^k over (0,1) = 1/(c+k+1)
    for c in (-0.75, -0.5, 0.0, 0.25):
        t, w = gauss_jacobi_unit(24, c)
        for k in (0, 1, 2, 5):
            got = float(np.sum(w * t**k))
            assert got == pytest.approx(1.0 / (c + k + 1), rel=1e-12)


def _grid_exponents():
    """Every (t, u) exponent make_quadrature_grid uses at levels 1-3."""
    exps = set()
    for lam in (0.0, 0.5):
        for lev in make_quadrature_grid(lam, 3, nodes=16, contour_m=128).levels:
            exps.update((lev.t_exponent, lev.u_exponent))
    return sorted(exps)


def _mpmath_gauss_jacobi_unit(mpmath, n, c, t0):
    """40-digit rule on (0, 1) for the weight t**c, polished from nodes t0.

    One Newton step on P_n^(0, c), evaluated by mpmath's hypergeometric
    jacobi, squares the node error of t0 (about 1e-16).  With a = 0 the
    weight 2**(c+1) / ((1 - x^2) P_n'(x)^2) on (-1, 1) becomes
    1 / ((1 - x^2) P_n'(x)^2) on (0, 1).
    """
    with mpmath.workdps(40):
        c = mpmath.mpf(c)

        def dp(x):
            return (n + c + 1) / 2 * mpmath.jacobi(n - 1, 1, c + 1, x)

        nodes, weights = [], []
        for t in t0:
            x = 2 * mpmath.mpf(float(t)) - 1
            x -= mpmath.jacobi(n, 0, c, x) / dp(x)
            nodes.append(float((1 + x) / 2))
            weights.append(1 / ((1 - x * x) * dp(x) ** 2))
        return np.array(nodes), weights


GJ_WEIGHT_RTOL = 1e-12


@pytest.mark.parametrize("n", [16, 32, 64, 128])
def test_gauss_jacobi_unit_matches_mpmath(n):
    # the numpy Golub-Welsch rule against a 40-digit reference at every
    # exponent of the level grids, c = 0 included; at n = 128 scipy's
    # roots_jacobi misses the same tolerance, so the test tells them apart
    mpmath = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    exps = _grid_exponents()
    assert 0.0 in exps and len(exps) == 7
    for c in exps:
        t, w = gauss_jacobi_unit(n, c)
        ref_t, ref_w = _mpmath_gauss_jacobi_unit(mpmath, n, c, t)
        rel = max(abs(float((wi - ri) / ri)) for wi, ri in zip(w, ref_w))
        assert rel < GJ_WEIGHT_RTOL, (n, c, rel)
        assert np.max(np.abs(t - ref_t)) < 1e-15
        x_sp, w_sp = special.roots_jacobi(n, 0.0, c)
        assert np.max(np.abs(t - (1 + x_sp) / 2)) < 1e-15
        if n == 128:
            w_sp = w_sp * 2.0 ** (-(c + 1))
            rel_sp = max(abs(float((wi - ri) / ri)) for wi, ri in zip(w_sp, ref_w))
            assert rel_sp > GJ_WEIGHT_RTOL, (c, rel_sp)


def test_make_quadrature_grid_exponents():
    g = make_quadrature_grid(0.0, 2, nodes=16, contour_m=128)
    assert len(g.levels) == 2
    assert g.levels[0].t_exponent == pytest.approx(-0.75)
    assert g.levels[0].u_exponent == pytest.approx(-0.5)
    assert g.levels[1].t_exponent == pytest.approx(-0.25)
    assert g.levels[1].u_exponent == pytest.approx(0.0)
    g2 = make_quadrature_grid(0.5, 1, nodes=16, contour_m=128)
    assert g2.levels[0].t_exponent == pytest.approx(-0.5)
    assert g2.levels[0].u_exponent == pytest.approx(-0.25)


def test_quadrature_grid_validation():
    with pytest.raises(InvalidParameterError):
        make_quadrature_grid(0.0, 1, nodes=8, contour_m=512)
    with pytest.raises(InvalidParameterError):
        make_quadrature_grid(0.0, 1, nodes=32, contour_m=64)


def test_quadrature_grid_weights_positive():
    g = make_quadrature_grid(0.5, 3, nodes=20, contour_m=128)
    for lev in g.levels:
        assert (lev.t_weights > 0).all()
        assert (lev.u_weights > 0).all()


# -------------------------------------------------------------- AlphaChain

def test_alpha_chain_accepts_non_decreasing():
    AlphaChain((0, 0, 2, 2, 5))


def test_alpha_chain_rejects_decreasing():
    with pytest.raises(InvalidParameterError):
        AlphaChain((2, 1))


def test_alpha_chain_rejects_negative():
    with pytest.raises(InvalidParameterError):
        AlphaChain((-1, 0))


# ----------------------------------------------- diag_operator_multipliers

def test_multipliers_trivial_case():
    p = LameParams(rho=0.5, alpha=0.0, h=1.0)
    m = diag_operator_multipliers(p, 0.0, 2, 0)
    assert m[0] == pytest.approx(1.0 / (16 * 0.25), rel=1e-15)  # h/(16 rho^2)


def test_multipliers_finite_difference_oracle():
    # apply w d/dw (p times, with conjugation by w^a) to a random polynomial
    # numerically and compare with the diagonal multiplier action
    rng = np.random.default_rng(13)
    p = LameParams(rho=0.5, alpha=2.0, h=1.3)
    r = p.rho ** -2
    hterm = p.h / (16 * p.rho**2)
    g = rng.uniform(-1, 1, 5)
    w0 = 0.7
    d = 1e-4

    def F(w, a):
        return w**a * np.polyval(g[::-1], w)

    def wd(fun, w):
        return w * (fun(w + d) - fun(w - d)) / (2 * d)

    for power in (1, 2):
        for a in (0.0, 0.25, 0.75):
            m = diag_operator_multipliers(p, a, power, 4)
            exact = float(np.sum(m * g * w0 ** np.arange(5)))
            if power == 1:
                core = wd(lambda w: F(w, a), w0)
            else:
                core = wd(lambda w: wd(lambda y: F(y, a), w), w0)
            fd = -(1 + r) * w0 ** (-a) * core + hterm * np.polyval(g[::-1], w0)
            assert exact == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_multipliers_linearity():
    p = LameParams(rho=0.5, alpha=2.0, h=1.3)
    m = np.asarray(diag_operator_multipliers(p, 0.25, 2, 3))
    g1 = np.array([1.0, 2.0, -1.0, 0.5])
    g2 = np.array([0.3, -0.2, 0.9, 1.1])
    assert np.allclose(m * (g1 + g2), m * g1 + m * g2, rtol=1e-14, atol=1e-14)


# ----------------------------------------------------------------- y_n_term

def test_y0_alpha1_closed_form():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    val = y_n_term(STD, 0.0, 0, AlphaChain((1,)), pt, None, 2)
    assert val == pytest.approx(1 - (5.0 / 3.0) * pt.eta, rel=1e-14)


def test_y0_matches_hypergeometric():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    for a0 in (0, 1, 2, 5):
        got = y_n_term(STD, 0.0, 0, AlphaChain((a0,)), pt, None, 2)
        want = gauss_2f1(-float(a0), a0 + 0.25, 0.75, pt.eta)
        assert got == pytest.approx(want, rel=1e-13)


def test_y0_second_kind_prefactor():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    for a0 in (0, 2, 4):
        got = y_n_term(STD, 0.5, 0, AlphaChain((a0,)), pt, None, 2)
        want = 0.1**0.5 * gauss_2f1(-float(a0), a0 + 0.75, 1.25, pt.eta)
        assert got == pytest.approx(want, rel=1e-13)


def test_yn_zero_at_origin():
    pt = EvaluationPoint.from_xi(0.0, rho=0.5)
    grid = make_quadrature_grid(0.0, 1, nodes=16, contour_m=128)
    assert y_n_term(STD, 0.0, 1, AlphaChain((0, 1)), pt, grid, 2) == 0.0


def test_yn_chain_length_validated():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    grid = make_quadrature_grid(0.0, 1, nodes=16, contour_m=128)
    with pytest.raises(InvalidParameterError):
        y_n_term(STD, 0.0, 1, AlphaChain((1,)), pt, grid, 2)


def test_y1_contour_node_independence():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    chain = AlphaChain((1, 2))
    vals = []
    for m in (256, 512):
        grid = make_quadrature_grid(0.0, 1, nodes=24, contour_m=m)
        vals.append(y_n_term(STD, 0.0, 1, chain, pt, grid, 2))
    assert abs(vals[0] - vals[1]) < 1e-10


def test_y1_contour_equals_closed_route():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    for lam in (0.0, 0.5):
        for chain in (AlphaChain((0, 0)), AlphaChain((1, 2)), AlphaChain((2, 3))):
            grid = make_quadrature_grid(lam, 1, nodes=24, contour_m=256)
            a = y_n_term(STD, lam, 1, chain, pt, grid, 2)
            b = y_n_term_closed(STD, lam, 1, chain, pt, grid, 2)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-13)


def test_y2_contour_equals_closed_route():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    for lam, opp in ((0.0, 2), (0.5, 1)):
        chain = AlphaChain((1, 1, 2))
        grid = make_quadrature_grid(lam, 2, nodes=20, contour_m=256)
        a = y_n_term(STD, lam, 2, chain, pt, grid, opp)
        b = y_n_term_closed(STD, lam, 2, chain, pt, grid, opp)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-13)


def test_y1_op_power_changes_value():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    grid = make_quadrature_grid(0.0, 1, nodes=16, contour_m=128)
    v1 = y_n_term(STD, 0.0, 1, AlphaChain((2, 2)), pt, grid, 1)
    v2 = y_n_term(STD, 0.0, 1, AlphaChain((2, 2)), pt, grid, 2)
    assert v1 != v2


# ------------------------------------------------ chain terms against mpmath

ORACLE_CHAINS = ((0, 0), (3, 5), (2, 4, 6), (5, 8, 12), (9, 9, 9), (10, 10, 10))


@pytest.mark.parametrize("rho,xi", [(0.5, 0.1), (0.9, 0.9)])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_y_n_term_closed_matches_mpmath_oracle(rho, xi, lam):
    # (10, 10, 10) is the tail chain of `verify gf-order2`; at (0.9, 0.9)
    # eta = -0.656, where the level-to-level Taylor transfer loses digits
    pytest.importorskip("mpmath")
    from chain_oracle import mp_chain_term

    params = LameParams(rho=rho, alpha=3.0, h=1.0)
    pt = EvaluationPoint.from_xi(xi, rho=rho)
    grid = make_quadrature_grid(lam, 3, nodes=32, contour_m=256)
    for chain in ORACLE_CHAINS:
        for opp in (1, 2):
            got = y_n_term_closed(params, lam, len(chain) - 1, AlphaChain(chain), pt, grid, opp)
            want = float(mp_chain_term(params, lam, chain, pt, opp))
            assert got == pytest.approx(want, rel=1e-14, abs=0), (chain, opp)


# ------------------------------------------------------------------ y_total

def test_y_total_order_zero_only():
    pt = EvaluationPoint.from_xi(0.1, rho=0.5)
    got = y_total(STD, 0.0, [AlphaChain((2,))], pt, 0, None, 2)
    want = y_n_term(STD, 0.0, 0, AlphaChain((2,)), pt, None, 2)
    assert got == want


def test_y_total_at_origin_first_kind():
    pt = EvaluationPoint.from_xi(0.0, rho=0.5)
    grid = make_quadrature_grid(0.0, 2, nodes=16, contour_m=128)
    chains = [AlphaChain((1,)), AlphaChain((1, 1)), AlphaChain((1, 1, 1))]
    assert y_total(STD, 0.0, chains, pt, 2, grid, 2) == 1.0


def test_y_total_tail_scaling():
    # successive-order increments shrink like |mu|^n: halving xi should
    # scale the n=2 increment by about 2^-2 relative to the n=1 increment
    chains = [AlphaChain((1,)), AlphaChain((1, 1)), AlphaChain((1, 1, 1))]
    deltas = {}
    for xi in (0.1, 0.05):
        pt = EvaluationPoint.from_xi(xi, rho=0.5)
        grid = make_quadrature_grid(0.0, 2, nodes=20, contour_m=256)
        y1 = y_total(STD, 0.0, chains, pt, 1, grid, 2)
        y2 = y_total(STD, 0.0, chains, pt, 2, grid, 2)
        deltas[xi] = abs(y2 - y1)
    ratio = deltas[0.1] / deltas[0.05]
    assert 2.0 < ratio < 8.0  # ~4 = (mu ratio)^2, order-of-magnitude check


# --------------------------------------------------- residue identity check

def test_residue_identity_against_closed_form():
    # contour integral of -(1-x v)^(-(1/4+lam)) / (x v^2 + (s-1) v - s)
    # equals [(1+s+R)/2]^(-(1/4+lam)) / R with R = sqrt((1-s)^2 + 4xs)
    rng = np.random.default_rng(17)
    for lam in (0.0, 0.5):
        for _ in range(50):
            s = rng.uniform(0.02, 0.3)
            t = rng.uniform(0.05, 0.95)
            u = rng.uniform(0.05, 0.95)
            eta = rng.uniform(-0.2, -0.01)
            x = eta * (1 - t) * (1 - u)
            e = 0.25 + lam

            def f(v):
                return -((1 - x * v) ** (-e)) / (x * v * v + (s - 1) * v - s)

            got = contour_integral(f, 512)
            R = math.sqrt((1 - s) ** 2 + 4 * x * s)
            want = ((1 + s + R) / 2) ** (-e) / R
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)
