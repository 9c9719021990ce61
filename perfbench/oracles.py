"""Correctness checks for the benchmark's operations.

Each check takes the inputs an operation was given and the outputs the
program produced, and returns a failure reason, or None when the output is
right.  The checks are derived from the equations themselves, not from the
code under test, and run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# documented verdict (exit code) of each `verify` target at its defaults
VERIFY_EXIT = {
    "lemma1": 0, "ode": 0, "residue": 0, "gf-order0": 0, "kernels": 0,
    "gf-order1": 1, "gf-order2": 1,
}

ORDER1_CLOSURE_TOL = 1e-9
ORDER2_SUM_TOL = 1e-12
SERIES_TOL = 1e-11
SN_TOL = 1e-12
HEUN_TOL = 1e-14

# The base-series coefficients (kappa) overflow from alpha_0 = 86 on, so the
# order-0 gaps at --amax >= 86 are nan and the verdict is FAIL.  Those
# operations are counted as failures of this known defect (failed_frac), apart
# from unexpected failures; once the defect is fixed they pass as usual.
KAPPA_OVERFLOW_ALPHA0 = 86
KNOWN_DEFECT = "known defect: "


def _close(a, b, tol):
    return math.isfinite(a) and abs(a - b) <= tol * max(1.0, abs(b))


def check_heun(rho, h, alpha, heun):
    """Heun map: a = rho^-2, q = -h rho^-2 / 4, alpha_h = (alpha+1)/2, beta_h = -alpha/2."""
    r = rho ** -2
    want = {
        "a": r, "q": -h * r / 4, "alpha_h": (alpha + 1) / 2, "beta_h": -alpha / 2,
        "gamma": 0.5, "delta": 0.5, "epsilon": 0.5,
    }
    for key, value in want.items():
        if not _close(float(heun[key]), value, HEUN_TOL):
            return f"heun {key}={heun[key]!r}, expected {value!r}"
    return None


def check_sn(rho, sn, cn, dn):
    """Jacobi elliptic identities sn^2 + cn^2 = 1 and dn^2 + rho^2 sn^2 = 1."""
    one_a = sn * sn + cn * cn
    one_b = dn * dn + rho * rho * sn * sn
    if not (_close(one_a, 1.0, SN_TOL) and _close(one_b, 1.0, SN_TOL)):
        return f"sn^2+cn^2={one_a!r} dn^2+rho^2 sn^2={one_b!r}"
    return None


def series_value(rho, h, alpha, lam, xi, n_terms):
    """Truncated Frobenius solution xi^lam sum_{n<=N} c_n xi^n with c_0 = 1.

    Solved order by order from the ODE multiplied through by
    4 xi (xi-1)(xi-r), r = rho^-2:
        Q2 y'' + Q1 y' + Q0 y = 0,  Q2 = 4 xi (xi-1)(xi-r),
        Q1 = 2[(xi-1)(xi-r) + xi(xi-r) + xi(xi-1)],  Q0 = h r - alpha(alpha+1) xi.
    """
    r = rho ** -2
    q2 = np.polymul([4.0, 0.0], np.polymul([1.0, -1.0], [1.0, -r]))[::-1]
    q1 = (2 * (np.polymul([1.0, -1.0], [1.0, -r])
               + np.polymul([1.0, 0.0], [1.0, -r])
               + np.polymul([1.0, 0.0], [1.0, -1.0])))[::-1]
    q0 = np.array([h * r, -alpha * (alpha + 1)])

    def coeff(k, p):
        """Coefficient of xi^(p + k - 1) produced by c xi^p through Q_j xi^j."""
        out = 0.0
        if k + 1 < len(q2):
            out += q2[k + 1] * p * (p - 1)
        if k < len(q1):
            out += q1[k] * p
        if 1 <= k <= len(q0):
            out += q0[k - 1]
        return out

    c = [1.0]
    for m in range(1, n_terms + 1):
        # power xi^(m - 1 + lam): c_m enters through k = 0, earlier c_j through k = m - j
        rest = sum(coeff(m - j, j + lam) * c[j] for j in range(max(0, m - 2), m))
        c.append(-rest / coeff(0, m + lam))
    acc = 0.0
    for cn in reversed(c):
        acc = acc * xi + cn
    return acc * xi ** lam


def check_series(rho, h, alpha, lam, xi, n_terms, value):
    want = series_value(rho, h, alpha, lam, xi, n_terms)
    if not _close(float(value), want, SERIES_TOL):
        return f"series value {value!r}, ODE solution {want!r}"
    return None


def order1_closure(lhs, rhs, residue):
    """Relative closure |lhs - rhs - residue| / max(1, |lhs|) of the corrected identity."""
    return abs(lhs - rhs - residue) / max(1.0, abs(lhs))


def check_order1(lhs, rhs, residue):
    closure = order1_closure(lhs, rhs, residue)
    if not closure <= ORDER1_CLOSURE_TOL:
        return f"order-1 closure {closure!r} above {ORDER1_CLOSURE_TOL:g}"
    return None


def order2_chain_weights(gamma, s, a_max):
    """Weights (gamma)_a0/a0! s0^a0 s1^a1 s2^a2 over chains a0 <= a1 <= a2 <= A."""
    out = []
    for a0 in range(a_max + 1):
        w0 = math.exp(math.lgamma(gamma + a0) - math.lgamma(gamma) - math.lgamma(a0 + 1))
        for a1 in range(a0, a_max + 1):
            for a2 in range(a1, a_max + 1):
                out.append(((a0, a1, a2), w0 * s[0] ** a0 * s[1] ** a1 * s[2] ** a2))
    return out


def check_order2(lhs, oracle):
    if not (math.isfinite(lhs) and abs(lhs - oracle) <= ORDER2_SUM_TOL * abs(oracle)):
        return f"order-2 left side {lhs!r}, chain sum {oracle!r}"
    return None


def check_verify(target, exit_code, report):
    """Exit code is the documented verdict and agrees with the JSON report."""
    if exit_code != VERIFY_EXIT[target]:
        return f"verify {target} exited {exit_code}, documented {VERIFY_EXIT[target]}"
    if report.get("pass") != (exit_code == 0):
        return f"verify {target} report pass={report.get('pass')} with exit {exit_code}"
    if not math.isfinite(float(report.get("gap", math.nan))):
        return f"verify {target} gap is not finite"
    return None


def sweep_rows(csv_text):
    return list(csv.DictReader(io.StringIO(csv_text)))


def check_sweep(rows, exit_code, n_points, a_max):
    """Every grid point present, finite and passing; exit code 0."""
    if len(rows) != n_points:
        return f"sweep gave {len(rows)} rows for {n_points} grid points"
    bad = [r for r in rows if r["passed"] != "true" or not math.isfinite(float(r["gap"]))]
    if bad:
        message = f"sweep: {len(bad)} of {len(rows)} rows failed (gap={bad[0]['gap']})"
        if (a_max >= KAPPA_OVERFLOW_ALPHA0 and exit_code == 1
                and all(r["gap"] == "nan" and r["passed"] == "false" for r in bad)):
            return KNOWN_DEFECT + f"kappa overflow at --amax >= {KAPPA_OVERFLOW_ALPHA0}; " + message
        return message
    if exit_code != 0:
        return f"sweep exited {exit_code} with every row passing"
    return None
