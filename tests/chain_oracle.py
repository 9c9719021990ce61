"""A 40-digit mpmath oracle for the order-n chain terms y_n(alpha_0..alpha_n).

It shares no code with lame3trf beyond the parameter classes: the base series
kappa and the diagonal operator multipliers are written out here, and each
level integral is the term-by-term Beta sum (DLMF 5.12.1, 16.2.1)

    int_0^1 int_0^1 t^t_e u^u_e (t u x)^i 2F1(-m, c; 1; x (1-t)(1-u)) dt du
      = sum_k (-m)_k (c)_k / k!^2 B(t_e+i+1, k+1) B(u_e+i+1, k+1) x^(i+k),

with m = alpha_l - i, c = l + 1/4 + lam + alpha_l + i, t_e = (l - 5/2 + lam)/2
and u_e = (l - 2 + lam)/2 at level l.
"""

import mpmath as mp


def mp_chain_term(params, lam, chain, pt, op_power):
    """y_n for the alpha chain at the point pt, as an mpmath number."""
    with mp.workdps(40):
        lam = mp.mpf(lam)
        rf = mp.rf
        a0 = chain[0]
        g = [rf(-a0, i) * rf(a0 + mp.mpf(0.25) + lam, i)
             / (rf(1 + lam / 2, i) * rf(mp.mpf(0.75) + lam / 2, i)) for i in range(a0 + 1)]
        r = mp.mpf(params.rho) ** -2
        shift = mp.mpf(params.h) / 16 * r
        for level, al in enumerate(chain[1:], start=1):
            a_conj = (level - 1 + lam) / 2
            te, ue = (level - mp.mpf(2.5) + lam) / 2, (level - 2 + lam) / 2
            out = [mp.mpf(0)] * (al + 1)
            for i, gi in enumerate(g):
                gi *= -(1 + r) * (i + a_conj) ** op_power + shift
                m, c = al - i, level + mp.mpf(0.25) + lam + al + i
                for k in range(m + 1):
                    out[i + k] += gi * rf(-m, k) * rf(c, k) / mp.factorial(k) ** 2 * (
                        mp.beta(te + i + 1, k + 1) * mp.beta(ue + i + 1, k + 1))
            g = out
        n = len(chain) - 1
        eta = mp.mpf(pt.eta)
        return mp.mpf(pt.mu) ** n * mp.mpf(pt.xi) ** lam * mp.fsum(
            gi * eta**i for i, gi in enumerate(g))
