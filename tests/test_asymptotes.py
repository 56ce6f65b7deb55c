"""Property tests of the two high-SNR asymptotes in their alpha form.

Both are a constant times sum_k 1/alpha_k: gamma_th for outage, a/2b
for BER.  Chains have K = 1..64 hops with alpha anywhere in
[1e-30, 1e30], the range the CLI reaches at +-300 dB.
"""

import sys

import mpmath as mp
import numpy as np
from hypothesis import example, given, settings, strategies as st

from cogrelay import (
    e2e_ber,
    e2e_ber_asymptotic,
    hop_ber,
    outage_asymptotic,
    outage_exact,
    qam_constants,
)

EPS = sys.float_info.epsilon
SETTINGS = settings(max_examples=200, deadline=None, database=None, derandomize=True)
GAMMAS = st.sampled_from([0.0, 1e-3, 0.5, 1.0, 3.0, 1e3])
ORDERS = st.sampled_from([4, 16, 64, 256])


def chains(low=-30.0, high=30.0):
    """One chain of K = 1..64 alphas, 10^u for u drawn from [low, high]."""
    exponents = st.floats(low, high, allow_nan=False)
    return st.lists(exponents, min_size=1, max_size=64).map(
        lambda us: np.array([10.0 ** u for u in us])
    )


def _inverse_sum(alphas, scale):
    """scale * sum_k 1/alpha_k at 50 digits, for the float inputs as given."""
    with mp.workdps(50):
        return mp.mpf(scale) * mp.fsum(1 / mp.mpf(float(a)) for a in alphas)


def _rel_error(value, reference):
    with mp.workdps(50):
        return float(abs(mp.mpf(value) - reference) / reference)


@SETTINGS
@given(chains(), GAMMAS.filter(lambda g: g > 0))
def test_outage_asymptote_relative_error(alphas, gamma_th):
    reference = _inverse_sum(alphas, gamma_th)
    assert _rel_error(outage_asymptotic(alphas, gamma_th), reference) <= 2 * len(alphas) * EPS


@SETTINGS
@given(chains(), ORDERS)
def test_ber_asymptote_relative_error(alphas, m):
    c = qam_constants(m)
    with mp.workdps(50):
        prefactor = mp.mpf(c.a) / (2 * mp.mpf(c.b))
    reference = _inverse_sum(alphas, prefactor)
    assert _rel_error(e2e_ber_asymptotic(alphas, c), reference) <= 2 * len(alphas) * EPS


@SETTINGS
@given(chains(), GAMMAS)
@example(np.array([1e20]), 3.0)  # 3/1e20 rounds above 3 * (1/1e20)
def test_outage_exact_never_exceeds_the_asymptote(alphas, gamma_th):
    # 1 - prod_k 1/(1 + gamma_th/alpha_k) <= sum_k gamma_th/alpha_k.  Where
    # every gamma_th/alpha_k is tiny the two agree to rounding, and the
    # float64 values may then cross by their rounding errors: a few eps
    # relative, 1 K eps at most in a scan of 30,000 chains.
    bound = outage_asymptotic(alphas, gamma_th) * (1 + 4 * len(alphas) * EPS)
    assert outage_exact(alphas, gamma_th) <= bound


@SETTINGS
@given(chains(low=8.0))
def test_ratios_to_the_asymptotes_tend_to_one(alphas):
    # QPSK: its one erfc term is the whole BER, so a/2b * sum 1/alpha is
    # the BER's own high-SNR limit
    c = qam_constants(4)
    op_ratio = outage_exact(alphas, 1.0) / outage_asymptotic(alphas, 1.0)
    ber_ratio = e2e_ber(hop_ber(alphas, c)) / e2e_ber_asymptotic(alphas, c)
    assert abs(op_ratio - 1.0) <= 1e-6
    assert abs(ber_ratio - 1.0) <= 1e-6
