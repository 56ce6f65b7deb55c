import numpy as np
import pytest

from cogrelay import Scenario, mc_outage, substream
from cogrelay.channel import sample_exponential
from oracles import quad_semiinfinite, raw_monte_carlo, snr_cdf, snr_pdf


def _hop_snr(rng, lambda_d, lambda_i, ip_over_n0, size):
    """Per-hop SNR draws (I_p/N_0) * X/Y the way the raw Monte-Carlo
    oracle's blocks make them: one call draws the X then the Y
    exponentials."""
    x, y = sample_exponential(rng, (2, size))
    return ip_over_n0 * (x * lambda_d) / np.maximum(y * lambda_i, 1e-300)


def test_pdf_values():
    assert snr_pdf(0.0, 2.0) == pytest.approx(0.5)
    assert snr_pdf(2.0, 2.0) == pytest.approx(1.0 / 8.0)
    with pytest.raises(ValueError):
        snr_pdf(-1.0, 2.0)
    with pytest.raises(ValueError):
        snr_pdf(1.0, 0.0)


def test_cdf_values():
    assert snr_cdf(0.0, 3.0) == 0.0
    assert snr_cdf(3.0, 3.0) == pytest.approx(0.5)
    assert snr_cdf(9.0, 3.0) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        snr_cdf(-0.1, 3.0)


@pytest.mark.parametrize("alpha", [0.05, 1.0, 37.0])
def test_pdf_integrates_to_one(alpha):
    assert quad_semiinfinite(lambda g: snr_pdf(g, alpha)) == pytest.approx(1.0, rel=1e-9)


def test_cdf_is_antiderivative_of_pdf():
    rng = np.random.default_rng(11)
    gammas = 10.0 ** rng.uniform(-2, 2, 1000)
    alphas = 10.0 ** rng.uniform(-2, 2, 1000)
    h = 1e-6
    for g, a in zip(gammas, alphas):
        step = h * max(1.0, g)
        num = (snr_cdf(g + step, a) - snr_cdf(max(g - step, 0.0), a)) / (
            step + min(g, step)
        )
        assert num == pytest.approx(snr_pdf(g, a), rel=1e-6)


def test_sampler_matches_cdf_kolmogorov_smirnov():
    rng = substream(2024, 0)
    lam_d, lam_i, ip = 2.0, 5.0, 10.0
    alpha = lam_d / lam_i * ip
    draws = np.sort(_hop_snr(rng, lam_d, lam_i, ip, 1_000_000))
    n = draws.size
    model = draws / (draws + alpha)
    empirical_hi = np.arange(1, n + 1) / n
    empirical_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(empirical_hi - model)), np.max(np.abs(model - empirical_lo)))
    assert ks < 0.002
    # median of the law sits exactly at alpha
    assert np.mean(draws <= alpha) == pytest.approx(0.5, abs=0.002)


def test_sampler_deterministic_per_seed_and_stream():
    a = _hop_snr(substream(7, 3), 1.0, 1.0, 1.0, 100)
    b = _hop_snr(substream(7, 3), 1.0, 1.0, 1.0, 100)
    c = _hop_snr(substream(7, 4), 1.0, 1.0, 1.0, 100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_helper_draws_what_a_monte_carlo_block_draws():
    # one hop, one block: the raw oracle counts exactly the helper's draws
    # below t.  mc_outage draws only the interference gains, the first
    # exponentials of the same stream, and averages P(SNR < t | Y) over them.
    lam_d, lam_i, ip, t = 2.0, 5.0, 10.0, 3.0
    scn = Scenario(hop_count=1, ip_over_n0=ip, gamma_th=t,
                   lambda_overrides=((lam_d, lam_i),))
    draws = _hop_snr(substream(31, 0), lam_d, lam_i, ip, 50_000)
    raw = raw_monte_carlo(scn, 50_000, 31, ("op",))["op"]
    assert raw.value == np.count_nonzero(draws < t) / 50_000
    y = sample_exponential(substream(31, 0), (2, 50_000))[0]
    conditional = -np.expm1(-t * y / (lam_d / lam_i * ip))
    assert mc_outage(scn, 50_000, 31).value == pytest.approx(conditional.mean(), rel=1e-14)


def test_sample_mean_diverges():
    # the 1/gamma^2 tail has no finite mean: running means keep growing
    grew = 0
    for seed in range(20):
        rng = substream(seed, 0)
        draws = _hop_snr(rng, 1.0, 1.0, 1.0, 1_000_000)
        if draws.mean() > draws[:1000].mean():
            grew += 1
    assert grew >= 18
