import math
import re
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from cogrelay import (
    NumericError,
    capacity,
    derive_hop_statistics,
    capacity_pole_integral,
    ergodic_capacity_ind,
    partial_fraction_expand,
    per_hop_capacity,
    scenario_from_config,
)
from oracles import ergodic_capacity_iid, min_snr_pdf, snr_pdf

LN2 = math.log(2.0)


def _pdf_oracle(g, alphas):
    """Weakest-hop density straight from survival products (test-local)."""
    total = 0.0
    for k, ak in enumerate(alphas):
        term = ak / (g + ak) ** 2
        for n, an in enumerate(alphas):
            if n != k:
                term *= an / (g + an)
        total += term
    return total


def _capacity_oracle(alphas, rel=1e-9):
    val, err = quad(
        lambda g: np.log2(1.0 + g) * _pdf_oracle(g, alphas),
        0.0, np.inf, epsabs=0.0, epsrel=rel, limit=1000,
    )
    return val / len(alphas), err / len(alphas)


def _kernel_oracle(order, pole):
    # the integrand is scaled by pole^(order+1), so that it stays in the
    # float64 range at high orders and quad's absolute tolerance stays
    # small against the integral
    val, _ = quad(
        lambda g: np.log2(1.0 + g) * (1.0 + g / pole) ** -(order + 1),
        0.0, np.inf, epsabs=1e-16, epsrel=1e-12, limit=1000,
    )
    return val / pole ** (order + 1)


def _reconstruct(expansion, gamma):
    """Evaluate a partial-fraction expansion at gamma (test oracle).

    Redone from 50-digit residues when the float64 terms cancel too
    heavily to trust, as happens when poles lie just outside the merge
    tolerance of each other.
    """
    vals = [
        expansion.prefactor * a / (gamma + beta) ** (l + 1)
        for beta, l, a in expansion.terms()
    ]
    total = math.fsum(vals)
    if max(abs(v) for v in vals) <= 1e6 * abs(total):
        return total
    with mp.workdps(50):
        coeffs = _residue_coefficients_mp(expansion.betas, expansion.multiplicities)
        g = mp.mpf(gamma)
        total = mp.fsum(
            coeffs[n][l - 1] / (g + mp.mpf(beta)) ** (l + 1)
            for n, beta in enumerate(expansion.betas)
            for l in range(1, expansion.multiplicities[n] + 1)
        )
        return float(mp.mpf(expansion.prefactor) * total)


def _residue_coefficients_mp(betas, mults):
    """The residue recurrence of capacity._residue_coefficients in mpmath."""
    coeffs = []
    for n, b_n in enumerate(map(mp.mpf, betas)):
        r_n = mults[n]
        others = [(mp.mpf(b), r) for m, (b, r) in enumerate(zip(betas, mults)) if m != n]
        h = [mp.mpf(0)] * r_n
        h[0] = mp.fprod((bm - b_n) ** (-rm) for bm, rm in others)
        logder = [mp.mpf(0)] * r_n
        for j in range(1, r_n):
            fact = mp.factorial(j - 1)
            logder[j] = -mp.fsum(
                rm * (-1) ** (j - 1) * fact / (bm - b_n) ** j for bm, rm in others
            )
        for i in range(r_n - 1):
            h[i + 1] = mp.fsum(
                mp.binomial(i, j) * h[j] * logder[i + 1 - j] for j in range(i + 1)
            )
        coeffs.append(
            [l * h[r_n - l] / mp.factorial(r_n - l) for l in range(1, r_n + 1)]
        )
    return coeffs


def _survival_reference(alphas, dps=40):
    """(1/(K ln 2)) int_0^inf S(g)/(1+g) dg, S(g) = prod_k alpha_k/(g+alpha_k),
    by mpmath's tanh-sinh quadrature in t = ln g at dps digits.

    S is multiplied out in decimal arithmetic at dps + 5 digits, several
    times faster than mpf for 64 hops.  Beyond 300 e-folds past the poles
    and 0 the integrand is below e^-300 of its peak and is taken as 0.
    mp.quad's tolerance is absolute, so the integrand is scaled by
    1/min(1, alpha) to make the integral of order one.  Tanh-sinh degree
    5 agrees with the converged 40-digit rule to 4e-28 on the cases below.
    """
    logs = [math.log(a) for a in alphas]
    scale = min(1.0, min(alphas))
    lo, hi = min(min(logs), 0.0) - 300, max(max(logs), 0.0) + 300
    start = min(logs) - math.log(len(alphas)) - 4
    points = {0.0} | {start + 8 * j for j in range(int((max(logs) + 24 - start) / 8) + 1)}
    with mp.workdps(dps), localcontext() as ctx:
        ctx.prec = dps + 5
        exact = [Decimal(float(a)) for a in alphas]
        numerator = math.prod(exact, start=Decimal(1)) / Decimal(scale)

        def integrand(t):
            if not lo < t < hi:
                return mp.mpf(0)
            g = Decimal(mp.nstr(mp.exp(t), dps + 5))
            denominator = 1 + g
            for a in exact:
                denominator *= g + a
            return mp.mpf(str(numerator * g / denominator))

        value = mp.quad(integrand, [-mp.inf, *sorted(points), mp.inf], maxdegree=5)
        return value * scale / (len(alphas) * mp.log(2))


def test_min_snr_pdf_reductions():
    for g in (0.0, 0.3, 2.0, 50.0):
        assert min_snr_pdf(g, [1.7]) == pytest.approx(snr_pdf(g, 1.7), rel=1e-14)
    alpha, k = 2.5, 4
    for g in (0.0, 1.0, 10.0):
        iid = k * alpha ** k / (g + alpha) ** (k + 1)
        assert min_snr_pdf(g, [alpha] * k) == pytest.approx(iid, rel=1e-13)


def test_min_snr_pdf_normalized():
    alphas = [0.3, 2.0, 11.0]
    val, _ = quad(lambda g: min_snr_pdf(g, alphas), 0, np.inf, limit=500)
    assert val == pytest.approx(1.0, rel=1e-9)


def test_expansion_single_pole():
    e = partial_fraction_expand([1.0])
    assert e.betas == (1.0,)
    assert e.multiplicities == (1,)
    assert e.coefficient(0, 1) == pytest.approx(1.0)
    assert e.prefactor == 1.0


def test_expansion_two_distinct_poles_hand_residues():
    # 2[1/(g+1)^2 - 1/(g+2)^2] reproduces 2(2g+3)/((g+1)^2 (g+2)^2)
    e = partial_fraction_expand([1.0, 2.0])
    assert e.betas == (1.0, 2.0)
    assert e.multiplicities == (1, 1)
    assert e.coefficient(0, 1) == pytest.approx(1.0, rel=1e-12)
    assert e.coefficient(1, 1) == pytest.approx(-1.0, rel=1e-12)
    assert e.prefactor == pytest.approx(2.0)
    for g in (0.0, 0.7, 3.0, 40.0):
        direct = 2 * (2 * g + 3) / ((g + 1) ** 2 * (g + 2) ** 2)
        assert _reconstruct(e, g) == pytest.approx(direct, rel=1e-12)


def test_expansion_iid_triple_pole():
    e = partial_fraction_expand([2.0, 2.0, 2.0])
    assert e.betas == (2.0,)
    assert e.multiplicities == (3,)
    assert e.coefficient(0, 1) == pytest.approx(0.0, abs=1e-14)
    assert e.coefficient(0, 2) == pytest.approx(0.0, abs=1e-14)
    assert e.coefficient(0, 3) == pytest.approx(3.0, rel=1e-14)


def test_expansion_merges_near_equal_poles():
    e = partial_fraction_expand([1.0, 1.0 + 1e-9, 5.0])
    assert e.multiplicities == (2, 1)
    e2 = partial_fraction_expand([1.0, 1.001, 5.0])
    assert e2.multiplicities == (1, 1, 1)


@pytest.mark.parametrize("seed", range(8))
def test_reconstruction_invariant_random_sets(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 7))
    alphas = 10.0 ** rng.uniform(-2, 3, k)
    if seed % 3 == 0 and k >= 2:
        alphas[1] = alphas[0]  # exercise a repeated pole
    e = partial_fraction_expand(alphas)
    for g in 10.0 ** rng.uniform(-2, 3, 32):
        direct = _pdf_oracle(g, alphas)
        assert _reconstruct(e, g) == pytest.approx(direct, rel=1e-8)


def test_simple_pole_coefficients_vanish():
    # fit an enlarged basis including 1/(g+beta) terms: their weights are 0,
    # so the expansion genuinely needs only the (l+1 >= 2)-order terms
    alphas = [0.8, 1.7, 3.1]
    gs = np.linspace(0.1, 20.0, 60)
    basis = []
    for b in alphas:
        basis.append(1.0 / (gs + b))
        basis.append(1.0 / (gs + b) ** 2)
    design = np.stack(basis, axis=1)
    target = np.array([_pdf_oracle(g, alphas) / np.prod(alphas) for g in gs])
    weights, *_ = np.linalg.lstsq(design, target, rcond=None)
    assert np.allclose(weights[0::2], 0.0, atol=1e-10)


def test_kernel_reference_values():
    assert capacity_pole_integral(1, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert capacity_pole_integral(2, 1.0) == pytest.approx(1.0 / (4 * LN2), rel=1e-14)
    # frozen from the quadrature oracle
    assert capacity_pole_integral(2, 2.0) == pytest.approx(0.13932623977775915, rel=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("pole", [0.02, 0.6, 0.999, 1.0, 1.001, 1.4999, 1.5001, 7.0, 800.0])
def test_kernel_matches_quadrature_everywhere(order, pole):
    ours = capacity_pole_integral(order, pole)
    assert ours > 0.0
    assert ours == pytest.approx(_kernel_oracle(order, pole), rel=1e-8)


def test_kernel_continuous_across_branch_switches():
    # earlier kernels switched form at |pole-1| = 0.5; values on both
    # sides of each boundary must agree with the oracle, leaving no seam
    for order in (1, 2, 4, 6):
        for pole in (0.5 - 1e-9, 0.5 + 1e-9, 1.5 - 1e-9, 1.5 + 1e-9,
                     1.0 - 1e-3, 1.0 + 1e-3):
            assert capacity_pole_integral(order, pole) == pytest.approx(
                _kernel_oracle(order, pole), rel=1e-8
            )


def test_capacity_examples():
    assert ergodic_capacity_ind([1.0]) == pytest.approx(1.0 / LN2, rel=1e-12)
    assert ergodic_capacity_ind([1.0, 2.0]) == pytest.approx(
        0.4426950408889634, rel=1e-12
    )
    oracle, _ = _capacity_oracle([1.0])
    assert ergodic_capacity_ind([1.0]) == pytest.approx(oracle, rel=1e-8)
    oracle, _ = _capacity_oracle([1.0, 2.0])
    assert ergodic_capacity_ind([1.0, 2.0]) == pytest.approx(oracle, rel=1e-8)


def test_capacity_iid_examples():
    assert ergodic_capacity_iid(1.0, 1) == pytest.approx(1.0 / LN2, rel=1e-13)
    assert ergodic_capacity_iid(1.0, 2) == pytest.approx(1.0 / (4 * LN2), rel=1e-13)
    oracle, _ = _capacity_oracle([5.0, 5.0, 5.0])
    assert ergodic_capacity_iid(5.0, 3) == pytest.approx(oracle, rel=1e-6)


def test_ind_equals_iid_on_equal_inputs():
    for alpha in (0.04, 0.97, 1.0, 13.0, 640.0):
        for k in (1, 2, 3, 5):
            assert ergodic_capacity_ind([alpha] * k) == pytest.approx(
                ergodic_capacity_iid(alpha, k), rel=1e-10
            )


@pytest.mark.parametrize("seed", range(50))
def test_capacity_matches_quadrature_random_sets(seed):
    rng = np.random.default_rng(1000 + seed)
    k = int(rng.integers(1, 7))
    alphas = 10.0 ** rng.uniform(-2, 3, k)
    oracle, err = _capacity_oracle(alphas)
    tol = max(1e-6, 3.0 * err / oracle)
    assert ergodic_capacity_ind(alphas) == pytest.approx(oracle, rel=tol)


def test_per_hop_capacity_values():
    assert per_hop_capacity(1.0, 2) == pytest.approx(0.5 / LN2, rel=1e-13)
    assert per_hop_capacity(2.0, 1) == pytest.approx(2.0, rel=1e-13)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(
    alpha=st.one_of(
        st.floats(-30, 30).map(lambda e: 10.0 ** e),
        st.floats(-1e-12, 1e-12).map(lambda d: 1.0 + d),
        st.sampled_from([1.0, 0.5, 1.5, math.nextafter(0.5, 0), math.nextafter(1.5, 2)]),
    ),
    hops=st.integers(1, 64),
)
def test_per_hop_capacity_within_1e15_of_50_digits(alpha, hops):
    with mp.workdps(50):
        a = mp.mpf(alpha)
        ratio = mp.mpf(1) if a == 1 else mp.log(a) / (a - 1)
        ref = a * ratio / (hops * mp.log(2))
    value = per_hop_capacity(alpha, hops)
    assert abs(value - float(ref)) <= 1e-15 * value
    # deep_chain's capacity <= per_hop_capacity_min holds with equality here
    assert per_hop_capacity(alpha, 1) == ergodic_capacity_ind([alpha])


def test_min_cut_bound():
    rng = np.random.default_rng(77)
    for _ in range(40):
        k = int(rng.integers(1, 7))
        alphas = 10.0 ** rng.uniform(-2, 3, k)
        cap = ergodic_capacity_ind(alphas)
        bound = min(per_hop_capacity(a, k) for a in alphas)
        assert cap <= bound + 1e-12


def test_capacity_nonincreasing_in_hop_count_at_fixed_alpha():
    for alpha in (0.2, 1.0, 30.0):
        caps = [ergodic_capacity_iid(alpha, k) for k in range(1, 7)]
        assert all(a >= b for a, b in zip(caps, caps[1:]))


@pytest.mark.parametrize("order", [20, 40, 64, 100, 200])
@pytest.mark.parametrize("pole", [0.8, 1.05, 1.2, 1.45, 1.5])
def test_kernel_deep_orders_near_unit_pole(order, pole):
    # identical-hop chains can stack up to 64 poles at one value; an
    # alternating series in (pole - 1) cancels here above pole 1
    assert capacity_pole_integral(order, pole) == pytest.approx(
        _kernel_oracle(order, pole), rel=1e-8
    )


@pytest.mark.parametrize("order", [16, 33, 64])
@pytest.mark.parametrize("pole", [1.6, 3.0, 10.0, 40.0])
def test_kernel_high_orders_away_from_unit_pole(order, pole):
    # the closed form log(pole)/delta^l - tail cancels here (by 4e12 at
    # l=64, pole=3)
    # the integrand is scaled by pole^(l+1): mp.quad's tolerance is absolute
    with mp.workdps(30):
        ref = mp.quad(
            lambda g: mp.log1p(g) / (1 + g / pole) ** (order + 1), [0, 1, pole, mp.inf]
        ) / (mp.mpf(pole) ** (order + 1) * mp.log(2))
    assert capacity_pole_integral(order, pole) == pytest.approx(float(ref), rel=1e-12, abs=0)


def _check_against_survival_integral(alphas):
    cap = ergodic_capacity_ind(alphas)
    ref = _survival_reference(alphas)
    assert abs(cap - ref) <= 1e-12 * ref
    assert cap <= min(per_hop_capacity(a, len(alphas)) for a in alphas)


@pytest.mark.parametrize("hops", [2, 16, 33, 64])
@pytest.mark.parametrize("db", [-300, -150, 0, 30, 150, 300])
def test_capacity_relative_accuracy_across_range(db, hops):
    # alpha from about 1e-30 to 1e30 at the default geometry; on long
    # chains the closed form's coefficients and prod(alpha) overflow
    config = {"hop_count": hops, "ip_over_n0_db": db}
    _check_against_survival_integral(derive_hop_statistics(scenario_from_config(config)))


@pytest.mark.parametrize("spacing", [0.0, 1e-5], ids=["equal", "clustered"])
def test_capacity_relative_accuracy_deep_clusters(spacing):
    # 64 equal poles are one pole of order 64; poles 1e-5 apart have
    # simple-pole coefficients that overflow
    _check_against_survival_integral(list(3.0 * (1.0 + spacing * np.arange(64))))


@pytest.mark.parametrize("hops", [16, 64])
@pytest.mark.parametrize("alpha", [1e-30, 1e30])
def test_iid_capacity_at_extreme_alpha(alpha, hops):
    # alpha ** K and the order-K kernel leave the float64 range here
    cap = ergodic_capacity_iid(alpha, hops)
    ref = _survival_reference([alpha] * hops)
    assert abs(cap - ref) <= 1e-12 * ref


def test_kernel_where_pole_to_the_order_is_subnormal():
    # 1e-20 ** 16 = 1e-320 keeps 14 bits, but the kernel is 6e297
    with mp.workdps(40):
        pole = mp.mpf(1e-20)
        ref = mp.quad(lambda g: 1 / ((1 + g) * (pole + g) ** 16),
                      [0, pole, 1, mp.inf]) / (16 * mp.log(2))
    assert capacity_pole_integral(16, 1e-20) == pytest.approx(float(ref), rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "order, pole", [(16, 1e-30), (64, 1e30), (64, np.float64(1e30))],
    ids=["overflow", "underflow", "numpy-underflow"],
)
def test_kernel_outside_float64_range_raises(order, pole):
    with pytest.raises(NumericError, match=re.escape(f"order {order} at pole {pole:.6g}")):
        capacity_pole_integral(order, pole)


@st.composite
def chains(draw):
    """K = 1..4 or 5..64 alphas in 1e-30..1e30 around a scale: spread
    over six decades, narrow (within 30% of it), clustered within 1e-4,
    near (within 1e-6, the window in which poles used to merge) or equal."""
    k = draw(st.one_of(st.integers(1, 4), st.integers(5, 64)))
    scale = 10.0 ** draw(st.floats(-27, 27))
    kind = draw(st.sampled_from(["spread", "narrow", "clustered", "near", "equal"]))
    if kind == "equal":
        return [scale] * k
    if kind == "spread":
        return [scale * 10.0 ** draw(st.floats(-3, 3)) for _ in range(k)]
    width = {"narrow": 0.3, "clustered": 1e-4, "near": 1e-6}[kind]
    return [scale * (1.0 + draw(st.floats(0.0, width))) for _ in range(k)]


def _chain(**config):
    return derive_hop_statistics(scenario_from_config(config))


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(chains())
# the partial-fraction sum was off by 1.15e-9 here, and by 6.9e-10 on the
# 15-hop chain at 30 dB
@example(_chain(hop_count=16, pu_coord=[-0.104, 0.604], path_loss_exponent=3,
                ip_over_n0_db=14.18))
@example(_chain(hop_count=15, ip_over_n0_db=30.0))
# merged into one double pole, these two were off by 6.6e-7
@example([3.0, 3.0000027])
# prod(alpha) = 1e-320 keeps 14 bits; the closed form must not use it
@example([1e-290, 1e-30])
# the integrand's denominator overflows from g = 1.6 on, where the
# integrand is still 0.4 of its peak: the product of factors lost 7.4e-4
@example([2.0 ** -1022] + [1e30] * 4)
def test_long_chain_capacity_within_1e13_of_40_digits(alphas):
    cap = ergodic_capacity_ind(alphas)
    assert abs(cap - float(_survival_reference(alphas))) <= 1e-13 * cap


@pytest.mark.parametrize("hops", [1, 2, 4, 5, 64])
@pytest.mark.parametrize("alpha", [2.0 ** -1022, 1e-300, 1e290, 1e300, 1e305])
def test_long_chain_capacity_at_the_float64_extremes(alpha, hops):
    # at 1e290 and up the nodes or the integrand's denominator pass the
    # float64 range, and the integrand is taken in logs; at 1e-300 and
    # below the gains are subnormal, and at 2^-1022 and 64 hops
    # 1 + sum(1/alpha) overflows, so the lowest nodes have no closed-form
    # tail.  Chains of four hops or fewer reach the quadrature only where
    # the closed form fails, so they call it directly.
    rows = np.full((1, hops), alpha)
    if hops < capacity._QUADRATURE_HOPS:
        cap = float(capacity._survival_quadrature(rows, np.array([hops]))[0])
    else:
        cap = ergodic_capacity_ind(rows[0])
    assert abs(cap - float(_survival_reference([alpha] * hops))) <= 1e-13 * cap


@st.composite
def scaled_chains(draw):
    """A chain of 1 to 64 hops in 1e-30..1e30, spread over six decades or
    equal, as rows scaled by a rising grid of 81 factors from 1e-2 to 1e2."""
    k = draw(st.integers(1, 64))
    scale = 10.0 ** draw(st.floats(-25, 25))
    if draw(st.booleans()):
        chain = [scale * 10.0 ** draw(st.floats(-3, 3)) for _ in range(k)]
    else:
        chain = [scale] * k
    return np.logspace(-2, 2, 81)[:, None] * np.array(chain)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(scaled_chains())
def test_capacity_nondecreasing_in_snr(rows):
    # scaling every hop's alpha up is a higher I_p/N_0; on chains of four
    # hops or fewer the rows mix the closed form and the quadrature
    caps = ergodic_capacity_ind(rows)
    assert np.all(np.diff(caps) >= 0.0), caps
