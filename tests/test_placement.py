import math

import mpmath as mp
import pytest

from cogrelay import (
    ConfigError,
    ConvergenceError,
    Scenario,
    alphas,
    direct_search,
    e2e_ber_asymptotic,
    outage_asymptotic,
    placement,
    placement_objective,
    qam_constants,
    solve_equal_ratio,
)

PU = (0.35, 0.35)


def _layout_alphas(p, ip_over_n0, eta=4.0):
    """Per-hop alphas of the scenario with the hop lengths of layout p."""
    scn = Scenario(hop_count=p.hop_count, pu_coord=PU, path_loss_exponent=eta,
                   ip_over_n0=ip_over_n0)
    return alphas(scn.with_hop_distances(p.d_data))


def _ratio_product(p):
    return math.prod(d / di for d, di in zip(p.d_data, p.d_interference))


def _bisect_two_hop_root(px, py):
    rho2 = px * px + py * py

    def g(t):
        return (px - t) ** 2 + py * py - rho2 * ((1.0 - t) / t) ** 2

    lo, hi = 1e-3, 1.0 - 1e-3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_single_hop_trivial():
    p = solve_equal_ratio(1, PU)
    assert p.d_data == (1.0,)
    assert p.d_interference[0] == pytest.approx(math.sqrt(0.245), rel=1e-14)
    assert p.residual_norm == 0.0


def test_two_hop_root_matches_bisection():
    p = solve_equal_ratio(2, PU)
    root = _bisect_two_hop_root(*PU)
    assert p.d_data[0] == pytest.approx(root, abs=1e-8)
    assert p.d_data[0] == pytest.approx(0.5509, abs=5e-4)
    assert sum(p.d_data) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
def test_invariants_at_solution(k):
    p = solve_equal_ratio(k, PU)
    assert p.residual_norm <= 1e-10
    assert abs(sum(p.d_data) - 1.0) <= 1e-10
    assert all(d > 0 for d in p.d_data)
    ratios = [d / di for d, di in zip(p.d_data, p.d_interference)]
    assert max(abs(r - p.ratio) for r in ratios) <= 1e-8


def test_far_primary_gives_uniform_spacing():
    p = solve_equal_ratio(3, (0.5, 1e6))
    for d in p.d_data:
        assert d == pytest.approx(1.0 / 3.0, abs=1e-6)


def _reference_layout(k, pu):
    """50-digit balanced layout: bisection on the common ratio rho."""
    px, py = mp.mpf(pu[0]), mp.mpf(pu[1])

    def layout(rho):
        pos, out = mp.mpf(0), []
        for _ in range(k):
            out.append(rho * mp.hypot(px - pos, py))
            pos += out[-1]
        return out

    lo, hi = mp.mpf(0), mp.mpf(1)
    while mp.fsum(layout(hi)) < 1:
        lo, hi = hi, 2 * hi
    for _ in range(mp.mp.prec + 8):
        mid = (lo + hi) / 2
        if mp.fsum(layout(mid)) < 1:
            lo = mid
        else:
            hi = mid
    return layout((lo + hi) / 2)


_REFERENCE_PUS = [
    (-0.5, 0.2),     # behind the source
    (-1.0, 1e-3),
    (1.5, 0.3),      # past the destination
    (1.001, 1e-3),
    (0.5, 1e-3),     # near the segment
    (0.5, 1e-6),
    (1.0, 1e-6),     # next to the destination: a very short last hop
]


@pytest.mark.parametrize(
    "k,pu",
    [
        pytest.param(k, pu, id=f"K{k}-pu({pu[0]:g},{pu[1]:g})")
        for k, pu in [(k, pu) for k in (2, 3, 8, 16, 32, 64) for pu in _REFERENCE_PUS]
        + [(32, (0.0858, 1e-3))]
    ],
)
def test_matches_high_precision_reference(k, pu):
    p = solve_equal_ratio(k, pu)
    assert p.residual_norm <= 1e-10
    with mp.workdps(50):
        reference = _reference_layout(k, pu)
        errors = [float(abs(mp.mpf(d) / r - 1)) for d, r in zip(p.d_data, reference)]
    assert max(errors) <= 1e-9


def test_unreachable_unit_sum_raises():
    # 1e-9 off the segment no double rho brings 64 hops within 1e-10 of
    # summing to one: the two nearest miss by -2.6e-8 and 1.6e-8
    with pytest.raises(ConvergenceError):
        solve_equal_ratio(64, (0.5, 1e-9))


# (K, PU, iterations, ratio) of the balanced-layout solve; the cases at
# (0.5, 1e-3) and (0.0858, 1e-3) halve Newton steps
_PINNED_SOLVES = [
    (2, (0.35, 0.35), 5, "0x1.1ce97a8220763p+0"),
    (4, (1.115, 0.15), 6, "0x1.9ada234b75738p-2"),
    (8, (0.5, 1e-3), 6, "0x1.01e73225573cap+0"),
    (32, (0.0858, 1e-3), 8, "0x1.9eb9791320511p-2"),
    (64, (1.0, 1e-6), 20, "0x1.a16dda7f78a1bp-3"),
    (64, (0.5, 1e-3), 22, "0x1.b85e51da27815p-3"),
]


@pytest.mark.parametrize("k,pu,iterations,ratio", _PINNED_SOLVES)
def test_solver_iterations_and_ratio_pinned(k, pu, iterations, ratio):
    p = solve_equal_ratio(k, pu)
    assert (p.iterations, p.ratio) == (iterations, float.fromhex(ratio))


def test_solver_backtracks_through_module_newton(monkeypatch):
    # solve_equal_ratio looks newton_system up at call time, so a wrapper
    # bound to the module (as the benchmark's span recorder binds one)
    # sees every residual evaluation
    evaluations = []
    newton = placement.newton_system

    def counting(residual, rho):
        return newton(lambda r: evaluations.append(r) or residual(r), rho)

    monkeypatch.setattr(placement, "newton_system", counting)
    p = solve_equal_ratio(8, (0.5, 1e-3))
    # one evaluation at the start and one per iteration without halving
    assert len(evaluations) > p.iterations + 1


def test_degenerate_primary_position_rejected():
    with pytest.raises(ConfigError):
        solve_equal_ratio(2, (0.5, 0.0))


def test_positions_are_eta_free_but_performance_is_not():
    # the solved system never involves the path loss exponent; only the
    # performance evaluated on top of the positions changes with it
    p = solve_equal_ratio(3, PU)
    values = [outage_asymptotic(_layout_alphas(p, 100.0, eta), 1.0) for eta in (2.0, 4.0, 6.0)]
    assert len(set(values)) == 3


def test_op_min_formula_and_example():
    # the outage asymptote at the balanced layout is
    # (gamma_th/(I_p/N_0)) * K * rho^eta
    p = solve_equal_ratio(2, PU)
    r = p.ratio
    expected = 0.02 * r ** 4
    op_min = outage_asymptotic(_layout_alphas(p, 100.0), 1.0)
    assert op_min == pytest.approx(expected, rel=1e-12)
    assert op_min == pytest.approx(0.0307, abs=2e-4)


def test_op_min_equals_asymptote_at_optimal_geometry():
    # (gamma_th/(I_p/N_0)) * K * (prod_k d_k/d_I_k)^(eta/K) from the
    # solved distances alone, against the asymptote on the layout's alphas
    for k in (2, 3, 4):
        p = solve_equal_ratio(k, PU)
        closed_form = (1.0 / 100.0) * k * _ratio_product(p) ** (4.0 / k)
        assert closed_form == pytest.approx(
            outage_asymptotic(_layout_alphas(p, 100.0), 1.0), rel=1e-10
        )


def test_ber_min_formula():
    # (a/2b) * K * (prod_k d_k/d_I_k)^(eta/K) / (I_p/N_0); a/2b = 1/4 for QPSK
    c4 = qam_constants(4)
    p1 = solve_equal_ratio(1, PU)
    r = 1.0 / math.sqrt(0.245)
    assert e2e_ber_asymptotic(_layout_alphas(p1, 100.0), c4) == pytest.approx(
        0.25 * r ** 4 / 100.0, rel=1e-12
    )
    p2 = solve_equal_ratio(2, PU)
    assert e2e_ber_asymptotic(_layout_alphas(p2, 100.0), c4) == pytest.approx(
        0.25 * 2 * _ratio_product(p2) ** 2 / 100.0, rel=1e-12
    )


def test_direct_search_two_hops():
    d, obj = direct_search(2, PU, 4.0, grid_resolution=400)
    assert d[0] == pytest.approx(0.5878, abs=1e-3)
    assert obj == pytest.approx(2.8893, abs=1e-3)
    balanced = solve_equal_ratio(2, PU)
    balanced_obj = placement_objective(balanced.d_data, PU, 4.0)
    assert balanced_obj == pytest.approx(3.0684, abs=1e-3)
    assert obj <= balanced_obj + 1e-9


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_direct_search_never_worse_than_balanced(k):
    d, obj = direct_search(k, PU, 4.0)
    balanced = solve_equal_ratio(k, PU)
    assert obj <= placement_objective(balanced.d_data, PU, 4.0) + 1e-9
    assert sum(d) == pytest.approx(1.0, abs=1e-9)


def test_direct_search_far_primary_agrees_with_balanced():
    d, _ = direct_search(3, (0.5, 1e6), 4.0)
    balanced = solve_equal_ratio(3, (0.5, 1e6))
    assert list(d) == pytest.approx(list(balanced.d_data), abs=1e-6)


def test_direct_search_hop_limit():
    with pytest.raises(ConfigError):
        direct_search(5, PU, 4.0)
