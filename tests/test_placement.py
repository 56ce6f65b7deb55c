import math
import random
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cogrelay import (
    ConfigError,
    ConvergenceError,
    NumericError,
    Scenario,
    derive_hop_statistics,
    direct_search,
    e2e_ber_asymptotic,
    outage_asymptotic,
    placement,
    placement_objective,
    qam_constants,
    solve_equal_ratio,
)
from oracles import grid_search

PU = (0.35, 0.35)


def _layout_alphas(p, ip_over_n0, eta=4.0):
    """Per-hop alphas of the scenario with the hop lengths of layout p."""
    scn = Scenario(hop_count=p.hop_count, pu_coord=PU, path_loss_exponent=eta,
                   ip_over_n0=ip_over_n0)
    return derive_hop_statistics(scn, p.d_data)


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


def test_direct_search_backtracks_through_module_newton(monkeypatch):
    # direct_search looks newton_system up at call time, so a wrapper
    # bound to the module (as the benchmark's span recorder binds one)
    # sees every residual evaluation of its shot
    shots = []
    newton = placement.newton_system

    def counting(residual, rho, floor=0.0):
        evaluations = []
        rho, iterations = newton(lambda r: evaluations.append(r) or residual(r), rho, floor)
        if floor:  # the shot on r_1, not a hop's root
            shots.append((len(evaluations), iterations))
        return rho, iterations

    monkeypatch.setattr(placement, "newton_system", counting)
    direct_search(8, (0.5, 1e-3), 4.0, solve_equal_ratio(8, (0.5, 1e-3)).ratio)
    [(evaluations, iterations)] = shots
    # one evaluation at the start and one per iteration without halving
    assert evaluations > iterations + 1


def _alone(k, pu):
    try:
        return solve_equal_ratio(k, pu)
    except (ConfigError, NumericError) as exc:
        return exc


def _assert_rows_solved_alone(k, xs, ys):
    """Every row of the batch solve has the bits of its point solved alone,
    and the batch's iterations are the points' total."""
    batch = solve_equal_ratio(k, (np.array(xs), np.array(ys)))
    alone = [solve_equal_ratio(k, pu) for pu in zip(xs, ys)]
    assert batch.d_data.shape == batch.d_interference.shape == (len(xs), k)
    for i, p in enumerate(alone):
        assert tuple(batch.d_data[i].tolist()) == p.d_data
        assert tuple(batch.d_interference[i].tolist()) == p.d_interference
        assert (float(batch.ratio[i]), float(batch.residual_norm[i])) == (p.ratio, p.residual_norm)
    assert type(batch.iterations) is int
    assert batch.iterations == sum(p.iterations for p in alone)
    return alone


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 16),
       pus=st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(1e-3, 2.0)),
                    min_size=1, max_size=8))
def test_each_row_of_a_batch_solve_is_its_point_solved_alone(k, pus):
    xs, ys = zip(*pus)
    _assert_rows_solved_alone(k, xs, ys)


def test_a_batch_mixes_points_that_settle_at_once_with_points_that_halve():
    # far receivers start at their root; (0.5, 1e-3) halves Newton steps
    alone = _assert_rows_solved_alone(8, [0.5, 0.5, 0.5, 0.2], [1e8, 1e-3, 1e6, 0.3])
    assert [p.iterations for p in alone][:3] == [0, 6, 1]


def test_a_batch_solve_raises_the_error_of_its_first_failing_point():
    # (0.5, 1e-9) misses the 1e-10 residual at 64 hops; (0.5, 0) lies on
    # the segment
    cases = [
        ([0.35, 0.5, 0.5], [0.35, 1e-9, 0.0]),
        ([0.35, 0.5, 0.5], [0.35, 0.0, 1e-9]),
        ([0.5, 0.35], [1e-9, 0.35]),
    ]
    for xs, ys in cases:
        errors = [_alone(64, pu) for pu in zip(xs, ys)]
        first = next(e for e in errors if isinstance(e, Exception))
        with pytest.raises(type(first)) as raised:
            solve_equal_ratio(64, (np.array(xs), np.array(ys)))
        assert type(raised.value) is type(first)
        assert str(raised.value) == str(first)


def test_a_single_hop_is_the_exact_inverse_distance_at_every_point():
    xs, ys = [0.35, -1.0, 1.7, 0.5], [0.35, 1e-3, 0.2, 1e6]
    batch = solve_equal_ratio(1, (np.array(xs), np.array(ys)))
    assert batch.d_data.tolist() == [[1.0]] * 4
    assert batch.ratio.tolist() == [1.0 / math.hypot(x, y) for x, y in zip(xs, ys)]
    assert batch.residual_norm.tolist() == [0.0] * 4
    assert batch.iterations == 0


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
    d, obj = grid_search(2, PU, 4.0, grid_resolution=400)
    assert d[0] == pytest.approx(0.5878, abs=1e-3)
    assert obj == pytest.approx(2.8893, abs=1e-3)
    balanced = solve_equal_ratio(2, PU)
    balanced_obj = placement_objective(balanced.d_data, PU, 4.0)
    assert balanced_obj == pytest.approx(3.0684, abs=1e-3)
    assert obj <= balanced_obj + 1e-9
    d_exact, obj_exact = direct_search(2, PU, 4.0, balanced.ratio)
    assert d_exact[0] == pytest.approx(d[0], abs=1e-7)
    assert obj_exact <= obj * (1 + 1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_direct_search_never_worse_than_balanced(k):
    balanced = solve_equal_ratio(k, PU)
    d, obj = direct_search(k, PU, 4.0, balanced.ratio)
    assert obj <= placement_objective(balanced.d_data, PU, 4.0) + 1e-9
    assert sum(d) == pytest.approx(1.0, abs=1e-9)


def test_direct_search_far_primary_agrees_with_balanced():
    balanced = solve_equal_ratio(3, (0.5, 1e6))
    d, _ = direct_search(3, (0.5, 1e6), 4.0, balanced.ratio)
    assert list(d) == pytest.approx(list(balanced.d_data), abs=1e-6)


@pytest.mark.parametrize("k", [5, 8, 64])
def test_direct_search_solves_long_chains(k):
    balanced = solve_equal_ratio(k, PU)
    d, obj = direct_search(k, PU, 4.0, balanced.ratio)
    assert len(d) == k and all(v > 0 for v in d)
    assert abs(math.fsum(d) - 1.0) <= 1e-10
    assert obj == placement_objective(d, PU, 4.0)
    assert obj <= placement_objective(balanced.d_data, PU, 4.0)


def _geometries(seed, count, hop_counts, etas):
    rng = random.Random(seed)
    return [
        (rng.choice(hop_counts), (rng.uniform(-1.0, 2.0), rng.uniform(0.05, 1.0)),
         rng.choice(etas))
        for _ in range(count)
    ]


def test_direct_search_never_worse_than_the_grid_oracle():
    # the exact stationary point against the grid search plus line
    # searches, which reaches 4 hops at most
    worst = 0.0
    for k, pu, eta in _geometries(11, 300, (2, 3, 4), (2.0, 2.5, 3.0, 4.0)):
        _, obj = direct_search(k, pu, eta, solve_equal_ratio(k, pu).ratio)
        _, obj_grid = grid_search(k, pu, eta)
        worst = max(worst, obj / obj_grid - 1.0)
    assert worst <= 1e-12


def test_direct_search_no_feasible_perturbation_lowers_the_objective():
    rng = random.Random(12)
    geometries = _geometries(13, 60, (2, 3, 5, 8, 16, 32, 64), (2.0, 3.0, 4.0, 6.0, 8.0))
    geometries += [(64, PU, 4.0), (64, (1.0, 0.05), 2.0), (64, (-0.5, 0.1), 8.0)]
    for k, pu, eta in geometries:
        d, obj = direct_search(k, pu, eta, solve_equal_ratio(k, pu).ratio)
        for _ in range(20):
            # a direction along the simplex, scaled to keep every hop positive
            v = [rng.uniform(-1.0, 1.0) for _ in range(k)]
            mean = math.fsum(v) / k
            v = [x - mean for x in v]
            scale = min(d) / max(abs(x) for x in v)
            for step in (1e-2, 1e-3, 1e-4):
                moved = [a + step * scale * b for a, b in zip(d, v)]
                assert placement_objective(moved, pu, eta) >= obj * (1 - 1e-13), (k, pu, eta)


def test_direct_search_stops_its_shot_at_the_rounding_floor():
    # |sum d - 1| reaches its floor before r_1 settles: the shot stops
    # there, where it ran all 60 halvings in each of its 100 iterations
    # (3-6 s), and says why as before
    start = time.perf_counter()
    ratio = solve_equal_ratio(64, (1.0, 1e-300)).ratio
    with pytest.raises(ConvergenceError,
                       match=r"^direct search: placement Newton: residual 1\.895e-16 after"):
        direct_search(64, (1.0, 1e-300), 2.0, ratio)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("py", [1e-300, 1e-8, 1e-4])
@pytest.mark.parametrize("px", [-0.5, 0.0, 0.5, 1.0, 1.088])
def test_direct_search_near_the_line_returns_or_raises_convergence_error(px, py):
    # receivers this close to the line are where no stationary minimum
    # may exist or be reachable in double precision; where no balanced
    # layout is found either, there is no start to shoot from
    for k in (2, 3, 8, 64):
        try:
            ratio = solve_equal_ratio(k, (px, py)).ratio
        except NumericError:
            continue
        for eta in (2.0, 4.0, 8.0):
            try:
                d, obj = direct_search(k, (px, py), eta, ratio)
            except ConvergenceError:
                continue
            assert abs(math.fsum(d) - 1.0) <= 1e-9
            assert all(v > 0 for v in d)
            assert obj == placement_objective(d, (px, py), eta)
