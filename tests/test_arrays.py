"""The array closed forms: a (P, K) call equals P per-row calls bit for bit.

Rows are single chains of K hops with alpha from 1e-30 to 1e30; some
repeat or nearly repeat a value, so one call mixes pole multiplicity
patterns, and some take capacity's remainder series or its survival
quadrature.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cogrelay import (
    capacity,
    e2e_ber,
    e2e_ber_asymptotic,
    ergodic_capacity_ind,
    hop_ber,
    outage_asymptotic,
    outage_exact,
    per_hop_capacity,
    qam_constants,
)

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# rows that take the fallbacks (checked to do so below): an order-24 pole
# at 1.45 whose series cancels (remainder series); poles 1e-5 apart whose
# float64 sum cancels, and prod(alpha) overflowing or underflowing
# (quadrature)
REMAINDER_ROWS = [[1.45] * 24, [1.45] * 23 + [9.0]]
QUADRATURE_ROWS = [[3.0 * (1 + 1e-5 * k) for k in range(12)], [1e30] * 12, [1e-30] * 12]


@st.composite
def alpha_matrices(draw):
    """(P, K) alphas; each row spread, clustered, or equal around a scale."""
    k = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        scale = 10.0 ** draw(st.floats(-30, 30))
        kind = draw(st.sampled_from(["spread", "repeat", "near", "equal"]))
        row = [scale * 10.0 ** draw(st.floats(-3, 3)) for _ in range(k)]
        if kind == "equal":
            row = [scale] * k
        elif k > 1 and kind in ("repeat", "near"):
            for j in draw(st.lists(st.integers(1, k - 1), max_size=k - 1)):
                row[j] = row[0] * (1.0 if kind == "repeat" else 1.0 + 1e-7 * j)
        rows.append(row)
    return np.array(rows)


def _rows_equal(array_value, row_values):
    assert array_value.shape == (len(row_values),)
    assert array_value.tolist() == row_values


@SETTINGS
@given(alpha_matrices(), st.sampled_from([0.0, 0.5, 1.0, 10.0]))
def test_outage_forms(alphas, gamma_th):
    _rows_equal(outage_exact(alphas, gamma_th), [outage_exact(r, gamma_th) for r in alphas])
    _rows_equal(
        outage_asymptotic(alphas, gamma_th), [outage_asymptotic(r, gamma_th) for r in alphas]
    )


@SETTINGS
@given(alpha_matrices(), st.sampled_from([4, 16, 64, 256]))
def test_ber_forms(alphas, m):
    c = qam_constants(m)
    per_hop = hop_ber(alphas, c)
    assert per_hop.tolist() == [[hop_ber(a, c) for a in row] for row in alphas.tolist()]
    _rows_equal(e2e_ber(per_hop), [e2e_ber(row) for row in per_hop])
    _rows_equal(e2e_ber_asymptotic(alphas, c), [e2e_ber_asymptotic(r, c) for r in alphas])


@SETTINGS
@given(alpha_matrices())
@example(np.array(REMAINDER_ROWS + [[0.7] * 23 + [1.3]]))
@example(np.array(QUADRATURE_ROWS + [[2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0]]))
def test_capacity_forms(alphas):
    k = alphas.shape[1]
    assert per_hop_capacity(alphas, k).tolist() == [
        [per_hop_capacity(a, k) for a in row] for row in alphas.tolist()
    ]
    _rows_equal(ergodic_capacity_ind(alphas), [ergodic_capacity_ind(r) for r in alphas])


@pytest.mark.parametrize("rows, fallback", [
    (REMAINDER_ROWS, "_kernel_remainder"),
    (QUADRATURE_ROWS, "_survival_quadrature"),
])
def test_fallback_examples_take_the_fallbacks(monkeypatch, rows, fallback):
    calls = []
    original = getattr(capacity, fallback)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(capacity, fallback, spy)
    for row in rows:
        calls.clear()
        ergodic_capacity_ind(row)
        assert calls, row
