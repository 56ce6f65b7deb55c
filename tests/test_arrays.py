"""The array closed forms: a (P, K) call equals P per-row calls bit for bit.

Rows are single chains of K hops with alpha from 1e-30 to 1e30; some
repeat or nearly repeat a value.  Chains of up to four hops take
capacity's simple-pole closed form, and those whose sum it cannot bound
(repeated, nearly repeated or overflowing hops) take the survival
quadrature within the same call; longer chains take the quadrature
itself.
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

# rows that take the survival quadrature (checked to do so below).  Every
# chain of five hops or more does: hops that repeat 1.45, and hops 1e-5
# apart.  At four hops and fewer the closed form falls back to it where
# its terms cancel and where prod(alpha) overflows or underflows.
REPEAT_ROWS = [[1.45] * 24, [1.45] * 23 + [9.0]]
QUADRATURE_ROWS = [[3.0 * (1 + 1e-5 * k) for k in range(12)], [1e30] * 12, [1e-30] * 12]
FALLBACK_ROWS = [[3.0 * (1 + 1e-5 * k) for k in range(4)], [1e300] * 4, [1e-300] * 4]


@st.composite
def alpha_matrices(draw):
    """(P, K) alphas; each row spread, clustered, or equal around a scale."""
    k = draw(st.integers(1, 16))
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
@example(np.array(REPEAT_ROWS + [[0.7] * 23 + [1.3]]))
@example(np.array(QUADRATURE_ROWS + [[2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0, 23.0, 29.0, 31.0, 37.0]]))
@example(np.array(FALLBACK_ROWS + [[2.0, 3.0, 5.0, 7.0]]))
def test_capacity_forms(alphas):
    k = alphas.shape[1]
    assert per_hop_capacity(alphas, k).tolist() == [
        [per_hop_capacity(a, k) for a in row] for row in alphas.tolist()
    ]
    _rows_equal(ergodic_capacity_ind(alphas), [ergodic_capacity_ind(r) for r in alphas])


# α from the smallest normal double, which every command accepts, to 1e30
_ALPHAS = st.one_of(st.floats(2.0**-1022, 1e30),
                    st.floats(-30, 30).map(lambda e: 10.0 ** e))


@st.composite
def padded_chains(draw):
    """Chains of 1 to 64 hops, some with repeated hops, as (P, 64) rows
    padded with +inf, and the chains themselves."""
    chains = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 64))
        chain = draw(st.lists(_ALPHAS, min_size=k, max_size=k))
        if draw(st.booleans()):
            chain = [chain[0]] * (k // 2) + chain[k // 2:]
        chains.append(chain)
    padded = np.full((len(chains), 64), np.inf)
    for row, chain in zip(padded, chains):
        row[:len(chain)] = chain
    return padded, chains


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(padded_chains(), st.sampled_from([0.0, 0.5, 1.0, 10.0]), st.sampled_from([4, 16, 256]))
def test_padded_chains_keep_their_bits(padded_chains, gamma_th, m):
    # +inf past a chain's hops is no hop: log1p(g/inf) = 0 and 1/inf = 0
    # enter the sums, a hop's BER at inf is 0, and capacity's factor
    # 1 + g/inf is 1, with the route and limits chosen by the real hops;
    # per_hop_capacity is +inf there, so a pad never reaches a chain's min
    padded, chains = padded_chains
    counts = np.array([len(chain) for chain in chains])
    c = qam_constants(m)
    _rows_equal(outage_exact(padded, gamma_th), [outage_exact(r, gamma_th) for r in chains])
    _rows_equal(outage_asymptotic(padded, gamma_th),
                [outage_asymptotic(r, gamma_th) for r in chains])
    assert hop_ber(np.inf, c) == 0.0
    _rows_equal(e2e_ber(hop_ber(padded, c)), [e2e_ber(hop_ber(r, c)) for r in chains])
    _rows_equal(e2e_ber_asymptotic(padded, c), [e2e_ber_asymptotic(r, c) for r in chains])
    _rows_equal(ergodic_capacity_ind(padded, counts), [ergodic_capacity_ind(r) for r in chains])
    per_hop = per_hop_capacity(padded, counts[:, None].tolist())  # a list broadcasts too
    assert per_hop.tolist() == [[per_hop_capacity(a, len(r)) for a in r] + [np.inf] * (64 - len(r))
                                for r in chains]


def _spy(monkeypatch, name):
    """Arguments of every call to capacity.<name> from now on."""
    calls = []
    original = getattr(capacity, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(capacity, name, spy)
    return calls


@pytest.mark.parametrize("rows, fallback", [
    (REPEAT_ROWS, "_survival_quadrature"),
    (QUADRATURE_ROWS, "_survival_quadrature"),
    (FALLBACK_ROWS, "_survival_quadrature"),
])
def test_fallback_examples_take_the_fallbacks(monkeypatch, rows, fallback):
    calls = _spy(monkeypatch, fallback)
    for row in rows:
        calls.clear()
        ergodic_capacity_ind(row)
        assert calls, row

