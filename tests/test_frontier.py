from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmax import SampleSpace, branch_and_bound, brute_force, eval_hamiltonian
from ergmax.frontier import witness
from ergmax.graph import num_pairs

from helpers import triangle_count_by_triples, triads_maxmin, union_find_connected

ALPHAS = [Fraction(k, 10) for k in (0, 1, 3, 5, 7, 9, 10)]
SPACES = [SampleSpace.connected_graphs(), SampleSpace.all_graphs()]


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("space", SPACES, ids=lambda s: s.label())
def test_witness_scores_the_brute_force_optimum_up_to_six_nodes(space, alpha):
    h = triads_maxmin(alpha)
    for n in range(2, 7):
        optimum, _ = brute_force(n, space, h)
        assert eval_hamiltonian(h, witness(n, alpha, space.connected)) == optimum.objective, n


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
@pytest.mark.parametrize("n", [7, 8])
def test_connected_witness_scores_the_proven_bnb_optimum(n, alpha):
    h = triads_maxmin(alpha)
    g = witness(n, alpha, connected=True)
    result = branch_and_bound(n, SampleSpace.connected_graphs(), h, incumbent=g)
    assert result.status == "optimal"
    assert eval_hamiltonian(h, g) == result.objective


def full_sweep(n: int, alpha: Fraction, connected: bool) -> tuple[int, int]:
    """(m, KK(e)) of the smallest core edge count e scoring best, by scoring
    every e from 0 to n(n-1)/2."""
    pairs = num_pairs(n)
    scored = []
    for e in range(pairs + 1):
        s = max(k for k in range(1, n + 1) if comb(k, 2) <= e)
        r = e - comb(s, 2)
        m = e + n - s - (r > 0) if connected else e
        t = comb(s, 3) + comb(r, 2)
        scored.append((min(alpha * (pairs - m), (1 - alpha) * t), -e, m, t))
    _, _, m, t = max(scored)
    return m, t


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=30),
    st.fractions(min_value=0, max_value=1, max_denominator=20),
    st.booleans(),
)
def test_witness_lies_in_its_space_with_the_counts_the_full_sweep_picks(n, alpha, connected):
    g = witness(n, alpha, connected)
    assert g.n == n
    assert union_find_connected(g) or not connected
    assert (g.edge_count, triangle_count_by_triples(g)) == full_sweep(n, alpha, connected)


def test_witness_rejects_an_alpha_outside_the_unit_interval():
    with pytest.raises(ValueError, match="alpha must lie in"):
        witness(5, Fraction(11, 10), connected=True)
