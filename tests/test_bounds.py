from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphabound import bounds
from alphabound.bounds import (bound_report, brooks_bound, c_bound,
                               caro_wei_bound, d_bound, truncated_c_bound)
from alphabound.exact import exact_alpha
from alphabound.families import (chain_blocks, complete_graph, cycle_graph,
                                 cycle_with_pendants, path_graph,
                                 petersen_graph, random_connected, star_graph)
from alphabound.graphcore import Graph


def test_star_bounds():
    g = star_graph(3)
    assert brooks_bound(g) == F(4, 3)
    assert c_bound(g) == F(7, 3)          # 3*c1 + c3 = 3*(2/3) + 1/3
    assert truncated_c_bound(g, 4) == F(17, 8)
    assert caro_wei_bound(g) == F(7, 4)
    e = d_bound(g)
    assert (e.a, e.b) == (4, -5)          # 3*(1-1/e) + (1-2/e)


def test_pendant_cycle_bounds():
    g = cycle_with_pendants(10)
    assert c_bound(g) == F(75, 8)
    assert truncated_c_bound(g, 6) == F(1373, 144)
    assert brooks_bound(g) == F(21, 4)
    assert caro_wei_bound(g) == F(159, 20)
    e = d_bound(g)
    assert (e.a, e.b) == (18, -23)


def test_pendant_cycle_bounds_general():
    # 11*c1(4) + 9*c3(4) + c4(4) with the known quarter tail
    for n in (5, 12, 40):
        g = cycle_with_pendants(n)
        expect = (n + 1) * F(5, 8) + (n - 1) * F(1, 4) + F(1, 4)
        assert c_bound(g) == expect
        e = d_bound(g)
        assert (e.a, e.b) == (2 * n - 2, 7 - 3 * n)


def test_petersen_bounds():
    g = petersen_graph()
    assert brooks_bound(g) == c_bound(g) == F(10, 3)
    assert caro_wei_bound(g) == F(5, 2)


def test_truncation_needs_larger_delta():
    g = star_graph(3)
    with pytest.raises(ValueError, match="above the graph's maximum degree"):
        truncated_c_bound(g, 3)
    with pytest.raises(ValueError, match="above the graph's maximum degree"):
        truncated_c_bound(g, 2)


def test_truncation_not_comparable_with_native():
    # pendant cycle: truncation to 6 wins; 4-regular circulant: native wins
    from alphabound.families import circulant_graph
    gs = cycle_with_pendants(10)
    assert truncated_c_bound(gs, 6) > c_bound(gs)
    cg = circulant_graph(9, (1, 2))
    assert truncated_c_bound(cg, 6) == F(15, 8) < c_bound(cg) == F(9, 4)


def test_caro_wei_no_class_requirement():
    assert caro_wei_bound(cycle_graph(5)) == F(5, 3)
    assert caro_wei_bound(path_graph(2)) == 1


def test_bounds_require_class_membership():
    k4 = complete_graph(4)
    for fn in (brooks_bound, c_bound, d_bound):
        with pytest.raises(ValueError, match="not in class"):
            fn(k4)
    with pytest.raises(ValueError, match="not in class"):
        truncated_c_bound(cycle_graph(5), 6)


def test_bound_report_structure():
    g = cycle_with_pendants(10)
    r = bound_report(g, truncation_deltas=(5, 6))
    assert r.profile.delta_max == 4
    assert set(r.truncated) == {5, 6}
    assert r.weighted == F(75, 8)
    # 287/30 from the delta=5 truncation edges out the limit bound 18 - 23/e
    assert r.truncated[5] == F(287, 30)
    assert r.best == "truncated[5]"
    r2 = bound_report(g)
    assert r2.truncated == {}
    assert r2.best == "euler"


def test_bound_report_checks_class_and_profile_once(monkeypatch):
    calls = {"is_connected": 0, "degree_profile": 0}
    is_connected = Graph.is_connected
    degree_profile = bounds.degree_profile

    def counting_is_connected(g):
        calls["is_connected"] += 1
        return is_connected(g)

    def counting_degree_profile(g):
        calls["degree_profile"] += 1
        return degree_profile(g)

    g = cycle_with_pendants(10)
    monkeypatch.setattr(Graph, "is_connected", counting_is_connected)
    monkeypatch.setattr(bounds, "degree_profile", counting_degree_profile)
    r = bound_report(g, truncation_deltas=range(5, 13))
    assert calls == {"is_connected": 1, "degree_profile": 1}
    assert r.profile == degree_profile(g)
    # the bounds read degree counts only, so no neighbour set is ever built
    assert g._nbr is None


@given(st.integers(3, 6), st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_bound_report_matches_public_bounds(delta, seed):
    g = random_connected(delta + 1 + seed % 30, delta, seed)
    r = bound_report(g, truncation_deltas=(delta + 3, delta + 1))
    assert r.profile.delta_max == delta
    assert r.brooks == brooks_bound(g)
    assert r.weighted == c_bound(g)
    assert r.truncated == {d: truncated_c_bound(g, d)
                           for d in (delta + 1, delta + 3)}
    assert r.euler == d_bound(g)
    assert r.caro_wei == caro_wei_bound(g)
    with pytest.raises(ValueError, match="truncation needs"):
        bound_report(g, truncation_deltas=(delta + 1, delta))


def test_bound_report_best_on_regular():
    # on a regular graph brooks and weighted coincide; first wins ties
    g = petersen_graph()
    r = bound_report(g)
    assert r.best == "brooks"


@given(st.integers(3, 6), st.integers(0, 400))
@settings(max_examples=60, deadline=None)
def test_bounds_below_alpha(delta, seed):
    n = 5 + seed % 8
    if n < delta + 1:
        n = delta + 1
    g = random_connected(n, delta, seed)
    alpha = exact_alpha(g).alpha
    assert brooks_bound(g) <= alpha
    assert c_bound(g) <= alpha
    assert caro_wei_bound(g) <= alpha
    assert truncated_c_bound(g, delta + 1) <= alpha
    assert d_bound(g) <= alpha


def test_chain_bound_is_tight():
    for delta in (3, 4, 5):
        for k in (2, 3, 4):
            g = chain_blocks(delta, k)
            assert c_bound(g) == k
