import os
import stat

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qwmix import (
    MarkovChain,
    NoMix,
    NonReversibleError,
    ReducibleChainError,
    conductance,
    distance_bound_from_entries,
    lazy_chain,
    load_csv,
    mixing_time,
    mixing_time_bound_from_distance,
    one_norm,
    pairwise_column_distance,
    random_symmetric_chain,
    save_csv,
    spectral_gap,
    standard_chain,
    stationary_distribution,
    symmetrized_generator,
    uniform_projector_chain,
    verify_inequalities,
)
from qwmix.chains import atomic_write_text
from qwmix.graphs import complete, cycle, hypercube, lattice, path

from conftest import (
    MIX_THRESHOLD,
    brute_conductance,
    brute_mixing_time,
    brute_pairwise_distance,
    brute_period,
    brute_reachable,
    refusal_peak,
)

SQRT_HALF = 1.0 / np.sqrt(2.0)


def test_standard_chain_columns_sum_to_one(small_chains):
    for P in small_chains:
        np.testing.assert_allclose(P.entries.sum(axis=0), 1.0, atol=1e-12)


def test_degree_weighted_stationary():
    P = standard_chain(path(3))
    # stationary mass proportional to degree (1, 2, 1)
    np.testing.assert_allclose(stationary_distribution(P), [0.25, 0.5, 0.25], atol=1e-12)


def test_regular_graph_stationary_uniform():
    P = standard_chain(cycle(9))
    np.testing.assert_allclose(stationary_distribution(P), 1.0 / 9.0, atol=0)


def test_stationary_is_fixed_point(small_chains):
    for P in small_chains:
        pi = stationary_distribution(P)
        np.testing.assert_allclose(P.entries @ pi, pi, atol=1e-10)


def test_chain_rejects_bad_columns():
    with pytest.raises(ValueError):
        MarkovChain(np.array([[0.5, 0.0], [0.4, 1.0]]), "bad")
    with pytest.raises(ValueError):
        MarkovChain(np.array([[1.0, -0.2], [0.0, 1.2]]), "bad")


def test_disconnected_graph_rejected():
    from qwmix.graphs import Graph

    G = Graph(4, frozenset({(0, 1), (2, 3)}), "two-edges")
    with pytest.raises(ValueError):
        standard_chain(G)


def test_symmetrized_generator_path3():
    H = symmetrized_generator(standard_chain(path(3)))
    expected = np.array(
        [[0.0, SQRT_HALF, 0.0], [SQRT_HALF, 0.0, SQRT_HALF], [0.0, SQRT_HALF, 0.0]]
    )
    np.testing.assert_allclose(H, expected, atol=1e-12)


def test_symmetrized_generator_shares_spectrum():
    P = standard_chain(path(4))
    H = symmetrized_generator(P)
    ev_h = np.sort(np.linalg.eigvalsh(H))
    ev_p = np.sort(np.linalg.eigvals(P.entries).real)
    np.testing.assert_allclose(ev_h, ev_p, atol=1e-10)


def test_nonreversible_chain_rejected():
    # directed 3-cycle: doubly stochastic but not reversible
    P = MarkovChain(np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "rot3")
    with pytest.raises(NonReversibleError):
        symmetrized_generator(P)


def test_spectral_gap_values():
    assert spectral_gap(standard_chain(cycle(4))) == pytest.approx(0.0, abs=1e-12)
    assert spectral_gap(lazy_chain(standard_chain(cycle(4)))) == pytest.approx(0.5, abs=1e-12)
    assert spectral_gap(standard_chain(complete(4))) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_mixing_time_complete4():
    assert mixing_time(standard_chain(complete(4))) == 2


def test_mixing_time_matches_brute(small_chains):
    for P in small_chains:
        if not P.is_irreducible or P.period != 1:
            continue
        pi = stationary_distribution(P)
        expected = brute_mixing_time(P.entries, pi, horizon=500)
        assert mixing_time(P) == expected


def test_mixing_time_periodic_chain_reports_no_mix():
    P = standard_chain(cycle(4))
    result = mixing_time(P, horizon=50)
    assert isinstance(result, NoMix)
    assert result.horizon == 50


def test_horizon_below_one_is_refused_by_every_search():
    P = standard_chain(cycle(5))
    for search in (mixing_time, verify_inequalities):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            search(P, horizon=0)


def test_mixing_time_bound_from_distance():
    assert mixing_time_bound_from_distance(MIX_THRESHOLD) == 1
    assert mixing_time_bound_from_distance(0.5) == 3
    assert mixing_time_bound_from_distance(0.9) == 17
    with pytest.raises(ValueError):
        mixing_time_bound_from_distance(1.0)


def test_distance_bound_from_entries():
    P = uniform_projector_chain(4)
    assert distance_bound_from_entries(P, beta=1.0, gamma=1.0) == pytest.approx(0.0)
    Q = standard_chain(complete(3))
    # two of three entries per column are 1/2 = (3/2)/3
    assert distance_bound_from_entries(Q, beta=2.0 / 3.0, gamma=1.5) == pytest.approx(0.5)
    assert distance_bound_from_entries(Q, beta=2.0 / 3.0, gamma=0.5) == pytest.approx(5.0 / 6.0)
    with pytest.raises(ValueError):
        distance_bound_from_entries(Q, beta=0.5, gamma=1.0)
    with pytest.raises(ValueError):
        distance_bound_from_entries(Q, beta=0.9, gamma=1.5)


def test_pairwise_column_distance_uniform_projector():
    assert pairwise_column_distance(uniform_projector_chain(5)) == pytest.approx(0.0)


def test_pairwise_column_distance_identity_is_one():
    P = standard_chain(cycle(6))
    # columns of P share no support at distance 2, so d(P) = 1
    assert pairwise_column_distance(P) == pytest.approx(1.0)


def test_conductance_examples():
    assert conductance(standard_chain(complete(4))) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert conductance(standard_chain(cycle(8))) == pytest.approx(0.25, abs=1e-12)


def test_conductance_matches_brute(small_chains):
    for P in small_chains:
        pi = stationary_distribution(P)
        assert conductance(P) == pytest.approx(brute_conductance(P.entries, pi), abs=1e-10)


def test_conductance_size_cap():
    with pytest.raises(ValueError):
        conductance(standard_chain(cycle(21)))


def test_conductance_refuses_one_state():
    with pytest.raises(ValueError, match="N=1"):
        conductance(MarkovChain(np.ones((1, 1)), "one"))


def test_verify_inequalities_one_state_chain():
    report = verify_inequalities(MarkovChain(np.ones((1, 1)), "one"))
    assert report.phi is None
    assert "conductance_lower" not in {c.name for c in report.bound_checks}
    assert report.all_hold()


# every bipartite chain tried with N <= 20: the absolute gap is 0, the
# signed gap is not
BIPARTITE_GRAPHS = (
    [cycle(n) for n in range(2, 21, 2)]
    + [path(n) for n in range(2, 21)]
    + [hypercube(d) for d in range(1, 5)]
    + [lattice(4, 2), complete(2)]
)


@pytest.mark.parametrize("G", BIPARTITE_GRAPHS, ids=lambda G: G.kind_tag)
def test_verify_inequalities_bipartite_chains(G):
    P = standard_chain(G)
    assert P.period == 2
    report = verify_inequalities(P)
    checks = {c.name: c for c in report.bound_checks}
    assert report.delta == pytest.approx(0.0, abs=1e-12)
    assert checks["conductance_lower"].holds and checks["conductance_lower"].conclusive
    assert checks["conductance_upper"].holds
    assert [c.name for c in report.bound_checks if c.conclusive and not c.holds] == []


def test_verify_inequalities_lazy_cycle():
    report = verify_inequalities(lazy_chain(standard_chain(cycle(9))))
    assert report.all_hold()
    names = {c.name for c in report.bound_checks}
    assert {
        "relaxation_lower",
        "relaxation_upper",
        "conductance_lower",
        "conductance_upper",
        "column_distance_lower",
        "column_distance_upper",
    } <= names


def test_relaxation_lower_fails_on_small_complete_graphs():
    # tau = 1 while 1/delta = (N-1)/(N-2) > 1: the continuous-time
    # relaxation bound 1/delta <= tau is violated on complete graphs
    P = standard_chain(complete(8))
    assert 1.0 / spectral_gap(P) > mixing_time(P) == 1
    # the audit checks the discrete-time bound 1/ln(1/lambda*) <= tau,
    # with lambda* = 1/(N-1), which holds
    report = verify_inequalities(P)
    checks = {c.name: c for c in report.bound_checks}
    assert checks["relaxation_lower"].holds
    assert checks["relaxation_lower"].lhs == pytest.approx(1.0 / np.log(7.0), abs=1e-12)
    assert checks["relaxation_upper"].holds
    assert checks["conductance_lower"].holds
    assert checks["conductance_upper"].holds
    # the shifted form 1/delta - 1 <= tau does hold
    assert 1.0 / spectral_gap(P) - 1.0 <= mixing_time(P) + 1e-12


def test_verify_inequalities_on_random_chains(random_chain_family):
    for P in random_chain_family[:20]:
        report = verify_inequalities(P)
        checks = {c.name: c for c in report.bound_checks}
        assert checks["relaxation_lower"].holds
        assert checks["relaxation_upper"].holds
        assert checks["column_distance_lower"].holds
        assert checks["column_distance_upper"].holds
        if P.size <= 20:
            assert checks["conductance_lower"].holds
            assert checks["conductance_upper"].holds


def test_random_symmetric_chain_is_doubly_stochastic(random_chain_family):
    for P in random_chain_family[:10]:
        assert P.is_symmetric
        np.testing.assert_allclose(P.entries.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(stationary_distribution(P), 1.0 / P.size, atol=1e-12)


def test_random_symmetric_chain_deterministic():
    a = random_symmetric_chain(6, np.random.default_rng(0xC0FFEE))
    b = random_symmetric_chain(6, np.random.default_rng(0xC0FFEE))
    np.testing.assert_array_equal(a.entries, b.entries)


def test_lazy_chain_halves_dynamics():
    P = standard_chain(cycle(4))
    L = lazy_chain(P)
    np.testing.assert_allclose(L.entries, 0.5 * np.eye(4) + 0.5 * P.entries, atol=1e-15)
    assert L.period == 1


def test_one_norm_is_max_column_sum():
    M = np.array([[1.0, -3.0], [2.0, 1.0]])
    assert one_norm(M) == pytest.approx(4.0)


def test_csv_round_trip(tmp_path, small_chains):
    for P in small_chains[:3]:
        out = tmp_path / "chain.csv"
        save_csv(P, str(out))
        text = out.read_text()
        assert text.startswith(f"# column-stochastic N={P.size}")
        Q = load_csv(str(out))
        np.testing.assert_array_equal(P.entries, Q.entries)


def test_atomic_write_keeps_mode_and_cleans_up(tmp_path):
    reference = tmp_path / "reference.txt"
    reference.write_text("x")
    out = tmp_path / "chain.csv"
    (tmp_path / "chain.csv.tmp").mkdir()  # in the way of a fixed temporary name
    save_csv(uniform_projector_chain(2), str(out))
    assert load_csv(str(out)).size == 2
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    before = out.read_text()
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(out), "\ud800")
    assert out.read_text() == before
    assert sorted(os.listdir(tmp_path)) == ["chain.csv", "chain.csv.tmp", "reference.txt"]


def test_load_csv_rejects_bad_header(tmp_path):
    out = tmp_path / "bad.csv"
    out.write_text("0.5,0.5\n0.5,0.5\n")
    with pytest.raises(ValueError):
        load_csv(str(out))


def test_mixing_distance_monotone(random_chain_family):
    # worst-column TV to stationarity never increases with t
    P = random_chain_family[3]
    pi = stationary_distribution(P)
    M = np.eye(P.size)
    prev = np.inf
    for _ in range(30):
        M = P.entries @ M
        dist = max(0.5 * np.abs(M[:, x] - pi).sum() for x in range(P.size))
        assert dist <= prev + 1e-12
        prev = dist


@seed(3)
@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=3, max_value=10))
def test_random_chain_inequalities_hold_where_proven(seed, n):
    P = random_symmetric_chain(n, np.random.default_rng(seed))
    tau = mixing_time(P)
    if isinstance(tau, NoMix):
        return
    delta = spectral_gap(P)
    assert delta > 0
    # upper relaxation bound and the shifted lower bound
    assert tau <= (1.0 / delta) * (1.0 + 0.5 * np.log(n)) + 1e-9
    assert 1.0 / delta - 1.0 <= tau + 1e-9


@seed(4)
@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_column_distance_bounds_mixing(seed):
    P = random_symmetric_chain(6, np.random.default_rng(seed))
    d1 = pairwise_column_distance(P)
    if d1 >= 1.0 - 1e-9:
        return
    tau = mixing_time(P)
    if isinstance(tau, NoMix):
        return
    bound = mixing_time_bound_from_distance(d1)
    assert tau <= bound + 1e-9


@seed(11)
@settings(deadline=None, max_examples=40)
@given(
    st.one_of(
        st.builds(
            lambda n, s: random_symmetric_chain(n, np.random.default_rng(s)),
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        st.builds(
            standard_chain,
            st.one_of(
                st.builds(cycle, st.integers(min_value=2, max_value=12)),
                st.builds(complete, st.integers(min_value=2, max_value=8)),
                st.builds(hypercube, st.integers(min_value=1, max_value=3)),
            ),
        ),
        st.builds(
            lambda n, hold: lazy_chain(standard_chain(path(n)), hold),
            st.integers(min_value=2, max_value=12),
            st.floats(min_value=0.05, max_value=0.95),
        ),
    )
)
def test_pairwise_column_distance_matches_all_pairs_oracle(P):
    assert pairwise_column_distance(P) == pytest.approx(brute_pairwise_distance(P.entries), abs=1e-12)


@pytest.mark.parametrize(
    "build",
    [uniform_projector_chain, lambda n: random_symmetric_chain(n, np.random.default_rng(0))],
    ids=["uniform", "random_symmetric"],
)
def test_chain_constructors_refuse_past_cap_before_allocating(monkeypatch, build):
    monkeypatch.setenv("QWMIX_STATE_CAP", "100")
    assert refusal_peak(lambda: build(3000)) < 2**20


def test_markov_chain_refuses_past_cap_before_copying(monkeypatch):
    entries = np.zeros((2000, 2000))
    monkeypatch.setenv("QWMIX_STATE_CAP", "100")
    assert refusal_peak(lambda: MarkovChain(entries)) < 2**20


def test_load_csv_refuses_past_cap_after_header(tmp_path, monkeypatch):
    out = str(tmp_path / "big.csv")
    save_csv(uniform_projector_chain(400), out)
    monkeypatch.setenv("QWMIX_STATE_CAP", "100")
    assert refusal_peak(lambda: load_csv(out)) < 2**20


@seed(7)
@settings(deadline=None, max_examples=30)
@given(
    st.one_of(
        st.builds(cycle, st.integers(min_value=2, max_value=12)),
        st.builds(path, st.integers(min_value=2, max_value=12)),
        st.builds(complete, st.integers(min_value=2, max_value=8)),
        st.builds(hypercube, st.integers(min_value=1, max_value=4)),
        st.builds(lattice, st.integers(min_value=2, max_value=5), st.integers(min_value=1, max_value=3)),
    )
)
def test_standard_chain_matches_edge_loop(G):
    deg = [0] * G.n
    for u, v in G.edges:
        deg[u] += 1
        deg[v] += 1
    expected = np.zeros((G.n, G.n))
    for u, v in G.edges:
        expected[v, u] = 1.0 / deg[u]
        expected[u, v] = 1.0 / deg[v]
    assert np.array_equal(standard_chain(G).entries, expected)


@st.composite
def directed_supports(draw):
    """Boolean supports S[y, x] (an arc x -> y), every column nonempty:
    uniform random, k-partite cycles x -> x + 1 (period a multiple of k)
    with random forward chords, and block-triangular (reducible) ones."""
    kind = draw(st.sampled_from(["random", "k_cycle", "reducible"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    density = rng.choice([0.05, 0.2, 0.5])
    if kind == "k_cycle":
        k, m = draw(st.integers(min_value=1, max_value=5)), draw(st.integers(min_value=1, max_value=3))
        n = k * m
        phase = np.arange(n) % k
        S = (rng.random((n, n)) < density) & (phase[:, None] == (phase[None, :] + 1) % k)
        S[(np.arange(n) + 1) % n, np.arange(n)] = True
    else:
        n = draw(st.integers(min_value=1, max_value=10))
        S = rng.random((n, n)) < density
        if kind == "reducible":
            cut = draw(st.integers(min_value=1, max_value=max(1, n - 1)))
            S[:cut, cut:] = False  # no arc from a state >= cut to one below it
    empty = ~S.any(axis=0)
    S[empty, empty] = True
    return S


@seed(8)
@settings(deadline=None, max_examples=80)
@given(directed_supports())
def test_witness_and_period_match_boolean_powers(S):
    P = MarkovChain(S / S.sum(axis=0), "support")
    R = brute_reachable(S)
    if not R[:, 0].all():
        expected = (0, int(np.flatnonzero(~R[:, 0])[0]))
    elif not R[0, :].all():
        expected = (int(np.flatnonzero(~R[0, :])[0]), 0)
    else:
        expected = None
    assert P.irreducibility_witness == expected
    if expected is None:
        assert P.period == brute_period(S)
    else:
        with pytest.raises(ReducibleChainError):
            P.period


@pytest.mark.parametrize("k", range(1, 9))
def test_directed_cycle_period(k):
    S = np.roll(np.eye(k, dtype=bool), 1, axis=0)  # the arcs x -> x + 1 mod k
    assert MarkovChain(S.astype(float), "cycle").period == k == brute_period(S)
    if k >= 4:
        S[2, 0] = True  # a chord x -> x + 2 adds a cycle of length k - 1
        assert MarkovChain(S / S.sum(axis=0), "chord").period == 1 == brute_period(S)
