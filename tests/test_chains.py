import math
import operator
import os
import stat

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import qwmix.chains as chains
import qwmix.graphs as graphs
from qwmix import (
    GeneratedChain,
    MarkovChain,
    NoMix,
    NonReversibleError,
    ReducibleChainError,
    conductance,
    delta_rule,
    exponential_rule,
    generated_chain,
    lazy_chain,
    limit_chain,
    mixing_time,
    mixing_time_bound_from_distance,
    one_norm,
    pairwise_column_distance,
    quantize_ct,
    random_symmetric_chain,
    repeated_mixing_time,
    save_csv,
    spectral_gap,
    standard_chain,
    stationary_distribution,
    symmetrized_generator,
    uniform_ct_rule,
    uniform_projector_chain,
    verify_inequalities,
)
from qwmix.chains import MONOTONE_TOL, InternalCheckError, _first_crossing, atomic_write_text
from qwmix.graphs import Graph, cartesian_power, complete, cycle, hypercube, lattice, path

from conftest import (
    MIX_THRESHOLD,
    brute_conductance,
    brute_mixing_time,
    brute_pairwise_distance,
    brute_period,
    brute_reachable,
    csv_entries,
    refusal_peak,
    traced_peak,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chain_rejects_non_finite_entries(bad):
    # NaN fails every comparison, so it slips past the clamp and column checks
    with pytest.raises(ValueError, match="finite"):
        MarkovChain(np.full((3, 3), bad), "bad")
    entries = np.full((2, 2), 0.5)
    entries[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        MarkovChain(entries, "bad")


def test_disconnected_graph_rejected():
    from qwmix.graphs import Graph

    G = Graph(4, [(0, 1), (2, 3)], "two-edges")
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


def _linear_scan(distances: list[float], horizon: int):
    """First t in 1..horizon with distances[t - 1] <= 1/(2e), one step at a time."""
    for t in range(1, horizon + 1):
        if distances[t - 1] <= MIX_THRESHOLD:
            return t
    return NoMix(horizon)


def _search(distances: list[float], horizon: int):
    """The mixing search over a given distance sequence, with the integer t
    standing for P^t (so a product is a sum); returns its result and the
    steps it evaluated, in order."""
    evaluated = []

    def distance(t: int) -> float:
        evaluated.append(t)
        return distances[t - 1]

    return _first_crossing(1, operator.add, distance, horizon), evaluated


def test_search_matches_linear_scan_at_every_crossing():
    for horizon in range(1, 65):
        for crossing in range(1, horizon + 2):  # horizon + 1: no crossing
            before, after = crossing - 1, horizon + 1 - crossing
            sequences = (
                [0.9] * before + [0.1] * after,
                [MIX_THRESHOLD + 1e-12] * before + [MIX_THRESHOLD] * after,
                [MIX_THRESHOLD + 1e-3 * (crossing - t) for t in range(1, horizon + 1)],
            )
            for distances in sequences:
                got, evaluated = _search(distances, horizon)
                assert got == _linear_scan(distances, horizon), (horizon, crossing, distances)
                assert len(set(evaluated)) == len(evaluated)
                assert 1 <= min(evaluated) and max(evaluated) <= horizon
                assert len(evaluated) <= 2 * horizon.bit_length()


def test_search_refuses_a_rise_between_evaluated_steps():
    distances = [0.9] * 59 + [0.1] * 5
    got, evaluated = _search(distances, 64)
    assert got == 60
    assert sorted(evaluated) == [1, 2, 4, 8, 16, 32, 48, 56, 58, 59, 60, 64]
    for t in (2, 48, 59):  # a doubling point and two bisection points
        risen = list(distances)
        risen[t - 1] += 2 * MONOTONE_TOL
        with pytest.raises(InternalCheckError, match=f"at step {t}$"):
            _search(risen, 64)
    # a rise within the tolerance passes, and so does one at a step the
    # search never evaluates
    within = list(distances)
    within[47] += 0.5 * MONOTONE_TOL
    skipped = list(distances)
    skipped[16] += 0.5
    for risen in (within, skipped):
        assert _search(risen, 64)[0] == 60


def _brute_threshold_time(C: MarkovChain, horizon: int):
    """brute_mixing_time on a chain's entries, its None read as NoMix."""
    t = brute_mixing_time(C.entries, C.stationary, horizon)
    return NoMix(horizon) if t is None else t


def _generated_chains(P: MarkovChain, T: float) -> list[MarkovChain]:
    W = quantize_ct(P)
    return [generated_chain(W, rule(T)).chain for rule in (delta_rule, uniform_ct_rule, exponential_rule)]


def _assert_search_matches_linear_scan(chains: list[MarkovChain], generated: list[MarkovChain], horizon: int):
    for C in chains:
        assert mixing_time(C, horizon) == _brute_threshold_time(C, horizon), C.label
    for C in generated:
        got = repeated_mixing_time(GeneratedChain(C), horizon)
        assert got == _brute_threshold_time(C, horizon), C.label


def test_search_matches_linear_scan_on_small_and_random_chains(small_chains, random_chain_family):
    # tau on small_chains is test_mixing_time_matches_brute's
    generated = [G for P in small_chains + random_chain_family for G in _generated_chains(P, 3.0)]
    _assert_search_matches_linear_scan(random_chain_family, generated, 500)


def test_search_matches_linear_scan_on_random_spectra():
    # N = 128, one generated chain per continuous-time rule, T' in the tens
    rng = np.random.default_rng(128)
    generated = [
        generated_chain(quantize_ct(random_symmetric_chain(128, rng)), rule(3.0)).chain
        for rule in (delta_rule, uniform_ct_rule, exponential_rule)
    ]
    _assert_search_matches_linear_scan([], generated, 1000)


@pytest.mark.parametrize(
    "shape", [(5, 1), (16, 1), (64, 1), (4, 2), (7, 2), (16, 2), (6, 3), (3, 4), (2, 6)], ids=str
)
def test_search_matches_linear_scan_on_lattices(shape):
    P = standard_chain(lattice(*shape))
    n, d = shape
    generated = _generated_chains(P, n * d / 2.0)[:2]  # delta and uniform_ct
    _assert_search_matches_linear_scan([lazy_chain(P)], generated, 4000)


def test_search_reports_no_mix_on_a_periodic_chain():
    P = standard_chain(cycle(6))
    for C in (P, MarkovChain(P.entries)):
        assert mixing_time(C, 100) == NoMix(100) == _brute_threshold_time(C, 100)


def test_dense_search_keeps_logarithmically_many_powers():
    # lazy lattice(16,2) held at 0.9, without its claim: N = 256, tau = 399
    P = MarkovChain(lazy_chain(standard_chain(lattice(16, 2)), 0.9).entries)
    assert P.is_irreducible and P.stationary.size == 256  # cached before tracing
    tau = mixing_time(P)
    assert 100 <= tau < 1000
    bound = (math.ceil(math.log2(tau)) + 4) * P.size**2 * 8
    assert traced_peak(lambda: mixing_time(P)) <= bound


def test_mixing_time_bound_from_distance():
    assert mixing_time_bound_from_distance(MIX_THRESHOLD) == 1
    assert mixing_time_bound_from_distance(0.5) == 3
    assert mixing_time_bound_from_distance(0.9) == 17
    with pytest.raises(ValueError):
        mixing_time_bound_from_distance(1.0)


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
        np.testing.assert_array_equal(csv_entries(out), P.entries)


def test_atomic_write_keeps_mode_and_cleans_up(tmp_path):
    reference = tmp_path / "reference.txt"
    reference.write_text("x")
    out = tmp_path / "chain.csv"
    (tmp_path / "chain.csv.tmp").mkdir()  # in the way of a fixed temporary name
    save_csv(uniform_projector_chain(2), str(out))
    np.testing.assert_array_equal(csv_entries(out), uniform_projector_chain(2).entries)
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode)
    before = out.read_text()
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(str(out), "\ud800")
    assert out.read_text() == before
    assert sorted(os.listdir(tmp_path)) == ["chain.csv", "chain.csv.tmp", "reference.txt"]


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


def test_unordered_column_pairs_give_the_all_pairs_distance_exactly(random_chain_family):
    # |a - b| == |b - a| and every sum runs down the same axis, so comparing
    # each unordered pair of columns once moves no bit
    for P in random_chain_family:
        assert pairwise_column_distance(P) == brute_pairwise_distance(P.entries), P.label


def test_column_distance_blocks_stay_within_their_budget():
    # at N = 1024 one column against every later one is an 8 MiB
    # temporary; one column against 64 holds 512 KiB, and the next block
    # is formed before the last is freed
    P = uniform_projector_chain(1024)
    assert traced_peak(lambda: pairwise_column_distance(P)) < 2 * 2**20


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


def test_full_support_chain_lists_no_support_arcs():
    # a chain with every entry positive is irreducible with period 1; its
    # N^2 support arcs are never listed, so at N = 1024 (8 MiB of entries)
    # both reads stay under one column of floats
    rng = np.random.default_rng(17)
    for n in (1, 2, 5):
        A = rng.random((n, n)) + 0.1
        P = MarkovChain(A / A.sum(axis=0), "positive")
        S = np.ones((n, n), dtype=bool)
        assert P.irreducibility_witness is None and P.period == 1 == brute_period(S)
        assert "_support_arcs" not in vars(P)
    P = random_symmetric_chain(1024, rng)
    assert P.entries.min() > 0.0
    peak = traced_peak(lambda: (P.irreducibility_witness, P.period))
    assert P.is_irreducible and P.period == 1
    assert peak <= P.size * 8
    # one zero entry lists the arcs again
    A = np.ones((4, 4))
    A[1, 0] = 0.0
    P = MarkovChain(A / A.sum(axis=0), "one zero")
    assert P.irreducibility_witness is None and P.period == 1
    assert "_support_arcs" in vars(P)


@pytest.mark.parametrize("n, d", [(16, 2), (8, 3), (32, 2)])
def test_full_support_column_lists_no_support_arcs(n, d):
    # a claimed chain whose column is positive everywhere is irreducible
    # with period 1; neither read lists its N |support| arcs (on the delta
    # chain of lattice(64,2) that took 1.85 s and a 784 MiB peak), so both
    # stay under one column of floats and form no entries
    g = generated_chain(quantize_ct(standard_chain(lattice(n, d))), delta_rule(n * d / 2)).chain
    assert g.lattice == (n, d) and g.column.min() > 0.0
    peak = traced_peak(lambda: (g.irreducibility_witness, g.period))
    assert peak <= g.column.nbytes
    assert "_support_arcs" not in vars(g) and "entries" not in vars(g)
    dense = MarkovChain(g.entries)
    assert g.irreducibility_witness is None and dense.irreducibility_witness is None
    assert g.period == 1 == dense.period


def test_is_symmetric_forms_one_square_temporary():
    # P - P^T is the one N x N temporary, its abs taken in place (two
    # temporaries, 16 MiB at N = 1024, before); numpy's ufunc buffer of
    # 8192 floats for the transposed operand adds 64 KiB
    P = random_symmetric_chain(1024, np.random.default_rng(5))
    peak = traced_peak(lambda: P.is_symmetric)
    assert P.is_symmetric
    assert peak <= P.entries.nbytes + 2**17


@pytest.mark.parametrize("k", range(1, 9))
def test_directed_cycle_period(k):
    S = np.roll(np.eye(k, dtype=bool), 1, axis=0)  # the arcs x -> x + 1 mod k
    assert MarkovChain(S.astype(float), "cycle").period == k == brute_period(S)
    if k >= 4:
        S[2, 0] = True  # a chord x -> x + 2 adds a cycle of length k - 1
        assert MarkovChain(S / S.sum(axis=0), "chord").period == 1 == brute_period(S)


@pytest.mark.parametrize(
    "column, claim, message",
    [
        (standard_chain(cycle(6)).column, (2, 3), "does not have 6 states"),
        (standard_chain(cycle(8)).column, (8, 2), "does not have 8 states"),
        (standard_chain(cycle(4)).column, (1, 4), "does not have 4 states"),
        (standard_chain(cycle(4)).column, (2, 10**6), "does not have 4 states"),
    ],
    ids=["wrong_size", "wrong_power", "n_one", "huge_d"],
)
def test_markov_chain_refuses_false_lattice_claims(column, claim, message):
    with pytest.raises(ValueError, match=message):
        MarkovChain._from_column(column, "custom", claim)


def test_chain_constructors_carry_the_lattice_claim():
    assert standard_chain(cycle(7)).lattice == (7, 1)
    assert standard_chain(hypercube(3)).lattice == (2, 3)
    assert standard_chain(lattice(4, 3)).lattice == (4, 3)
    assert standard_chain(cartesian_power(cycle(5), 2)).lattice == (5, 2)
    assert lazy_chain(standard_chain(lattice(4, 2))).lattice == (4, 2)
    assert lazy_chain(standard_chain(lattice(4, 2)), 0.3).lattice == (4, 2)
    unclaimed = [
        standard_chain(path(5)),
        standard_chain(complete(5)),
        standard_chain(Graph(3, [[0, 1], [1, 2], [0, 2]])),
        lazy_chain(standard_chain(path(5))),
        MarkovChain(standard_chain(cycle(5)).entries),
        random_symmetric_chain(5, np.random.default_rng(0)),
        uniform_projector_chain(5),
    ]
    for P in unclaimed:
        assert P.lattice is None, P.label


def test_lattice_chain_is_its_column():
    # standard_chain and lazy_chain of a claimed graph build the column
    # alone; the entries are its translates, formed on first read
    P = standard_chain(lattice(4, 3))
    assert "entries" not in vars(P)
    expected = np.zeros(P.size)
    expected[[1, 3, 4, 12, 16, 48]] = 1.0 / 6.0  # +-e_j at 4**j
    assert np.array_equal(P.column, expected)
    for hold in (0.5, 0.3):
        L = lazy_chain(P, hold)
        assert "entries" not in vars(L)
        assert np.array_equal(L.entries, lazy_chain(MarkovChain(P.entries), hold).entries)
    # on Z_2^d the steps +-e_j land on one vertex: degree d
    H = standard_chain(hypercube(3))
    assert np.array_equal(H.column, [0, 1 / 3, 1 / 3, 0, 1 / 3, 0, 0, 0])
    assert not P.column.flags.writeable and not P.entries.flags.writeable


def test_claimed_chain_that_is_not_symmetric_is_not_reversible():
    # a drifting walk on Z_5: translation-invariant, doubly stochastic and
    # not reversible, so neither its Fourier spectrum nor its walk exists
    drift = np.roll(0.7 * np.eye(5), 1, axis=0) + np.roll(0.3 * np.eye(5), -1, axis=0)
    P = MarkovChain._from_column(drift[:, 0], "drift", (5, 1))
    assert not P.is_symmetric
    with pytest.raises(NonReversibleError, match="not reversible"):
        spectral_gap(P)
    with pytest.raises(NonReversibleError, match="not reversible"):
        verify_inequalities(P)
    # its mixing time still runs on the column
    assert mixing_time(P) == mixing_time(MarkovChain(drift, "drift"))


@pytest.mark.parametrize(
    "G", [cycle(6), cycle(7), hypercube(4), lattice(3, 3), lattice(5, 2)], ids=lambda G: G.kind_tag
)
def test_claimed_chain_support_matches_dense(G):
    # irreducibility, period and the stationary law of a claimed chain come
    # from its column; without the claim they come from the entries
    for P in (standard_chain(G), lazy_chain(standard_chain(G), 0.3)):
        dense = MarkovChain(P.entries, P.label)
        assert P.irreducibility_witness == dense.irreducibility_witness is None
        assert P.period == dense.period
        assert np.array_equal(P.stationary, dense.stationary)
        assert P.is_symmetric and dense.is_symmetric


@pytest.mark.parametrize("shape", [(7, 1), (8, 2), (5, 2), (4, 3), (2, 5)], ids=str)
def test_claimed_column_distance_matches_dense_loop(shape):
    # a claimed chain's d(P) comes from its column, S(0) - min_x S(x);
    # the same chain without the claim compares the columns of its entries
    P = standard_chain(lattice(*shape))
    W = quantize_ct(P)
    chains = [P, lazy_chain(P, 0.3), limit_chain(W)]
    chains += [generated_chain(W, rule(2.3)).chain for rule in (delta_rule, uniform_ct_rule, exponential_rule)]
    for C in chains:
        assert C.lattice == shape
        got = pairwise_column_distance(C)
        assert "entries" not in vars(C)
        assert abs(got - pairwise_column_distance(MarkovChain(C.entries))) <= 1e-14, C.label


def test_lattice_audit_forms_no_entries():
    # on lattice(64,2), N = 4096, one N x N float64 array alone is 128 MiB
    L = lazy_chain(standard_chain(lattice(64, 2)))
    assert traced_peak(lambda: verify_inequalities(L)) < 16 * 2**20
    assert "entries" not in vars(L)


def _lattice_columns(n: int, d: int) -> dict[str, np.ndarray]:
    """Columns 0 of chains on Z_n^d: the standard chain (bipartite for
    even n), its lazy chain, steps +-2e_j (reducible for even n, the
    identity at n = 2) and the directed steps +e_j (period n)."""
    def steps(*moves):
        c = np.zeros(n**d)
        for j in range(d):
            for m in moves:
                c[(m % n) * n**j] += 1.0 / (len(moves) * d)
        return c

    standard = standard_chain(lattice(n, d)).column
    return {
        "standard": standard,
        "lazy": lazy_chain(standard_chain(lattice(n, d)), 0.3).column,
        "two_steps": steps(2, -2),
        "directed": steps(1),
    }


@pytest.mark.parametrize("n, d", [(n, d) for d in (1, 2, 3) for n in range(2, 9)])
def test_claimed_witness_and_period_match_the_dense_chain(n, d):
    # reachability and period of a claimed chain come from the Fourier
    # transform of its column's support; without the claim they come from
    # breadth-first search over the entries, and below 65 states from the
    # boolean powers as well
    for kind, column in _lattice_columns(n, d).items():
        P = MarkovChain._from_column(column, kind, (n, d))
        dense = MarkovChain(P.entries, kind)
        assert P.irreducibility_witness == dense.irreducibility_witness, kind
        if dense.is_irreducible:
            assert P.period == dense.period, kind
        if P.size <= 64:
            S = P.entries > 0
            R = brute_reachable(S)
            expected = None if R[:, 0].all() else (0, int(np.flatnonzero(~R[:, 0])[0]))
            assert P.irreducibility_witness == expected and R.all() == (expected is None), kind
            if expected is None:
                assert P.period == brute_period(S), kind
        assert "_support_arcs" not in vars(P)
    # a claimed graph's connectivity comes from vertex 0's neighbours: the
    # lattice's own, and steps +-2e_j alone, connected exactly for odd n
    graphs_ = [lattice(n, d)]
    if n > 2:
        steps = [s * n**j for j in range(d) for s in (2, n - 2)]
        graphs_.append(Graph._from_steps(n, d, steps, "two steps"))
    for G, connected in zip(graphs_, (True, n % 2 == 1)):
        assert G.is_connected() == connected
        if G.n <= 64:
            assert bool(brute_reachable(G.adjacency_matrix() > 0).all()) == connected


def test_lattice_point_needs_no_breadth_first_search(monkeypatch):
    # a lattice point's chains answer reachability and period from their
    # columns: no breadth-first search runs and no support arcs are listed
    def refuse(*args):
        raise AssertionError("breadth-first search on a claimed chain")

    monkeypatch.setattr(graphs, "breadth_first_levels", refuse)
    monkeypatch.setattr(chains, "breadth_first_levels", refuse)
    L = lazy_chain(standard_chain(lattice(16, 2)))
    assert verify_inequalities(L).all_hold()
    assert L.is_irreducible and L.period == 1
    assert "_support_arcs" not in vars(L)


def test_claimed_chain_on_a_subgroup_is_reducible():
    # steps +-2 on Z_6 reach only the even states
    c = np.zeros(6)
    c[[2, 4]] = 0.5
    P = MarkovChain._from_column(c, "even", (6, 1))
    assert P.irreducibility_witness == (0, 1)
    with pytest.raises(ReducibleChainError):
        mixing_time(P)
