import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import qwmix.decoherence as decoherence
import qwmix.walks as walks
from qwmix import (
    DTWalk,
    MarkovChain,
    MeasurementRule,
    NoMix,
    ReducibleChainError,
    RuleFamilyError,
    characteristic_function,
    coined_walk,
    ct_amplitude_row,
    delta_rule,
    eigenphases,
    exponential_rule,
    generated_chain,
    geometric_rule,
    lazy_chain,
    limit_chain,
    mixing_time,
    one_norm,
    phase_gap,
    quantize_ct,
    quantize_szegedy,
    random_symmetric_chain,
    repeated_mixing_time,
    rule_weights,
    spectral_gap,
    standard_chain,
    symmetrized_generator,
    uniform_ct_rule,
    uniform_dt_rule,
    verify_inequalities,
)
from qwmix.chains import InternalCheckError
from qwmix.config import DEFAULT_TAIL_TOL
from qwmix.graphs import StateCapError, complete, cycle, hypercube, lattice, lattice_step, path

from conftest import (
    brute_dt_average,
    brute_generated_ct,
    brute_limit_chain,
    brute_grover_unitary,
    brute_hadamard_unitary,
    brute_propagator,
    brute_szegedy_unitary,
    dense_embedding,
    dense_unitary,
    project,
    refusal_peak,
)

GENERATED_TOL = 1e-9
CT_RULES = (delta_rule, uniform_ct_rule, exponential_rule)


def test_rule_validation():
    with pytest.raises(ValueError):
        uniform_ct_rule(-1.0)
    with pytest.raises(ValueError):
        uniform_dt_rule(2.5)
    with pytest.raises(ValueError):
        uniform_dt_rule(0)
    with pytest.raises(ValueError):
        geometric_rule(0.5)
    assert delta_rule(0.0).T == 0.0


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [delta_rule, uniform_ct_rule, exponential_rule, uniform_dt_rule, geometric_rule],
    ids=lambda build: build.__name__,
)
def test_rule_refuses_non_finite_horizon(build, T):
    with pytest.raises(ValueError, match="finite"):
        build(T)


def test_characteristic_function_at_zero_is_exactly_one():
    for rule in (
        delta_rule(3.0),
        uniform_ct_rule(7.0),
        exponential_rule(2.0),
        uniform_dt_rule(5),
        geometric_rule(4.0),
    ):
        value = characteristic_function(rule, 0.0)
        assert value == 1.0 + 0.0j


def test_characteristic_function_delta():
    rule = delta_rule(2.0)
    theta = 1.3
    assert characteristic_function(rule, theta) == pytest.approx(np.exp(1j * theta * 2.0))


def test_characteristic_function_uniform_ct_zero_crossing():
    rule = uniform_ct_rule(10.0)
    assert abs(characteristic_function(rule, 2.0 * np.pi / 10.0)) <= 1e-14


def test_characteristic_function_uniform_ct_small_angle():
    rule = uniform_ct_rule(1.0)
    # series limit near zero, no catastrophic cancellation
    assert characteristic_function(rule, 1e-10) == pytest.approx(1.0, abs=1e-9)
    z = 1e-6
    expected = (np.exp(1j * z) - 1.0) / (1j * z)
    assert characteristic_function(rule, z) == pytest.approx(expected, abs=1e-12)


def test_characteristic_function_exponential():
    rule = exponential_rule(4.0)
    assert characteristic_function(rule, 1.0 / 4.0) == pytest.approx(1.0 / (1.0 - 1j))


def test_characteristic_function_uniform_dt_matches_sum():
    rule = uniform_dt_rule(6)
    for theta in (0.3, 1.7, np.pi, 5.9):
        expected = np.mean([np.exp(1j * theta * t) for t in range(6)])
        assert characteristic_function(rule, theta) == pytest.approx(expected, abs=1e-12)


def test_characteristic_function_uniform_dt_wrapped_angle():
    rule = uniform_dt_rule(4)
    # integer support: characteristic function has period 2 pi
    for theta in (0.9, 2.2):
        a = characteristic_function(rule, theta)
        b = characteristic_function(rule, theta + 2.0 * np.pi)
        assert a == pytest.approx(b, abs=1e-12)


def test_characteristic_function_geometric_matches_sum():
    rule = geometric_rule(3.0)
    p = 1.0 / 3.0
    for theta in (0.4, 2.1):
        expected = sum(
            p * (1 - p) ** t * np.exp(1j * theta * t) for t in range(2000)
        )
        assert characteristic_function(rule, theta) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "rule",
    [delta_rule(0), delta_rule(7), delta_rule(3000), uniform_dt_rule(1), uniform_dt_rule(6), uniform_dt_rule(2000)]
    + [geometric_rule(T) for T in (1.0, 3.0, 8.0, 90.5, 200.0)],
    ids=lambda rule: f"{rule.family}({rule.T:g})",
)
def test_discrete_characteristic_function_is_the_transform_of_rule_weights(rule):
    # one distribution per discrete rule: the Szegedy kernel reads phi and
    # stepping reads rule_weights, so phi is the transform of exactly the
    # kept, renormalized weights (geometric's truncated support too). On
    # dyadic angles in [-pi, pi] each theta t is exact, so the sum rounds
    # only in its cosines and its additions
    theta = np.arange(-50, 51) / 16.0
    times, weights, _ = rule_weights(rule)
    angle = np.multiply.outer(theta, times)
    expected = np.cos(angle) @ weights + 1j * (np.sin(angle) @ weights)
    np.testing.assert_allclose(characteristic_function(rule, theta), expected, rtol=0.0, atol=1e-13)
    assert characteristic_function(rule, 0.0) == 1.0 + 0.0j


def test_characteristic_function_vectorized():
    rule = uniform_ct_rule(2.0)
    thetas = np.array([0.0, 0.5, 1.0])
    values = characteristic_function(rule, thetas)
    assert values.shape == (3,)
    assert values[0] == 1.0 + 0.0j


def test_rule_weights_uniform_dt():
    times, weights, err = rule_weights(uniform_dt_rule(4))
    np.testing.assert_array_equal(times, [0, 1, 2, 3])
    np.testing.assert_allclose(weights, 0.25)
    assert err == 0.0


def test_rule_weights_geometric_truncation():
    times, weights, err = rule_weights(geometric_rule(5.0))
    assert weights.sum() == pytest.approx(1.0, abs=1e-15)
    assert 0.0 < err < 1e-7
    assert times[0] == 0


def test_rule_weights_delta_integer_only():
    times, weights, err = rule_weights(delta_rule(3.0))
    np.testing.assert_array_equal(times, [3])
    with pytest.raises(RuleFamilyError):
        rule_weights(delta_rule(2.5))


def test_family_pairing_enforced():
    ct = quantize_ct(standard_chain(cycle(5)))
    dt = quantize_szegedy(standard_chain(cycle(5)))
    with pytest.raises(RuleFamilyError):
        generated_chain(ct, uniform_dt_rule(3))
    with pytest.raises(RuleFamilyError):
        generated_chain(dt, uniform_ct_rule(3.0))
    with pytest.raises(RuleFamilyError):
        generated_chain(dt, exponential_rule(3.0))


def test_ct_delta_is_instantaneous_distribution():
    P = standard_chain(cycle(7))
    W = quantize_ct(P)
    t = 2.9
    expected = np.abs(brute_propagator(symmetrized_generator(P), t)) ** 2
    got = generated_chain(W, delta_rule(t)).chain.entries
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_ct_delta_at_zero_is_identity():
    W = quantize_ct(standard_chain(cycle(5)))
    got = generated_chain(W, delta_rule(0.0)).chain.entries
    np.testing.assert_allclose(got, np.eye(5), atol=1e-12)


def test_ct_generated_matches_unclustered_pair_sum():
    # random chains have singleton clusters, the Cayley and complete-graph
    # chains degenerate ones; chi's factor has rank 2 under delta (cos and
    # sin of T v) and at most C under the smooth rules
    rng = np.random.default_rng(99)
    chains = [
        standard_chain(cycle(5)),
        standard_chain(cycle(8)),
        standard_chain(hypercube(3)),
        standard_chain(complete(6)),
        random_symmetric_chain(7, rng),
        random_symmetric_chain(16, rng),
    ]
    rules = [delta_rule(1.7), uniform_ct_rule(4.0), exponential_rule(2.5), uniform_ct_rule(30.0)]
    for P in chains:
        H = symmetrized_generator(P)
        W = quantize_ct(P)
        for rule in rules:
            rank = len(decoherence._chi_factor(W, rule))
            assert rank <= (2 if rule.family == "delta" else len(W.cluster_starts)), (P.label, rule)
            expected = brute_generated_ct(H, lambda th: characteristic_function(rule, th))
            got = generated_chain(W, rule).chain.entries
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_chi_factor_refuses_a_rule_that_is_not_positive_semidefinite(monkeypatch):
    # Re phi = 1.5 off zero is no characteristic function: chi has the
    # eigenvalue 1 - 1.5 < 0, and the first pivot leaves a residual
    # diagonal of 1 - 1.5^2; refused without a numpy warning
    W = quantize_ct(standard_chain(cycle(7)))

    def broken(rule, theta):
        return np.where(np.asarray(theta) == 0.0, 1.0, 1.5) + 0.0j

    monkeypatch.setattr(decoherence, "characteristic_function", broken)
    with pytest.raises(InternalCheckError, match="not positive semidefinite"):
        generated_chain(W, uniform_ct_rule(3.0))


def test_chi_factor_refuses_to_outgrow_a_dense_chain(monkeypatch):
    # at cap 256 a claimed chain may hold 256**2 // 16 = 4096 states and a
    # chi factor 256**2 entries: on Z_64^2, C = 545, the exponential rule's
    # factor (543 pivots at the default cap) is refused as it would grow
    # past 64 rows; the delta rule's takes 2 pivots and runs
    W = quantize_ct(standard_chain(lattice(64, 2)))
    W.cluster_values()
    assert len(W.cluster_starts) == 545 and len(decoherence._chi_factor(W, exponential_rule(64.0))) == 543
    monkeypatch.setenv("QWMIX_STATE_CAP", "256")
    assert refusal_peak(lambda: generated_chain(W, exponential_rule(64.0))) < 2 * 2**20
    with pytest.raises(StateCapError, match="past 64 pivots of 545 columns exceeds the configured cap of 256"):
        generated_chain(W, exponential_rule(64.0))
    assert generated_chain(W, delta_rule(64.0)).chain.size == 4096


def test_generated_chain_is_stochastic_and_symmetric():
    W = quantize_ct(standard_chain(hypercube(3)))
    for rule in (delta_rule(0.8), uniform_ct_rule(12.0), exponential_rule(3.0)):
        g = generated_chain(W, rule)
        M = g.chain.entries
        assert (M >= 0).all()
        np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(M, M.T, atol=1e-12)


def test_dt_uniform_two_paths_agree():
    P = standard_chain(cycle(5))
    for W, U in (
        (quantize_szegedy(P), brute_szegedy_unitary(P)),
        (coined_walk("hadamard_cycle", 6), brute_hadamard_unitary(6)),
        (coined_walk("grover_lattice", 3, 2), brute_grover_unitary(3, 2)),
    ):
        T = 7
        got = generated_chain(W, uniform_dt_rule(T)).chain.entries
        expected = brute_dt_average(
            U, dense_embedding(W), W.base_size, [(t, 1.0 / T) for t in range(T)]
        )
        assert one_norm(got - expected) <= 1e-12


def test_dt_geometric_matches_long_sum():
    P = standard_chain(cycle(4))
    W = quantize_szegedy(P)
    T = 3.0
    p = 1.0 / T
    g = generated_chain(W, geometric_rule(T))
    weights = [(t, p * (1 - p) ** t) for t in range(300)]
    expected = brute_dt_average(brute_szegedy_unitary(P), dense_embedding(W), 4, weights)
    expected /= sum(w for _, w in weights)
    np.testing.assert_allclose(g.chain.entries, expected, atol=1e-9)
    assert rule_weights(geometric_rule(T))[2] <= 1e-10


def test_dt_delta_requires_integer_time():
    P = standard_chain(cycle(4))
    W = quantize_szegedy(P)
    with pytest.raises(RuleFamilyError):
        generated_chain(W, delta_rule(1.5))
    got = generated_chain(W, delta_rule(2.0)).chain.entries
    U2 = np.linalg.matrix_power(brute_szegedy_unitary(P), 2)
    expected = project(W, U2 @ dense_embedding(W))
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_limit_chain_properties():
    for G in (cycle(5), cycle(7), hypercube(3)):
        W = quantize_ct(standard_chain(G))
        Pi = limit_chain(W).entries
        n = Pi.shape[0]
        np.testing.assert_allclose(Pi, Pi.T, atol=1e-12)
        np.testing.assert_allclose(Pi.sum(axis=0), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(Pi).min() >= -1e-9
        assert Pi.min() >= 1.0 / n**2 - 1e-9


def test_limit_chain_triangle_goldens():
    Pi = limit_chain(quantize_ct(standard_chain(cycle(3)))).entries
    np.testing.assert_allclose(np.diag(Pi), 5.0 / 9.0, atol=1e-12)
    np.testing.assert_allclose(Pi[0, 1], 2.0 / 9.0, atol=1e-12)


def test_limit_chain_matches_pairwise_oracle():
    rng = np.random.default_rng(17)
    for P in (
        standard_chain(cycle(8)),
        standard_chain(hypercube(4)),
        standard_chain(lattice(4, 2)),
        standard_chain(complete(9)),
        random_symmetric_chain(12, rng),
    ):
        expected = brute_limit_chain(symmetrized_generator(P))
        np.testing.assert_allclose(limit_chain(quantize_ct(P)).entries, expected, rtol=0.0, atol=1e-12)


def _traced_peak(build, *args):
    tracemalloc.start()
    try:
        out = build(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ct_kernels_need_no_projector_stack():
    # lattice(16,2) has 41 eigenvalue clusters, so a stack of cluster
    # projectors alone would take 41 N^2 floats. Its entries without the
    # claim run the N x N kernel, under eight N x N arrays.
    P = standard_chain(lattice(16, 2))
    W = quantize_ct(MarkovChain(P.entries, P.label))
    budget = 8 * W.size**2 * 8
    calls = [(generated_chain, W, rule(8.0)) for rule in (delta_rule, uniform_ct_rule, exponential_rule)]
    for build, *args in calls + [(limit_chain, W)]:
        _, peak = _traced_peak(build, *args)
        assert peak < budget, (build.__name__, args[1:], peak)

    # A claimed chain runs on its column and Fourier grid: on lattice(32,2)
    # every step, from the graph's chain on, stays under one N x N float64
    # array (8 MiB), and no chain forms its entries.
    P, peak = _traced_peak(standard_chain, lattice(32, 2))
    budget = P.size**2 * 8
    assert peak < budget, ("standard_chain", peak)
    W, peak = _traced_peak(quantize_ct, P)
    assert peak < budget, ("quantize_ct", peak)
    calls = [(generated_chain, W, rule(32.0)) for rule in (delta_rule, uniform_ct_rule, exponential_rule)]
    for build, *args in calls + [(limit_chain, W)]:
        out, peak = _traced_peak(build, *args)
        assert peak < budget, (build.__name__, args[1:], peak)
        chain = out if isinstance(out, MarkovChain) else out.chain
        assert chain.lattice == (32, 2) and "entries" not in vars(chain)
    # one amplitude row is one inverse FFT of the phases
    _, peak = _traced_peak(ct_amplitude_row, W, 0, 3.0)
    assert peak < 2**20, ("ct_amplitude_row", peak)
    assert "entries" not in vars(P) and W.eigenvectors is None


def test_uniform_ct_converges_to_limit():
    W = quantize_ct(standard_chain(cycle(5)))
    Pi = limit_chain(W).entries
    got = generated_chain(W, uniform_ct_rule(1e6)).chain.entries
    assert np.abs(got - Pi).max() <= 1e-4


def test_hypercube_delta_hits_uniform():
    d = 3
    W = quantize_ct(standard_chain(hypercube(d)))
    got = generated_chain(W, delta_rule(3.0 * np.pi / 4.0)).chain.entries
    np.testing.assert_allclose(got, 1.0 / 8.0, atol=1e-9)


@pytest.mark.parametrize(
    "build, T",
    [(lambda: cycle(4), math.pi), (lambda: hypercube(3), 1.5 * math.pi)],
    ids=["cycle4", "hypercube3"],
)
def test_claimed_and_unclaimed_chains_agree_on_support_at_perfect_state_transfer(build, T):
    # at T the walk takes every state to its antipode, so the delta chain is
    # a permutation; the unclaimed copy's square sums leave 2e-33 to 1e-30 at
    # its zeros, the claimed column none, and the one floor makes both read
    # the chain as reducible
    P = standard_chain(build())
    copy = MarkovChain(P.entries.copy())
    got = generated_chain(quantize_ct(P), delta_rule(T)).chain
    expected = generated_chain(quantize_ct(copy), delta_rule(T)).chain
    assert got.lattice == P.lattice is not None and expected.lattice is None
    assert (np.count_nonzero(expected.entries, axis=0) == 1).all()
    np.testing.assert_array_equal(got.entries == 0.0, expected.entries == 0.0)
    assert got.irreducibility_witness == expected.irreducibility_witness == (0, 1)


def test_repeated_mixing_time_examples():
    W = quantize_ct(standard_chain(hypercube(3)))
    g = generated_chain(W, uniform_ct_rule(80.0))
    tp = repeated_mixing_time(g)
    assert isinstance(tp, int) and 1 <= tp <= 5


def test_repeated_mixing_reports_no_mix():
    # K_2 walk space is invariant under the embedding: never mixes
    W = quantize_szegedy(standard_chain(complete(2)))
    g = generated_chain(W, uniform_dt_rule(2))
    result = repeated_mixing_time(g, horizon=40)
    assert isinstance(result, NoMix)
    assert result.horizon == 40


@pytest.mark.parametrize("horizon", [0, -3])
def test_repeated_mixing_time_refuses_empty_horizon(horizon):
    W = quantize_ct(standard_chain(hypercube(2)))
    g = generated_chain(W, uniform_ct_rule(4.0))
    with pytest.raises(ValueError, match="horizon must be >= 1"):
        repeated_mixing_time(g, horizon=horizon)


def test_grover_cycle_uniform_dt_mixes_perfectly():
    for n in (5, 8, 13):
        W = coined_walk("grover_lattice", n, 1)
        g = generated_chain(W, uniform_dt_rule(n))
        u = np.full((n, n), 1.0 / n)
        assert 0.5 * one_norm(g.chain.entries - u) <= 1e-8


@seed(5)
@settings(deadline=None, max_examples=20)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=3, max_value=8),
    st.floats(min_value=0.0, max_value=50.0),
)
def test_generated_ct_always_valid_chain(seed, n, T):
    P = random_symmetric_chain(n, np.random.default_rng(seed))
    W = quantize_ct(P)
    for rule in (delta_rule(T), uniform_ct_rule(T), exponential_rule(T)):
        M = generated_chain(W, rule).chain.entries
        assert (M >= 0.0).all()
        np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-10)


@st.composite
def ct_base_chains(draw):
    """A degenerate Cayley or complete-graph chain, or a random symmetric
    chain with a simple spectrum; N <= 24."""
    kind = draw(st.sampled_from(["cycle", "hypercube", "lattice", "complete", "random"]))
    if kind == "cycle":
        return standard_chain(cycle(draw(st.integers(min_value=3, max_value=24))))
    if kind == "hypercube":
        return standard_chain(hypercube(draw(st.integers(min_value=1, max_value=4))))
    if kind == "lattice":
        return standard_chain(lattice(draw(st.integers(min_value=2, max_value=4)), 2))
    if kind == "complete":
        return standard_chain(complete(draw(st.integers(min_value=2, max_value=24))))
    n = draw(st.integers(min_value=2, max_value=24))
    return random_symmetric_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


@seed(11)
@settings(deadline=None, max_examples=40)
@given(ct_base_chains(), st.floats(min_value=0.0, max_value=50.0))
def test_generated_ct_matches_unclustered_oracle(P, T):
    H = symmetrized_generator(P)
    W = quantize_ct(P)
    for rule in (delta_rule(T), uniform_ct_rule(T), exponential_rule(T)):
        expected = brute_generated_ct(H, lambda th: characteristic_function(rule, th))
        got = generated_chain(W, rule).chain.entries
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


@seed(15)
@settings(deadline=None, max_examples=40)
@given(ct_base_chains(), st.sampled_from(CT_RULES), st.floats(min_value=0.0, max_value=200.0))
def test_chi_factor_leaves_a_residual_within_tolerance(P, rule_fn, T):
    # chi ~ L L^T from the pivots: the residual's trace is at most
    # CHI_TRACE_TOL, or each diagonal entry is down to chi's rounding, and
    # each entry is at most the trace, |R[c, c']| <= sqrt(R[c, c] R[c', c'])
    # for a positive semidefinite R
    W = quantize_ct(P)
    rule = rule_fn(T)
    values = W.cluster_values()
    chi = np.real(characteristic_function(rule, np.subtract.outer(values, values)))
    LT = decoherence._chi_factor(W, rule)
    assert LT.shape[1] == values.size and 1 <= len(LT) <= values.size
    residual = chi - LT.T @ LT
    rounding = decoherence._chi_rounding(values, rule)
    assert np.trace(residual) <= decoherence.CHI_TRACE_TOL or np.diag(residual).max() <= rounding
    bound = max(decoherence.CHI_TRACE_TOL, values.size * rounding)
    assert np.trace(residual) <= bound
    assert np.abs(residual).max() <= bound


@pytest.mark.parametrize("T", [1e3, 1e4, 1e5])
def test_delta_chain_at_long_times_stops_at_the_rounding_of_chi(T):
    # at T spread ~ 1e3 and past, the rounding of theta T leaves each entry
    # of the delta rule's chi off by about eps T spread, above
    # CHI_TRACE_TOL: the pivots stop at that rounding, after the two of
    # rank 2, and the chain matches the pair sum to its own rounding
    P = standard_chain(cycle(50))
    W = quantize_ct(P)
    rule = delta_rule(T)
    assert len(decoherence._chi_factor(W, rule)) == 2
    expected = brute_generated_ct(symmetrized_generator(P), lambda th: characteristic_function(rule, th))
    np.testing.assert_allclose(generated_chain(W, rule).chain.entries, expected, rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 8, 13])
def test_ct_chains_on_path_bases_are_symmetric(n):
    # H is real symmetric, so exp(-iHt) is complex-symmetric even though
    # the path chain itself is not symmetric
    for P in (standard_chain(path(n)), lazy_chain(standard_chain(path(n)), 0.3)):
        assert not P.is_symmetric
        W = quantize_ct(P)
        for rule in (delta_rule(1.7 * n), uniform_ct_rule(10.0 * n), exponential_rule(2.0 * n)):
            G = generated_chain(W, rule)
            assert G.chain.is_symmetric
            assert not isinstance(repeated_mixing_time(G), NoMix)
        assert limit_chain(W).is_symmetric


@seed(6)
@settings(deadline=None, max_examples=15)
@given(st.integers(min_value=3, max_value=7), st.integers(min_value=1, max_value=12))
def test_generated_dt_always_valid_chain(n, T):
    W = quantize_szegedy(standard_chain(cycle(n)))
    for rule in (uniform_dt_rule(T), geometric_rule(float(max(T, 1)))):
        M = generated_chain(W, rule).chain.entries
        assert (M >= 0.0).all()
        np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-10)


@st.composite
def dt_walks_with_oracle(draw):
    """A small Hadamard, Grover or Szegedy walk and its dense oracle."""
    kind = draw(st.sampled_from(["hadamard", "grover", "szegedy"]))
    if kind == "hadamard":
        n = draw(st.integers(min_value=2, max_value=10))
        return coined_walk("hadamard_cycle", n), brute_hadamard_unitary(n)
    if kind == "grover":
        d = draw(st.integers(min_value=1, max_value=3))
        n = draw(st.integers(min_value=2, max_value={1: 10, 2: 4, 3: 2}[d]))
        return coined_walk("grover_lattice", n, d), brute_grover_unitary(n, d)
    n = draw(st.integers(min_value=2, max_value=6))
    if draw(st.booleans()):
        P = random_symmetric_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    else:
        P = standard_chain(path(n))
    return quantize_szegedy(P), brute_szegedy_unitary(P)


# A symmetric chain whose measured Szegedy chain is not symmetric (by
# 0.03-0.05 under the example's rules); the seeded draws never reach one.
SZEGEDY_ASYMMETRIC_BASE = random_symmetric_chain(7, np.random.default_rng(3))


@seed(10)
@settings(deadline=None, max_examples=30)
@given(
    dt_walks_with_oracle(),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=1.0, max_value=4.0),
)
@example(
    walk_and_oracle=(
        quantize_szegedy(SZEGEDY_ASYMMETRIC_BASE),
        brute_szegedy_unitary(SZEGEDY_ASYMMETRIC_BASE),
    ),
    t=4,
    T=7,
    T_geo=5.5,
)
def test_generated_dt_matches_dense_oracle(walk_and_oracle, t, T, T_geo):
    W, U = walk_and_oracle
    p = 1.0 / T_geo
    t_max = math.ceil(T_geo * math.log(1.0 / DEFAULT_TAIL_TOL))
    geo = [(s, p * (1.0 - p) ** s) for s in range(t_max + 1)]
    mass = sum(w for _, w in geo)
    cases = [
        (delta_rule(t), [(t, 1.0)]),
        (uniform_dt_rule(T), [(s, 1.0 / T) for s in range(T)]),
        (geometric_rule(T_geo), [(s, w / mass) for s, w in geo]),
    ]
    expected = [brute_dt_average(U, dense_embedding(W), W.base_size, w) for _, w in cases]
    for (rule, _), M in zip(cases, expected):
        got = generated_chain(W, rule).chain.entries
        np.testing.assert_allclose(got, M, rtol=0.0, atol=1e-12)
    # a budget of L states leaves no room for giant steps, so a lattice walk
    # steps its start columns too, and the stored steps are measured in blocks
    # of at most L states: the geometric rule's steps span at least three
    # blocks and end in a partial one (only lattice walks read the budget)
    t_end = t_max + 1
    L = next(L for L in range(2, t_end) if t_end % L)
    assert t_end > 2 * L
    columns = 1 if W.lattice is not None else W.base_size
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoherence, "STEP_BATCH_ENTRIES", L * W.dim * columns)
        for (rule, _), M in zip(cases, expected):
            got = generated_chain(W, rule).chain.entries
            np.testing.assert_allclose(got, M, rtol=0.0, atol=1e-12)


def test_generated_dt_stores_at_most_its_step_budget():
    # a lattice walk's momentum blocks and giant-step rows take at most
    # STEP_BATCH_ENTRIES complex entries (1 MiB), and so do its stored
    # baby steps; the rest is a few dim-sized arrays (the peak measured
    # 0.88 MiB in all for the Hadamard walk, 0.76 MiB for the Grover walk)
    W = coined_walk("hadamard_cycle", 512)
    _, peak = _traced_peak(generated_chain, W, geometric_rule(64))
    assert peak <= decoherence.STEP_BATCH_ENTRIES * 16 + 8 * W.dim * 16
    W = coined_walk("grover_lattice", 16, 2)
    assert decoherence._giant_steps(W, rule_weights(geometric_rule(64))[0].size) > 1
    _, peak = _traced_peak(generated_chain, W, geometric_rule(64))
    assert peak <= decoherence.STEP_BATCH_ENTRIES * 16 + 8 * W.dim * 16


def _support_weights(rule: MeasurementRule) -> np.ndarray:
    """The rule's dense weights w[t] over the times 0 .. t_end - 1."""
    times, weights, _ = rule_weights(rule)
    w = np.zeros(int(times[-1]) + 1)
    w[times] = weights
    return w


@st.composite
def reversible_chains(draw):
    """A random symmetric chain or the path chain, reversible but not
    symmetric, on 2 to 9 states."""
    n = draw(st.integers(min_value=2, max_value=9))
    if draw(st.booleans()):
        return random_symmetric_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return standard_chain(path(n))


@seed(16)
@settings(deadline=None, max_examples=40)
@given(
    reversible_chains(),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.floats(min_value=1.0, max_value=8.0),
)
def test_szegedy_kernel_matches_stepping(P, t, T, T_geo):
    # the discriminant's eigenbasis against stepping every start state
    W = quantize_szegedy(P)
    assert decoherence._szegedy_rounding(W) <= GENERATED_TOL
    for rule in (delta_rule(t), uniform_dt_rule(T), geometric_rule(T_geo)):
        np.testing.assert_allclose(
            decoherence._szegedy_sum(W, rule),
            decoherence._stepped_sum(W, _support_weights(rule)),
            rtol=0.0,
            atol=1e-11,
        )


@pytest.mark.parametrize(
    "build", [lambda: path(7), lambda: cycle(8), lambda: complete(2)], ids=["path7", "cycle8", "complete2"]
)
def test_szegedy_kernel_on_long_supports(build):
    # bipartite bases have discriminant eigenvalue -1 as well as 1; both
    # directions are static, with no 0 / 0 at sin theta = 0, and the
    # kernel stays on the stepped sum over thousands of steps, up to the
    # 46,000 of geometric(2000)
    W = quantize_szegedy(standard_chain(build()))
    lam = W._szegedy_spectrum[0]
    assert abs(lam[0] + 1.0) < walks.DISCRIMINANT_TOL and abs(lam[-1] - 1.0) < walks.DISCRIMINANT_TOL
    for rule in (delta_rule(3000), uniform_dt_rule(2000), geometric_rule(200), geometric_rule(2000)):
        np.testing.assert_allclose(
            decoherence._szegedy_sum(W, rule),
            decoherence._stepped_sum(W, _support_weights(rule)),
            rtol=0.0,
            atol=1e-11,
        )


SZEGEDY_ON_BIPARTITE_BASES = {
    "path7_uniform_dt": (lambda: path(7), uniform_dt_rule(50)),
    "cycle8_uniform_dt": (lambda: cycle(8), uniform_dt_rule(50)),
    "cycle8_delta": (lambda: cycle(8), delta_rule(7)),
    "path12_geometric": (lambda: path(12), geometric_rule(9.5)),
}


@pytest.mark.parametrize(
    "build, rule", SZEGEDY_ON_BIPARTITE_BASES.values(), ids=list(SZEGEDY_ON_BIPARTITE_BASES)
)
def test_szegedy_chain_on_a_bipartite_base_keeps_the_zeros_of_stepping(build, rule):
    # U = ref_A ref_B moves the walker two base steps, so on a bipartite
    # base the measured chain keeps the parity classes apart: the stepped
    # sum is rounding between them, and the kernel's square sums leave up
    # to 1e-29 there, which the chain's one floor sets to 0, so the chain
    # is refused as reducible rather than read as irreducible with period 1
    P = standard_chain(build())
    W = quantize_szegedy(P)
    assert decoherence._szegedy_rounding(W) <= GENERATED_TOL
    stepped = decoherence._stepped_sum(W, _support_weights(rule))
    zero = stepped <= walks.UNITARITY_TOL**2
    assert stepped[zero].max() <= 1e-28
    parity = np.arange(P.size) % 2
    across = parity[:, None] != parity[None, :]
    assert zero[across].all()
    assert np.abs(decoherence._szegedy_sum(W, rule)[across]).max() <= 1e-28
    got = generated_chain(W, rule).chain
    if rule.family == "delta":
        # within a class the walk's amplitude can cancel to 0 at one time,
        # where X o X - Y o Y + P (B_t o B_t) cancels only to about eps
        assert (got.entries[across] == 0.0).all() and (got.entries[~zero] > 0.0).all()
    else:
        np.testing.assert_array_equal(got.entries == 0.0, zero)
    assert got.irreducibility_witness is not None
    if not P.is_symmetric:
        with pytest.raises(ReducibleChainError):
            got.stationary
    with pytest.raises(ReducibleChainError):
        mixing_time(got, 200)


@pytest.mark.parametrize(
    "build",
    [lambda: random_symmetric_chain(16, np.random.default_rng(3)), lambda: standard_chain(complete(16))],
    ids=["random16", "complete16"],
)
@pytest.mark.parametrize("rule", [geometric_rule(200), uniform_dt_rule(2000)], ids=lambda r: r.family)
def test_szegedy_kernels_factor_within_their_stop_rule(build, rule):
    # thousands of measured times fold into two N x N kernels on the
    # directions; their pivoted Cholesky factors leave a residual whose
    # trace is at most CHI_TRACE_TOL, or whose diagonal is down to the
    # kernel's rounding, and the chain stays on stepping
    W = quantize_szegedy(build())
    for K, rounding in decoherence._szegedy_kernels(W, rule):
        assert K.shape == (16, 16)
        LT = decoherence._pivoted_cholesky(K.__getitem__, K.diagonal(), rounding, "kernel")
        R = K - LT.T @ LT
        assert np.trace(R) <= decoherence.CHI_TRACE_TOL or np.diag(R).max() <= rounding
        assert np.diag(R).min() >= -(decoherence.CHI_TRACE_TOL + rounding)
    np.testing.assert_allclose(
        decoherence._szegedy_sum(W, rule),
        decoherence._stepped_sum(W, _support_weights(rule)),
        rtol=0.0,
        atol=1e-11,
    )


@pytest.mark.parametrize("flip, kernel", [(1e-3, True), (1e-8, False)])
def test_szegedy_kernel_steps_where_its_rounding_would_show(monkeypatch, flip, kernel):
    # a two-state chain that flips with probability p has discriminant
    # eigenvalues 1 and 1 - 2p; at p = 1e-8 the kernel's terms cancel from
    # about 1 / (4 p), and its rounding bound passes GENERATED_TOL, so the
    # chain steps its start states
    P = MarkovChain(np.array([[1.0 - flip, flip], [flip, 1.0 - flip]]))
    W = quantize_szegedy(P)
    assert (decoherence._szegedy_rounding(W) <= GENERATED_TOL) == kernel
    used = []

    def spy(name):
        inner = getattr(decoherence, name)

        def call(*args):
            used.append(name)
            return inner(*args)

        return call

    for name in ("_szegedy_sum", "_stepped_sum"):
        monkeypatch.setattr(decoherence, name, spy(name))
    rule = uniform_dt_rule(50)
    expected = brute_dt_average(dense_unitary(W), dense_embedding(W), 2, [(s, 1 / 50) for s in range(50)])
    np.testing.assert_allclose(generated_chain(W, rule).chain.entries, expected, rtol=0.0, atol=1e-12)
    assert used == ["_szegedy_sum" if kernel else "_stepped_sum"]


def test_hand_built_szegedy_walk_is_stepped_not_recognized(monkeypatch):
    # only quantize_szegedy states the spectrum; a copy with equal factors
    # carries none, so eigenphases refuses it and its chain is stepped
    W = quantize_szegedy(standard_chain(cycle(6)))
    copy = dataclasses.replace(W, factors=tuple(f.copy() for f in W.factors))
    assert W._szegedy_spectrum is not None and copy._szegedy_spectrum is None
    with pytest.raises(ValueError, match="declares no spectral structure"):
        eigenphases(copy)
    used = []
    stepped = decoherence._stepped_sum

    def spy(*args):
        used.append(1)
        return stepped(*args)

    monkeypatch.setattr(decoherence, "_stepped_sum", spy)
    got = generated_chain(copy, uniform_dt_rule(7)).chain.entries
    assert used == [1]
    expected = brute_dt_average(
        dense_unitary(copy), dense_embedding(copy), 6, [(s, 1 / 7) for s in range(7)]
    )
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


def test_szegedy_reflections_are_formed_once(monkeypatch):
    # both reflections are the embedding's rows |p_x>, one array, and the
    # builder's eigh serves phase_gap and the generated chain
    calls = []
    eigh = np.linalg.eigh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    W = quantize_szegedy(standard_chain(complete(8)))
    phase_gap(W)
    generated_chain(W, uniform_dt_rule(5))
    assert W.factors[1] is W.factors[3] is W.embed
    assert len(calls) == 1


@pytest.mark.parametrize(
    "build, rule",
    [
        (lambda: coined_walk("hadamard_cycle", 16), geometric_rule(12)),
        (lambda: coined_walk("grover_lattice", 4, 2), uniform_dt_rule(9)),
        (lambda: quantize_szegedy(standard_chain(complete(8))), uniform_dt_rule(6)),
    ],
    ids=["hadamard16", "grover4_2", "szegedy_complete8"],
)
def test_structured_walks_generate_chains_without_stepping(monkeypatch, build, rule):
    # lattice walks step their register-major rows and Szegedy walks read
    # their spectrum: neither calls DTWalk.step or the stepped sum
    W = build()

    def refused(*args):
        raise AssertionError("stepped")

    monkeypatch.setattr(DTWalk, "step", refused)
    monkeypatch.setattr(decoherence, "_stepped_sum", refused)
    chain = generated_chain(W, rule).chain
    assert chain.size == W.base_size


def test_szegedy_chain_reads_no_rule_weights(monkeypatch):
    # the kernel reads the rule's characteristic function and the truncation
    # bound comes in closed form, so no support or weights are formed
    W = quantize_szegedy(random_symmetric_chain(12, np.random.default_rng(4)))
    rules = (delta_rule(7), uniform_dt_rule(30), geometric_rule(200.0))
    stepped = [decoherence._stepped_sum(W, _support_weights(rule)) for rule in rules]

    def refused(rule):
        raise AssertionError("rule_weights read")

    monkeypatch.setattr(decoherence, "rule_weights", refused)
    for rule, expected in zip(rules, stepped):
        np.testing.assert_allclose(generated_chain(W, rule).chain.entries, expected, rtol=0.0, atol=1e-11)
    with pytest.raises(RuleFamilyError, match="needs integer T"):
        generated_chain(W, delta_rule(2.5))


def test_szegedy_chain_holds_no_state_stack():
    # stepping complete(64)'s walk keeps (N^2, N) complex states, 4 MiB
    # each, several at a time; the kernel keeps a few N x N arrays, its
    # characteristic function's grids among them, under one state
    N = 64
    W = quantize_szegedy(standard_chain(complete(N)))
    W._szegedy_spectrum
    _, peak = _traced_peak(generated_chain, W, uniform_dt_rule(40))
    assert peak < N**3 * 16, peak


def _custom_lattice_walk(n: int, complex_rows: bool, complex_embed: bool) -> DTWalk:
    """A walk on Z_n with a 4-dim register: a reflection about a random
    unit row, a shift moving subs 0 and 3 up and sub 1 down, a reflection
    about another random row and two more shifts."""
    rng = np.random.default_rng(n)

    def unit_row(k, is_complex):
        z = rng.normal(size=k) + (1j * rng.normal(size=k) if is_complex else 0.0)
        return z / np.linalg.norm(z)

    r = 4
    up, down = lattice_step(n, 1, 0, 1), lattice_step(n, 1, 0, -1)
    shift = np.stack([up * r, down * r + 1, np.arange(n) * r + 2, up * r + 3], axis=1).ravel()
    first, second = (np.tile(unit_row(r, complex_rows), (n, 1)) for _ in range(2))
    factors = (first, shift, second, shift, shift)
    embed = np.tile(unit_row(r, complex_embed), (n, 1))
    return DTWalk("custom", n, r, factors, embed, base_symmetric=False, lattice=(n, 1))


# lattice walks with real columns (the Hadamard walk's and real_custom's
# from the two parts of a complex start state) and complex ones
# (complex_custom's)
LATTICE_STEP_WALKS = {
    "hadamard7": lambda: coined_walk("hadamard_cycle", 7),
    "hadamard10": lambda: coined_walk("hadamard_cycle", 10),
    "grover9_1": lambda: coined_walk("grover_lattice", 9, 1),
    "grover4_2": lambda: coined_walk("grover_lattice", 4, 2),
    "grover3_3": lambda: coined_walk("grover_lattice", 3, 3),
    "real_custom": lambda: _custom_lattice_walk(5, False, True),
    "complex_custom": lambda: _custom_lattice_walk(6, True, True),
}


@pytest.mark.parametrize("build", LATTICE_STEP_WALKS.values(), ids=list(LATTICE_STEP_WALKS))
def test_giant_and_baby_steps_match_dense_oracle(build):
    # J > 1 giant steps that do not divide t_end, so the last column's
    # steps run past the support, and a short support at J = 1; real walks
    # step real columns, the complex custom walk complex ones
    W = build()
    U, E = dense_unitary(W), dense_embedding(W)
    for rule in (uniform_dt_rule(6), delta_rule(60), uniform_dt_rule(70), geometric_rule(2.5)):
        times, weights, _ = rule_weights(rule)
        t_end = int(times[-1]) + 1
        J = decoherence._giant_steps(W, t_end)
        assert (J == 1) if t_end == 6 else (J > 1 and t_end % J)
        expected = brute_dt_average(U, E, W.base_size, zip(times.tolist(), weights))
        got = generated_chain(W, rule).chain
        assert got.lattice == W.lattice
        np.testing.assert_allclose(got.entries, expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("build", LATTICE_STEP_WALKS.values(), ids=list(LATTICE_STEP_WALKS))
def test_step_rows_is_the_walk_in_register_major_layout(build):
    # row sub * N + base of a _step_rows stack is walk index base * r + sub,
    # so stepping the register-major basis gives the dense walk reordered
    W = build()
    walk_index = np.arange(W.dim).reshape(W.base_size, W.register_dim).T.ravel()
    stepped = W._step_rows(np.eye(W.dim, dtype=W._row_dtype))
    # a real walk with a complex start state steps its two parts apart
    real_parts = W._row_dtype.kind == "f" and np.iscomplexobj(W.embed)
    assert W._row_starts.shape == (W.dim, 2 if real_parts else 1)
    np.testing.assert_allclose(stepped, dense_unitary(W)[np.ix_(walk_index, walk_index)], atol=1e-14)


@pytest.mark.parametrize("t, period", [(60, None), (61, 2), (62, None), (63, 2)])
def test_giant_steps_keep_the_exact_zeros_of_stepping(t, period):
    # on an even cycle the Hadamard walk at time t sits on the sites of t's
    # parity, so the other entries of its delta chain are exact zeros of
    # the dense oracle; the inverse fft leaves rounding there (at n = 10,
    # not a power of two), which must not enter the support: an even t
    # keeps the parity classes apart (reducible), an odd t swaps them
    # (period 2)
    n = 10
    W = coined_walk("hadamard_cycle", n)
    assert decoherence._giant_steps(W, t + 1) > 1
    rule = delta_rule(t)
    expected = MarkovChain(brute_dt_average(dense_unitary(W), dense_embedding(W), n, [(t, 1.0)]))
    got = generated_chain(W, rule).chain
    np.testing.assert_array_equal(got.entries == 0.0, expected.entries == 0.0)
    assert (got.irreducibility_witness is None) == (period is not None)
    assert got.irreducibility_witness == expected.irreducibility_witness
    if period is None:
        with pytest.raises(ReducibleChainError):
            got.period
        with pytest.raises(ReducibleChainError):
            mixing_time(got)
    else:
        assert got.period == period == expected.period


@pytest.mark.parametrize("t", [12, 24, 60])
def test_lattice_columns_drop_rounding_on_every_path(t):
    # grover_lattice(3, 3) is back at its start at t = 12, 24, 60: the dense
    # oracle is the identity up to its rounding (at most 1e-29), and so is
    # the chain, reducible, whether its column was stepped (t = 12, 24)
    # or came from giant steps (t = 60)
    W = coined_walk("grover_lattice", 3, 3)
    assert (decoherence._giant_steps(W, t + 1) > 1) == (t == 60)
    dense = brute_dt_average(dense_unitary(W), dense_embedding(W), W.base_size, [(t, 1.0)])
    np.testing.assert_allclose(dense, np.eye(W.base_size), rtol=0.0, atol=1e-12)
    expected = MarkovChain(np.where(dense > 1e-20, dense, 0.0))
    got = generated_chain(W, delta_rule(t)).chain
    np.testing.assert_array_equal(got.entries == 0.0, expected.entries == 0.0)
    assert got.irreducibility_witness == expected.irreducibility_witness == (0, 1)
    for chain in (got, expected):
        with pytest.raises(ReducibleChainError):
            chain.period


def test_giant_steps_wait_for_a_support_that_pays_for_them():
    # the giant steps' transform and products cost about J log2 N rounds,
    # so a short support steps its start columns: grover_lattice(m, 1) under
    # uniform_dt(m) for the m up to 64 that its workload draws, and a long
    # geometric support does take giant steps
    for m in (16, 40, 64):
        assert decoherence._giant_steps(coined_walk("grover_lattice", m, 1), m) == 1
    W = coined_walk("hadamard_cycle", 128)
    t_end = rule_weights(geometric_rule(128 / math.sqrt(2.0)))[0].size
    assert decoherence._giant_steps(W, t_end) > 1


@pytest.mark.parametrize("phase, refused", [(1e-6, True), (1e-14, False)])
def test_giant_steps_refuse_an_imaginary_residue(phase, refused):
    # a real walk's giant-step states are real up to rounding; a global
    # phase on its momentum blocks gives them an imaginary part of about
    # phase * t, refused above UNITARITY_TOL (1e-9) and dropped below it
    W = coined_walk("grover_lattice", 8, 2)
    W.__dict__["_momentum_blocks"] = W._momentum_blocks * np.exp(1j * phase)
    rule = geometric_rule(8.0)
    if refused:
        with pytest.raises(ArithmeticError, match="imaginary part"):
            generated_chain(W, rule)
    else:
        expected = generated_chain(coined_walk("grover_lattice", 8, 2), rule).chain.column
        np.testing.assert_allclose(generated_chain(W, rule).chain.column, expected, atol=1e-12)


@st.composite
def lattice_walks(draw):
    """A Hadamard or Grover walk, both of which declare their lattice."""
    if draw(st.booleans()):
        return coined_walk("hadamard_cycle", draw(st.integers(min_value=2, max_value=40)))
    n, d = draw(st.sampled_from([(3, 2), (4, 2), (5, 2), (3, 3), (2, 4)]))
    return coined_walk("grover_lattice", n, d)


@seed(12)
@settings(deadline=None, max_examples=40)
@given(
    lattice_walks(),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=1.0, max_value=8.0),
)
def test_one_column_chain_matches_all_columns(W, t, T, T_geo):
    assert W.lattice is not None
    every_column = dataclasses.replace(W, lattice=None)
    for rule in (delta_rule(t), uniform_dt_rule(T), geometric_rule(T_geo)):
        got = generated_chain(W, rule)
        expected = generated_chain(every_column, rule)
        np.testing.assert_allclose(got.chain.entries, expected.chain.entries, rtol=0.0, atol=1e-12)
        assert got.chain.lattice == W.lattice
        assert expected.chain.lattice is None


@st.composite
def lattice_shapes(draw):
    """(n, d) with d in 1..3 and N = n**d <= 256."""
    d = draw(st.integers(min_value=1, max_value=3))
    return draw(st.integers(min_value=2 if d > 1 else 3, max_value={1: 64, 2: 16, 3: 6}[d])), d


def _same_bound(a: float, b: float) -> bool:
    """Equal to rounding; a relaxation bound of order 1/delta with delta at
    rounding level (a periodic chain) counts as infinite on either side."""
    if max(a, b) > 1e12:
        return min(a, b) > 1e12
    return a == pytest.approx(b, rel=1e-9, abs=1e-12)


@seed(14)
@settings(deadline=None, max_examples=25)
@given(lattice_shapes(), st.integers(0, 2**32 - 1))
@example((16, 2), 1)
@example((6, 3), 2)
@example((8, 2), 8)
@example((4, 3), 9)
@example((64, 1), 3)
@example((2, 6), 4)
@example((7, 2), 5)
@example((5, 1), 6)
@example((3, 4), 7)
def test_one_column_path_matches_dense_path(shape, relabel_seed):
    """A lattice chain runs on column 0 and its Fourier grid; the same
    chain with its states relabeled by a random permutation carries no
    claim and runs the dense eigensolve and every column. The two give the
    same tau, T', clusters and verdicts, and the same gaps, bounds, d(P)
    and chains to 1e-12."""
    P = standard_chain(lattice(*shape))
    perm = np.random.default_rng(relabel_seed).permutation(P.size)
    relabel = np.ix_(perm, perm)
    relabeled = MarkovChain(P.entries[relabel], P.label)
    assert P.lattice == shape and relabeled.lattice is None
    n, d = shape

    # every field of the audit of P and of its lazy chain; a periodic P
    # runs to the horizon
    horizon = 2 * n * n
    for one_column, dense in ((P, relabeled), (lazy_chain(P), lazy_chain(relabeled))):
        got, expected = verify_inequalities(one_column, horizon), verify_inequalities(dense, horizon)
        assert got.tau_mix == expected.tau_mix
        assert (got.phi is None) == (expected.phi is None)
        pairs = [(got.delta, expected.delta), (got.d_of_P, expected.d_of_P)]
        for value, oracle in pairs + ([(got.phi, expected.phi)] if got.phi is not None else []):
            assert value == pytest.approx(oracle, rel=0.0, abs=1e-12)
        assert spectral_gap(one_column) == got.delta
        assert [c.name for c in got.bound_checks] == [c.name for c in expected.bound_checks]
        for check, oracle in zip(got.bound_checks, expected.bound_checks):
            assert (check.holds, check.conclusive) == (oracle.holds, oracle.conclusive), check
            assert _same_bound(check.lhs, oracle.lhs) and _same_bound(check.rhs, oracle.rhs), check

    walk, dense_walk = quantize_ct(P), quantize_ct(relabeled)
    assert [len(c) for c in walk.clusters] == [len(c) for c in dense_walk.clusters]
    np.testing.assert_allclose(walk.cluster_values(), dense_walk.cluster_values(), rtol=0.0, atol=1e-12)
    Ts = (0.3 * n * d, 0.5 * n * d, 1.3 * n * d, 2.9 * n * d)
    for T, rule_fn in itertools.product(Ts, CT_RULES):
        rule = rule_fn(T)
        got, expected = generated_chain(walk, rule), generated_chain(dense_walk, rule)
        assert got.chain.lattice == P.lattice and expected.chain.lattice is None
        np.testing.assert_allclose(got.chain.entries[relabel], expected.chain.entries, rtol=0.0, atol=1e-12)
        assert repeated_mixing_time(got) == repeated_mixing_time(expected), rule
    got = limit_chain(walk)
    assert got.lattice == P.lattice
    np.testing.assert_allclose(got.entries[relabel], limit_chain(dense_walk).entries, rtol=0.0, atol=1e-12)


def _lattice_sweep_op(n: int, d: int) -> None:
    """One point of the lattice sweep: the standard chain, its walk, the
    three continuous-time chains at T = n d / 2 with their T', the limit
    chain and the audit of the lazy chain."""
    P = standard_chain(lattice(n, d))
    W = quantize_ct(P)
    for rule_fn in CT_RULES:
        repeated_mixing_time(generated_chain(W, rule_fn(n * d / 2.0)))
    limit_chain(W)
    verify_inequalities(lazy_chain(P))


def test_lattice_chains_solve_no_state_sized_eigenproblem(monkeypatch):
    shapes = []
    for name in ("eig", "eigh", "eigvals", "eigvalsh"):

        def recording(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    _lattice_sweep_op(16, 2)
    # the characteristic matrices are factored from their columns, so
    # nothing is solved
    assert shapes == [], shapes


def test_lattice_chain_holds_no_clusters_square():
    # lattice(64,2) has C = 545 clusters; its delta chain factors chi from
    # two of its columns, so no step holds a C x C float64 array (2.3 MiB).
    # Measured on a fresh walk: a 0.3 MiB peak after other chains, 1.3 MiB
    # as a process's first chain (numpy's one-time set-up); the eigh of chi
    # peaked at 11.6 MiB
    W = quantize_ct(standard_chain(lattice(64, 2)))
    C = len(W.cluster_starts)
    assert C == 545
    _, peak = _traced_peak(generated_chain, W, delta_rule(64.0))
    assert peak < C * C * 8


def test_lattice_point_at_the_cap():
    # lattice(64,2), N = 4096: 545 clusters, T' = 2 for the delta and the
    # uniform rule at T = n d / 2, and tau = 1265 for the lazy chain
    P = standard_chain(lattice(64, 2))
    W = quantize_ct(P)
    assert len(W.clusters) == 545
    for rule in (delta_rule(64.0), uniform_ct_rule(64.0)):
        assert repeated_mixing_time(generated_chain(W, rule)) == 2, rule
    assert mixing_time(lazy_chain(P)) == 1265
