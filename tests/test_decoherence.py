import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qwmix import (
    MeasurementRule,
    NoMix,
    RuleFamilyError,
    characteristic_function,
    coined_walk,
    ct_propagator,
    delta_rule,
    export_generated,
    exponential_rule,
    generated_chain,
    geometric_rule,
    lazy_chain,
    limit_chain,
    load_csv,
    one_norm,
    quantize_ct,
    quantize_szegedy,
    random_symmetric_chain,
    repeated_mixing_time,
    rule_weights,
    standard_chain,
    symmetrized_generator,
    uniform_ct_rule,
    uniform_dt_rule,
)
from qwmix.config import DEFAULT_TAIL_TOL
from qwmix.graphs import complete, cycle, hypercube, lattice, path

from conftest import (
    brute_dt_average,
    brute_generated_ct,
    brute_limit_chain,
    brute_grover_unitary,
    brute_hadamard_unitary,
    brute_szegedy_unitary,
)

GENERATED_TOL = 1e-9


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
    W = quantize_ct(standard_chain(cycle(7)))
    t = 2.9
    expected = np.abs(ct_propagator(W, t)) ** 2
    got = generated_chain(W, delta_rule(t)).chain.entries
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_ct_delta_at_zero_is_identity():
    W = quantize_ct(standard_chain(cycle(5)))
    got = generated_chain(W, delta_rule(0.0)).chain.entries
    np.testing.assert_allclose(got, np.eye(5), atol=1e-12)


def test_ct_generated_matches_unclustered_pair_sum():
    rng = np.random.default_rng(99)
    chains = [
        standard_chain(cycle(5)),
        standard_chain(complete(6)),
        random_symmetric_chain(7, rng),
    ]
    rules = [delta_rule(1.7), uniform_ct_rule(4.0), exponential_rule(2.5)]
    for P in chains:
        H = symmetrized_generator(P)
        W = quantize_ct(P)
        for rule in rules:
            expected = brute_generated_ct(H, lambda th: characteristic_function(rule, th))
            got = generated_chain(W, rule).chain.entries
            np.testing.assert_allclose(got, expected, atol=1e-12)


def test_generated_chain_is_stochastic_and_symmetric():
    W = quantize_ct(standard_chain(hypercube(3)))
    for rule in (delta_rule(0.8), uniform_ct_rule(12.0), exponential_rule(3.0)):
        g = generated_chain(W, rule)
        M = g.chain.entries
        assert (M >= 0).all()
        np.testing.assert_allclose(M.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(M, M.T, atol=1e-12)
        assert g.truncation_error == 0.0


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
            U, W.embed_matrix, W.base_size, [(t, 1.0 / T) for t in range(T)]
        )
        assert one_norm(got - expected) <= 1e-12


def test_dt_geometric_matches_long_sum():
    P = standard_chain(cycle(4))
    W = quantize_szegedy(P)
    T = 3.0
    p = 1.0 / T
    g = generated_chain(W, geometric_rule(T))
    weights = [(t, p * (1 - p) ** t) for t in range(300)]
    expected = brute_dt_average(brute_szegedy_unitary(P), W.embed_matrix, 4, weights)
    expected /= sum(w for _, w in weights)
    np.testing.assert_allclose(g.chain.entries, expected, atol=1e-9)
    assert g.truncation_error <= 1e-10


def test_dt_delta_requires_integer_time():
    P = standard_chain(cycle(4))
    W = quantize_szegedy(P)
    with pytest.raises(RuleFamilyError):
        generated_chain(W, delta_rule(1.5))
    got = generated_chain(W, delta_rule(2.0)).chain.entries
    U2 = np.linalg.matrix_power(brute_szegedy_unitary(P), 2)
    expected = W.project(U2 @ W.embed_matrix)
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


def test_ct_kernels_need_no_projector_stack():
    # lattice(16,2) has 41 eigenvalue clusters, so a stack of cluster
    # projectors alone would take 41 N^2 floats
    W = quantize_ct(standard_chain(lattice(16, 2)))
    budget = 8 * W.size**2 * 8  # eight N x N float64 arrays
    calls = [(generated_chain, W, rule(8.0)) for rule in (delta_rule, uniform_ct_rule, exponential_rule)]
    for build, *args in calls + [(limit_chain, W)]:
        tracemalloc.start()
        try:
            build(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget, (build.__name__, args[1:], peak)


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


def test_export_generated_round_trip(tmp_path):
    W = quantize_ct(standard_chain(cycle(5)))
    g = generated_chain(W, uniform_ct_rule(3.0))
    out = tmp_path / "gen.csv"
    export_generated(g, str(out))
    loaded = load_csv(str(out))
    np.testing.assert_allclose(loaded.entries, g.chain.entries, atol=1e-15)
    sidecar = json.loads((tmp_path / "gen.csv.json").read_text())
    assert sidecar["walk_kind"] == "ct"
    assert sidecar["rule_family"] == "uniform_ct"
    assert sidecar["T"] == 3.0
    assert sidecar["truncation_error"] == 0.0
    assert "base_label" in sidecar


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


@seed(10)
@settings(deadline=None, max_examples=30)
@given(
    dt_walks_with_oracle(),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.floats(min_value=1.0, max_value=4.0),
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
    for rule, weights in cases:
        got = generated_chain(W, rule).chain.entries
        expected = brute_dt_average(U, W.embed_matrix, W.base_size, weights)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)


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
        assert got.truncation_error == expected.truncation_error
