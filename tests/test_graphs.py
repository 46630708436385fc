import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qwmix.graphs import (
    Graph,
    StateCapError,
    build_graph,
    cartesian_power,
    complete,
    cycle,
    format_edge_list,
    hypercube,
    lattice,
    lattice_difference,
    parse_edge_list,
    path,
)

from qwmix.walks import grover_lattice_walk

from conftest import (
    _tuple_index,
    brute_lattice_edges,
    brute_power_edges,
    brute_reachable,
    refusal_peak,
)


def test_cycle_structure():
    G = cycle(5)
    assert G.n == 5
    assert len(G.edges) == 5
    assert all(d == 2 for d in G.degrees())
    assert G.is_connected()


def test_cycle_two_vertices_single_edge():
    G = cycle(2)
    assert G.edges == frozenset({(0, 1)})


def test_path_structure():
    G = path(4)
    assert len(G.edges) == 3
    assert sorted(G.degrees()) == [1, 1, 2, 2]


def test_complete_structure():
    G = complete(6)
    assert len(G.edges) == 15
    assert all(d == 5 for d in G.degrees())


def test_hypercube_structure():
    G = hypercube(3)
    assert G.n == 8
    assert len(G.edges) == 12
    assert all(d == 3 for d in G.degrees())
    # neighbors differ in exactly one bit
    for u, v in G.edges:
        assert bin(u ^ v).count("1") == 1


def test_hypercube_matches_two_point_lattice():
    A = hypercube(4).adjacency_matrix()
    B = lattice(2, 4).adjacency_matrix()
    assert np.array_equal(A, B)


def test_lattice_is_cartesian_power_of_cycle():
    A = lattice(5, 2).adjacency_matrix()
    B = cartesian_power(cycle(5), 2).adjacency_matrix()
    assert np.array_equal(A, B)


def test_lattice_degree():
    G = lattice(4, 3)
    assert all(d == 6 for d in G.degrees())
    assert G.n == 64


def test_lattice_one_dimension_is_cycle():
    assert lattice(7, 1).edges == cycle(7).edges


def test_adjacency_symmetry():
    A = lattice(4, 2).adjacency_matrix()
    assert np.array_equal(A, A.T)
    assert A.diagonal().sum() == 0


def test_build_graph_dispatch():
    assert build_graph("cycle", [6]).n == 6
    assert build_graph("hypercube", [3]).n == 8
    assert build_graph("lattice", [3, 2]).n == 9
    with pytest.raises(ValueError):
        build_graph("torus", [3])
    with pytest.raises(ValueError):
        build_graph("cycle", [3, 3])


def test_state_cap_enforced(monkeypatch):
    monkeypatch.setenv("QWMIX_STATE_CAP", "100")
    with pytest.raises(StateCapError):
        cycle(101)
    assert cycle(100).n == 100


@pytest.mark.parametrize(
    "build",
    [
        lambda: hypercube(15000),
        lambda: hypercube(10**7),
        lambda: hypercube(14000),
        lambda: lattice(2, 10**7),
        lambda: lattice(3, 5000),
        lambda: grover_lattice_walk(2, 10**6),
        lambda: cartesian_power(cycle(3), 10**6),
    ],
    ids=["hypercube_15000", "hypercube_1e7", "hypercube_14000", "lattice_2_1e7", "lattice_3_5000",
         "grover_2_1e6", "power_cycle3_1e6"],
)
def test_powers_refused_before_they_are_formed(monkeypatch, build):
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    with pytest.raises(StateCapError) as info:
        build()
    assert len(str(info.value)) < 200
    assert refusal_peak(build) < 2**20


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(0, 3)}), "bad")
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}), "bad")


def test_edge_list_round_trip():
    G = lattice(3, 2)
    text = format_edge_list(G)
    H = parse_edge_list(text)
    assert H.n == G.n
    assert H.edges == G.edges


def test_parse_edge_list_rejects_duplicates():
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n1 0\n")
    with pytest.raises(ValueError):
        parse_edge_list("3\n2 2\n")


@seed(1)
@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=3, max_value=24))
def test_cycle_edge_list_round_trip(n):
    G = cycle(n)
    assert parse_edge_list(format_edge_list(G)).edges == G.edges


@seed(2)
@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=3))
def test_cartesian_power_degree_sum(n, d):
    G = cartesian_power(cycle(n), d)
    base_degree = 1 if n == 2 else 2
    assert all(deg == base_degree * d for deg in G.degrees())


@seed(5)
@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=1, max_value=3))
def test_builders_match_coordinate_tuple_edges(n, d):
    expected = brute_lattice_edges(n, d)
    assert lattice(n, d).edges == expected
    assert cartesian_power(cycle(n), d).edges == expected
    assert cycle(n).edges == brute_lattice_edges(n, 1)
    assert hypercube(d).edges == brute_lattice_edges(2, d)
    path_edges = {(x, x + 1) for x in range(n - 1)}
    complete_edges = set(itertools.combinations(range(n), 2))
    assert path(n).edges == path_edges
    assert complete(n).edges == complete_edges
    for base, edges in ((path(n), path_edges), (complete(n), complete_edges)):
        assert cartesian_power(base, d).edges == brute_power_edges(edges, n, d)
    # the array views agree with the edge set
    G = lattice(n, d)
    A = np.zeros((G.n, G.n))
    for u, v in expected:
        A[u, v] = A[v, u] = 1.0
    assert np.array_equal(G.adjacency_matrix(), A)
    assert G.degrees().tolist() == A.sum(axis=0).astype(int).tolist()
    assert all(G.neighbors(v) == np.flatnonzero(A[:, v]).tolist() for v in range(G.n))


@seed(6)
@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
def test_is_connected_matches_boolean_powers(n, rng_seed):
    rng = np.random.default_rng(rng_seed)
    pairs = list(itertools.combinations(range(n), 2))
    keep = rng.random(len(pairs)) < rng.choice([0.1, 0.3, 0.6])
    G = Graph(n, frozenset(p for p, k in zip(pairs, keep) if k), "random")
    A = np.zeros((n, n), dtype=bool)
    for u, v in G.edges:
        A[u, v] = A[v, u] = True
    assert G.is_connected() == bool(brute_reachable(A).all())


@pytest.mark.parametrize(
    "build",
    [
        lambda: path(10**5000),
        lambda: cycle(10**5000),
        lambda: complete(10**5000),
        lambda: lattice(10**5000, 2),
        lambda: lattice(2, 10**5000),
        lambda: hypercube(10**5000),
    ],
    ids=["path", "cycle", "complete", "lattice_n", "lattice_d", "hypercube"],
)
def test_counts_too_long_to_print_are_refused(monkeypatch, build):
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    with pytest.raises(StateCapError, match="16610-bit number") as info:
        build()
    assert len(str(info.value)) < 200


@pytest.mark.parametrize("n, d", [(2, 1), (5, 1), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_lattice_difference_matches_coordinate_tuples(n, d):
    D = lattice_difference(n, d)
    tuples = list(itertools.product(range(n), repeat=d))
    for y in tuples:
        for x in tuples:
            diff = tuple((a - b) % n for a, b in zip(y, x))
            assert D[_tuple_index(y, n), _tuple_index(x, n)] == _tuple_index(diff, n)
