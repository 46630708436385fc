import itertools

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from qwmix.chains import standard_chain
from qwmix.graphs import (
    Graph,
    StateCapError,
    build_graph,
    cartesian_power,
    complete,
    cycle,
    hypercube,
    lattice,
    lattice_circulant,
    path,
)

from qwmix.walks import grover_lattice_walk

from conftest import (
    _tuple_index,
    brute_lattice_edges,
    brute_power_edges,
    brute_reachable,
    edge_set,
    refusal_peak,
    traced_peak,
)


def test_cycle_structure():
    G = cycle(5)
    assert G.n == 5
    assert len(G.edges) == 5
    assert all(d == 2 for d in G.degrees())
    assert G.is_connected()


def test_cycle_two_vertices_single_edge():
    G = cycle(2)
    assert edge_set(G) == {(0, 1)}


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
    assert edge_set(lattice(7, 1)) == edge_set(cycle(7))


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
    # a dense graph counts its states against the cap, a claimed one against
    # max(cap, cap**2 // 16) = 625
    monkeypatch.setenv("QWMIX_STATE_CAP", "100")
    with pytest.raises(StateCapError):
        cycle(626)
    assert cycle(100).n == 100 and cycle(625).n == 625
    with pytest.raises(StateCapError):
        Graph(101, [[0, 1]])


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
        lambda: lattice(1025, 2),
        lambda: hypercube(21),
    ],
    ids=["hypercube_15000", "hypercube_1e7", "hypercube_14000", "lattice_2_1e7", "lattice_3_5000",
         "grover_2_1e6", "power_cycle3_1e6", "lattice_1025_2", "hypercube_21"],
)
def test_powers_refused_before_they_are_formed(monkeypatch, build):
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    with pytest.raises(StateCapError) as info:
        build()
    assert len(str(info.value)) < 200
    assert refusal_peak(build) < 2**20


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)], "bad")
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 1), (-1, 2)], "bad")
    with pytest.raises(ValueError, match="self-loop at vertex 1"):
        Graph(3, [(0, 1), (1, 1)], "bad")


@pytest.mark.parametrize(
    "edges",
    [{(0, 1)}, frozenset({(0, 1)}), [(0, 1, 2)], [0, 1], [(0.0, 1.0)], np.zeros((0, 3), dtype=int), "01"],
    ids=["set", "frozenset", "triple", "flat", "float", "zero_by_three", "str"],
)
def test_graph_takes_only_integer_pairs(edges):
    with pytest.raises(ValueError, match=r"\(E, 2\) integers"):
        Graph(3, edges)


def test_graph_stores_each_pair_once_sorted():
    G = Graph(5, [(3, 2), (1, 0), (0, 1), (2, 3), (4, 0), (1, 0)])
    assert G.edges.dtype == np.int64
    assert G.edges.tolist() == [[0, 1], [0, 4], [2, 3]]
    with pytest.raises(ValueError, match="read-only"):
        G.edges[0, 0] = 2
    same = Graph(5, np.array([[0, 1], [0, 4], [2, 3]], dtype=np.int32))
    assert np.array_equal(same.edges, G.edges) and same.edges.dtype == np.int64


def test_edgeless_graph():
    for n in (1, 3):
        G = Graph(n, [])
        assert G.edges.shape == (0, 2) and G.degrees().tolist() == [0] * n
        assert G.is_connected() == (n == 1)


def test_graphs_compare_by_identity():
    G = cycle(5)
    assert G == G and G != cycle(5)
    assert len({G, cycle(5)}) == 2


def test_standard_chain_of_a_capped_complete_graph_stays_small():
    # the pair arrays, not Python tuples, carry the 523,776 edges of complete(1024)
    assert traced_peak(lambda: standard_chain(complete(1024))) < 96 * 2**20


def test_lattice_past_the_cap_is_built_from_its_steps(monkeypatch):
    # Z_4^10 has 2**20 vertices and 10 * 2**20 edges; the graph holds its
    # 20 steps and its standard chain one column, and no edge is formed
    monkeypatch.setenv("QWMIX_STATE_CAP", str(2**20))
    assert traced_peak(lambda: lattice(4, 10)) < 4 * 2**20
    G = lattice(4, 10)
    assert traced_peak(lambda: standard_chain(G)) < 64 * 2**20
    assert G.steps.size == 20 and "edges" not in vars(G)


def test_claimed_objects_past_the_state_cap_refuse_their_dense_forms(monkeypatch):
    # at the default cap a claimed graph or chain may store up to 2**20
    # states; Z_1024^2's 2**20 x 4 edges, its adjacency matrix and its
    # chain's 2**20 x 2**20 entries count N against the state cap
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    assert [lattice(n, d).n for n, d in ((1024, 2), (64, 3), (4, 10))] == [2**20, 2**18, 2**20]
    G = lattice(1024, 2)
    P = standard_chain(G)
    for form in (lambda: G.edges, lambda: G.neighbors(0), G.adjacency_matrix, lambda: P.entries):
        assert refusal_peak(form) < 2**20
    assert "edges" not in vars(G) and "entries" not in vars(P)


def test_claimed_graphs_read_degrees_from_their_steps(monkeypatch):
    # Z_4^10's 10 * 2**20 edges would take 160 MiB: its degrees are one
    # int64 per vertex (8 MiB), each the number of steps, with no edge formed
    monkeypatch.setenv("QWMIX_STATE_CAP", str(2**20))
    G = lattice(4, 10)
    assert traced_peak(G.degrees) < 16 * 2**20
    assert "edges" not in vars(G)
    degrees = G.degrees()
    assert degrees.dtype == np.int64 and (degrees == 20).all()


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
    assert edge_set(lattice(n, d)) == expected
    assert edge_set(cartesian_power(cycle(n), d)) == expected
    assert edge_set(cycle(n)) == brute_lattice_edges(n, 1)
    assert edge_set(hypercube(d)) == brute_lattice_edges(2, d)
    path_edges = {(x, x + 1) for x in range(n - 1)}
    complete_edges = set(itertools.combinations(range(n), 2))
    assert edge_set(path(n)) == path_edges
    assert edge_set(complete(n)) == complete_edges
    for base, edges in ((path(n), path_edges), (complete(n), complete_edges)):
        assert edge_set(cartesian_power(base, d)) == brute_power_edges(edges, n, d)
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
    G = Graph(n, [p for p, k in zip(pairs, keep) if k], "random")
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
    # the circulant of the vertex indices holds the index of y - x
    D = lattice_circulant(np.arange(n**d), n, d)
    assert D.shape == (n**d, n**d) and D.flags.c_contiguous
    tuples = list(itertools.product(range(n), repeat=d))
    for y in tuples:
        for x in tuples:
            diff = tuple((a - b) % n for a, b in zip(y, x))
            assert D[_tuple_index(y, n), _tuple_index(x, n)] == _tuple_index(diff, n)


def test_translation_invariant_graphs_declare_their_lattice():
    assert cycle(7).lattice == (7, 1)
    assert cycle(2).lattice == (2, 1)
    assert hypercube(3).lattice == (2, 3)
    assert lattice(4, 3).lattice == (4, 3)
    assert cartesian_power(cycle(5), 3).lattice == (5, 3)
    assert cartesian_power(lattice(3, 2), 2).lattice == (3, 4)
    assert cartesian_power(hypercube(2), 3).lattice == (2, 6)
    for G in (path(5), complete(5), Graph(5, cycle(5).edges),
              cartesian_power(path(3), 2), cartesian_power(complete(3), 2)):
        assert G.lattice is None, G.kind_tag


def test_lattice_claim_rides_along_with_identical_edges():
    G = cycle(6)
    unclaimed = Graph(G.n, G.edges, G.kind_tag)
    assert unclaimed.lattice is None
    assert np.array_equal(G.edges, unclaimed.edges)
    power = cartesian_power(cycle(4), 2)
    assert power.lattice == lattice(4, 2).lattice == (4, 2)
    assert np.array_equal(power.edges, lattice(4, 2).edges)


@pytest.mark.parametrize(
    "n, d, steps, message",
    [
        (4, 1, path(4).neighbors(0), "not closed under negation"),
        (3, 2, cycle(9).steps, "not closed under negation"),
        (4, 2, lattice(4, 2).steps[1:], "not closed under negation"),
        (2, 2, cycle(6).steps, r"must lie in 1\.\.3"),
        (1, 4, [], "lattice needs n >= 2"),
        (4, 1, [0, 1, 3], r"must lie in 1\.\.3"),
        (9, 1, [-1, 1], r"must lie in 1\.\.8"),
    ],
    ids=["path", "cycle_as_torus", "one_edge_short", "wrong_size", "n_one", "zero", "negative"],
)
def test_graph_refuses_a_false_lattice_claim(n, d, steps, message):
    # a claim is made only from vertex 0's neighbours, the steps
    with pytest.raises(ValueError, match=message):
        Graph._from_steps(n, d, steps, "claimed")


def test_graph_accepts_true_lattice_claims():
    graphs = [cycle(2), cycle(9), hypercube(4), lattice(4, 2), lattice(3, 3),
              cartesian_power(cycle(5), 2), cartesian_power(hypercube(2), 2)]
    for G in graphs:
        same = Graph._from_steps(*G.lattice, G.steps[::-1], G.kind_tag)
        assert same.lattice == G.lattice and np.array_equal(same.edges, G.edges)


def test_graph_built_from_steps_stores_them_once_sorted():
    G = Graph._from_steps(5, 2, [20, 5, 1, 4, 1, 5], "claimed")
    assert G.steps.dtype == np.int64 and G.steps.tolist() == [1, 4, 5, 20]
    with pytest.raises(ValueError, match="read-only"):
        G.steps[0] = 2
    assert G.n == 25 and G.lattice == (5, 2) and "edges" not in vars(G)
    assert np.array_equal(G.edges, lattice(5, 2).edges)
    assert not G.edges.flags.writeable


def _claimed_builds():
    # the builders, and steps whose ends x + z do not come in step order
    base = [cycle(2), cycle(3), cycle(9), hypercube(1), hypercube(4), lattice(4, 2), lattice(3, 3),
            lattice(5, 1), Graph._from_steps(3, 2, [3, 5, 6, 7], "diagonal"),
            Graph._from_steps(6, 1, [2, 3, 4], "even")]
    return base + [cartesian_power(G, d) for G in base for d in (1, 2) if G.n**d <= 256]


@pytest.mark.parametrize("G", _claimed_builds(), ids=lambda G: G.kind_tag)
def test_claimed_graphs_match_their_unclaimed_copies(G):
    # the steps are the whole graph: every reader agrees exactly with the
    # graph built from the same edges without the claim, and the edges are
    # x ~ x + z added coordinate by coordinate
    assert G.lattice is not None and "edges" not in vars(G)
    chain = standard_chain(G)
    assert "edges" not in vars(G)
    n, d = G.lattice
    tuples = {_tuple_index(x, n): x for x in itertools.product(range(n), repeat=d)}
    expected = set()
    for x in tuples.values():
        for z in G.steps.tolist():
            u, v = _tuple_index(x, n), _tuple_index(tuple((a + b) % n for a, b in zip(x, tuples[z])), n)
            expected.add((min(u, v), max(u, v)))
    assert edge_set(G) == expected
    plain = Graph(G.n, G.edges, G.kind_tag)
    assert G.edges.dtype == plain.edges.dtype and np.array_equal(G.edges, plain.edges)
    assert np.array_equal(G.degrees(), plain.degrees())
    assert all(G.neighbors(v) == plain.neighbors(v) for v in range(-1, G.n + 6))
    assert np.array_equal(G.adjacency_matrix(), plain.adjacency_matrix())
    assert G.is_connected() == plain.is_connected()
    assert np.array_equal(chain.column, standard_chain(plain).entries[:, 0])
    assert np.array_equal(chain.entries, standard_chain(plain).entries)
