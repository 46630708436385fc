import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import qwmix.walks as walks
from qwmix import (
    DegenerateSpectrumError,
    DTWalk,
    MarkovChain,
    bessel_j,
    coined_walk,
    ct_amplitude_row,
    ct_propagator,
    lazy_chain,
    phase_gap,
    quantize_ct,
    quantize_szegedy,
    random_symmetric_chain,
    spectral_gap,
    standard_chain,
    symmetrized_generator,
    szegedy_stationary_state,
    uniform_projector_chain,
)
from qwmix.graphs import StateCapError, complete, cycle, hypercube, lattice, path

from conftest import (
    brute_clusters,
    brute_ct_phase_gap,
    brute_grover_unitary,
    brute_hadamard_unitary,
    brute_szegedy_unitary,
    refusal_peak,
)

UNITARITY_TOL = 1e-9


def test_ct_clusters_cycle5():
    W = quantize_ct(standard_chain(cycle(5)))
    assert [len(c) for c in W.clusters] == [2, 2, 1]
    values = W.cluster_values()
    np.testing.assert_allclose(
        values, [np.cos(4 * np.pi / 5), np.cos(2 * np.pi / 5), 1.0], atol=1e-12
    )


def test_ct_clusters_hypercube3():
    W = quantize_ct(standard_chain(hypercube(3)))
    np.testing.assert_allclose(W.cluster_values(), [-1.0, -1.0 / 3.0, 1.0 / 3.0, 1.0], atol=1e-12)
    assert [len(c) for c in W.clusters] == [1, 3, 3, 1]


def test_ct_clusters_uniform_projector():
    W = quantize_ct(uniform_projector_chain(6))
    np.testing.assert_allclose(W.cluster_values(), [0.0, 1.0], atol=1e-12)
    assert [len(c) for c in W.clusters] == [5, 1]


def test_ct_eigables_reconstruct_generator():
    P = standard_chain(path(4))
    W = quantize_ct(P)
    H = symmetrized_generator(P)
    V, lam = W.eigenvectors, W.eigenvalues
    np.testing.assert_allclose((V * lam) @ V.T, H, atol=1e-10)


def test_ct_cluster_projectors_resolve_identity():
    W = quantize_ct(standard_chain(cycle(7)))
    V = W.eigenvectors
    projs = [V[:, list(c)] @ V[:, list(c)].T for c in W.clusters]
    np.testing.assert_allclose(sum(projs), np.eye(7), atol=1e-10)
    for Pc in projs:
        np.testing.assert_allclose(Pc @ Pc, Pc, atol=1e-10)


def test_ct_propagator_group_law():
    W = quantize_ct(standard_chain(cycle(5)))
    U1 = ct_propagator(W, 1.3)
    U2 = ct_propagator(W, 2.1)
    np.testing.assert_allclose(U1 @ U2, ct_propagator(W, 3.4), atol=1e-12)
    np.testing.assert_allclose(ct_propagator(W, 0.0), np.eye(5), atol=1e-14)


def test_ct_propagator_solves_schrodinger():
    P = standard_chain(cycle(5))
    W = quantize_ct(P)
    H = symmetrized_generator(P)
    h = 1e-6
    dU = (ct_propagator(W, 1.0 + h) - ct_propagator(W, 1.0 - h)) / (2 * h)
    np.testing.assert_allclose(dU, -1j * H @ ct_propagator(W, 1.0), atol=1e-9)


def test_ct_amplitude_row_is_propagator_column():
    W = quantize_ct(standard_chain(cycle(6)))
    U = ct_propagator(W, 2.7)
    np.testing.assert_allclose(ct_amplitude_row(W, 2, 2.7), U[:, 2], atol=1e-12)


def test_cycle_amplitudes_match_bessel_expansion():
    # on a large cycle, amplitude from x to x+y at time t is
    # (-i)^y J_y(t) up to wraparound corrections
    W = quantize_ct(standard_chain(cycle(257)))
    amp = ct_amplitude_row(W, 0, 20.0)
    for y in range(-30, 31):
        expected = (-1j) ** y * bessel_j(y, 20.0)
        assert abs(amp[y % 257] - expected) <= 1e-9, y


def test_szegedy_unitary():
    P = standard_chain(cycle(5))
    W = quantize_szegedy(P)
    U = W.unitary
    np.testing.assert_allclose(U @ U.conj().T, np.eye(25), atol=UNITARITY_TOL)
    assert W.base_size == 5 and W.register_dim == 5


def test_szegedy_fixes_stationary_state():
    for G in (cycle(5), complete(4), path(3)):
        P = standard_chain(G)
        W = quantize_szegedy(P)
        psi = szegedy_stationary_state(P)
        assert np.abs(psi @ psi - 1.0) <= 1e-12
        np.testing.assert_allclose(W.unitary @ psi, psi, atol=1e-9)


def test_szegedy_embedding_projects_to_chain_step():
    P = standard_chain(cycle(5))
    W = quantize_szegedy(P)
    E = W.embed_matrix
    np.testing.assert_allclose((np.abs(E) ** 2).sum(axis=0), 1.0, atol=1e-12)
    # swap then project: one classical step from each start
    idx = np.arange(25)
    swapped = E[(idx % 5) * 5 + idx // 5, :]
    np.testing.assert_allclose(W.project(swapped), P.entries, atol=1e-12)


def test_project_handles_vector_and_matrix():
    W = quantize_szegedy(standard_chain(cycle(4)))
    psi = W.embed_matrix[:, 1]
    dist = W.project(psi)
    assert dist.shape == (4,)
    assert dist.sum() == pytest.approx(1.0)
    mat = W.project(W.embed_matrix)
    assert mat.shape == (4, 4)
    np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)


def test_hadamard_cycle_walk_unitary_and_driftless():
    W = coined_walk("hadamard_cycle", 9)
    U = W.unitary
    np.testing.assert_allclose(U @ U.conj().T, np.eye(18), atol=UNITARITY_TOL)
    psi = W.embed_matrix[:, 0]
    for _ in range(4):
        psi = U @ psi
    dist = W.project(psi)
    # symmetric initial coin keeps the distribution centered
    for k in range(1, 5):
        assert dist[k % 9] == pytest.approx(dist[-k % 9], abs=1e-12)


def test_grover_lattice_walk_unitary():
    W = coined_walk("grover_lattice", 4, 2)
    dim = 16 * 4
    np.testing.assert_allclose(
        W.unitary @ W.unitary.conj().T, np.eye(dim), atol=UNITARITY_TOL
    )
    assert W.register_dim == 4


def test_grover_cycle_coin_is_flip():
    # d = 1: the 2x2 Grover coin is the bit flip, so the flip-flop walk
    # is ballistic: the walker translates one step per application
    W = coined_walk("grover_lattice", 5, 1)
    psi = np.zeros(10)
    psi[0 * 2 + 1] = 1.0  # at vertex 0, coin pointing up
    for step in (1, 2, 3):
        psi = W.unitary @ psi
        np.testing.assert_allclose(W.project(psi)[step], 1.0, atol=1e-12)


def test_coined_walk_dispatch():
    with pytest.raises(ValueError):
        coined_walk("dihedral", 5)
    with pytest.raises(ValueError):
        coined_walk("hadamard_cycle", 5, 2)


def test_dtwalk_validates_unitarity():
    M = np.eye(4)
    M[0, 0] = 2.0
    with pytest.raises(ValueError, match="not unitary"):
        DTWalk("custom", 2, 2, (M[None],), np.eye(4)[:, :2])


@pytest.mark.parametrize(
    "factors, message",
    [
        ((np.array([0, 0, 2, 3]),), "not a bijection"),
        ((np.array([0, 1, 2, 4]),), "not a bijection"),
        ((np.array([[[1.0, 1.0], [0.0, 1.0]]]),), "not unitary"),
        ((np.eye(3)[None],), "does not tile"),
        ((np.stack([np.eye(2)] * 3),), "does not tile"),
        (np.eye(4), "nonempty tuple"),
    ],
    ids=[
        "repeated_index",
        "out_of_range",
        "nonunitary_block",
        "block_3_of_4",
        "three_blocks_of_2",
        "bare_matrix",
    ],
)
def test_dtwalk_rejects_bad_factors(factors, message):
    with pytest.raises(ValueError, match=message):
        DTWalk("custom", 2, 2, factors, np.eye(4)[:, :2])


def test_dtwalk_step_applies_factors_in_order():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    blocks = np.stack([np.linalg.qr(rng.normal(size=(2, 2)))[0] for _ in range(3)])
    perm = rng.permutation(6)
    W = DTWalk("custom", 3, 2, (blocks, perm, Q[None]), np.eye(6)[:, ::2])
    dense_blocks = np.zeros((6, 6))
    for k in range(3):
        dense_blocks[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = blocks[k]
    expected = Q @ np.eye(6)[perm] @ dense_blocks
    np.testing.assert_allclose(W.unitary, expected, atol=1e-14)
    psi = rng.normal(size=6)
    np.testing.assert_allclose(W.step(psi), expected @ psi, atol=1e-14)


def test_dense_unitary_refused_above_cap(monkeypatch):
    # a walk built directly: the builders refuse such a cap themselves
    H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    W = DTWalk("custom", 5, 2, (H2[None], np.roll(np.arange(10), 3)), np.eye(10)[:, ::2])
    monkeypatch.setenv("QWMIX_STATE_CAP", "8")
    with pytest.raises(StateCapError, match="10 states exceeds the configured cap of 8"):
        W.unitary
    with pytest.raises(StateCapError, match="10 states exceeds the configured cap of 8"):
        phase_gap(W)


def test_grover_walk_refuses_past_cap_before_building_lattice(monkeypatch):
    def no_lattice(n, d):
        raise AssertionError("lattice built before the cap check")

    monkeypatch.setattr(walks, "lattice", no_lattice)
    monkeypatch.setenv("QWMIX_STATE_CAP", "100")
    assert refusal_peak(lambda: walks.grover_lattice_walk(8, 2)) < 2**20


def test_walk_builders_refuse_past_cap(monkeypatch):
    monkeypatch.setenv("QWMIX_STATE_CAP", "20")
    with pytest.raises(StateCapError, match="25 states"):
        quantize_szegedy(standard_chain(cycle(5)))
    with pytest.raises(StateCapError, match="22 states"):
        coined_walk("hadamard_cycle", 11)


def _check_clusters(P: MarkovChain, tol: float) -> None:
    """quantize_ct's clusters and cluster values against brute_clusters on
    the same eigensolve, or its spread error where a brute cluster spans
    more than tol."""
    lam = np.linalg.eigh(symmetrized_generator(P))[0]
    expected = brute_clusters(lam, tol)
    if any(lam[list(c)].max() - lam[list(c)].min() > tol for c in expected):
        with pytest.raises(ValueError, match="chains a spread"):
            quantize_ct(P, tol)
        return
    W = quantize_ct(P, tol)
    assert W.clusters == tuple(expected)
    assert all(type(i) is int for c in W.clusters for i in c)
    values = np.array([lam[list(c)].mean() for c in expected])
    assert W.cluster_values().tobytes() == values.tobytes()


def _planted_chain(values: np.ndarray, seed: int) -> MarkovChain:
    """Symmetric chain with spectrum {1} and values, in a random
    orthonormal basis of the complement of the ones vector; |values| < 1/N
    keeps every entry positive."""
    n = len(values) + 1
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
    B = Q[:, 1:]
    M = 1.0 / n + (B * values) @ B.T
    return MarkovChain(0.5 * (M + M.T), "planted")


@seed(11)
@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-0.4, max_value=0.4),
            st.lists(st.sampled_from([0.6, 0.0, 0.3, 0.9, 1.5]), max_size=3),
        ),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([1e-8, 1e-6, 1e-4]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([(0.1, [0.9, 0.9])], 1e-6, 0)  # gaps under tol, spread over it
def test_clusters_match_brute_on_planted_spectra(groups, tol, seed):
    n = 1 + sum(len(gaps) + 1 for _, gaps in groups)
    values = np.concatenate([centre / n + tol * np.cumsum([0.0] + gaps) for centre, gaps in groups])
    _check_clusters(_planted_chain(values, seed), tol)


@seed(12)
@settings(deadline=None, max_examples=40)
@given(
    st.one_of(
        st.builds(lambda n, d: standard_chain(lattice(n, d)), st.integers(3, 6), st.integers(1, 3)),
        st.builds(
            lambda s, n: random_symmetric_chain(n, np.random.default_rng(s)),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=2, max_value=24),
        ),
    ),
    st.sampled_from([1e-8, 1e-3, 0.05, 0.2]),
)
def test_clusters_match_brute_on_chains(P, tol):
    _check_clusters(P, tol)


@seed(7)
@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=16))
def test_hadamard_unitary_matches_dense_oracle(n):
    np.testing.assert_allclose(
        coined_walk("hadamard_cycle", n).unitary, brute_hadamard_unitary(n), atol=1e-14
    )


@seed(8)
@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=6))
def test_grover_unitary_matches_dense_oracle(d, n):
    n = min(n, {1: 6, 2: 5, 3: 3}[d])
    np.testing.assert_allclose(
        coined_walk("grover_lattice", n, d).unitary, brute_grover_unitary(n, d), atol=1e-14
    )


@seed(9)
@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=7))
def test_szegedy_unitary_matches_dense_oracle(seed, n):
    for P in (random_symmetric_chain(n, np.random.default_rng(seed)), standard_chain(path(n))):
        np.testing.assert_allclose(
            quantize_szegedy(P).unitary, brute_szegedy_unitary(P), atol=1e-13
        )


def test_phase_gap_szegedy_cycles_track_gap():
    # eigenphase gap of the discrete walk is at least sqrt of the lazy
    # chain gap on small cycles
    for n in (3, 5, 7, 9):
        P = standard_chain(cycle(n))
        gap = phase_gap(quantize_szegedy(P))
        delta = spectral_gap(lazy_chain(P))
        assert gap >= np.sqrt(delta)


def test_phase_gap_ct_value():
    W = quantize_ct(standard_chain(cycle(5)))
    assert phase_gap(W) == pytest.approx(1.0 - np.cos(2 * np.pi / 5), abs=1e-9)


@seed(13)
@settings(deadline=None, max_examples=40)
@given(
    st.one_of(
        st.builds(lambda n: MarkovChain(np.eye(n), "identity"), st.integers(1, 6)),
        st.builds(uniform_projector_chain, st.integers(1, 12)),
        st.builds(lambda n: standard_chain(complete(n)), st.integers(2, 12)),
        st.builds(lambda n, d: standard_chain(lattice(n, d)), st.integers(3, 6), st.integers(1, 3)),
        st.builds(
            lambda n, d: lazy_chain(standard_chain(lattice(n, d))), st.integers(3, 6), st.integers(1, 3)
        ),
        st.builds(
            lambda s, n: random_symmetric_chain(n, np.random.default_rng(s)),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.integers(min_value=2, max_value=30),
        ),
    )
)
@example(MarkovChain(np.eye(1), "one state"))
def test_ct_phase_gap_matches_all_pairs_oracle(P):
    W = quantize_ct(P)
    expected = brute_ct_phase_gap(np.linalg.eigvalsh(symmetrized_generator(P)), walks.PHASE_TOL)
    if expected is None:
        assert len(W.clusters) == 1
        with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
            phase_gap(W)
    else:
        # a cluster value moves off its members by the cluster's spread,
        # which is rounding on these spectra
        assert phase_gap(W) == pytest.approx(expected, rel=0.0, abs=1e-12)


def test_phase_gap_identity_degenerate():
    W = DTWalk("custom", 2, 2, (np.eye(4, dtype=complex)[None],), np.eye(4)[:, :2])
    with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
        phase_gap(W)


def test_translation_invariant_walks_declare_their_lattice():
    assert coined_walk("hadamard_cycle", 6).lattice == (6, 1)
    assert coined_walk("grover_lattice", 3, 2).lattice == (3, 2)
    assert quantize_szegedy(standard_chain(cycle(5))).lattice is None


def _with_column_3_moved(W):
    E = W.embed_matrix.copy()
    E[6:8, 3] = [1.0, 0.0]  # still a unit vector in base state 3's register
    return dataclasses.replace(W, embed_matrix=E)


def _with_one_coin_changed(W):
    blocks = np.tile(W.factors[0], (W.base_size, 1, 1))
    blocks[2] = np.eye(2)
    return dataclasses.replace(W, factors=(blocks,) + W.factors[1:])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dataclasses.replace(quantize_szegedy(standard_chain(cycle(5))), lattice=(5, 1)),
         "does not commute with translation"),
        (lambda: _with_column_3_moved(coined_walk("hadamard_cycle", 8)), "not the translates"),
        (lambda: _with_one_coin_changed(coined_walk("hadamard_cycle", 8)),
         "not the same at every base state"),
        (lambda: dataclasses.replace(coined_walk("hadamard_cycle", 8), lattice=(4, 1)),
         "does not have 8 base states"),
        (lambda: dataclasses.replace(coined_walk("grover_lattice", 4, 2), lattice=(2, 4)),
         "does not commute with translation"),
    ],
    ids=["szegedy_factors", "hadamard_column_3", "aperiodic_block_stack", "wrong_size",
         "grover_wrong_layout"],
)
def test_dtwalk_refuses_false_lattice_claims(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_dtwalk_accepts_periodic_block_stack():
    W = coined_walk("hadamard_cycle", 8)
    blocks = np.tile(W.factors[0], (8, 1, 1))
    periodic = dataclasses.replace(W, factors=(blocks,) + W.factors[1:])
    psi = W.embed_matrix
    np.testing.assert_array_equal(periodic.step(psi), W.step(psi))


def _nonreversible_chain(n: int, seed: int) -> MarkovChain:
    A = np.random.default_rng(seed).random((n, n)) + 0.05
    return MarkovChain(A / A.sum(axis=0), f"nonreversible({n})")


@pytest.mark.parametrize(
    "build",
    [
        lambda: standard_chain(cycle(5)),
        lambda: standard_chain(cycle(9)),
        lambda: standard_chain(cycle(4)),
        lambda: standard_chain(cycle(8)),
        lambda: standard_chain(path(7)),
        lambda: standard_chain(complete(9)),
        lambda: standard_chain(hypercube(3)),
        lambda: standard_chain(lattice(4, 2)),
        lambda: lazy_chain(standard_chain(cycle(6))),
        lambda: random_symmetric_chain(10, np.random.default_rng(7)),
        lambda: _nonreversible_chain(8, 3),
    ],
    ids=["cycle5", "cycle9", "cycle4", "cycle8", "path7", "complete9", "hypercube3",
         "lattice4_2", "lazy_cycle6", "random_symmetric10", "nonreversible8"],
)
def test_szegedy_phase_gap_matches_dense_eigenphases(build):
    """Szegedy's spectral lemma against the dense unitary's eigenphases."""
    W = quantize_szegedy(build())
    dense = walks.eigenphase_gap(np.angle(np.linalg.eigvals(W.unitary)))
    assert phase_gap(W) == pytest.approx(dense, rel=0.0, abs=1e-12)


def test_nonreversible_test_chain_is_not_reversible():
    P = _nonreversible_chain(8, 3)
    flow = P.entries * P.stationary[None, :]
    assert np.abs(flow - flow.T).max() > 1e-3


def test_szegedy_phase_gap_degenerate_on_both_paths():
    W = quantize_szegedy(standard_chain(complete(2)))
    with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
        phase_gap(W)
    with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
        walks.eigenphase_gap(np.angle(np.linalg.eigvals(W.unitary)))


@pytest.mark.parametrize(
    "impostor",
    [
        lambda W: W.factors * 2,  # the walk squared: every phase doubles
        lambda W: (W.factors[0], W.factors[1], W.factors[0], -W.factors[1]),  # phases move by pi
    ],
    ids=["squared", "negated_reflection"],
)
def test_szegedy_label_alone_does_not_select_the_lemma(impostor):
    W = quantize_szegedy(standard_chain(complete(5)))
    other = dataclasses.replace(W, factors=impostor(W))
    assert other.walk_kind == "szegedy"
    dense = walks.eigenphase_gap(np.angle(np.linalg.eigvals(other.unitary)))
    assert phase_gap(other) == dense
    assert abs(dense - phase_gap(W)) > 1e-3
