import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import qwmix.graphs as graphs
import qwmix.walks as walks
from qwmix import (
    DegenerateSpectrumError,
    DTWalk,
    MarkovChain,
    bessel_j,
    coined_walk,
    ct_amplitude_row,
    eigenphases,
    lazy_chain,
    phase_gap,
    quantize_ct,
    quantize_szegedy,
    random_symmetric_chain,
    spectral_gap,
    standard_chain,
    symmetrized_generator,
    uniform_projector_chain,
)
from qwmix.chains import COLUMN_SUM_TOL, fourier_spectrum
from qwmix.config import DEFAULT_CLUSTER_TOL
from qwmix.graphs import StateCapError, complete, cycle, hypercube, lattice, path

from conftest import (
    assert_same_phases,
    brute_clusters,
    brute_ct_phase_gap,
    brute_grover_unitary,
    brute_hadamard_unitary,
    brute_propagator,
    brute_szegedy_unitary,
    dense_embedding,
    dense_unitary,
    project,
    refusal_peak,
    szegedy_stationary_state,
    traced_peak,
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


@pytest.mark.parametrize(
    "G", [cycle(2), cycle(7), cycle(8), hypercube(3), lattice(4, 3), lattice(5, 2)], ids=lambda G: G.kind_tag
)
def test_claimed_walk_reads_a_real_fourier_basis(G):
    # a lattice walk solves nothing and holds no eigenvectors: its
    # eigenvalues, sorted, are the Fourier spectrum of the column
    P = standard_chain(G)
    W = quantize_ct(P)
    assert W.grid_index is not None and W.eigenvectors is None
    lam = W.eigenvalues
    assert np.array_equal(lam, np.sort(lam))
    dense = quantize_ct(MarkovChain(P.entries, P.label))
    assert dense.grid_index is None
    np.testing.assert_allclose(lam, dense.eigenvalues, rtol=0.0, atol=1e-12)


def test_ct_cluster_projectors_resolve_identity():
    W = quantize_ct(MarkovChain(standard_chain(cycle(7)).entries))
    V = W.eigenvectors
    projs = [V[:, list(c)] @ V[:, list(c)].T for c in W.clusters]
    np.testing.assert_allclose(sum(projs), np.eye(7), atol=1e-10)
    for Pc in projs:
        np.testing.assert_allclose(Pc @ Pc, Pc, atol=1e-10)


def test_ct_amplitude_row_is_propagator_column():
    # a claimed walk's row is one inverse FFT on its Fourier grid, where
    # cycle(2), hypercube(3) and lattice(4,2) have wave vectors k = -k;
    # path(5) reads the eigh eigenvectors
    for G in (cycle(2), cycle(6), hypercube(3), lattice(4, 2), path(5)):
        P = standard_chain(G)
        W = quantize_ct(P)
        assert (W.grid_index is not None) == (P.lattice is not None)
        U = brute_propagator(symmetrized_generator(P), 2.7)
        for x in range(P.size):
            np.testing.assert_allclose(ct_amplitude_row(W, x, 2.7), U[:, x], rtol=0.0, atol=1e-12)


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
    U = dense_unitary(W)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(25), atol=UNITARITY_TOL)
    assert W.base_size == 5 and W.register_dim == 5


def test_szegedy_fixes_stationary_state():
    for G in (cycle(5), complete(4), path(3)):
        P = standard_chain(G)
        W = quantize_szegedy(P)
        psi = szegedy_stationary_state(P)
        assert np.abs(psi @ psi - 1.0) <= 1e-12
        np.testing.assert_allclose(dense_unitary(W) @ psi, psi, atol=1e-9)


def test_szegedy_embedding_projects_to_chain_step():
    P = standard_chain(cycle(5))
    W = quantize_szegedy(P)
    np.testing.assert_array_equal(W.embed, np.sqrt(P.entries).T)
    E = dense_embedding(W)
    np.testing.assert_allclose((np.abs(E) ** 2).sum(axis=0), 1.0, atol=1e-12)
    # swap then project: one classical step from each start
    idx = np.arange(25)
    swapped = E[(idx % 5) * 5 + idx // 5, :]
    np.testing.assert_allclose(project(W, swapped), P.entries, atol=1e-12)


def test_hadamard_cycle_walk_unitary_and_driftless():
    W = coined_walk("hadamard_cycle", 9)
    U = dense_unitary(W)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(18), atol=UNITARITY_TOL)
    psi = dense_embedding(W)[:, 0]
    for _ in range(4):
        psi = U @ psi
    dist = project(W, psi)
    # symmetric initial coin keeps the distribution centered
    for k in range(1, 5):
        assert dist[k % 9] == pytest.approx(dist[-k % 9], abs=1e-12)


def test_grover_lattice_walk_unitary():
    W = coined_walk("grover_lattice", 4, 2)
    dim = 16 * 4
    U = dense_unitary(W)
    np.testing.assert_allclose(U @ U.conj().T, np.eye(dim), atol=UNITARITY_TOL)
    assert W.register_dim == 4


def test_grover_cycle_coin_is_flip():
    # d = 1: the 2x2 Grover coin is the bit flip, so the flip-flop walk
    # is ballistic: the walker translates one step per application
    W = coined_walk("grover_lattice", 5, 1)
    psi = np.zeros(10)
    psi[0 * 2 + 1] = 1.0  # at vertex 0, coin pointing up
    for step in (1, 2, 3):
        psi = dense_unitary(W) @ psi
        np.testing.assert_allclose(project(W, psi)[step], 1.0, atol=1e-12)


def test_coined_walk_dispatch():
    with pytest.raises(ValueError):
        coined_walk("dihedral", 5)
    with pytest.raises(ValueError):
        coined_walk("hadamard_cycle", 5, 2)


def test_dtwalk_validates_unitarity():
    rows = np.eye(2)
    rows[0, 1] = 1.0  # base state 0 reflects about (1, 1), not a unit row
    with pytest.raises(ValueError, match="not unitary"):
        DTWalk("custom", 2, 2, (rows,), np.eye(2))


def test_dtwalk_reflection_tolerance_is_the_gram_bound():
    # (2cc^H - I)^H (2cc^H - I) - I = 4 (|c|^2 - 1) cc^H, so a row is
    # refused once 4 ||c|^2 - 1| passes UNITARITY_TOL
    quarter = walks.UNITARITY_TOL / 4
    for excess, accepted in ((0.9 * quarter, True), (1.1 * quarter, False)):
        for phase in (1.0, np.exp(0.3j)):
            rows = np.tile([0.6, 0.8 * phase], (3, 1)) * np.sqrt(1.0 + excess)
            rows[1] = [1.0, 0.0]
            embed = np.tile([1.0, 0.0], (3, 1))
            if accepted:
                DTWalk("custom", 3, 2, (rows,), embed)
            else:
                with pytest.raises(ValueError, match="not unitary"):
                    DTWalk("custom", 3, 2, (rows,), embed)
    # a Szegedy walk reflects about sqrt of the chain's columns, whose
    # squared norms are the column sums: every chain the constructor
    # accepts quantizes
    base = standard_chain(complete(6)).entries
    for drift in (-COLUMN_SUM_TOL, COLUMN_SUM_TOL):
        P = MarkovChain(base * (1.0 + 0.99 * drift * np.arange(1, 7) / 6))
        assert np.abs(P.entries.sum(axis=0) - 1.0).max() > 0.9 * COLUMN_SUM_TOL
        rows = quantize_szegedy(P).factors[1]
        np.testing.assert_allclose((rows * rows).sum(axis=1), P.entries.sum(axis=0), atol=1e-15)


def test_szegedy_walk_forms_no_register_stack():
    # the reflections are the n x n rows of sqrt(P)^T, not an n x n x n
    # stack of blocks (6.1 MiB at complete(64)) with an n^4 Gram check
    P = standard_chain(complete(64))
    assert traced_peak(lambda: quantize_szegedy(P)) < 2**20


@pytest.mark.parametrize(
    "factors, message",
    [
        ((np.array([0, 0, 2, 3]),), "not a bijection"),
        ((np.array([0, 1, 2, 4]),), "not a bijection"),
        ((np.array([[1.0, 1.0], [0.0, 1.0]]),), "not unitary"),
        ((np.eye(2)[None],), r"not a permutation or a \(2, 2\) reflection"),
        ((np.eye(4)[:2, :3],), r"not a permutation or a \(2, 2\) reflection"),
        (np.eye(4), "nonempty tuple"),
    ],
    ids=[
        "repeated_index",
        "out_of_range",
        "nonunitary_block",
        "block_stack",
        "reflection_of_wrong_shape",
        "bare_matrix",
    ],
)
def test_dtwalk_rejects_bad_factors(factors, message):
    with pytest.raises(ValueError, match=message):
        DTWalk("custom", 2, 2, factors, np.eye(2))


def _random_unitary(rng, b: int, complex_entries: bool) -> np.ndarray:
    A = rng.normal(size=(b, b))
    if complex_entries:
        A = A + 1j * rng.normal(size=(b, b))
    return np.linalg.qr(A)[0]


def _random_rows(rng, shape, complex_entries: bool) -> np.ndarray:
    A = rng.normal(size=shape)
    if complex_entries:
        A = A + 1j * rng.normal(size=shape)
    return A / np.linalg.norm(A, axis=-1, keepdims=True)


@seed(14)
@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.sampled_from(["perm", "broadcast", "stack"]), min_size=1, max_size=7),
    st.booleans(),
    st.booleans(),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example(
    kinds=["perm", "perm", "stack", "perm", "perm", "perm"],
    complex_rows=False,
    complex_embed=True,
    rng_seed=1,
)
@example(
    kinds=["broadcast", "perm", "perm", "broadcast"],
    complex_rows=True,
    complex_embed=False,
    rng_seed=2,
)
@example(kinds=["perm", "perm", "perm"], complex_rows=False, complex_embed=False, rng_seed=3)
def test_dtwalk_step_applies_factors_in_order(kinds, complex_rows, complex_embed, rng_seed):
    # a custom walk on 3 base states x 4 register states against the dense
    # product of its factors, applied in order: permutations, psi -> psi[perm],
    # alone or in runs of two or three; and reflections of each register
    # about a unit row c_x, the block 2 c_x c_x^H - I written entry by entry,
    # one row for every base state (broadcast) or one each (stack)
    rng = np.random.default_rng(rng_seed)
    N, r = 3, 4
    dim = N * r
    factors, expected = [], np.eye(dim)
    for kind in kinds:
        if kind == "perm":
            f = rng.permutation(dim)
            F = np.eye(dim)[f]
        else:
            rows = _random_rows(rng, (1 if kind == "broadcast" else N, r), complex_rows)
            f = np.broadcast_to(rows, (N, r))
            F = np.zeros((dim, dim), dtype=f.dtype)
            for x in range(N):
                for q in range(r):
                    for p in range(r):
                        F[x * r + q, x * r + p] = 2 * f[x, q] * f[x, p].conjugate() - (q == p)
        factors.append(f)
        expected = F @ expected
    embed = _random_unitary(rng, r, complex_embed)[:N]
    W = DTWalk("custom", N, r, tuple(factors), embed)
    np.testing.assert_allclose(dense_unitary(W), expected, rtol=0.0, atol=1e-13)
    for shape in [(dim,), (dim, 1), (dim, 5)]:
        for complex_state in (False, True):
            psi = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_state else 0.0)
            got = W.step(psi)
            assert got.shape == shape
            np.testing.assert_allclose(got, expected @ psi, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize(
    "embed, message",
    [
        (np.eye(4)[:, :2], r"embed shape \(4, 2\) != \(2, 2\)"),  # a dim x N embedding
        (np.array([[1.0, 0.0], [1.0, 1.0]]), "unit norm"),
    ],
    ids=["dense_layout", "row_not_unit"],
)
def test_dtwalk_rejects_bad_embedding(embed, message):
    with pytest.raises(ValueError, match=message):
        DTWalk("custom", 2, 2, (np.arange(4),), embed)


def test_walk_without_spectral_structure_refused():
    # a walk built directly, with no lattice claim and not Szegedy's factors
    coin = np.tile([np.cos(np.pi / 8), np.sin(np.pi / 8)], (5, 1))  # the Hadamard coin
    W = DTWalk("custom", 5, 2, (coin, np.roll(np.arange(10), 3)), np.tile([1.0, 0.0], (5, 1)))
    for solve in (eigenphases, phase_gap):
        with pytest.raises(ValueError, match="'custom' declares no spectral structure"):
            solve(W)


def test_grover_walk_refuses_past_cap_before_building_lattice(monkeypatch):
    # the walk reads its size and label off (n, d) and builds no lattice
    # graph at all, under the cap or past it
    def no_graph(*args):
        raise AssertionError("lattice graph built")

    monkeypatch.setattr(graphs.Graph, "__init__", no_graph)
    monkeypatch.setattr(graphs.Graph, "_from_steps", no_graph)
    assert walks.grover_lattice_walk(3, 2).base_label == "lattice(3,2)"
    monkeypatch.setenv("QWMIX_STATE_CAP", "100")
    assert refusal_peak(lambda: walks.grover_lattice_walk(8, 2)) < 2**20


def test_walk_builders_refuse_past_cap(monkeypatch):
    monkeypatch.setenv("QWMIX_STATE_CAP", "20")
    with pytest.raises(StateCapError, match="25 states"):
        quantize_szegedy(standard_chain(cycle(5)))
    # a lattice walk counts its N r^2 momentum-block entries against
    # max(cap, cap**2 // 16) = 25
    with pytest.raises(StateCapError, match="28 momentum-block entries"):
        coined_walk("hadamard_cycle", 7)


def _check_clusters(P: MarkovChain) -> None:
    """quantize_ct's clusters and cluster values against brute_clusters on
    the same spectrum, or its spread error where a brute cluster spans
    more than the tolerance. A lattice chain's spectrum is its sorted
    Fourier grid, which must match the dense eigensolve."""
    tol = DEFAULT_CLUSTER_TOL
    lam = np.linalg.eigh(symmetrized_generator(P))[0]
    if P.lattice is not None:
        fourier = np.sort(fourier_spectrum(P))
        np.testing.assert_allclose(fourier, lam, rtol=0.0, atol=1e-12)
        lam = fourier
    expected = brute_clusters(lam, tol)
    if any(lam[list(c)].max() - lam[list(c)].min() > tol for c in expected):
        with pytest.raises(ValueError, match="chains a spread"):
            quantize_ct(P)
        return
    W = quantize_ct(P)
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
    st.integers(min_value=0, max_value=2**32 - 1),
)
@example([(0.1, [0.9, 0.9])], 0)  # gaps under the tolerance, spread over it
def test_clusters_match_brute_on_planted_spectra(groups, seed):
    # the gaps are in units of the tolerance
    n = 1 + sum(len(gaps) + 1 for _, gaps in groups)
    steps = [centre / n + DEFAULT_CLUSTER_TOL * np.cumsum([0.0] + gaps) for centre, gaps in groups]
    _check_clusters(_planted_chain(np.concatenate(steps), seed))


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
)
def test_clusters_match_brute_on_chains(P):
    _check_clusters(P)


@seed(7)
@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=2, max_value=16))
def test_hadamard_unitary_matches_dense_oracle(n):
    np.testing.assert_allclose(
        dense_unitary(coined_walk("hadamard_cycle", n)), brute_hadamard_unitary(n), atol=1e-14
    )


@seed(8)
@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=2, max_value=6))
def test_grover_unitary_matches_dense_oracle(d, n):
    n = min(n, {1: 6, 2: 5, 3: 3}[d])
    np.testing.assert_allclose(
        dense_unitary(coined_walk("grover_lattice", n, d)), brute_grover_unitary(n, d), atol=1e-14
    )


@seed(9)
@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=2, max_value=7))
def test_szegedy_unitary_matches_dense_oracle(seed, n):
    for P in (random_symmetric_chain(n, np.random.default_rng(seed)), standard_chain(path(n))):
        np.testing.assert_allclose(
            dense_unitary(quantize_szegedy(P)), brute_szegedy_unitary(P), atol=1e-13
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
    # one reflection twice is the identity
    rows = np.tile(np.array([1.0, 1.0j]) / np.sqrt(2.0), (2, 1))
    W = DTWalk("custom", 2, 2, (rows, rows), np.tile([1.0, 0.0], (2, 1)), lattice=(2, 1))
    with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
        phase_gap(W)


def test_translation_invariant_walks_declare_their_lattice():
    assert coined_walk("hadamard_cycle", 6).lattice == (6, 1)
    assert coined_walk("grover_lattice", 3, 2).lattice == (3, 2)
    assert quantize_szegedy(standard_chain(cycle(5))).lattice is None


def _with_row_3_moved(W):
    E = W.embed.copy()
    E[3] = [1.0, 0.0]  # still a unit vector in base state 3's register
    return dataclasses.replace(W, embed=E)


def _with_one_coin_changed(W):
    rows = W.factors[0].copy()
    rows[2] = [1.0, 0.0]
    return dataclasses.replace(W, factors=(rows,) + W.factors[1:])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: dataclasses.replace(quantize_szegedy(standard_chain(cycle(5))), lattice=(5, 1)),
         "does not commute with translation"),
        (lambda: _with_row_3_moved(coined_walk("hadamard_cycle", 8)), "not the translates"),
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
    phases = np.angle(np.linalg.eigvals(dense_unitary(W)))
    dense = walks.eigenphase_gap(phases)
    assert phase_gap(W) == pytest.approx(dense, rel=0.0, abs=1e-12)
    assert_same_phases(eigenphases(W), phases, 1e-12)


def test_nonreversible_test_chain_is_not_reversible():
    P = _nonreversible_chain(8, 3)
    flow = P.entries * P.stationary[None, :]
    assert np.abs(flow - flow.T).max() > 1e-3


def test_szegedy_phase_gap_degenerate_on_both_paths():
    W = quantize_szegedy(standard_chain(complete(2)))
    with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
        phase_gap(W)
    with pytest.raises(DegenerateSpectrumError, match="degenerate spectrum"):
        walks.eigenphase_gap(np.angle(np.linalg.eigvals(dense_unitary(W))))


@pytest.mark.parametrize(
    "impostor",
    [
        lambda W: W.factors * 2,  # the walk squared: every phase doubles
        # the second reflection about the uniform state, Grover's coin
        lambda W: W.factors[:3] + (np.full(W.embed.shape, W.register_dim**-0.5),),
    ],
    ids=["squared", "grover_reflection"],
)
def test_szegedy_label_alone_does_not_select_the_lemma(impostor):
    W = quantize_szegedy(standard_chain(complete(5)))
    other = dataclasses.replace(W, factors=impostor(W))
    assert other.walk_kind == "szegedy"
    dense = walks.eigenphase_gap(np.angle(np.linalg.eigvals(dense_unitary(other))))
    for solve in (eigenphases, phase_gap):
        with pytest.raises(ValueError, match="declares no spectral structure"):
            solve(other)
    assert abs(dense - phase_gap(W)) > 1e-3


@st.composite
def grover_walks(draw, max_dim=400):
    """Grover walks on Z_n^d with n >= 2 and dim = n**d * 2d <= max_dim."""
    d = draw(st.integers(min_value=1, max_value=4))
    n_max = max(n for n in range(2, max_dim) if n**d * 2 * d <= max_dim)
    return coined_walk("grover_lattice", draw(st.integers(min_value=2, max_value=n_max)), d)


@seed(15)
@settings(deadline=None, max_examples=40)
@given(
    st.one_of(
        st.builds(lambda n: coined_walk("hadamard_cycle", n), st.integers(min_value=2, max_value=40)),
        grover_walks(),
    )
)
def test_lattice_eigenphases_match_dense_eigvals(W):
    """One block per momentum against the dense unitary's eigenphases."""
    assert_same_phases(eigenphases(W), np.angle(np.linalg.eigvals(dense_unitary(W))), 1e-12)
