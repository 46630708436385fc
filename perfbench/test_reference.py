"""The benchmark's reference computations against brute-force sums at
N <= 16. Run with: python3 -m pytest perfbench

The brute-force side builds dense matrices from neighbour lists and
takes explicit eigenpair sums, time-domain quadratures and matrix powers,
so it shares no code path with reference.py beyond numpy.
"""

import itertools
import math

import numpy as np
import pytest

import reference as ref

CT_FAMILIES = ("delta", "uniform_ct", "exponential")


def dense_lattice_chain(n, d):
    """Simple random walk on Z_n^d from explicit neighbour sets."""
    N = n**d
    P = np.zeros((N, N))
    for v in range(N):
        digits = [(v // n**j) % n for j in range(d)]
        nbrs = set()
        for j in range(d):
            for step in (1, -1):
                w = list(digits)
                w[j] = (w[j] + step) % n
                nbrs.add(sum(x * n**i for i, x in enumerate(w)))
        for u in nbrs:
            P[u, v] = 1.0 / len(nbrs)
    return P


def random_doubly_stochastic(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.uniform(size=(n, n))
    M = A + A.T
    for _ in range(2000):
        M = M / M.sum(axis=0, keepdims=True)
        M = 0.5 * (M + M.T)
    return M


def brute_generated(H, family, T):
    """sum_{j,k} Re chi(lam_k - lam_j) (v_j v_j^T) o (v_k v_k^T), explicit loops."""
    lam, V = np.linalg.eigh(H)
    n = H.shape[0]
    out = np.zeros((n, n))
    for j in range(n):
        Pj = np.outer(V[:, j], V[:, j])
        for k in range(n):
            Pk = np.outer(V[:, k], V[:, k])
            chi = ref.characteristic(family, T, lam[k] - lam[j])
            out += np.real(chi) * (Pj * Pk)
    return out


def brute_mixing_time(M, horizon=2000):
    n = M.shape[0]
    power = np.eye(n)
    for t in range(1, horizon + 1):
        power = M @ power
        if 0.5 * np.abs(power - 1.0 / n).sum(axis=0).max() <= ref.MIX_THRESHOLD:
            return t
    return None


def assert_first_crossing(tau, dist):
    """crossing_agrees accepts the brute-force mixing time and its neighbours
    only where they too cross 1/(2e) first."""
    assert tau is not None and tau > 1
    assert ref.crossing_agrees(tau, dist)
    assert not ref.crossing_agrees(tau + 1, dist)
    assert not ref.crossing_agrees(tau - 1, dist)


def brute_dt_chain(U, E, base, family, T, tail=1e-15):
    """sum_t w_t |U^t E|^2 on the position register, by matrix powers."""
    register = U.shape[0] // base
    if family == "uniform_dt":
        weights = [(t, 1.0 / T) for t in range(int(T))]
    else:
        p = 1.0 / T
        weights = []
        t = 0
        while (1.0 - p) ** t > tail:
            weights.append((t, p * (1.0 - p) ** t))
            t += 1
    out = np.zeros((base, base))
    power = np.eye(U.shape[0], dtype=U.dtype)
    t_prev = 0
    for t, w in weights:
        for _ in range(t - t_prev):
            power = U @ power
        t_prev = t
        prob = np.abs(power @ E) ** 2
        out += w * prob.reshape(base, register, base).sum(axis=1)
    return out


def dense_hadamard(n):
    dim = 2 * n
    U = np.zeros((dim, dim), dtype=np.complex128)
    h = 1.0 / math.sqrt(2.0)
    for x in range(n):
        # coin |c> -> H|c>, then coin 0 moves to x-1 and coin 1 to x+1
        for c_in in (0, 1):
            for c_out, amp in ((0, h), (1, h if c_in == 0 else -h)):
                y = (x - 1) % n if c_out == 0 else (x + 1) % n
                U[2 * y + c_out, 2 * x + c_in] += amp
    E = np.zeros((dim, n), dtype=np.complex128)
    for x in range(n):
        E[2 * x, x] = h
        E[2 * x + 1, x] = 1j * h
    return U, E


def dense_grover(n, d):
    N = n**d
    cd = 2 * d
    U = np.zeros((N * cd, N * cd))
    coin = np.full((cd, cd), 2.0 / cd) - np.eye(cd)
    for v in range(N):
        digits = [(v // n**j) % n for j in range(d)]
        for c_in in range(cd):
            for c_mid in range(cd):
                j, s = divmod(c_mid, 2)
                w = list(digits)
                w[j] = (w[j] + (1 if s == 0 else -1)) % n
                u = sum(x * n**i for i, x in enumerate(w))
                U[u * cd + (c_mid ^ 1), v * cd + c_in] += coin[c_mid, c_in]
    E = np.zeros((N * cd, N))
    for v in range(N):
        E[v * cd : (v + 1) * cd, v] = 1.0 / math.sqrt(cd)
    return U, E


def dense_szegedy_complete(N):
    P = np.full((N, N), 1.0 / (N - 1))
    np.fill_diagonal(P, 0.0)
    dim = N * N
    R = np.zeros((dim, dim))
    S = np.zeros((dim, dim))
    for x in range(N):
        c = np.sqrt(P[:, x])
        R[x * N : (x + 1) * N, x * N : (x + 1) * N] = 2.0 * np.outer(c, c) - np.eye(N)
        for y in range(N):
            S[y * N + x, x * N + y] = 1.0
    E = np.zeros((dim, N))
    for x in range(N):
        E[x * N : (x + 1) * N, x] = np.sqrt(P[:, x])
    RS = R @ S
    return RS @ RS, E


@pytest.mark.parametrize("family,T", [("uniform_ct", 2.7), ("exponential", 1.3)])
def test_characteristic_matches_time_quadrature(family, T):
    """E[e^{i theta t}] by composite Gauss-Legendre quadrature of the rule's
    density in t; the exponential rule is cut at 40 T (tail e^-40)."""
    theta = np.array([0.0, 1e-9, 0.37, -1.9, 4.0])
    end = T if family == "uniform_ct" else 40.0 * T
    nodes, weights = np.polynomial.legendre.leggauss(20)
    edges = np.linspace(0.0, end, 401)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half * (nodes + 1.0)).reshape(-1)
    w = (half * weights).reshape(-1)
    density = np.full_like(t, 1.0 / T) if family == "uniform_ct" else np.exp(-t / T) / T
    expected = np.array([(w * density * np.exp(1j * th * t)).sum() for th in theta])
    assert np.abs(ref.characteristic(family, T, theta) - expected).max() <= 1e-13


@pytest.mark.parametrize("n,d", [(4, 2), (5, 1), (3, 2), (16, 1), (2, 3)])
@pytest.mark.parametrize("family", CT_FAMILIES)
def test_lattice_column_matches_pair_sum(n, d, family):
    T = n * d / 2.0 + 0.3
    brute = brute_generated(dense_lattice_chain(n, d), family, T)
    col = ref.lattice_ct_column(n, d, family, T)
    assert np.abs(col[ref.difference_index(n, d)] - brute).max() <= 1e-12


@pytest.mark.parametrize("n,d", [(4, 2), (5, 1), (3, 2), (16, 1)])
def test_lattice_mixing_times_match_matrix_powers(n, d):
    shape = (n,) * d
    lazy = ref.lazy_lattice_column(n, d)
    M = lazy[ref.difference_index(n, d)]
    P = dense_lattice_chain(n, d)
    assert np.abs(M - (0.5 * np.eye(n**d) + 0.5 * P)).max() <= 1e-15
    tau = brute_mixing_time(M)
    assert_first_crossing(tau, ref.convolution_distance(lazy, shape))
    assert ref.absolute_gap(M) == pytest.approx(
        1.0 - np.sort(np.abs(np.linalg.eigvals(M)))[-2], abs=1e-12
    )
    gen = ref.lattice_ct_column(n, d, "uniform_ct", 1.7)
    tau = brute_mixing_time(gen[ref.difference_index(n, d)])
    assert_first_crossing(tau, ref.convolution_distance(gen, shape))


@pytest.mark.parametrize("n,d", [(4, 2), (5, 1), (3, 2)])
def test_lattice_pairwise_distance(n, d):
    lazy = ref.lazy_lattice_column(n, d)
    M = lazy[ref.difference_index(n, d)]
    brute = max(
        0.5 * np.abs(M[:, a] - M[:, b]).sum() for a, b in itertools.product(range(n**d), repeat=2)
    )
    assert ref.lattice_pairwise_distance(lazy, n, d) == pytest.approx(brute, abs=1e-15)
    assert ref.pairwise_distance(M) == pytest.approx(brute, abs=1e-15)


@pytest.mark.parametrize("family", CT_FAMILIES)
def test_pair_sum_matches_brute_force(family):
    H = random_doubly_stochastic(12, seed=3)
    lam, V = np.linalg.eigh(H)
    assert np.abs(ref.pair_sum_generated(lam, V, family, 3.0) - brute_generated(H, family, 3.0)).max() <= 1e-12


def test_nondegenerate_limit_and_threshold():
    H = random_doubly_stochastic(10, seed=5)
    lam, V = np.linalg.eigh(H)
    brute = sum(np.outer(V[:, j], V[:, j]) ** 2 for j in range(10))
    assert np.abs(ref.nondegenerate_limit(V) - brute).max() <= 1e-14
    G = ref.pair_sum_generated(lam, V, "exponential", 2.0)
    assert_first_crossing(brute_mixing_time(G, 10_000), ref.symmetric_distance(G))


@pytest.mark.parametrize("n", [5, 8, 16])
@pytest.mark.parametrize("family,T", [("uniform_dt", 7), ("geometric", 5.5)])
def test_hadamard_column(n, family, T):
    U, E = dense_hadamard(n)
    brute = brute_dt_chain(U, E, n, family, T)
    col = ref.hadamard_column(n, family, T)
    assert np.abs(col[ref.difference_index(n, 1)] - brute).max() <= 1e-12


@pytest.mark.parametrize("n,d", [(4, 2), (7, 1), (5, 1)])
@pytest.mark.parametrize("family,T", [("uniform_dt", 5), ("geometric", 3.0)])
def test_grover_column(n, d, family, T):
    U, E = dense_grover(n, d)
    brute = brute_dt_chain(U, E, n**d, family, T)
    col = ref.grover_lattice_column(n, d, family, T)
    assert np.abs(col[ref.difference_index(n, d)] - brute).max() <= 1e-12


@pytest.mark.parametrize("N", [4, 7, 16])
def test_szegedy_complete(N):
    U, E = dense_szegedy_complete(N)
    brute = brute_dt_chain(U, E, N, "uniform_dt", 6)
    col = ref.complete_szegedy_column(N, "uniform_dt", 6)
    assert np.abs(col - brute[:, 0]).max() <= 1e-12
    phases = np.abs(np.angle(np.linalg.eigvals(U)))
    assert ref.complete_szegedy_phase_gap(N) == pytest.approx(phases[phases > 1e-8].min(), abs=1e-9)
