"""Shared fixtures and independent reference implementations.

The brute_* helpers deliberately avoid the library code paths they
check: naive loops, itertools subset enumeration, coordinate tuples in
place of index arrays, powers of the boolean support matrix in place of
a graph search, column distances compared one pair at a time, full
eigenpair sums with no clustering, degenerate eigenpairs, eigenvalue
clusters and the continuous-time phase gap found by comparing every pair
of eigenvalues, and dense walk
unitaries built entry by entry where the library keeps coin, shift and
reflection factors. brute_propagator forms exp(-iHt) from its own
eigendecomposition of H, not from a walk's eigenvectors. dense_unitary
and dense_embedding expand a walk's factored step and N x r embedding
into the dense matrices the library never builds; project measures the
position register of such a wavefunction, and szegedy_stationary_state
is the wavefunction a Szegedy walk fixes. csv_entries reads back a
chain written by save_csv.
"""

import itertools
import tracemalloc
from math import gcd

import numpy as np
import pytest

from qwmix import (
    MarkovChain,
    lazy_chain,
    random_symmetric_chain,
    standard_chain,
)
from qwmix.graphs import StateCapError, complete, cycle, lattice

MIX_THRESHOLD = 1.0 / (2.0 * np.e)
RANDOM_CHAIN_SEED = 0xC0FFEE


def _tuple_index(x: tuple[int, ...], n: int) -> int:
    """Little-endian mixed radix: coordinate 0 is the least significant."""
    return sum(c * n**j for j, c in enumerate(x))


def brute_lattice_edges(n: int, d: int) -> frozenset:
    """Edges of Z_n^d: every coordinate tuple joined to its +-1 mod n moves
    along each coordinate."""
    edges = set()
    for x in itertools.product(range(n), repeat=d):
        for j in range(d):
            for step in (1, -1):
                y = x[:j] + ((x[j] + step) % n,) + x[j + 1 :]
                u, v = _tuple_index(x, n), _tuple_index(y, n)
                edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def brute_power_edges(base_edges, n: int, d: int) -> frozenset:
    """Edges of the d-th Cartesian power of a graph on range(n): tuples
    that differ in one coordinate, by an edge of the base graph."""
    adjacent = {(a, b) for a, b in base_edges} | {(b, a) for a, b in base_edges}
    edges = set()
    for x in itertools.product(range(n), repeat=d):
        for j in range(d):
            for b in range(n):
                if (x[j], b) in adjacent:
                    y = x[:j] + (b,) + x[j + 1 :]
                    u, v = _tuple_index(x, n), _tuple_index(y, n)
                    edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def edge_set(G) -> set:
    """A graph's edge array as a set of (u, v) tuples, to compare with the
    brute_* edge sets."""
    return set(map(tuple, G.edges.tolist()))


def brute_reachable(S: np.ndarray) -> np.ndarray:
    """R[y, x] is True when the support S (S[y, x]: an arc x -> y) has a
    path of length 0..N from x to y: the boolean (I + S)^N."""
    n = S.shape[0]
    step = (np.eye(n, dtype=np.int64) + S.astype(np.int64)) > 0
    R = np.eye(n, dtype=bool)
    for _ in range(n):
        R = (step.astype(np.int64) @ R.astype(np.int64)) > 0
    return R


def brute_period(S: np.ndarray) -> int:
    """gcd of the lengths k <= N of closed walks of the support, read off
    the diagonals of the boolean powers S^k; for a strongly connected
    support this is the period, since every cycle splits into simple
    cycles of length at most N."""
    n = S.shape[0]
    A = S.astype(np.int64)
    power = np.eye(n, dtype=np.int64)
    g = 0
    for k in range(1, n + 1):
        power = ((A @ power) > 0).astype(np.int64)
        if power.diagonal().any():
            g = gcd(g, k)
    return g


def brute_mixing_time(P: np.ndarray, pi: np.ndarray, horizon: int):
    """First t with max-column TV distance to pi at most 1/(2e)."""
    n = P.shape[0]
    M = np.eye(n)
    for t in range(1, horizon + 1):
        M = P @ M
        dist = max(0.5 * np.abs(M[:, x] - pi).sum() for x in range(n))
        if dist <= MIX_THRESHOLD:
            return t
    return None


def brute_conductance(P: np.ndarray, pi: np.ndarray) -> float:
    """Minimum over proper subsets with pi(S) <= 1/2 of Q(S, S^c)/pi(S)."""
    n = P.shape[0]
    Q = pi[np.newaxis, :] * P  # Q[y, x] = pi_x P[y, x], flow x -> y
    best = np.inf
    for size in range(1, n):
        for S in itertools.combinations(range(n), size):
            mass = pi[list(S)].sum()
            if mass > 0.5 + 1e-12:
                continue
            Sc = [v for v in range(n) if v not in S]
            flow = Q[np.ix_(Sc, list(S))].sum()
            best = min(best, flow / mass)
    return best


def brute_pairwise_distance(P: np.ndarray) -> float:
    """Largest total-variation distance 0.5 * sum_y |P[y, x] - P[y, z]|
    over every pair of columns x, z, one pair at a time."""
    n = P.shape[0]
    best = 0.0
    for x in range(n):
        for z in range(n):
            best = max(best, 0.5 * sum(abs(P[y, x] - P[y, z]) for y in range(n)))
    return best


def brute_generated_ct(H: np.ndarray, chi) -> np.ndarray:
    """sum_{j,k} chi(lam_j - lam_k) (v_j v_j^T) o (v_k v_k^T), no
    eigenvalue clustering."""
    lam, V = np.linalg.eigh(H)
    n = H.shape[0]
    out = np.zeros((n, n))
    for j in range(n):
        Pj = np.outer(V[:, j], V[:, j])
        for k in range(n):
            Pk = np.outer(V[:, k], V[:, k])
            out += np.real(chi(lam[j] - lam[k])) * (Pj * Pk)
    return out


def brute_limit_chain(H: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """sum over eigenpairs (j, k) with |lam_j - lam_k| <= tol of
    (v_j v_j^T) o (v_k v_k^T): the degenerate pairs found by comparing
    every pair of eigenvalues, with no cluster list."""
    lam, V = np.linalg.eigh(H)
    n = H.shape[0]
    out = np.zeros((n, n))
    for j in range(n):
        for k in range(n):
            if abs(lam[j] - lam[k]) <= tol:
                out += np.outer(V[:, j], V[:, j]) * np.outer(V[:, k], V[:, k])
    return out


def brute_propagator(H: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) = sum_k exp(-i lam_k t) v_k v_k^T over a fresh eigh of H."""
    lam, V = np.linalg.eigh(H)
    return (V * np.exp(-1j * lam * t)) @ V.T


def brute_clusters(lam: np.ndarray, tol: float) -> list[tuple[int, ...]]:
    """Single-linkage clusters of eigenvalue indices: the components of
    the graph joining every pair i, j with |lam_i - lam_j| <= tol, merged
    pair by pair with no sorting of the values; each cluster a sorted
    tuple, ordered by first index."""
    n = len(lam)
    label = list(range(n))
    for i in range(n):
        for j in range(n):
            if abs(lam[i] - lam[j]) <= tol and label[i] != label[j]:
                old, new = label[j], label[i]
                label = [new if lab == old else lab for lab in label]
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(label):
        groups.setdefault(lab, []).append(i)
    return sorted(tuple(g) for g in groups.values())


def brute_ct_phase_gap(lam: np.ndarray, tol: float) -> float | None:
    """Smallest |lam_i - lam_j| over every pair of eigenvalues farther
    apart than tol, with no sorting and no clusters; None when no pair is."""
    best = None
    for a in lam:
        for b in lam:
            gap = abs(float(a) - float(b))
            if gap > tol and (best is None or gap < best):
                best = gap
    return best


def brute_dt_average(U: np.ndarray, E: np.ndarray, base: int, weights) -> np.ndarray:
    """sum_t w_t |U^t E|^2 projected, via independent matrix powers."""
    dim = U.shape[0]
    register = dim // base
    out = np.zeros((base, base))
    for t, w in weights:
        Ut = np.linalg.matrix_power(U, t)
        prob = np.abs(Ut @ E) ** 2
        out += w * prob.reshape(base, register, base).sum(axis=1)
    return out


def brute_hadamard_unitary(n: int) -> np.ndarray:
    """Dense S @ C of the Hadamard walk on Z_n: C = I_n (x) H2, and S
    moves coin 0 to x-1 and coin 1 to x+1, both built entry by entry."""
    dim = 2 * n
    H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    C = np.kron(np.eye(n), H2)
    S = np.zeros((dim, dim))
    for x in range(n):
        S[((x - 1) % n) * 2 + 0, x * 2 + 0] = 1.0
        S[((x + 1) % n) * 2 + 1, x * 2 + 1] = 1.0
    return S @ C


def brute_grover_unitary(n: int, d: int) -> np.ndarray:
    """Dense S @ C of the flip-flop Grover walk on Z_n^d; coin 2j+s
    points along coordinate j with sign (-1)^s."""
    N = n**d
    coin_dim = 2 * d
    dim = N * coin_dim
    coin = np.full((coin_dim, coin_dim), 1.0 / d) - np.eye(coin_dim)
    C = np.kron(np.eye(N), coin)
    S = np.zeros((dim, dim))
    for v in range(N):
        for j in range(d):
            digit = (v // n**j) % n
            up = v + (((digit + 1) % n) - digit) * n**j
            down = v + (((digit - 1) % n) - digit) * n**j
            S[up * coin_dim + 2 * j + 1, v * coin_dim + 2 * j + 0] = 1.0
            S[down * coin_dim + 2 * j + 0, v * coin_dim + 2 * j + 1] = 1.0
    return S @ C


def brute_szegedy_unitary(P: MarkovChain) -> np.ndarray:
    """Dense (R S)^2: R reflects each x-block around sqrt(P[:, x]), S
    swaps |x,y> and |y,x>."""
    n = P.size
    dim = n * n
    sqrtP = np.sqrt(P.entries)
    R = np.zeros((dim, dim))
    for x in range(n):
        c = sqrtP[:, x]
        R[x * n : (x + 1) * n, x * n : (x + 1) * n] = 2.0 * np.outer(c, c) - np.eye(n)
    idx = np.arange(dim)
    perm = (idx % n) * n + idx // n  # S column j has its 1 at row perm[j]
    return R[:, perm] @ R[:, perm]


def dense_unitary(W) -> np.ndarray:
    """The walk operator of a DTWalk as a dense matrix: its step applied
    to the identity."""
    return W.step(np.eye(W.dim))


def dense_embedding(W) -> np.ndarray:
    """dim x N matrix whose column x is base state x's start state, the
    row W.embed[x] placed at walk indices x * register_dim + sub."""
    N, r = W.embed.shape
    E = np.zeros((N * r, N), dtype=W.embed.dtype)
    for x in range(N):
        E[x * r : (x + 1) * r, x] = W.embed[x]
    return E


def project(W, psi: np.ndarray) -> np.ndarray:
    """Position-register distribution of one wavefunction, or of each
    column of a wavefunction matrix: |psi|^2 summed over the sub register."""
    prob = np.abs(psi) ** 2
    return prob.reshape(W.base_size, W.register_dim, *psi.shape[1:]).sum(axis=1)


def szegedy_stationary_state(P: MarkovChain) -> np.ndarray:
    """The wavefunction sum_x sqrt(pi_x) |x>|p_x> that quantize_szegedy(P)
    fixes, with |p_x> = sum_y sqrt(P[y, x]) |y>."""
    return (np.sqrt(P.stationary)[:, None] * np.sqrt(P.entries).T).ravel()


def csv_entries(path) -> np.ndarray:
    """The matrix in a chain CSV, after checking that its header names
    the number of rows that follow."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline()
    prefix = "# column-stochastic N="
    assert header.startswith(prefix), header
    M = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    assert M.shape == (int(header[len(prefix) :]),) * 2
    return M


def assert_same_phases(got, expected, atol: float) -> None:
    """Eigenphases agree as multisets on the circle. Both are rotated so
    that the branch cut falls in the middle of the widest gap between the
    expected phases, then sorted; a plain sort of the angles would pair a
    phase near pi with its twin near -pi."""
    s = np.sort(np.asarray(expected))
    gaps = np.diff(np.append(s, s[0] + 2.0 * np.pi))
    k = int(np.argmax(gaps))
    rotation = np.exp(-1j * (s[k] + 0.5 * gaps[k] + np.pi))
    a = np.sort(np.angle(np.exp(1j * np.asarray(got)) * rotation))
    b = np.sort(np.angle(np.exp(1j * s) * rotation))
    assert a.shape == b.shape
    np.testing.assert_allclose(a, b, rtol=0.0, atol=atol)


def traced_peak(build) -> int:
    """tracemalloc peak, in bytes, of a call."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def refusal_peak(build) -> int:
    """tracemalloc peak, in bytes, of a call that must raise StateCapError."""

    def refused():
        with pytest.raises(StateCapError):
            build()

    return traced_peak(refused)


@pytest.fixture(scope="session")
def small_chains():
    rng = np.random.default_rng(RANDOM_CHAIN_SEED)
    return [
        standard_chain(cycle(5)),
        standard_chain(cycle(7)),
        standard_chain(complete(4)),
        standard_chain(complete(6)),
        lazy_chain(standard_chain(lattice(4, 2))),
        random_symmetric_chain(5, rng),
        random_symmetric_chain(8, rng),
    ]


@pytest.fixture(scope="session")
def random_chain_family():
    rng = np.random.default_rng(RANDOM_CHAIN_SEED)
    return [random_symmetric_chain(4 + (i % 13), rng) for i in range(100)]
