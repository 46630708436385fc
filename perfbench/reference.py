"""Reference computations for the benchmark's checks.

Nothing here imports qwmix: every generated chain, repeated mixing time
and classical mixing time the benchmark checks is recomputed from its
definition by a different method. Conventions follow qwmix: chains are
column-stochastic, P[y, x] = Pr[x -> y], and lattice vertex
(x_0, ..., x_{d-1}) of Z_n^d has index sum(x_j * n**j). That index is the
C-order flattening of a grid whose axis a holds coordinate d-1-a.

Each function is checked against a brute-force sum at N <= 16 in
test_reference.py.
"""

from __future__ import annotations

import math

import numpy as np

MIX_THRESHOLD = 1.0 / (2.0 * math.e)
# A mixing time may differ from its reference only where the reference
# distance lies this close to the threshold.
TIE_TOL = 1e-9
# Geometric rules are summed until the dropped tail mass is below this.
GEOMETRIC_TAIL = 1e-15


def characteristic(family: str, T: float, theta) -> np.ndarray:
    """E[exp(i theta t)] for a continuous-time rule with horizon T."""
    th = np.asarray(theta, dtype=np.float64)
    if family == "delta":
        return np.exp(1j * th * T)
    if family == "uniform_ct":
        # (e^{iz} - 1)/(iz) = sin(z)/z + i 2 sin^2(z/2)/z, stable at z = 0
        z = th * T
        return np.sinc(z / np.pi) + 1j * (0.5 * z) * np.sinc(z / (2.0 * np.pi)) ** 2
    if family == "exponential":
        return 1.0 / (1.0 - 1j * th * T)
    raise ValueError(f"no continuous-time rule {family!r}")


def dt_weights(family: str, T: float) -> tuple[np.ndarray, np.ndarray]:
    """(times, weights) of a discrete-time rule; geometric support is cut
    where the remaining tail mass drops below GEOMETRIC_TAIL."""
    if family == "uniform_dt":
        Ti = int(round(T))
        return np.arange(Ti), np.full(Ti, 1.0 / Ti)
    if family == "geometric":
        q = 1.0 - 1.0 / T
        t_max = int(math.ceil(math.log(GEOMETRIC_TAIL) / math.log(q))) if q > 0 else 0
        t = np.arange(t_max + 1)
        return t, (1.0 - q) * q**t
    raise ValueError(f"no discrete-time rule {family!r}")


# ---------------------------------------------------------------- Z_n^d


def lattice_eigenvalues(n: int, d: int) -> np.ndarray:
    """lambda_k = (1/d) sum_j cos(2 pi k_j / n) of the simple random walk
    on Z_n^d, as a grid over the wave vector k."""
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    lam = np.zeros((n,) * d)
    for axis in range(d):
        shape = [1] * d
        shape[axis] = n
        lam = lam + c.reshape(shape)
    return lam / d


def _shift_table(n: int, d: int, sign: int) -> np.ndarray:
    """S[a, b] = flat index of coords(a) + sign * coords(b) mod n."""
    coords = np.indices((n,) * d).reshape(d, -1)
    combined = (coords[:, :, None] + sign * coords[:, None, :]) % n
    return np.ravel_multi_index(tuple(combined), (n,) * d)


def difference_index(n: int, d: int) -> np.ndarray:
    """D[y, x] = index of y - x in Z_n^d, so a translation-invariant chain
    with column 0 equal to f is f[D]."""
    return _shift_table(n, d, -1)


def lattice_ct_column(n: int, d: int, family: str, T: float) -> np.ndarray:
    """Column 0 of the CT generated chain of the walk on Z_n^d.

    |<z| e^{-iPt} |0>|^2 averaged over the rule is
    (1/N) sum_m e^{2 pi i m.z/n} c(m) with
    c(m) = (1/N) sum_k chi(lambda_k - lambda_{k+m}): group the eigenvalue
    pairs by wave-vector difference, then one inverse FFT. O(N^2).
    """
    lam = lattice_eigenvalues(n, d).reshape(-1)
    plus = _shift_table(n, d, 1)  # plus[m, k] = index of k + m
    c = characteristic(family, T, lam[None, :] - lam[plus]).mean(axis=1)
    return np.real(np.fft.ifftn(c.reshape((n,) * d))).reshape(-1)


def lazy_lattice_column(n: int, d: int, hold: float = 0.5) -> np.ndarray:
    """Column 0 of hold*I + (1-hold)*P on Z_n^d."""
    f = np.zeros((n,) * d)
    f[(0,) * d] = hold
    for axis in range(d):
        for step in (1, -1):
            idx = [0] * d
            idx[axis] = step % n
            f[tuple(idx)] += (1.0 - hold) / (2 * d)
    return f.reshape(-1)


def convolution_distance(column: np.ndarray, shape: tuple[int, ...]):
    """t -> worst-column TV distance to uniform of the t-th power of the
    translation-invariant chain with column 0 `column`, by FFT powers.
    Every column is a shift of column 0, so column 0 is the worst."""
    F = np.fft.fftn(column.reshape(shape))
    N = column.size

    def dist(t: int) -> float:
        power = np.real(np.fft.ifftn(F**t)).reshape(-1)
        return 0.5 * float(np.abs(power - 1.0 / N).sum())

    return dist


def symmetric_distance(M: np.ndarray):
    """t -> worst-column TV distance to uniform of M^t for a symmetric
    doubly stochastic M, through its own eigendecomposition."""
    mu, U = np.linalg.eigh(M)
    N = M.shape[0]

    def dist(t: int) -> float:
        power = (U * mu**t) @ U.T
        return 0.5 * float(np.abs(power - 1.0 / N).sum(axis=0).max())

    return dist


def crossing_agrees(t, dist) -> bool:
    """t is the first crossing of 1/(2e) under dist, up to TIE_TOL."""
    if not isinstance(t, (int, np.integer)) or isinstance(t, bool) or t < 1:
        return False
    if dist(int(t)) > MIX_THRESHOLD + TIE_TOL:
        return False
    return t == 1 or dist(int(t) - 1) > MIX_THRESHOLD - TIE_TOL


def lattice_pairwise_distance(column: np.ndarray, n: int, d: int) -> float:
    """max over column pairs of their TV distance, for a
    translation-invariant chain: max over shifts z of TV(f, f shifted by z)."""
    shifted = column[difference_index(n, d).T]  # shifted[z, y] = f(y - z)
    return 0.5 * float(np.abs(column[None, :] - shifted).sum(axis=1).max())


# ------------------------------------------------------ dense spectra


def pair_sum_generated(lam: np.ndarray, V: np.ndarray, family: str, T: float) -> np.ndarray:
    """sum_{j,k} Re chi(lambda_k - lambda_j) (v_j o v_k)(v_j o v_k)^T with no
    eigenvalue clustering; the delta rule takes |V e^{-i Lambda T} V^T|^2."""
    if family == "delta":
        return np.abs((V * np.exp(-1j * lam * T)) @ V.T) ** 2
    chi = np.real(characteristic(family, T, lam[None, :] - lam[:, None]))
    out = np.zeros((V.shape[0], V.shape[0]))
    for j in range(len(lam)):
        W = V[:, j : j + 1] * V  # column k is v_j o v_k
        out += (W * chi[j]) @ W.T
    return out


def nondegenerate_limit(V: np.ndarray) -> np.ndarray:
    """Long-time limit sum_j (v_j o v_j)(v_j o v_j)^T of a spectrum with
    no repeated eigenvalue."""
    W = V * V
    return W @ W.T


def absolute_gap(M: np.ndarray) -> float:
    """1 - second largest |eigenvalue| of a symmetric stochastic matrix."""
    mags = np.sort(np.abs(np.linalg.eigvalsh(M)))
    return 1.0 - float(mags[-2])


def pairwise_distance(M: np.ndarray) -> float:
    """max over column pairs of their TV distance, O(N^3)."""
    return 0.5 * max(float(np.abs(M[:, x : x + 1] - M).sum(axis=0).max()) for x in range(M.shape[1]))


# ------------------------------------------------------ coined walks


def _rule_average(state, step, position_probs, family: str, T: float) -> np.ndarray:
    times, weights = dt_weights(family, T)
    acc = 0.0
    t_prev = 0
    for t, w in zip(times, weights):
        for _ in range(int(t) - t_prev):
            state = step(state)
        t_prev = int(t)
        acc = acc + w * position_probs(state)
    return acc


def hadamard_column(n: int, family: str, T: float) -> np.ndarray:
    """Column 0 of the measured Hadamard walk on Z_n, stepped matrix-free:
    Hadamard coin, then coin 0 moves to x-1 and coin 1 to x+1; the walk
    starts at 0 with coin (|0> + i|1>)/sqrt(2)."""
    psi = np.zeros((n, 2), dtype=np.complex128)
    psi[0] = np.array([1.0, 1.0j]) / math.sqrt(2.0)

    def step(psi):
        down = (psi[:, 0] + psi[:, 1]) / math.sqrt(2.0)
        up = (psi[:, 0] - psi[:, 1]) / math.sqrt(2.0)
        return np.stack([np.roll(down, -1), np.roll(up, 1)], axis=1)

    return _rule_average(psi, step, lambda s: (np.abs(s) ** 2).sum(axis=1), family, T)


def grover_lattice_column(n: int, d: int, family: str, T: float) -> np.ndarray:
    """Column 0 of the measured flip-flop Grover walk on Z_n^d, stepped
    matrix-free. Coin 2j+s points along coordinate j with sign (-1)^s;
    moving along +-e_j lands on the opposite coin. The coin starts uniform."""
    cd = 2 * d
    psi = np.zeros((n,) * d + (cd,))
    psi[(0,) * d] = 1.0 / math.sqrt(cd)

    def step(psi):
        c = (2.0 / cd) * psi.sum(axis=-1, keepdims=True) - psi
        out = np.empty_like(c)
        for j in range(d):
            axis = d - 1 - j
            out[..., 2 * j + 1] = np.roll(c[..., 2 * j], 1, axis=axis)
            out[..., 2 * j] = np.roll(c[..., 2 * j + 1], -1, axis=axis)
        return out

    return _rule_average(psi, step, lambda s: (s**2).sum(axis=-1).reshape(-1), family, T)


def complete_szegedy_column(N: int, family: str, T: float) -> np.ndarray:
    """Column 0 of the measured Szegedy walk (RS)^2 of the simple walk on
    the complete graph, stepped matrix-free on the N x N edge register:
    S transposes it, R reflects row x about |p_x> = sum_y sqrt(P[y,x])|y>."""
    C = np.full((N, N), 1.0 / math.sqrt(N - 1))
    np.fill_diagonal(C, 0.0)  # C[x, y] = sqrt(P[y, x]), symmetric here
    A = np.zeros((N, N))
    A[0] = C[0]

    def reflect(A):
        return 2.0 * (A * C).sum(axis=1, keepdims=True) * C - A

    def step(A):
        return reflect(reflect(A.T).T)

    return _rule_average(A, step, lambda s: (s**2).sum(axis=1), family, T)


def complete_szegedy_phase_gap(N: int) -> float:
    """Smallest nonzero eigenphase of (RS)^2 on the complete graph. The
    chain's eigenvalues are 1 and -1/(N-1); by Szegedy's spectral lemma RS
    turns an eigenvalue lambda into phases +-arccos(lambda), so (RS)^2 has
    phases 0 and +-2 arccos(-1/(N-1)) = +-(pi - 2 arcsin(1/(N-1))) mod 2 pi."""
    return math.pi - 2.0 * math.asin(1.0 / (N - 1))
