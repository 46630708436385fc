"""Quantizations of reversible chains and coined walks.

Continuous time: spectral data of the symmetrized generator H, evolved
as exp(-iHt). Discrete time: a unitary on an enlarged space, kept as a
product of permutations and unitary block stacks (shift and coin, swap
and reflection), together with an embedding of base states and a
projection back to a distribution over base states (measure the
position register).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import MarkovChain, symmetrized_generator
from .config import DEFAULT_CLUSTER_TOL
from .graphs import _check_cap, lattice, lattice_step

UNITARITY_TOL = 1e-9
EIGEN_RESIDUAL_TOL = 1e-9
PHASE_TOL = 1e-8


class DegenerateSpectrumError(ValueError):
    """The unitary has no eigenphase away from zero."""


class RuleFamilyError(ValueError):
    """Measurement rule family incompatible with the walk kind."""


@dataclass(frozen=True)
class CTWalk:
    """Eigen-decomposed Hamiltonian of a reversible chain.

    eigenvalues are ascending; eigenvectors[:, k] is the k-th real
    orthonormal eigenvector; clusters groups indices of eigenvalues
    closer than quantize_ct's cluster tolerance (single linkage), so each
    cluster is a run of consecutive indices.
    """

    base: MarkovChain
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return self.base.size

    def cluster_values(self) -> np.ndarray:
        return np.array([self.eigenvalues[c[0] : c[-1] + 1].mean() for c in self.clusters])


def quantize_ct(P: MarkovChain, cluster_tolerance: float = DEFAULT_CLUSTER_TOL) -> CTWalk:
    """Continuous-time quantization: eigensolve H and group degenerate
    eigenvalues."""
    H = symmetrized_generator(P)
    lam, V = np.linalg.eigh(H)

    resid = np.abs(H @ V - V * lam[None, :]).max()
    if resid > EIGEN_RESIDUAL_TOL:
        raise ArithmeticError(f"eigensolve residual {resid} too large")
    ortho = np.abs(V.T @ V - np.eye(P.size)).max()
    if ortho > EIGEN_RESIDUAL_TOL:
        raise ArithmeticError(f"eigenvector basis not orthonormal: {ortho}")

    # single linkage on the ascending spectrum: runs split where a gap
    # exceeds the tolerance
    starts = np.concatenate(([0], np.flatnonzero(np.diff(lam) > cluster_tolerance) + 1))
    ends = np.append(starts[1:], P.size)
    spread = lam[ends - 1] - lam[starts]
    wide = np.flatnonzero(spread > cluster_tolerance)
    if wide.size:
        raise ValueError(
            f"cluster tolerance {cluster_tolerance} chains a spread of {spread[wide[0]]}; "
            "pick a tolerance separating the true degeneracies"
        )
    clusters = tuple(tuple(range(a, b)) for a, b in zip(starts.tolist(), ends.tolist()))
    lam = lam.copy()
    V = V.copy()
    lam.setflags(write=False)
    V.setflags(write=False)
    return CTWalk(P, lam, V, clusters)


def ct_amplitude_row(W: CTWalk, x: int, t: float) -> np.ndarray:
    """Amplitudes <y| exp(-iHt) |x> for all y."""
    if not (0 <= x < W.size):
        raise ValueError(f"state {x} out of range [0, {W.size})")
    phases = np.exp(-1j * W.eigenvalues * t)
    amp = W.eigenvectors @ (phases * W.eigenvectors[x, :])
    norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > UNITARITY_TOL:
        raise ArithmeticError(f"amplitude norm {norm} drifted from 1")
    return amp


def ct_propagator(W: CTWalk, t: float) -> np.ndarray:
    """Full unitary exp(-iHt)."""
    phases = np.exp(-1j * W.eigenvalues * t)
    return (W.eigenvectors * phases[None, :]) @ W.eigenvectors.T


@dataclass(frozen=True)
class DTWalk:
    """Discrete-time walk on base x register space of size
    base_size * register_dim, index (base, sub) -> base * register_dim + sub.

    The walk operator is the product of factors, applied in order. A
    1-D integer array is a permutation, psi -> psi[perm]. A (B, b, b)
    array is a stack of unitary blocks acting on consecutive index
    blocks of length b; B == 1 broadcasts one block to all dim // b
    index blocks, otherwise B == dim // b.

    embed_matrix[:, x] is the initial wavefunction for base state x;
    projecting a wavefunction sums |psi|^2 over the sub register.
    """

    walk_kind: str
    base_size: int
    register_dim: int
    factors: tuple[np.ndarray, ...]
    embed_matrix: np.ndarray
    base_label: str = "custom"
    base_symmetric: bool = True

    def __post_init__(self):
        dim = self.dim
        factors = self.factors
        if not isinstance(factors, tuple) or not factors:
            raise ValueError("factors must be a nonempty tuple of arrays")
        for f in factors:
            if not isinstance(f, np.ndarray):
                raise ValueError(f"factor of type {type(f).__name__} is not an array")
            if f.ndim == 1:
                if not (
                    f.shape == (dim,)
                    and np.issubdtype(f.dtype, np.integer)
                    and np.array_equal(np.sort(f), np.arange(dim))
                ):
                    raise ValueError(f"permutation factor is not a bijection on range({dim})")
            elif f.ndim == 3:
                B, b, b2 = f.shape
                if b != b2 or b < 1 or dim % b or B not in (1, dim // b):
                    raise ValueError(f"block stack of shape {f.shape} does not tile dim {dim}")
                gram = np.matmul(f.conj().transpose(0, 2, 1), f)
                err = np.abs(gram - np.eye(b)).max()
                if err > UNITARITY_TOL:
                    raise ValueError(f"walk operator not unitary: block deviation {err}")
            else:
                raise ValueError(f"factor of shape {f.shape} is not a permutation or a block stack")
        if self.embed_matrix.shape != (dim, self.base_size):
            raise ValueError(
                f"embed_matrix shape {self.embed_matrix.shape} != ({dim}, {self.base_size})"
            )
        norms = np.linalg.norm(self.embed_matrix, axis=0)
        if np.abs(norms - 1.0).max() > UNITARITY_TOL:
            raise ValueError("embedded states must have unit norm")

    @property
    def dim(self) -> int:
        return self.base_size * self.register_dim

    def step(self, psi: np.ndarray) -> np.ndarray:
        """One application of the walk operator to a wavefunction or to
        each column of a wavefunction matrix."""
        for f in self.factors:
            if f.ndim == 1:
                psi = psi[f]
            else:
                dtype = np.result_type(f, psi)
                b = f.shape[-1]
                cols = psi.astype(dtype, copy=False).reshape(self.dim // b, b, -1)
                psi = np.matmul(f.astype(dtype, copy=False), cols).reshape(psi.shape)
        return psi

    @property
    def unitary(self) -> np.ndarray:
        """Dense walk operator, the step applied to the identity; its
        dimension is checked against the state cap before anything is
        allocated."""
        _check_cap(self.dim)
        return self.step(np.eye(self.dim))

    def project(self, psi: np.ndarray) -> np.ndarray:
        """Position-register distribution of one wavefunction or of each
        column of a wavefunction matrix."""
        prob = np.abs(psi) ** 2
        if psi.ndim == 1:
            out = prob.reshape(self.base_size, self.register_dim).sum(axis=1)
        else:
            out = prob.reshape(self.base_size, self.register_dim, psi.shape[1]).sum(axis=1)
        return out


def _block_embed(blocks: np.ndarray) -> np.ndarray:
    """Embed matrix whose column x holds blocks[x] at the walk indices
    x * register_dim + sub, for blocks of shape (base_size, register_dim)."""
    n, b = blocks.shape
    E = np.zeros((n * b, n), dtype=blocks.dtype)
    E.reshape(n, b, n)[np.arange(n), :, np.arange(n)] = blocks
    return E


def quantize_szegedy(P: MarkovChain) -> DTWalk:
    """Discrete-time quantization (R S)^2 on the bipartite edge space.

    S swaps |x,y> -> |y,x>; R reflects each x-block around the column
    state |p_x> = sum_y sqrt(P[y,x]) |y>. embed(x) = |x>|p_x>. Applied
    right to left, so the factors are (S, R, S, R).
    """
    n = P.size
    _check_cap(n * n)
    if not P.is_irreducible:
        raise ValueError(f"chain {P.label!r} must be irreducible")
    sqrtP = np.sqrt(P.entries)
    dim = n * n
    cols = sqrtP.T  # cols[x] = |p_x>
    R = 2.0 * cols[:, :, None] * cols[:, None, :] - np.eye(n)
    idx = np.arange(dim)
    swap = (idx % n) * n + idx // n  # an involution
    E = _block_embed(cols)
    return DTWalk(
        "szegedy", n, n, (swap, R, swap, R), E, base_label=P.label, base_symmetric=P.is_symmetric
    )


def szegedy_stationary_state(P: MarkovChain) -> np.ndarray:
    """The fixed wavefunction sum_x sqrt(pi_x) |x>|p_x>."""
    return (np.sqrt(P.stationary)[:, None] * np.sqrt(P.entries).T).ravel()


def hadamard_cycle_walk(n: int) -> DTWalk:
    """Coined walk on Z_n with the 2x2 Hadamard coin and a moving shift:
    coin 0 steps to x-1, coin 1 steps to x+1.

    The initial coin (|0> + i|1>)/sqrt(2) makes the walk drift-free.
    """
    if n < 2:
        raise ValueError(f"cycle walk needs n >= 2, got {n}")
    _check_cap(2 * n)
    H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    # after the shift, coin 0 at x came from x+1 and coin 1 from x-1
    up, down = lattice_step(n, 1, 0, 1), lattice_step(n, 1, 0, -1)
    shift = np.stack([up * 2, down * 2 + 1], axis=1).ravel()
    coin = np.array([1.0 / np.sqrt(2.0), 1.0j / np.sqrt(2.0)])
    E = _block_embed(np.tile(coin, (n, 1)))
    return DTWalk("hadamard_cycle", n, 2, (H2[None], shift), E, base_label=f"cycle({n})")


def grover_lattice_walk(n: int, d: int) -> DTWalk:
    """Coined walk on Z_n^d with the 2d-dimensional Grover diffusion
    coin and a flip-flop shift: moving along +-e_j flips the coin to the
    opposite direction. Initial coin is uniform.

    Coin index 2j+s points along coordinate j with sign (-1)^s.
    """
    coin_dim = 2 * d
    _check_cap(n**d * coin_dim)
    G = lattice(n, d)
    N = G.n
    coin = np.full((coin_dim, coin_dim), 1.0 / d) - np.eye(coin_dim)
    # after the shift, coin 2j+1 at v came from down_j(v) with coin 2j,
    # and coin 2j at v from up_j(v) with coin 2j+1
    shift = np.empty((N, coin_dim), dtype=np.intp)
    for j in range(d):
        shift[:, 2 * j + 1] = lattice_step(n, d, j, -1) * coin_dim + 2 * j
        shift[:, 2 * j] = lattice_step(n, d, j, 1) * coin_dim + 2 * j + 1
    E = _block_embed(np.full((N, coin_dim), 1.0 / np.sqrt(coin_dim)))
    factors = (coin[None], shift.ravel())
    return DTWalk(f"grover_lattice({n},{d})", N, coin_dim, factors, E, base_label=G.kind_tag)


def coined_walk(kind: str, *params: int) -> DTWalk:
    """Dispatch: coined_walk("hadamard_cycle", n) or
    coined_walk("grover_lattice", n, d)."""
    if kind == "hadamard_cycle":
        if len(params) != 1:
            raise ValueError("hadamard_cycle takes one parameter (n)")
        return hadamard_cycle_walk(params[0])
    if kind == "grover_lattice":
        if len(params) != 2:
            raise ValueError("grover_lattice takes two parameters (n, d)")
        return grover_lattice_walk(params[0], params[1])
    raise ValueError(f"unknown coined walk kind {kind!r}")


def phase_gap(W) -> float:
    """Smallest nonzero eigenphase magnitude of a discrete walk unitary,
    or the smallest nonzero eigenvalue separation of a continuous walk
    (the frequency that controls its measured dynamics).

    The clusters decide which eigenvalues of a continuous walk are equal,
    so its gap is the smallest step between adjacent cluster values.
    """
    if isinstance(W, CTWalk):
        if len(W.clusters) == 1:
            raise DegenerateSpectrumError("degenerate spectrum: no nonzero eigenvalue gap")
        return float(np.diff(W.cluster_values()).min())
    return eigenphase_gap(np.angle(np.linalg.eigvals(W.unitary)))


def eigenphase_gap(phases: np.ndarray) -> float:
    """Smallest eigenphase magnitude above PHASE_TOL, for callers that
    already hold the eigenphases of a discrete walk unitary."""
    nz = np.abs(phases) > PHASE_TOL
    if not nz.any():
        raise DegenerateSpectrumError("degenerate spectrum: no nonzero eigenphase")
    return float(np.abs(phases[nz]).min())
