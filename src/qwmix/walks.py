"""Quantizations of reversible chains and coined walks.

Continuous time: spectral data of the symmetrized generator H, evolved
as exp(-iHt). Discrete time: a unitary on an enlarged space, kept as a
product of permutations and reflections, one reflection per register
(shift and coin, swap and reflection about |p_x>), together with an
embedding of base states and a projection back to a distribution over
base states (measure the position register).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .chains import MarkovChain, fourier_spectrum, symmetrized_generator
from .config import DEFAULT_CLUSTER_TOL
from .graphs import (
    _check_cap,
    _check_lattice_size,
    _lattice_size,
    lattice_step,
    lattice_sum,
)

UNITARITY_TOL = 1e-9
EIGEN_RESIDUAL_TOL = 1e-9
PHASE_TOL = 1e-8
# Szegedy discriminant eigenvalues within this of +-1 count as +-1 (phase
# 0). eigvalsh's error is ~n * 1e-16 on an n x n discriminant of norm 1, and
# the phase 2 arccos(1 - eps) ~ 2 sqrt(2 eps), so a Szegedy walk's nonzero
# phases are all above ~2.8e-6, well clear of PHASE_TOL.
DISCRIMINANT_TOL = 1e-12


class DegenerateSpectrumError(ValueError):
    """The unitary has no eigenphase away from zero."""


class RuleFamilyError(ValueError):
    """Measurement rule family incompatible with the walk kind."""


@dataclass(frozen=True)
class CTWalk:
    """Eigen-decomposed Hamiltonian of a reversible chain.

    eigenvalues are ascending. Eigenvalues closer than DEFAULT_CLUSTER_TOL
    (single linkage) form one cluster, a run of consecutive indices:
    cluster c runs from cluster_starts[c] up to the next start (or the
    end), and cluster_counts holds the runs' lengths.

    Without a lattice base, eigenvectors[:, k] is the k-th real
    orthonormal eigenvector from eigh. On a lattice base, grid_index[k] is
    the wave vector of eigenvalue k, as a flat index of the Fourier grid
    in the graphs layout, and eigenvectors is None: every operator is
    diagonal on that grid.
    """

    base: MarkovChain
    eigenvalues: np.ndarray
    cluster_starts: np.ndarray
    grid_index: np.ndarray | None = None
    eigenvectors: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.base.size

    @cached_property
    def cluster_counts(self) -> np.ndarray:
        counts = np.diff(self.cluster_starts, append=self.size)
        counts.setflags(write=False)
        return counts

    @cached_property
    def clusters(self) -> tuple[tuple[int, ...], ...]:
        """Each cluster as the tuple of its eigenvalue indices."""
        ends = self.cluster_starts + self.cluster_counts
        return tuple(tuple(range(a, b)) for a, b in zip(self.cluster_starts.tolist(), ends.tolist()))

    def cluster_values(self) -> np.ndarray:
        return self._cluster_values

    @cached_property
    def _cluster_values(self) -> np.ndarray:
        # the clusters of one width are summed as the rows of one gather,
        # which rounds as each run's own mean does
        starts, counts = self.cluster_starts, self.cluster_counts
        values = np.empty(starts.size)
        for w in np.flatnonzero(np.bincount(counts)).tolist():
            at = counts == w
            values[at] = self.eigenvalues[starts[at, None] + np.arange(w)].sum(axis=1) / w
        values.setflags(write=False)
        return values


def quantize_ct(P: MarkovChain) -> CTWalk:
    """Continuous-time quantization: eigensolve H, or take a lattice
    chain's Fourier spectrum, and group eigenvalues within
    DEFAULT_CLUSTER_TOL of each other (single linkage).

    A chain with the lattice claim solves nothing: its eigenvalues are
    chains.fourier_spectrum's, sorted, and its generated chains are built
    on the Fourier grid, which needs every cluster to be a whole
    eigenspace; at a tolerance far above rounding it is, and the pair
    k, -k always shares a cluster.
    """
    if P.lattice is not None:
        spectrum = fourier_spectrum(P)
        grid_index = np.argsort(spectrum, kind="stable")
        grid_index.setflags(write=False)
        lam = spectrum[grid_index]
        V = None
    else:
        grid_index = None
        H = symmetrized_generator(P)
        lam, V = np.linalg.eigh(H)
        resid = np.abs(H @ V - V * lam[None, :]).max()
        if resid > EIGEN_RESIDUAL_TOL:
            raise ArithmeticError(f"eigensolve residual {resid} too large")
        ortho = np.abs(V.T @ V - np.eye(P.size)).max()
        if ortho > EIGEN_RESIDUAL_TOL:
            raise ArithmeticError(f"eigenvector basis not orthonormal: {ortho}")
        V.setflags(write=False)

    # single linkage on the ascending spectrum: runs split where a gap
    # exceeds the tolerance
    starts = np.concatenate(([0], np.flatnonzero(np.diff(lam) > DEFAULT_CLUSTER_TOL) + 1))
    ends = np.append(starts[1:], P.size)
    spread = lam[ends - 1] - lam[starts]
    wide = np.flatnonzero(spread > DEFAULT_CLUSTER_TOL)
    if wide.size:
        raise ValueError(
            f"cluster tolerance {DEFAULT_CLUSTER_TOL} chains a spread of {spread[wide[0]]}; "
            "the spectrum has no clean degeneracies at that scale"
        )
    lam.setflags(write=False)
    starts.setflags(write=False)
    return CTWalk(P, lam, starts, grid_index, V)


def ct_amplitude_row(W: CTWalk, x: int, t: float) -> np.ndarray:
    """Amplitudes <y| exp(-iHt) |x> for all y. On a lattice base they are
    the inverse FFT of the phases on the Fourier grid, translated by x."""
    if not (0 <= x < W.size):
        raise ValueError(f"state {x} out of range [0, {W.size})")
    phases = np.exp(-1j * W.eigenvalues * t)
    if W.grid_index is None:
        amp = W.eigenvectors @ (phases * W.eigenvectors[x, :])
    else:
        n, d = W.base.lattice
        grid = np.empty(W.size, dtype=np.complex128)
        grid[W.grid_index] = phases
        a0 = np.fft.ifftn(grid.reshape((n,) * d)).ravel()
        amp = a0[lattice_sum(n, d, np.arange(W.size), x, -1)]
    norm = np.linalg.norm(amp)
    if abs(norm - 1.0) > UNITARITY_TOL:
        raise ArithmeticError(f"amplitude norm {norm} drifted from 1")
    return amp


@dataclass(frozen=True)
class DTWalk:
    """Discrete-time walk on base x register space of size
    base_size * register_dim, index (base, sub) -> base * register_dim + sub.

    The walk operator is the product of factors, applied in order. A
    1-D integer array is a permutation, psi -> psi[perm]. A
    (base_size, register_dim) array f of unit rows is a reflection: it
    maps base state x's register psi_x to 2 f_x (f_x^H psi_x) - psi_x
    (Szegedy's reflection about |p_x>, the Grover coin J/d - I about the
    uniform vector, the Hadamard coin about (cos pi/8, sin pi/8)). step
    applies the factors one by one. A lattice walk also steps a C-ordered
    (dim, columns) stack of states in the register-major layout
    sub * N + base with _step_rows, in real arithmetic when every
    reflection is real; its generated chains step only that way.

    _szegedy_spectrum is None except on a walk that quantize_szegedy
    returns, which it sets to its discriminant's eigendecomposition;
    eigenphases and the generated chains read it. No constructor
    argument sets it, so a walk assembled by hand with the same factors,
    or a dataclasses.replace copy, carries none.

    embed[x] is the register state (length register_dim) that base state
    x starts in, at walk indices x * register_dim + sub; projecting a
    wavefunction sums |psi|^2 over the sub register. No dense operator is
    built: eigenphases reads the spectrum off the structure.

    lattice = (n, d) claims that the base states are Z_n^d in the graphs
    layout and that the step and the embedding commute with its
    translations, so a generated chain is fixed by its column 0 and the
    spectrum splits into one block per momentum; eigenphases and the
    generated chains share those blocks, read off once. The constructor
    checks the claim: every permutation commutes with the d unit
    translations, and every row of each reflection, and of embed, equals
    row 0.

    base_symmetric claims that every generated chain of the walk is
    symmetric; the generated-chain checks then require it. A Szegedy
    walk makes no such claim: its measured chain is not symmetric in
    general, even on a symmetric base chain.
    """

    walk_kind: str
    base_size: int
    register_dim: int
    factors: tuple[np.ndarray, ...]
    embed: np.ndarray
    base_label: str = "custom"
    base_symmetric: bool = True
    lattice: tuple[int, int] | None = None
    # not a field: only quantize_szegedy sets it, as (lam, Q, theta)
    _szegedy_spectrum = None

    def __post_init__(self):
        dim = self.dim
        factors = self.factors
        shape = (self.base_size, self.register_dim)
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
            elif f.shape == shape:
                # (2cc^H - I)^H (2cc^H - I) - I = 4 (|c|^2 - 1) cc^H
                err = 4.0 * np.abs(np.linalg.norm(f, axis=1) ** 2 - 1.0).max()
                if err > UNITARITY_TOL:
                    raise ValueError(f"walk operator not unitary: reflection deviation {err}")
            else:
                raise ValueError(
                    f"factor of shape {f.shape} is not a permutation or a {shape} reflection"
                )
        if self.embed.shape != shape:
            raise ValueError(f"embed shape {self.embed.shape} != {shape}")
        norms = np.linalg.norm(self.embed, axis=1)
        if np.abs(norms - 1.0).max() > UNITARITY_TOL:
            raise ValueError("embedded states must have unit norm")
        if self.lattice is not None:
            self._check_translation_invariant()

    def _check_translation_invariant(self):
        _check_lattice_size(self.lattice, self.base_size, "base states")
        n, d = self.lattice
        r = self.register_dim
        sub = np.arange(r)
        for j in range(d):
            tau = (lattice_step(n, d, j, 1)[:, None] * r + sub).ravel()
            for f in self.factors:
                if f.ndim == 1 and not np.array_equal(f[tau], tau[f]):
                    raise ValueError(f"permutation factor does not commute with translation {j}")
        for f in self.factors:
            if f.ndim == 2 and not (f == f[0]).all():
                raise ValueError("reflection is not the same at every base state")
        if not (self.embed == self.embed[0]).all():
            raise ValueError("embedded states are not the translates of embed[0]")

    @property
    def dim(self) -> int:
        return self.base_size * self.register_dim

    def step(self, psi: np.ndarray) -> np.ndarray:
        """One application of the walk operator to a wavefunction or to
        each column of a wavefunction matrix: a gather per permutation and,
        per reflection, one batched product of each register with its
        row's conjugate."""
        for f in self.factors:
            if f.ndim == 1:
                psi = psi[f]
            else:
                X = psi.reshape(self.base_size, self.register_dim, -1)
                c = np.matmul(f.conj()[:, None, :], X)
                psi = (2.0 * f[:, :, None] * c - X).reshape(psi.shape)
        return psi

    @cached_property
    def _momentum_blocks(self) -> np.ndarray:
        """A lattice walk's r x r blocks fftn(A), one per momentum in the
        flat Fourier grid order. The walk is block circulant,
        U[(x, .), (y, .)] = A[x - y], so it maps a state's transform at
        momentum k to blocks[k] times it. Read off the step once: column p
        of _step_rows on base state 0's register basis is U e_p, so
        A[x][q, p] is its entry q N + x. The grid is transformed one axis
        at a time, which on these small grids saves fftn's argument
        handling."""
        n, d = self.lattice
        N, r = self.base_size, self.register_dim
        basis = np.zeros((self.dim, r), dtype=self._row_dtype)
        basis[::N] = np.eye(r)
        blocks = self._step_rows(basis).reshape((r,) + (n,) * d + (r,))
        for axis in range(1, d + 1):
            blocks = np.fft.fft(blocks, axis=axis)
        blocks = np.moveaxis(blocks.reshape(r, N, r), 1, 0).copy()
        blocks.setflags(write=False)
        return blocks

    @cached_property
    def _row_dtype(self) -> np.dtype:
        """The dtype of _step_rows: real unless a reflection is complex."""
        return np.result_type(np.float64, *(f for f in self.factors if f.ndim == 2))

    @cached_property
    def _row_plan(self) -> tuple[np.ndarray, ...]:
        """The stages of _step_rows on a lattice walk, in the register-major
        layout sub * N + base: the gather index of each permutation,
        carried into that layout, and for each reflection the r x r block
        2 f_0 f_0^H - I it applies at every base state, in _row_dtype."""
        N, r = self.base_size, self.register_dim
        # the walk index base * r + sub of register-major index sub * N + base
        walk_index = np.arange(self.dim).reshape(N, r).T.ravel()
        stages = []
        for f in self.factors:
            if f.ndim == 1:
                source = f[walk_index]
                stages.append((source % r) * N + source // r)
                continue
            stages.append(2.0 * np.outer(f[0], f[0].conj()) - np.eye(r))
        return tuple(stages)

    @cached_property
    def _row_starts(self) -> np.ndarray:
        """Base state 0's start state as the columns of a _step_rows stack:
        base 0 (x) embed[0], or on a real walk its nonzero real and
        imaginary parts, which the real step keeps apart."""
        e = self.embed[0]
        if self._row_dtype.kind == "c":
            parts = [e]
        else:
            parts = [p for p in (e.real, np.imag(e)) if p.any()]
        X = np.zeros((self.dim, len(parts)), dtype=self._row_dtype)
        X[:: self.base_size] = np.transpose(parts)
        X.setflags(write=False)
        return X

    def _step_rows(self, X: np.ndarray) -> np.ndarray:
        """One application of a lattice walk's operator to each column of a
        C-ordered (dim, columns) stack of states in the register-major
        layout, row sub * N + base: per permutation one gather of whole
        rows along axis 0, and per reflection one 2-D product
        M @ (r, N * columns) of the registers. ndarray.take skips np.take's
        dispatch."""
        r = self.register_dim
        for f in self._row_plan:
            X = X.take(f, axis=0) if f.ndim == 1 else (f @ X.reshape(r, -1)).reshape(X.shape)
        return X


def quantize_szegedy(P: MarkovChain) -> DTWalk:
    """Discrete-time quantization (R S)^2 on the bipartite edge space.

    S swaps |x,y> -> |y,x>; R reflects each x-block around the column
    state |p_x> = sum_y sqrt(P[y,x]) |y>, the reflection factor whose row
    x is |p_x>. embed(x) = |x>|p_x>. Applied right to left, so the factors
    are (S, R, S, R).

    The walk carries _szegedy_spectrum = (lam, Q, theta): the n x n
    discriminant D[x, y] = <p_x|y> <x|p_y> = sqrt(P[y, x] P[x, y]) as
    Q diag(lam) Q^T by one eigh, lam ascending, and theta = arccos lam on
    the moving directions, |lam| < 1 - DISCRIMINANT_TOL, and 0 on the
    static rest.
    """
    n = P.size
    _check_cap(n * n)
    if not P.is_irreducible:
        raise ValueError(f"chain {P.label!r} must be irreducible")
    cols = np.sqrt(P.entries).T  # cols[x] = |p_x>
    swap = _swap(n)
    W = DTWalk(
        "szegedy", n, n, (swap, cols, swap, cols), cols, base_label=P.label, base_symmetric=False
    )
    lam, Q = np.linalg.eigh(cols * cols.T)
    # static on lam, not on the phase: arccos turns a rounding error of
    # 1e-16 in lam = 1 into a phase of ~1e-8
    theta = np.arccos(np.where(np.abs(lam) < 1.0 - DISCRIMINANT_TOL, lam, 1.0))
    for a in (lam, Q, theta):
        a.setflags(write=False)
    object.__setattr__(W, "_szegedy_spectrum", (lam, Q, theta))
    return W


def _swap(n: int) -> np.ndarray:
    """The involution |x,y> -> |y,x> on n*n walk indices."""
    idx = np.arange(n * n)
    return (idx % n) * n + idx // n


def hadamard_cycle_walk(n: int) -> DTWalk:
    """Coined walk on Z_n with the 2x2 Hadamard coin, the reflection about
    (cos pi/8, sin pi/8), and a moving shift: coin 0 steps to x-1, coin 1
    steps to x+1.

    The initial coin (|0> + i|1>)/sqrt(2) makes the walk drift-free.
    """
    if n < 2:
        raise ValueError(f"cycle walk needs n >= 2, got {n}")
    _check_cap(4 * n, claimed=True, what="momentum-block entries")
    hadamard = np.broadcast_to([np.cos(np.pi / 8), np.sin(np.pi / 8)], (n, 2))
    # after the shift, coin 0 at x came from x+1 and coin 1 from x-1
    up, down = lattice_step(n, 1, 0, 1), lattice_step(n, 1, 0, -1)
    shift = np.stack([up * 2, down * 2 + 1], axis=1).ravel()
    coin = np.array([1.0 / np.sqrt(2.0), 1.0j / np.sqrt(2.0)])
    E = np.tile(coin, (n, 1))
    return DTWalk(
        "hadamard_cycle", n, 2, (hadamard, shift), E, base_label=f"cycle({n})", lattice=(n, 1)
    )


def grover_lattice_walk(n: int, d: int) -> DTWalk:
    """Coined walk on Z_n^d with the 2d-dimensional Grover diffusion
    coin J/d - I, the reflection about the uniform coin state, and a
    flip-flop shift: moving along +-e_j flips the coin to the opposite
    direction. Initial coin is uniform.

    Coin index 2j+s points along coordinate j with sign (-1)^s.
    """
    coin_dim = 2 * d
    N = _lattice_size(n, d)
    _check_cap(N * coin_dim**2, claimed=True, what="momentum-block entries")
    # after the shift, coin 2j+1 at v came from down_j(v) with coin 2j,
    # and coin 2j at v from up_j(v) with coin 2j+1
    shift = np.empty((N, coin_dim), dtype=np.intp)
    for j in range(d):
        shift[:, 2 * j + 1] = lattice_step(n, d, j, -1) * coin_dim + 2 * j
        shift[:, 2 * j] = lattice_step(n, d, j, 1) * coin_dim + 2 * j + 1
    E = np.full((N, coin_dim), 1.0 / np.sqrt(coin_dim))
    factors = (E, shift.ravel())
    label = f"lattice({n},{d})"
    return DTWalk(f"grover_{label}", N, coin_dim, factors, E, base_label=label, lattice=(n, d))


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


def eigenphases(W: DTWalk) -> np.ndarray:
    """All dim eigenphases of a discrete walk, read from its structure.

    A lattice walk is block circulant, U[(x, .), (y, .)] = A[x - y], so its
    spectrum is that of the r x r blocks fftn(A), one per momentum. A walk
    built by quantize_szegedy has phases +-min(p, 2 pi - p), p = 2 theta,
    over the moving directions of its discriminant, theta > 0 (Szegedy's
    spectral lemma), and 0 elsewhere. Any other walk is refused, even one
    assembled by hand with Szegedy's factors.
    """
    if W.lattice is not None:
        return np.angle(np.linalg.eigvals(W._momentum_blocks)).ravel()
    if W._szegedy_spectrum is None:
        raise ValueError(
            f"walk {W.walk_kind!r} declares no spectral structure: "
            "set its lattice or build it with quantize_szegedy"
        )
    theta = W._szegedy_spectrum[2]
    p = 2.0 * theta[theta > 0.0]
    p = np.minimum(p, 2.0 * np.pi - p)
    return np.concatenate((p, -p, np.zeros(W.dim - 2 * p.size)))


def phase_gap(W) -> float:
    """Smallest nonzero eigenphase magnitude of a discrete walk, from
    eigenphases, or the smallest nonzero eigenvalue separation of a
    continuous walk (the frequency that controls its measured dynamics).

    The clusters decide which eigenvalues of a continuous walk are equal,
    so its gap is the smallest step between adjacent cluster values.
    """
    if isinstance(W, CTWalk):
        if len(W.cluster_starts) == 1:
            raise DegenerateSpectrumError("degenerate spectrum: no nonzero eigenvalue gap")
        return float(np.diff(W.cluster_values()).min())
    return eigenphase_gap(eigenphases(W))


def eigenphase_gap(phases: np.ndarray) -> float:
    """Smallest eigenphase magnitude above PHASE_TOL, for callers that
    already hold the eigenphases of a discrete walk."""
    nz = np.abs(phases) > PHASE_TOL
    if not nz.any():
        raise DegenerateSpectrumError("degenerate spectrum: no nonzero eigenphase")
    return float(np.abs(phases[nz]).min())
