"""Random-time measurement of a quantum walk and the classical chains
it generates.

A measurement rule is a distribution over the measurement time t. The
generated chain entry is P_hat[y, x] = E_t |<y| U^t |x>|^2 (position
register only for discrete walks). A discrete rule is its kept,
possibly truncated, support and weights (rule_weights), and a discrete
walk's chain is formed by one of three kernels, none of which builds a
dense operator: two step the walk through the times 0 .. t_end - 1 with
dense weights w[t], and the Szegedy kernel reads the same weights'
characteristic function.

A walk that quantize_szegedy builds steps no state: its discriminant's
eigenbasis D = Q diag(lam) Q^T, one eigh that the builder stores on the
walk and eigenphases shares, gives U^t A = A (X - Y) + B B_t in
closed form (Szegedy's spectral lemma), with X, B_t and Y = D B_t
diagonal in Q. Summed over the rule's times, the measured chain X o X -
Y o Y + P (B_t o B_t) is three square sums of the continuous-time kind
below, over the pivoted Cholesky factors of two N x N kernels on the
directions in place of chi's. Each kernel entry is a weighted sum of
products of cosines and sines of 2 t theta, so it is a value of the
rule's characteristic function at 2 (theta_j -+ theta_k), as chi's
entries are: two evaluations on N x N grids form both kernels, with no
sum over the measured times, and O(N^3) per pivot. Directions with |lam|
at 1 are static. Where the terms' cancellation, up to 1 / (1 - lam^2),
would round past GENERATED_TOL, the walk is stepped instead.

Any other walk without the lattice claim steps every start state, one
column each, through every time, and adds w[t] |psi_t|^2 at each; the
position register is summed once, at the end. This is also the tests'
oracle for the other two kernels.

A lattice (n, d) walk commutes with the translations of Z_n^d, so only
base state 0 is stepped, as the columns of a C-ordered (dim, columns)
stack in the register-major layout, row sub * N + base: each
permutation one gather of whole rows along axis 0 and each reflection
one (r x r) @ (r x N columns) product by its block 2 f_0 f_0^H - I. A
walk whose reflections are real steps real columns, the real and
imaginary parts of its start state apart. On a long support the chain
takes about 2 sqrt(t_end) rounds of numpy calls instead of t_end, in
giant steps and baby steps. With J about sqrt(t_end) and
L = ceil(t_end / J), the giant steps give the states at times 0, L, ...,
(J - 1) L in momentum space, where the walk is one r x r block per
momentum (the blocks eigenphases reads too): the blocks' L-th power, by
squaring, doubles the known states per product, and one batched inverse
fft brings them back; on a real walk their imaginary parts, rounding
residue, are checked and dropped. The baby steps then step those J
states together L - 1 times, and measure column j at step i with weight
w[j L + i]. The stepped stacks are stored and measured in blocks of
STEP_BATCH_ENTRIES entries. J comes from STEP_BATCH_ENTRIES, dim and
t_end; at J = 1 (a support too short to pay for the transforms, or a
state near the budget) the start columns are stepped through every time.

Continuous-time chains are evaluated in closed form through the rule's
characteristic function phi. With cluster values v_c, cluster
projectors P_c and chi[c, c'] = Re phi(v_c - v_c'), each entry is
P_hat[y, x] = p^T chi p with p[c] = P_c[y, x]. chi is positive
semidefinite (phi is a characteristic function; Bochner), so a pivoted
Cholesky factor chi ~ L L^T, L of size C x r, is built from r of chi's
columns, each formed from phi, and the whole chi never is: C r memory
and O(C r^2) time. The pivots stop when the residual's trace is at most
CHI_TRACE_TOL, which moves no entry by more than that, or when every
residual is down to the rounding of chi's entries, which a delta rule at
T spread ~ 1e3 reaches first. Then
P_hat = sum_m (V diag(L[owner, m]) V^T)**2 (entrywise square),
where owner[j] is the cluster of eigenvector j: one N x N x N product
per column of L and O(N^2) memory, with no stack of projectors. The
delta rule's chi has rank 2 (cos and sin of T v), so it costs two
columns and two products; a smooth rule's rank grows with T and C. The
long-time limit chain is the same sum with chi the identity, where the
singleton clusters' terms (v o v)(v o v)^T join in one product. H is
real symmetric, so exp(-iHt) is complex-symmetric and every
continuous-time chain here is symmetric, whatever the base chain.

On a lattice base every operator here is diagonal in the characters of
Z_n^d, so no eigenvector is formed: the walk holds the Fourier grid index
of each eigenvalue, term m is the convolution with its column 0,
a_m = ifftn(L[owner(k), m]) over the wave vectors k (real, as owner is
even in k), and the chain's column 0 is sum_m a_m**2, from batched
inverse transforms over the stacked term grids. Every generated and limit
chain is checked, renormalized and symmetrized on the columns it has
(column 0 alone on a lattice, through a length-N negation index) and
returned carrying the lattice claim.

Where the walk never arrives, every kernel above leaves rounding in
place of 0. One floor, applied where every chain is checked
(_generated_markov_chain, which states why it is safe), sets each entry
at most UNITARITY_TOL^2 to 0, so the support, the irreducibility witness
and the period do not depend on the kernel, nor on J.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import InternalCheckError, MarkovChain, NoMix, _threshold_time
from .config import DEFAULT_TAIL_TOL, state_cap
from .graphs import StateCapError, lattice_negation
from .walks import UNITARITY_TOL, CTWalk, DTWalk, RuleFamilyError

CT_FAMILIES = ("delta", "uniform_ct", "exponential")
DT_FAMILIES = ("delta", "uniform_dt", "geometric")
GENERATED_TOL = 1e-9
# Residual trace of a pivoted Cholesky factor, chi's or a Szegedy walk's
# kernels', at which the pivots stop. Entrywise bound: P_hat[y, x] = p^T
# chi p with p[c] = P_c[y, x], so a residual R = chi - L L^T, positive
# semidefinite, moves the entry by p^T R p <= tr R * |p|^2. And |p|^2 <=
# 1: P_c[y, x] = <P_c y, P_c x>, so by Cauchy-Schwarz P_c[y, x]^2 <= |P_c
# y|^2 |P_c x|^2 <= |P_c y|^2, and the P_c resolve the identity, so sum_c
# |P_c y|^2 = |y|^2 = 1 (a Szegedy kernel's p[j] = Q[y, j] Q[x, j] is the
# case of rank-one P_c). Where the kernel's own rounding is larger
# (_chi_rounding, _szegedy_kernels), the pivots stop at that instead, and
# tr R is at most C times it.
CHI_TRACE_TOL = 1e-13
# Terms of a lattice walk's chain formed per batched inverse transform,
# times N: 2 MiB of float64 term columns a batch.
FOURIER_BATCH_ENTRIES = 1 << 18
# Entries of a lattice walk's stored steps, in its row dtype, between
# measurements: 1 MiB of complex128.
STEP_BATCH_ENTRIES = 1 << 16


@dataclass(frozen=True)
class MeasurementRule:
    """Distribution of the measurement time with horizon parameter T.

    Families: delta (measure exactly at T), uniform_ct (uniform on
    [0, T]), exponential (mean T), uniform_dt (uniform on integers
    0..T-1), geometric (success rate 1/T on integers 0, 1, 2, ...).
    """

    family: str
    T: float

    def __post_init__(self):
        if self.family not in set(CT_FAMILIES) | set(DT_FAMILIES):
            raise ValueError(f"unknown rule family {self.family!r}")
        if not math.isfinite(self.T):
            raise ValueError(f"T must be finite, got {self.T}")
        if self.family == "uniform_dt":
            if self.T < 1 or abs(self.T - round(self.T)) > 1e-9:
                raise ValueError(f"uniform_dt needs integer T >= 1, got {self.T}")
        elif self.family == "geometric":
            if self.T < 1.0:
                raise ValueError(f"geometric needs T >= 1, got {self.T}")
        elif self.T < 0.0:
            raise ValueError(f"T must be nonnegative, got {self.T}")


def delta_rule(T: float) -> MeasurementRule:
    return MeasurementRule("delta", float(T))


def uniform_ct_rule(T: float) -> MeasurementRule:
    return MeasurementRule("uniform_ct", float(T))


def exponential_rule(T: float) -> MeasurementRule:
    return MeasurementRule("exponential", float(T))


def uniform_dt_rule(T: int) -> MeasurementRule:
    return MeasurementRule("uniform_dt", float(T))


def geometric_rule(T: float) -> MeasurementRule:
    return MeasurementRule("geometric", float(T))


def characteristic_function(rule: MeasurementRule, theta):
    """E[exp(i * theta * t)] under the rule, vectorized over theta. A
    discrete family's is the transform of exactly rule_weights' support
    and weights, so a chain formed from it and one stepped through those
    weights measure one distribution.

    Exactly 1 at theta = 0 for every family: geometric sets it there, and
    the other families' formulas give it.
    """
    th = np.asarray(theta, dtype=np.float64)
    T = rule.T
    # i theta T in one product, th * (1j * T): a generated chain calls this
    # once per pivot of chi's factor
    if rule.family == "delta":
        out = np.exp(th * (1j * T))
    elif rule.family == "uniform_ct":
        # (e^{iz} - 1) / (iz), and its series 1 + iz/2 where |z| < 1e-8 (the
        # next term, -z^2/6, is below rounding there)
        iz = th * (1j * T)
        out = np.asarray(1.0 + 0.5 * iz)
        np.divide(np.exp(iz) - 1.0, iz, out=out, where=np.abs(iz) >= 1e-8)
    elif rule.family == "exponential":
        out = 1.0 / (1.0 - th * (1j * T))
    elif rule.family == "uniform_dt":
        # integer support, so wrap the angle to psi in [-pi, pi] (exactly
        # there, and oddly in theta); Dirichlet-kernel form of (1/T) * (1 -
        # e^{i psi T}) / (1 - e^{i psi}), 1 where psi vanishes
        Ti = int(round(T))
        psi = th - 2.0 * np.pi * np.round(th / (2.0 * np.pi))
        psi = np.where(np.abs(psi) < 1e-12, 0.0, psi)
        dirichlet = np.ones_like(psi)
        np.divide(np.sin(0.5 * Ti * psi), Ti * np.sin(0.5 * psi), out=dirichlet, where=psi != 0.0)
        out = dirichlet * np.exp((0.5j * (Ti - 1)) * psi)
    elif rule.family == "geometric":
        # rule_weights' kept times 0 .. L - 1, renormalized: p (1 - z^L) /
        # ((1 - z)(1 - q^L)) with z = q e^{i theta}, in real arithmetic as
        # (1 - z^L)(1 - conj z) / |1 - z|^2, where |1 - z|^2 = p^2 + 4 q
        # sin^2(theta / 2) and Re(1 - conj z) = p + 2 q sin^2(theta / 2).
        # p is 1 - q, the rate of the weights rule_weights renormalizes (1/T
        # rounds apart from it); the ratio need not round to 1 at theta = 0.
        q = 1.0 - 1.0 / T
        p = 1.0 - q
        L = _geometric_length(T)
        qL = q**L
        s2 = np.sin(0.5 * th) ** 2
        re = p + 2.0 * q * s2 - qL * (np.cos(L * th) - q * np.cos((L - 1) * th))
        im = q * np.sin(th) - qL * (np.sin(L * th) - q * np.sin((L - 1) * th))
        scale = p / ((1.0 - qL) * (p * p + 4.0 * q * s2))
        out = np.where(th == 0.0, 1.0 + 0.0j, (re * scale) + 1j * (im * scale))
    else:  # pragma: no cover - guarded by the constructor
        raise ValueError(f"unknown rule family {rule.family!r}")
    return out if out.ndim else complex(out)


def _geometric_length(T: float) -> int:
    """L, the kept support 0 .. L - 1 of geometric(T): the times up to
    ceil(T ln(1 / DEFAULT_TAIL_TOL)), past which the tail mass (1 -
    1/T)^L is at most about DEFAULT_TAIL_TOL."""
    return int(math.ceil(T * math.log(1.0 / DEFAULT_TAIL_TOL))) + 1


def rule_weights(rule: MeasurementRule) -> tuple[np.ndarray, np.ndarray, float]:
    """(times, weights, truncation_error) for a discrete-time rule.

    Geometric support is truncated at ceil(T * ln(1/DEFAULT_TAIL_TOL)) and
    the kept weights renormalized; the entrywise error bound 2 * dropped
    mass is returned (_truncation_error).
    """
    trunc = _truncation_error(rule)
    if rule.family == "delta":
        return np.array([int(round(rule.T))]), np.array([1.0]), trunc
    if rule.family == "uniform_dt":
        Ti = int(round(rule.T))
        return np.arange(Ti), np.full(Ti, 1.0 / Ti), trunc
    # geometric: _truncation_error refused every other family
    p = 1.0 / rule.T
    t = np.arange(_geometric_length(rule.T))
    w = p * (1.0 - p) ** t
    return t, w / float(w.sum()), trunc


def _truncation_error(rule: MeasurementRule) -> float:
    """rule_weights' entrywise error bound, twice the mass its support
    drops, with no support formed: 2 (1 - 1/T)^L for geometric(T), L =
    _geometric_length(T), and 0 for delta and uniform_dt. Refuses what
    rule_weights refuses: a continuous family and a delta at a time that
    is not an integer."""
    if rule.family == "delta":
        if abs(rule.T - round(rule.T)) > 1e-9:
            raise RuleFamilyError(f"discrete delta rule needs integer T, got {rule.T}")
        return 0.0
    if rule.family == "uniform_dt":
        return 0.0
    if rule.family == "geometric":
        return 2.0 * (1.0 - 1.0 / rule.T) ** _geometric_length(rule.T)
    raise RuleFamilyError(f"{rule.family!r} has no discrete support")


@dataclass(frozen=True)
class GeneratedChain:
    """Classical chain produced by measuring a walk at a random time."""

    chain: MarkovChain


def _generated_markov_chain(
    cols: np.ndarray,
    symmetric: bool,
    trunc: float,
    what: str,
    label: str,
    lattice: tuple[int, int] | None,
) -> MarkovChain:
    """Check, renormalize and (for a symmetric chain) symmetrize the
    chain's columns, then build it. cols holds every column, or column 0
    alone (length N) when lattice is set; the checks then run on that
    column, where the transpose's column 0 is c[-z] and the row sums are
    the column sum, and the chain is built from the column.

    This is the one place a chain's zeros are set: an entry below -tol is
    refused, and every entry at most UNITARITY_TOL^2 (1e-18) is set to 0,
    so one floor decides the support, and with it the irreducibility
    witness and the period, whatever the kernel. Where the walk never
    arrives (a bipartite base's other parity class, past a light cone,
    off the target of a perfect state transfer) every kernel computes the
    entry from squares of amplitudes that are themselves rounding: about
    1e-32 from a lattice walk's transform or steps, up to 1e-30 from the
    square sums, up to about 1e-29 from the Szegedy kernel, whose gate
    (_szegedy_rounding) keeps eps max b^2 <= GENERATED_TOL / N, so the
    squares of its amplitudes' rounding, eps^2 max b^2, stay below eps
    GENERATED_TOL / N. A truncated factor moves no such entry: its
    residual R = K - L L^T is positive semidefinite and at most K, so
    where a square sum's exact value p^T K p is 0, so is p^T R p. A true
    entry that small is dropped, which moves an entry by at most 1e-18.
    Where the walk arrives but its amplitude cancels at one time, the
    Szegedy kernel's X o X - Y o Y + P (B_t o B_t) cancels terms of order
    1, to about eps, which this floor leaves in the support."""
    neg = None if lattice is None else lattice_negation(*lattice)

    def flip(A: np.ndarray) -> np.ndarray:
        return A.T if neg is None else A[neg]

    tol = GENERATED_TOL + trunc
    if cols.min() < -tol:
        raise ArithmeticError(f"{what}: negative entry {cols.min()}")
    M = np.where(cols <= UNITARITY_TOL**2, 0.0, cols)
    col_err = np.abs(M.sum(axis=0) - 1.0).max()
    if col_err > tol:
        raise ArithmeticError(f"{what}: column sums off by {col_err}")
    if symmetric:
        sym_err = np.abs(M - flip(M)).max()
        if sym_err > tol:
            raise ArithmeticError(f"{what}: asymmetry {sym_err} in a chain that must be symmetric")
        M = 0.5 * (M + flip(M))
        row_err = np.abs(flip(M).sum(axis=0) - 1.0).max()
        if row_err > tol:
            raise ArithmeticError(f"{what}: row sums off by {row_err}")
    # tiny float drift: renormalize columns so MarkovChain validation is exact
    M = M / M.sum(axis=0, keepdims=True)
    if symmetric:
        M = 0.5 * (M + flip(M))
    if lattice is not None:
        return MarkovChain._from_column(M, label, lattice)
    return MarkovChain(M, label)


def _chi_factor(walk: CTWalk, rule: MeasurementRule) -> np.ndarray:
    """L^T, an (r, C) array with chi ~ L L^T for chi[c, c'] = Re phi(v_c -
    v_c') on the cluster values, from r of chi's columns, each formed from
    phi (_pivoted_cholesky). chi's diagonal is chi(0) = 1, and its entries
    round to _chi_rounding."""
    values = walk.cluster_values()
    return _pivoted_cholesky(
        lambda i: characteristic_function(rule, values - values[i]).real,
        np.ones(values.size),
        _chi_rounding(values, rule),
        f"{rule.family} characteristic matrix",
    )


def _pivoted_cholesky(column, diagonal: np.ndarray, rounding: float, what: str) -> np.ndarray:
    """L^T, an (r, C) array with K ~ L L^T for a positive semidefinite
    C x C kernel K given by its diagonal and column(i), its column i, by
    pivoted Cholesky (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62,
    2012) from r of K's columns.

    The residual diagonal starts at K's. Each step pivots on its largest
    entry i: K's column i, less the factor so far, over the root of the
    pivot is the next column of L. The steps stop when the residual trace
    is at most CHI_TRACE_TOL, or when every residual is at rounding, the
    rounding of K's entries: a pivot there would factor rounding. A pivot
    is positive until then, and a residual below -(CHI_TRACE_TOL +
    rounding) means K is not positive semidefinite.

    The factor is refused before it grows past cap**2 entries, the size of
    a dense chain at the state cap. Its first 16 rows always fit: C is at
    most max(cap, cap**2 // 16), so min(C, 16) C <= cap**2."""
    C = diagonal.size
    residual = np.array(diagonal, dtype=np.float64)
    LT = np.empty((min(C, 16), C))
    r = 0
    # np.add.reduce is residual.sum() without its Python wrapper, run per pivot
    while np.add.reduce(residual) > CHI_TRACE_TOL:
        i = int(residual.argmax())
        if residual[i] <= rounding:
            break
        if r == LT.shape[0]:
            cap = state_cap()
            if (r + min(r, C - r)) * C > cap * cap:
                raise StateCapError(
                    f"{what}: a factor past {r} pivots of {C} columns exceeds the "
                    f"configured cap of {cap}, squared"
                )
            LT = np.concatenate((LT, np.empty((min(r, C - r), C))))
        col = column(i) - LT[:r, i] @ LT[:r]
        col /= math.sqrt(residual[i])
        LT[r] = col
        col *= col
        residual -= col
        residual[i] = 0.0
        r += 1
    if residual.min() < -(CHI_TRACE_TOL + rounding):
        raise InternalCheckError(
            f"{what} is not positive semidefinite: residual diagonal {residual.min()}"
        )
    return LT[:r]


def _chi_rounding(values: np.ndarray, rule: MeasurementRule) -> float:
    """A bound on the rounding of chi's computed entries: theta = v_c - v_c'
    and theta T are rounded, each by eps |theta T| at most, and |phi'| <=
    E|t| <= T for every continuous family, so an entry is off by up to
    about eps (1 + 2 T spread) over the spread of the values. The bound is
    tight for delta, whose |phi'| is T everywhere: the residual its two
    pivots leave (rank 2 in exact arithmetic) measured up to 0.82 eps (1 +
    T spread), for T from 1 to 1e6 on random, cycle, hypercube, complete
    and lattice chains, so at T spread ~ 1e3 it passes CHI_TRACE_TOL. The
    smooth rules' phi' decays and their entries are closer."""
    return np.finfo(np.float64).eps * (1.0 + 2.0 * rule.T * (values[-1] - values[0]))


def _spectral_square_sum(V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """sum_m (V diag(W[m]) V^T)**2 (entrywise square) over the rows of W,
    one N x N x N product each."""
    acc = np.zeros((V.shape[0], V.shape[0]))
    for weights in W:
        term = (V * weights) @ V.T
        term *= term
        acc += term
    return acc


def _fourier_square_sum(walk: CTWalk, LT: np.ndarray | None) -> np.ndarray:
    """Column 0 of the same sum on a lattice walk: term m is the
    convolution whose column 0 is a_m = ifftn(L[owner(k), m]) over the
    wave vectors k, and the column is sum_m a_m**2. L[owner(k), m] is real
    and even in k, so its transform is real and irfftn forms it from half
    the grid, FOURIER_BATCH_ENTRIES // N terms per call. LT None stands
    for the identity, one indicator term per cluster, formed a batch at a
    time."""
    n, d = walk.base.lattice
    shape = (n,) * d
    owner = np.empty(walk.size, dtype=np.intp)
    owner[walk.grid_index] = _owners(walk)
    half = owner.reshape(shape)[..., : n // 2 + 1]
    r = len(walk.cluster_starts) if LT is None else len(LT)
    batch = max(1, FOURIER_BATCH_ENTRIES // walk.size)
    acc = np.zeros(walk.size)
    for start in range(0, r, batch):
        stop = min(start + batch, r)
        if LT is None:
            grids = (half == np.arange(start, stop).reshape((-1,) + (1,) * d)).astype(np.float64)
        else:
            grids = LT[start:stop][:, half]
        a = np.fft.irfftn(grids, s=shape, axes=tuple(range(1, d + 1))).reshape(stop - start, -1)
        a *= a
        acc += a.sum(axis=0)
    return acc


def _owners(walk: CTWalk) -> np.ndarray:
    """owner[j], the cluster of eigenvalue j."""
    return np.repeat(np.arange(len(walk.cluster_starts)), walk.cluster_counts)


def _generated_ct(walk: CTWalk, rule: MeasurementRule) -> GeneratedChain:
    LT = _chi_factor(walk, rule)
    if walk.grid_index is None:
        acc = _spectral_square_sum(walk.eigenvectors, LT[:, _owners(walk)])
    else:
        acc = _fourier_square_sum(walk, LT)
    label = f"generated({walk.base.label},{rule.family},T={rule.T:g})"
    chain = _generated_markov_chain(acc, True, 0.0, "ct generated chain", label, walk.base.lattice)
    return GeneratedChain(chain)


def _generated_dt(walk: DTWalk, rule: MeasurementRule) -> GeneratedChain:
    trunc = _truncation_error(rule)
    if walk._szegedy_spectrum is not None and _szegedy_rounding(walk) <= GENERATED_TOL:
        col = _szegedy_sum(walk, rule)
    else:
        times, weights, _ = rule_weights(rule)
        w = np.zeros(int(times[-1]) + 1)  # rule_weights gives ascending times
        w[times] = weights
        col = _stepped_sum(walk, w) if walk.lattice is None else _lattice_column(walk, w)
    label = f"generated({walk.base_label},{rule.family},T={rule.T:g})"
    chain = _generated_markov_chain(
        col, walk.base_symmetric, trunc, "dt generated chain", label, walk.lattice
    )
    return GeneratedChain(chain)


def _stepped_sum(walk: DTWalk, w: np.ndarray) -> np.ndarray:
    """sum_t w[t] |psi_t|^2 with the position register summed, as an
    N x N array, stepping the start states, one column each, one time
    after another."""
    N = walk.base_size
    starts = np.arange(N)
    psi = np.zeros((walk.dim, N), dtype=walk.embed.dtype)
    psi.reshape(N, walk.register_dim, N)[starts, :, starts] = walk.embed
    acc = np.zeros(psi.shape)
    for t, wt in enumerate(w):
        if t:
            psi = walk.step(psi)
        acc += wt * (psi.real**2 + psi.imag**2)
    return acc.reshape(N, walk.register_dim, N).sum(axis=1)


def _szegedy_sum(walk: DTWalk, rule: MeasurementRule) -> np.ndarray:
    """sum_t w[t] G_t, the measured chains of a Szegedy walk over the
    rule's support, from the discriminant's eigenbasis D = Q diag(lam)
    Q^T, with no walk state, no per-time matrix and no sum over times.

    The walk is U = ref_A ref_B, the reflections about A|x> = |x, p_x> and
    B|x> = S A|x>, and D = A^T B. On the span of A v and B v, v an
    eigenvector of D with lam = cos theta, U rotates by 2 theta (Szegedy's
    spectral lemma), so U^t A = A (X - Y) + B B_t with X = Q diag(a) Q^T,
    B_t = Q diag(b) Q^T, Y = D B_t, a = cos 2t theta and b = -sin 2t theta
    / sin theta. Measuring the position of A alpha + B beta at y gives
    alpha_y^2 + (P beta^2)_y + 2 alpha_y (D beta)_y, with P = (embed o
    embed)^T the base chain, so G_t = X o X - Y o Y + P (B_t o B_t). A
    direction with |lam| within DISCRIMINANT_TOL of 1 is static, A v = +-B
    v: there a = 1 and b = 0.

    Each weighted sum is a square sum over a kernel on the directions, as
    a continuous-time chain is over chi: with p[j] = Q[y, j] Q[x, j],
    sum_t w[t] X[y, x]^2 = p^T Ka p for Ka = sum_t w[t] a a^T, and Y's
    kernel is diag(lam) Kb diag(lam) for Kb = sum_t w[t] b b^T, both
    formed from the rule's characteristic function (_szegedy_kernels).
    Their pivoted Cholesky factors Ka ~ La La^T and Kb ~ Lb Lb^T give the
    chain as three square sums over the eigenbasis, of La, Lb diag(lam)
    and Lb, with P multiplying the third: O(N^3) per pivot, whatever the
    rule's support."""
    lam, Q, _ = walk._szegedy_spectrum
    # rows for columns: Ka and Kb are symmetric
    La, Lb = (
        _pivoted_cholesky(K.__getitem__, K.diagonal(), rounding, "Szegedy kernel")
        for K, rounding in _szegedy_kernels(walk, rule)
    )
    P = (walk.embed * walk.embed).T
    return (
        _spectral_square_sum(Q, La)
        - _spectral_square_sum(Q, Lb * lam)
        + P @ _spectral_square_sum(Q, Lb)
    )


def _szegedy_kernels(walk: DTWalk, rule: MeasurementRule) -> tuple[tuple[np.ndarray, float], ...]:
    """((Ka, rounding), (Kb, rounding)): the N x N kernels sum_t w[t] a
    a^T and sum_t w[t] b b^T of _szegedy_sum, each with a bound on the
    rounding of its diagonal, the pivots' stop.

    By cos x cos y = (cos(x - y) + cos(x + y)) / 2 and sin x sin y =
    (cos(x - y) - cos(x + y)) / 2, the rule's weights sum to values of
    its characteristic function phi at 2 (theta_j -+ theta_k):
    Ka[j, k] = Re (phi(2 (theta_j - theta_k)) + phi(2 (theta_j +
    theta_k))) / 2 and Kb[j, k] = Re (phi(2 (theta_j - theta_k)) -
    phi(2 (theta_j + theta_k))) / (2 sin theta_j sin theta_k). A static
    direction takes theta = 0, so its row and column of Kb are 0.

    Rounding: phi's argument, up to 4 theta_max, rounds by eps times
    itself, and |phi'| <= E t <= T for every discrete family (T for delta,
    (T - 1) / 2 for uniform_dt, below T - 1 for the truncated geometric),
    as _chi_rounding argues for the continuous ones; phi's value rounds by
    about eps more. So Ka's entries are off by about eps (1 + 4 T
    theta_max), and Kb's diagonal by eps (1 + 4 T theta_j) / sin^2
    theta_j, taken at its largest over the moving directions. The pivots
    stop at these. A sum over the L measured times rounds by about L eps
    max b^2, with max b^2 <= 1 / min sin^2 theta: the same size for delta
    and uniform_dt, up to the factor 4 theta <= 4 pi."""
    theta = walk._szegedy_spectrum[2]
    inv_sin = np.zeros(theta.size)
    np.divide(1.0, np.sin(theta), out=inv_sin, where=theta > 0.0)
    two = 2.0 * theta
    angles = (np.subtract.outer(two, two), np.add.outer(two, two))
    minus, plus = characteristic_function(rule, angles).real
    Ka = 0.5 * (minus + plus)
    Kb = (minus - plus) * np.multiply.outer(0.5 * inv_sin, inv_sin)
    eps = np.finfo(np.float64).eps
    growth = 1.0 + 4.0 * rule.T * theta
    return (Ka, eps * growth.max()), (Kb, eps * (growth * inv_sin * inv_sin).max())


def _szegedy_rounding(walk: DTWalk) -> float:
    """A bound, up to a small constant, on the rounding of _szegedy_sum's
    entries. Over the moving directions |b| <= 1 / sin theta, so b^2 <= 1
    / (1 - lam^2), and Kb's entries are at most max b^2; the entries of
    its three square sums, each a sum of N products over the orthogonal
    Q, are up to max b^2 in size and cancel to entries of at most 1. So an
    entry is off by about N eps / min(1 - lam^2). A walk with a moving
    direction that near +-1 steps its start states instead."""
    lam, _, theta = walk._szegedy_spectrum
    lam = lam[theta > 0.0]
    if not lam.size:
        return 0.0
    return walk.base_size * np.finfo(np.float64).eps / (1.0 - lam * lam).min()


def _giant_steps(walk: DTWalk, t_end: int) -> int:
    """J, the number of giant steps for a lattice walk's chain: about
    sqrt(t_end), so that J + L ~ 2 sqrt(t_end) rounds cover the support,
    and at most what fits STEP_BATCH_ENTRIES complex entries. The blocks
    take up to nine stacks of N r^2 complex entries (the walk's, and four
    real 2r x 2r stacks while matrix_power squares), and the J s giant
    columns up to three stacks of dim complex entries each (in momentum
    space and through the inverse fft).

    J = 1, stepping the s start columns through every time with no
    transform, unless the giant steps take fewer rounds, counted in steps
    of the start columns: the J + L rounds, a product each for the log2 L
    squarings and the log2 J doublings of the blocks' power, and log2 N
    for each of the J giant states, which stands for their inverse
    transform over the N momenta and for the J times wider stack each baby
    round steps. The count is of numpy rounds, not arithmetic, so it
    misplaces the break-even at both ends (one BLAS thread, the momentum
    blocks' cost included): giant steps won from t_end about 40-50 on
    grover_lattice(m, 1), m = 16..64, where the count switches at 64-75,
    about 64-75 on hadamard_cycle(128) (count 92) and about 60 on
    grover_lattice(8, 2) (count 75); a walk whose arithmetic outweighs its
    numpy calls breaks even later than the count says, hadamard_cycle(512)
    near 200 and grover_lattice(4, 3) near 110 (counts 92 and 75)."""
    rows = walk._row_starts.size
    free = STEP_BATCH_ENTRIES - 9 * walk.dim * walk.register_dim
    J = max(1, min(math.isqrt(t_end), free // (3 * rows)))
    L = -(-t_end // J)
    giant = J + L + L.bit_length() + J.bit_length() + J * math.log2(walk.base_size)
    return J if giant < t_end else 1


def _lattice_column(walk: DTWalk, w: np.ndarray) -> np.ndarray:
    """Column 0 of a lattice walk's chain in about J + L rounds, J =
    _giant_steps and L = ceil(t_end / J): the states at times 0, L, ...,
    (J - 1) L as columns (at J = 1, the start columns), each stepped L - 1
    times in position space, column j at step i measured with weight
    w[j L + i] (w zero-padded to J L). The stepped stacks are stored, B of
    them and the stack in STEP_BATCH_ENTRIES entries, and each full or
    final partial block is measured in one batched product.

    An entry the walk cannot reach is rounding in the column, not 0: the
    giant states' inverse transform leaves about 1e-32 at the wrong parity
    of a bipartite walk, and stepping a walk back to its start state
    (grover_lattice(3, 3) at t = 12) leaves 1e-33 beside it. Both are far
    below the one floor _generated_markov_chain applies to every chain, so
    the chain's support, period and reducibility do not depend on J."""
    J = _giant_steps(walk, w.size)
    L = -(-w.size // J)
    X = walk._row_starts if J == 1 else _giant_states(walk, J, L)
    wt = np.zeros(J * L)
    wt[: w.size] = w
    B = min(L, max(1, STEP_BATCH_ENTRIES // X.size - 1))
    states = np.empty((B,) + X.shape, dtype=X.dtype)
    parts = states.view(states.real.dtype).reshape(B, X.shape[0], -1)
    # a giant state's s columns are adjacent, so weight wt[j L + i] covers
    # its q real parts in stack i: stack i's squared parts @ weights[i]
    # sums it, and matmul does so for every stack of the block at once
    q = parts.shape[2] // J
    weights = np.repeat(wt.reshape(J, L).T, q, axis=1)[:, :, None]
    acc = np.zeros((X.shape[0], 1))
    for i0 in range(0, L, B):
        m = min(B, L - i0)
        for i in range(m):
            if i0 + i:
                X = walk._step_rows(X)
            states[i] = X
        block = parts[:m]
        block *= block
        acc += np.matmul(block, weights[i0 : i0 + m]).sum(axis=0)
    return acc.reshape(walk.register_dim, walk.base_size).sum(axis=0)


def _giant_states(walk: DTWalk, J: int, L: int) -> np.ndarray:
    """The states at times 0, L, ..., (J - 1) L of each start column of a
    lattice walk, as the C-ordered (dim, J s) stack in _step_rows' layout
    whose column j s + p is start column p at time j L.

    The start state is base 0 (x) embed[0], whose transform is embed[0] at
    every momentum. There the blocks' power U^L takes the states known so
    far, j < m, to j + m, and squaring it doubles m; one batched inverse
    fft then gives the states. In momentum space the states are rows,
    multiplied from the left by the transposed blocks, and the complex
    blocks act on the rows' real and imaginary parts, interleaved, as real
    2r x 2r blocks (each entry x + iy a block [[x, -y], [y, x]]), since
    numpy multiplies stacks of small real matrices several times faster
    than complex ones, and the real rows are then viewed as complex ones.
    On a real walk each start column, embed[0]'s real or imaginary part,
    stays real: its states' imaginary parts are rounding residue, refused
    above UNITARITY_TOL and then dropped."""
    n, d = walk.lattice
    N, r = walk.base_size, walk.register_dim
    starts = walk._row_starts
    s = starts.shape[1]
    blocks = walk._momentum_blocks
    # the transposed real blocks, as the rows are multiplied from the left
    power = np.empty((N, r, 2, r, 2))
    power[:, :, 0, :, 0] = power[:, :, 1, :, 1] = blocks.real.transpose(0, 2, 1)
    power[:, :, 0, :, 1] = blocks.imag.transpose(0, 2, 1)
    power[:, :, 1, :, 0] = -blocks.imag.transpose(0, 2, 1)
    power = np.linalg.matrix_power(power.reshape(N, 2 * r, 2 * r), L)
    rows = np.empty((N, J * s, r), dtype=np.complex128)
    rows[:, :s] = starts[::N].T
    parts = rows.view(np.float64)
    m = 1
    while m < J:
        k = min(m, J - m)
        np.matmul(parts[:, : k * s], power, out=parts[:, m * s : (m + k) * s])
        m += k
        if m < J:
            power = power @ power
    del power
    giant = rows.reshape((n,) * d + (J * s, r))
    for axis in range(d):
        giant = np.fft.ifft(giant, axis=axis)
    giant = giant.reshape(N, J * s, r).transpose(2, 0, 1)
    if walk._row_dtype.kind != "c":
        residue = np.abs(giant.imag).max()
        if residue > UNITARITY_TOL:
            raise ArithmeticError(f"real walk's giant-step states have imaginary part {residue}")
        giant = giant.real
    return np.ascontiguousarray(giant).reshape(walk.dim, J * s)


def generated_chain(walk: CTWalk | DTWalk, rule: MeasurementRule) -> GeneratedChain:
    """Evaluate P_hat[y, x] = E_t |<y| U^t |x>|^2 for a (walk, rule) pair."""
    if isinstance(walk, CTWalk):
        if rule.family not in CT_FAMILIES:
            raise RuleFamilyError(
                f"rule family {rule.family!r} pairs with discrete walks, not continuous time"
            )
        return _generated_ct(walk, rule)
    if isinstance(walk, DTWalk):
        if rule.family not in DT_FAMILIES:
            raise RuleFamilyError(
                f"rule family {rule.family!r} pairs with continuous walks, not discrete time"
            )
        return _generated_dt(walk, rule)
    raise TypeError(f"expected CTWalk or DTWalk, got {type(walk).__name__}")


def limit_chain(walk: CTWalk) -> MarkovChain:
    """Long-time limit of smooth-rule generated chains: the sum of the
    entrywise squares of the eigenvalue-cluster projectors (chi is the
    identity). On a lattice walk that is the Fourier sum, one term per
    cluster. Otherwise a singleton cluster's projector v v^T squares to
    (v o v)(v o v)^T, so with S = V_s o V_s over the singletons' columns
    V_s they add up to one product S S^T; each wider cluster keeps its
    own term."""
    if walk.grid_index is not None:
        Pi = _fourier_square_sum(walk, None)
    else:
        V = walk.eigenvectors
        starts, counts = walk.cluster_starts, walk.cluster_counts
        wide = counts > 1
        S = V[:, starts[~wide]] ** 2
        Pi = S @ S.T
        for a, b in zip(starts[wide].tolist(), (starts + counts)[wide].tolist()):
            Vc = V[:, a:b]
            term = Vc @ Vc.T
            term *= term
            Pi += term
    return _generated_markov_chain(
        Pi, True, 0.0, "limit chain", f"limit({walk.base.label})", walk.base.lattice
    )


def repeated_mixing_time(G: GeneratedChain, horizon: int | None = None) -> int | NoMix:
    """Smallest number of measure-and-restart rounds after which the
    composed chain is within 1/(2e) of uniform in worst-column TV, or
    NoMix(horizon); the horizon defaults to default_horizon(N)."""
    if not G.chain.is_symmetric:
        raise ValueError("repeated mixing targets uniform; needs a symmetric generated chain")
    return _threshold_time(G.chain, horizon)

