"""Classical Markov chain analytics.

Column-stochastic convention throughout: P[y, x] = Pr[x -> y], columns
sum to 1, P @ pi == pi, and the matrix 1-norm is the max absolute
column sum, so 0.5 * one_norm(P - Q) is a worst-column total-variation
distance.

A chain on Z_n^d that commutes with the translations says so in its
lattice field, (n, d). Its column 0 c then is the whole chain,
P[y, x] = c[y - x] (Levin, Peres & Wilmer, sections 12.3-12.4): such a
chain stores c, counted against the claimed limit, and forms its N x N
entries only when they are read, counted against the state cap. Its
eigenvalues are the Fourier transform fftn(c), one per wave vector; column
0 of P^t is the inverse transform of fftn(c)**t, which the mixing search
evaluates; and d(P) compares the translates of c with c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MIX_THRESHOLD, atomic_write_text, default_horizon
from .graphs import (
    Graph,
    _check_cap,
    breadth_first_levels,
    _check_lattice_size,
    lattice_annihilator,
    lattice_circulant,
    lattice_negation,
    lattice_span,
    lattice_sum,
)

COLUMN_SUM_TOL = 1e-10
ENTRY_CLAMP = 1e-14
SANDWICH_TOL = 1e-12
MONOTONE_TOL = 1e-9
REVERSIBILITY_TOL = 1e-10
# The Fourier spectrum of a symmetric column is real; an imaginary part
# above this is not rounding.
FOURIER_IMAG_TOL = 1e-12
CONDUCTANCE_MAX_STATES = 20


class ReducibleChainError(ValueError):
    """Chain support digraph is not strongly connected."""


class NonReversibleError(ValueError):
    """Detailed balance fails beyond tolerance."""


class InternalCheckError(AssertionError):
    """A mathematically guaranteed internal invariant failed."""


def one_norm(M: np.ndarray) -> float:
    """Maximum absolute column sum."""
    return float(np.abs(M).sum(axis=0).max())


def _checked_stochastic(P: np.ndarray) -> np.ndarray:
    """P (a square matrix or one column) with its rounding-level negative
    entries set to 0, after refusing a non-finite or negative entry and a
    column that does not sum to 1."""
    # a NaN fails every comparison, so it would pass both checks below
    if not np.isfinite(P).all():
        raise ValueError("entries must be finite")
    low = P.min()
    if low < -ENTRY_CLAMP:
        raise ValueError(f"negative entry {low} below clamp tolerance")
    P[P < 0] = 0.0
    colsums = P.sum(axis=0)
    err = np.abs(colsums - 1.0).max()
    if err > COLUMN_SUM_TOL:
        raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, off by {err}")
    return P


class MarkovChain:
    """Immutable column-stochastic matrix with cached spectral data.

    The constructor makes a chain without a lattice claim. A chain on
    Z_n^d that commutes with its translations is built by this package
    from its column 0 (_from_column): it carries lattice = (n, d) and the
    column, and forms entries on first read.
    """

    def __init__(self, entries: np.ndarray, label: str = "custom"):
        shape = np.shape(entries)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"entries must be square, got shape {shape}")
        _check_cap(shape[0])
        P = _checked_stochastic(np.array(entries, dtype=np.float64))
        P.setflags(write=False)
        self.entries = P
        self.column = None
        self.size = shape[0]
        self.label = label
        self.lattice = None

    @classmethod
    def _from_column(cls, column: np.ndarray, label: str, lattice: tuple[int, int]) -> MarkovChain:
        """The chain on Z_n^d whose column 0 is column, true to its claim
        by construction; entries are formed on first read."""
        _check_cap(column.size, claimed=True)
        _check_lattice_size(lattice, column.size, "states")
        c = _checked_stochastic(np.array(column, dtype=np.float64))
        c.setflags(write=False)
        self = cls.__new__(cls)
        self.column = c
        self.size = c.size
        self.label = label
        self.lattice = lattice
        return self

    @cached_property
    def entries(self) -> np.ndarray:
        """P[y, x] = column[y - x]; read only on a chain built from its
        column, and refused past the state cap before it is formed."""
        P = lattice_circulant(self.column, *self.lattice)
        P.setflags(write=False)
        return P

    @cached_property
    def is_symmetric(self) -> bool:
        if self.lattice is not None:  # P[x, y] = c[x - y] = c[-(y - x)]
            c = self.column
            return bool(np.abs(c - c[lattice_negation(*self.lattice)]).max() <= 1e-13)
        diff = self.entries - self.entries.T
        return bool(np.abs(diff, out=diff).max() <= 1e-13)  # one N x N temporary

    @cached_property
    def _support_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of the support arcs x -> y, one per P[y, x] > 0,
        of a chain without the lattice claim."""
        heads, tails = np.divmod(np.flatnonzero(self.entries > 0), self.size)
        return tails, heads

    @cached_property
    def _full_support(self) -> bool:
        """Every entry is positive, read off the column on a claimed chain:
        then every state steps to every state, so the chain is irreducible
        with period 1 and its N^2 support arcs need not be listed."""
        P = self.entries if self.lattice is None else self.column
        return bool(P.min() > 0.0)

    @cached_property
    def irreducibility_witness(self) -> tuple[int, int] | None:
        """None if irreducible, else a state pair (x, y) with no x->y path."""
        if self._full_support:
            return None
        if self.lattice is not None:
            # what 0 reaches is the group its steps generate, so all of it
            # reaches 0 as well
            reach = lattice_span(*self.lattice, self.column > 0)
            return None if reach.all() else (0, int(np.flatnonzero(~reach)[0]))
        tails, heads = self._support_arcs
        reach = breadth_first_levels(self.size, tails, heads) >= 0
        if not reach.all():
            return (0, int(np.nonzero(~reach)[0][0]))
        reach_to_0 = breadth_first_levels(self.size, heads, tails) >= 0
        if not reach_to_0.all():
            return (int(np.nonzero(~reach_to_0)[0][0]), 0)
        return None

    @cached_property
    def is_irreducible(self) -> bool:
        return self.irreducibility_witness is None

    @cached_property
    def period(self) -> int:
        """gcd of support-cycle lengths: of level[x] + 1 - level[y] over
        the support arcs x -> y, with breadth-first levels from state 0.

        On a lattice chain with steps S, take one step z0: the differences
        S - z0 generate a subgroup H, and S lies in z0 + H, so the chain
        returns to 0 only at the times t with t z0 in H, which are the
        multiples of the order of the cyclic G / H that z0 generates.
        The period is [G : H], the number of characters trivial on H, those
        constant on S: the annihilator of S - z0."""
        if not self.is_irreducible:
            raise ReducibleChainError(f"chain {self.label!r} is reducible")
        if self._full_support:
            return 1
        if self.lattice is not None:
            steps = self.column > 0
            shifted = steps[lattice_sum(*self.lattice, np.arange(self.size), int(steps.argmax()))]
            return int(np.count_nonzero(lattice_annihilator(*self.lattice, shifted)))
        tails, heads = self._support_arcs
        level = breadth_first_levels(self.size, tails, heads)
        return int(np.gcd.reduce(level[tails] + 1 - level[heads]))

    @cached_property
    def stationary(self) -> np.ndarray:
        return stationary_distribution(self)


def stationary_distribution(P: MarkovChain) -> np.ndarray:
    """Unique fixed point of an irreducible chain; exactly uniform for
    symmetric chains."""
    if P.is_symmetric:
        pi = np.full(P.size, 1.0 / P.size)
        pi.setflags(write=False)
        return pi
    witness = P.irreducibility_witness
    if witness is not None:
        raise ReducibleChainError(
            f"chain {P.label!r} is reducible: no path from state {witness[0]} to {witness[1]}"
        )
    A = P.entries - np.eye(P.size)
    A[-1, :] = 1.0
    b = np.zeros(P.size)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    resid = np.abs(P.entries @ pi - pi).sum()
    if resid > 1e-10 or pi.min() <= 0:
        raise InternalCheckError(f"stationary solve failed: residual {resid}, min {pi.min()}")
    pi.setflags(write=False)
    return pi


def symmetrized_generator(P: MarkovChain) -> np.ndarray:
    """Similarity transform of P by diag(sqrt(pi)) that is symmetric
    exactly when P is reversible: H[y, x] = P[y, x] * sqrt(pi_x / pi_y)."""
    pi = P.stationary
    s = np.sqrt(pi)
    H = P.entries * (s[None, :] / s[:, None])
    asym = np.abs(H - H.T).max()
    if asym > REVERSIBILITY_TOL:
        idx = np.unravel_index(np.argmax(np.abs(H - H.T)), H.shape)
        raise NonReversibleError(
            f"chain {P.label!r} is not reversible: symmetrized asymmetry {asym:.3e} at {idx}"
        )
    return 0.5 * (H + H.T)


def fourier_spectrum(P: MarkovChain) -> np.ndarray:
    """Eigenvalues of a lattice chain, one per wave vector k of Z_n^d,
    flat in the graphs layout (k = 0 first): fftn of column 0, symmetrized
    as symmetrized_generator symmetrizes H. The stationary law is uniform,
    so a chain that is not symmetric is not reversible."""
    n, d = P.lattice
    c = P.column
    flipped = c[lattice_negation(n, d)]
    asym = np.abs(c - flipped).max()
    if asym > REVERSIBILITY_TOL:
        raise NonReversibleError(
            f"chain {P.label!r} is not reversible: column 0 asymmetry {asym:.3e} "
            f"at state {int(np.argmax(np.abs(c - flipped)))}"
        )
    lam = np.fft.fftn((0.5 * (c + flipped)).reshape((n,) * d)).ravel()
    imag = np.abs(lam.imag).max()
    if imag > FOURIER_IMAG_TOL:
        raise InternalCheckError(f"spectrum of a symmetric column has imaginary part {imag}")
    return lam.real


def _deflated_spectrum(P: MarkovChain) -> np.ndarray:
    """Eigenvalues of the symmetrized chain with sqrt(pi) deflated (its 1 becomes 0)."""
    if P.lattice is not None:
        mu = fourier_spectrum(P)
        mu[0] = 0.0  # k = 0 carries the uniform eigenvector
        return mu
    H = symmetrized_generator(P)
    s = np.sqrt(P.stationary)
    return np.linalg.eigvalsh(H - np.outer(s, s))


def _absolute_gap(mu: np.ndarray) -> float:
    return float(min(1.0, max(0.0, 1.0 - float(np.abs(mu).max()))))


def spectral_gap(P: MarkovChain) -> float:
    """1 minus the largest non-top singular value of the symmetrized
    chain; 0 for periodic or reducible chains."""
    return _absolute_gap(_deflated_spectrum(P))


def pairwise_column_distance(P: MarkovChain) -> float:
    """d(P): max over column pairs of the total-variation distance.

    A lattice chain's column x is c[. - x], c its column 0, and every
    column pair is a translate of (c, column x). As |a - b| =
    a + b - 2 min(a, b), TV(c, c[. - x]) = S(0) - S(x) with
    S(x) = sum_y min(c[y], c[y - x]), so d(P) = S(0) - min_x S(x). Only
    pairs y, y - x in the support of c add to S: it is their weighted
    count binned by the difference, a chunk of y at a time, and no N x N
    array is formed.
    """
    n = P.size
    if P.lattice is not None:
        c = P.column
        support = np.flatnonzero(c)
        S = np.zeros(n)
        rows = max(1, 250_000 // support.size)  # pairs per chunk, about 2 MiB an array
        for start in range(0, support.size, rows):
            y = support[start : start + rows, None]
            weights = np.minimum(c[y], c[support])
            S += np.bincount(lattice_sum(*P.lattice, y, support, -1).ravel(), weights.ravel(), minlength=n)
        return float(S[0] - S.min())
    # each unordered column pair once: a few columns against blocks of the
    # columns from theirs on, every sum down whole columns, and at most
    # 65,536 differences (512 KiB, in cache) at a time while N <= 65,536
    M = P.entries
    best = 0.0
    wide = max(1, min(n, 65_536 // n))
    few = max(1, 65_536 // (n * wide))
    for start in range(0, n, few):
        for other in range(start, n, wide):
            diffs = M[:, start : start + few, None] - M[:, None, other : other + wide]
            np.abs(diffs, out=diffs)
            best = max(best, 0.5 * float(diffs.sum(axis=0).max()))
    return best


@dataclass(frozen=True)
class NoMix:
    """Threshold not reached within the searched horizon."""

    horizon: int


def _threshold_time(P: MarkovChain, horizon: int | None = None) -> int | NoMix:
    """Smallest t <= horizon with worst-column TV(P^t, pi) <= 1/(2e), or
    NoMix(horizon). The horizon defaults to default_horizon(N) and must be
    at least 1; every mixing time searches through here.

    The search (_first_crossing) doubles and then bisects over t, so it
    forms about 2 log2(t) powers, not t. An unclaimed chain's powers are
    its dense N x N matrices, squared while doubling; the search keeps at
    most ceil(log2 t) + 3 N x N arrays, with t the result or, for NoMix,
    the horizon. A lattice chain's stationary law is uniform and the
    columns of P^t are translates of its column 0, irfftn(rfftn(c)**t), so
    its powers are the half Fourier grids of P^t and each evaluated t
    costs one inverse transform.
    """
    if horizon is None:
        horizon = default_horizon(P.size)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if P.lattice is not None:
        n, d = P.lattice
        shape, axes = (n,) * d, tuple(range(d))
        uniform = P.stationary

        def column_distance(F: np.ndarray) -> float:
            return 0.5 * float(np.abs(np.fft.irfftn(F, s=shape, axes=axes).ravel() - uniform).sum())

        f = np.fft.rfftn(P.column.reshape(shape))
        return _first_crossing(f, np.multiply, column_distance, horizon)
    target = P.stationary[:, None]
    scratch = np.empty((P.size, P.size))

    def worst_column_distance(M: np.ndarray) -> float:
        np.subtract(M, target, out=scratch)
        np.abs(scratch, out=scratch)
        return 0.5 * float(scratch.sum(axis=0).max())

    return _first_crossing(P.entries, np.matmul, worst_column_distance, horizon)


def _first_crossing(step, mul, distance, horizon: int) -> int | NoMix:
    """Smallest t in 1..horizon with distance(P^t) <= MIX_THRESHOLD, or
    NoMix(horizon), for a distance that is nonincreasing in t.

    step is P^1 and mul(A, B) is P^(a + b) for A = P^a and B = P^b. The
    search doubles t = 1, 2, 4, ... (the last point capped at the
    horizon) until the distance crosses, keeping the squares P^(2^i); it
    then bisects between the last two points, where each point lo + 2^i
    costs one product of P^lo with a kept square.

    Worst-column TV to the stationary law is nonincreasing for a
    time-homogeneous chain (Levin, Peres & Wilmer, ch. 4), which the
    bisection relies on. Among the evaluated points, sorted by t, a
    distance above an earlier one by more than MONOTONE_TOL is an internal
    error; the steps the search skips are not evaluated, so not checked.
    """
    seen: dict[int, float] = {}

    def mixed(t: int, power) -> bool:
        seen[t] = distance(power)
        return seen[t] <= MIX_THRESHOLD

    squares = [step]  # squares[i] = P^(2^i); the last one is P^lo
    lo, hi = 1, (1 if mixed(1, step) else None)
    while hi is None and 2 * lo <= horizon:
        squares.append(mul(squares[-1], squares[-1]))
        if mixed(2 * lo, squares[-1]):
            hi = 2 * lo
            squares.pop()
        else:
            lo *= 2
    if hi is None and lo < horizon:
        power, rest = squares[-1], horizon - lo
        for i in range(rest.bit_length()):
            if rest >> i & 1:
                power = mul(power, squares[i])
        if mixed(horizon, power):
            hi = horizon
    if hi is not None:
        power = squares.pop()
        while squares:
            square = squares.pop()
            t = lo + (1 << len(squares))
            if t < hi:
                candidate = mul(power, square)
                if mixed(t, candidate):
                    hi = t
                else:
                    lo, power = t, candidate

    low, low_t = math.inf, 0
    for t in sorted(seen):
        if seen[t] > low + MONOTONE_TOL:
            raise InternalCheckError(
                f"TV distance increased from {low} at step {low_t} to {seen[t]} at step {t}"
            )
        if seen[t] < low:
            low, low_t = seen[t], t
    return NoMix(horizon) if hi is None else hi


def mixing_time(P: MarkovChain, horizon: int | None = None) -> int | NoMix:
    """Threshold mixing time at 1/(2e), or NoMix(horizon)."""
    witness = P.irreducibility_witness
    if witness is not None:
        raise ReducibleChainError(
            f"chain {P.label!r} is reducible: no path from state {witness[0]} to {witness[1]}"
        )
    return _threshold_time(P, horizon)


def mixing_time_bound_from_distance(alpha: float) -> int:
    """ceil(log base 1/alpha of 2e): steps to push a column gap of alpha
    below the mixing threshold."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    return int(math.ceil(math.log(2.0 * math.e) / math.log(1.0 / alpha)))


def conductance(P: MarkovChain) -> float:
    """Worst cut-flow to cut-mass ratio over subsets with pi(S) <= 1/2,
    with flow Q(S, S-bar) summing Q(x, y) = pi_x * P[y, x].

    Exact subset enumeration over proper subsets, so 2 <= N <= 20.
    """
    n = P.size
    if n > CONDUCTANCE_MAX_STATES:
        raise ValueError(f"conductance enumerates subsets exactly; N={n} exceeds {CONDUCTANCE_MAX_STATES}")
    if n < 2:
        raise ValueError(f"conductance needs a proper nonempty subset; N={n} has none")
    if not P.is_irreducible:
        raise ReducibleChainError(f"chain {P.label!r} is reducible")
    pi = P.stationary
    Q = pi[:, None] * P.entries.T  # Q[x, y] = pi_x * P[y, x]
    rowsum = Q.sum(axis=1)
    best = math.inf
    n_masks = 1 << n
    chunk = 1 << 16
    bits = np.arange(n)
    for start in range(1, n_masks - 1, chunk):
        masks = np.arange(start, min(start + chunk, n_masks - 1), dtype=np.int64)
        member = ((masks[:, None] >> bits[None, :]) & 1).astype(np.float64)
        mass = member @ pi
        valid = mass <= 0.5 + 1e-12
        if not valid.any():
            continue
        member = member[valid]
        mass = mass[valid]
        internal = ((member @ Q) * member).sum(axis=1)
        flow = member @ rowsum - internal
        ratios = flow / mass
        best = min(best, float(ratios.min()))
    return best


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    holds: bool
    conclusive: bool = True


@dataclass(frozen=True)
class MixingReport:
    tau_mix: int | NoMix
    delta: float
    d_of_P: float
    phi: float | None
    bound_checks: tuple[BoundCheck, ...]

    def all_hold(self) -> bool:
        return all(c.holds for c in self.bound_checks if c.conclusive)


def verify_inequalities(P: MarkovChain, horizon: int | None = None) -> MixingReport:
    """Audit the relaxation-time bounds, the conductance sandwich (for
    2 <= N <= 20), and the column-distance sandwich from one spectrum (an
    eigensolve, or a lattice chain's Fourier transform).

    The relaxation checks reported are the discrete-time sandwich
    log(1/(2*eps)) / log(1/(1 - delta)) <= tau_mix and
    tau_mix <= (1/delta) * (1 + 0.5*ln(1/pi_min)), with eps the mixing
    threshold, so log(1/(2*eps)) = 1. The lower side is Levin, Peres &
    Wilmer, "Markov Chains and Mixing Times", ch. 12: every non-top
    eigenvalue obeys |lambda|^t <= 2 d(t), so lambda*^tau <= 2*eps. It
    implies the shifted form 1/delta - 1 <= tau_mix; the unshifted
    1/delta <= tau_mix is the continuous-time statement and fails in
    discrete time (complete graphs with N >= 6 mix in one step). When the
    chain fails to mix within the horizon, each side is kept only if the
    horizon already decides it; otherwise the check is flagged
    inconclusive.

    Cheeger's phi^2/2 <= 1 - lambda_2 (ibid., ch. 13) bounds the signed
    gap, positive on bipartite chains whose absolute gap delta is 0; it is
    checked against min(1, 1 - lambda_2), still a bound as phi <= 1, and
    delta <= 2*phi against the absolute gap.
    """
    mu = _deflated_spectrum(P)
    delta = _absolute_gap(mu)
    pi = P.stationary
    d = pairwise_column_distance(P)
    tau = mixing_time(P, horizon)
    checks: list[BoundCheck] = []

    inv_delta = math.inf if delta == 0.0 else 1.0 / delta
    if delta == 0.0:
        lower = math.inf
    elif delta == 1.0:  # lambda* = 0, where log1p(-1) would raise
        lower = 0.0
    else:
        lower = math.log(1.0 / (2.0 * MIX_THRESHOLD)) / -math.log1p(-delta)
    upper = inv_delta * (1.0 + 0.5 * math.log(1.0 / float(pi.min())))
    if isinstance(tau, NoMix):
        # tau exceeds the horizon, so each side is decided only when the
        # horizon itself separates the two quantities.
        horizon = tau.horizon
        lower_holds = lower <= horizon + SANDWICH_TOL
        checks.append(
            BoundCheck("relaxation_lower", lower, float(horizon), lower_holds, lower_holds)
        )
        upper_holds = horizon <= upper + SANDWICH_TOL
        checks.append(
            BoundCheck("relaxation_upper", float(horizon), upper, upper_holds, not upper_holds)
        )
    else:
        checks.append(
            BoundCheck("relaxation_lower", lower, float(tau), lower <= tau + SANDWICH_TOL)
        )
        checks.append(
            BoundCheck("relaxation_upper", float(tau), upper, tau <= upper + SANDWICH_TOL)
        )

    phi = None
    if 2 <= P.size <= CONDUCTANCE_MAX_STATES:
        phi = conductance(P)
        signed_gap = 1.0 - float(mu.max())
        checks.append(
            BoundCheck("conductance_lower", 0.5 * phi * phi, signed_gap, 0.5 * phi * phi <= signed_gap + SANDWICH_TOL)
        )
        checks.append(
            BoundCheck("conductance_upper", delta, 2.0 * phi, delta <= 2.0 * phi + SANDWICH_TOL)
        )

    if P.lattice is not None:  # every column is a translate of column 0
        tv = 0.5 * float(np.abs(P.column - pi).sum())
    else:
        tv = 0.5 * one_norm(P.entries - pi[:, None])
    checks.append(BoundCheck("column_distance_lower", tv, d, tv <= d + SANDWICH_TOL))
    checks.append(BoundCheck("column_distance_upper", d, 2.0 * tv, d <= 2.0 * tv + SANDWICH_TOL))
    return MixingReport(tau, delta, d, phi, tuple(checks))


def standard_chain(G: Graph) -> MarkovChain:
    """Simple-random-walk chain of a graph: column x holds 1/deg(x) at
    each neighbor of x. A claimed graph's chain is built from its steps."""
    deg = G.degrees() if G.lattice is None else G.steps.size
    if np.any(deg == 0):
        raise ValueError(f"graph {G.kind_tag} has an isolated vertex")
    if not G.is_connected():
        raise ValueError(f"graph {G.kind_tag} is disconnected")
    if G.lattice is not None:
        column = np.zeros(G.n)
        column[G.steps] = 1.0 / deg
        return MarkovChain._from_column(column, f"P({G.kind_tag})", G.lattice)
    P = G.adjacency_matrix()
    P /= deg
    return MarkovChain(P, f"P({G.kind_tag})")


def lazy_chain(P: MarkovChain, hold: float = 0.5) -> MarkovChain:
    """Mix in a holding probability: hold*I + (1-hold)*P."""
    if not (0.0 < hold < 1.0):
        raise ValueError(f"hold must lie in (0,1), got {hold}")
    if P.lattice is not None:
        c = (1.0 - hold) * P.column
        c[0] = hold + c[0]
        return MarkovChain._from_column(c, f"lazy({P.label})", P.lattice)
    M = hold * np.eye(P.size) + (1.0 - hold) * P.entries
    return MarkovChain(M, f"lazy({P.label})")


def uniform_projector_chain(n: int) -> MarkovChain:
    """The rank-one chain u 1^T whose every column is uniform."""
    _check_cap(n)
    return MarkovChain(np.full((n, n), 1.0 / n), f"uniform({n})")


def random_symmetric_chain(n: int, rng: np.random.Generator) -> MarkovChain:
    """Random symmetric doubly stochastic chain: symmetrize a uniform
    random matrix M, then scale rows/columns symmetrically to sum 1.

    The scaled matrix is diag(x) M diag(x), whose column sums are
    x * (M x); each step takes x to sqrt(x / (M x)), one mat-vec, and the
    matrix is formed once at the end."""
    _check_cap(n)
    A = rng.uniform(0.0, 1.0, size=(n, n))
    M = 0.5 * (A + A.T)
    x = np.ones(n)
    Mx = M @ x
    for _ in range(10_000):
        x = np.sqrt(x / Mx)
        Mx = M @ x
        if np.abs(x * Mx - 1.0).max() < 1e-14:
            break
    M *= x
    M *= x[:, None]
    M = 0.5 * (M + M.T)
    return MarkovChain(M, f"random_symmetric({n})")


CSV_HEADER_PREFIX = "# column-stochastic N="


def save_csv(P: MarkovChain, path: str) -> None:
    """Dense row-major CSV with a convention header; 17 significant
    digits round-trip float64 exactly."""
    lines = [f"{CSV_HEADER_PREFIX}{P.size}"]
    for row in P.entries:
        lines.append(",".join(f"{v:.17g}" for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")

