"""Classical Markov chain analytics.

Column-stochastic convention throughout: P[y, x] = Pr[x -> y], columns
sum to 1, P @ pi == pi, and the matrix 1-norm is the max absolute
column sum, so 0.5 * one_norm(P - Q) is a worst-column total-variation
distance.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import MIX_THRESHOLD, default_horizon
from .graphs import Graph, _check_cap, breadth_first_levels

COLUMN_SUM_TOL = 1e-10
ENTRY_CLAMP = 1e-14
SANDWICH_TOL = 1e-12
MONOTONE_TOL = 1e-9
REVERSIBILITY_TOL = 1e-10
CONDUCTANCE_MAX_STATES = 20


class ReducibleChainError(ValueError):
    """Chain support digraph is not strongly connected."""


class NonReversibleError(ValueError):
    """Detailed balance fails beyond tolerance."""


class HypothesisViolatedError(ValueError):
    """A stated precondition on the chain's entries does not hold."""


class InternalCheckError(AssertionError):
    """A mathematically guaranteed internal invariant failed."""


def one_norm(M: np.ndarray) -> float:
    """Maximum absolute column sum."""
    return float(np.abs(M).sum(axis=0).max())


class MarkovChain:
    """Immutable column-stochastic matrix with cached spectral data."""

    def __init__(self, entries: np.ndarray, label: str = "custom"):
        shape = np.shape(entries)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"entries must be square, got shape {shape}")
        _check_cap(shape[0])
        P = np.array(entries, dtype=np.float64)
        low = P.min()
        if low < -ENTRY_CLAMP:
            raise ValueError(f"negative entry {low} below clamp tolerance")
        P[P < 0] = 0.0
        colsums = P.sum(axis=0)
        err = np.abs(colsums - 1.0).max()
        if err > COLUMN_SUM_TOL:
            raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, off by {err}")
        P.setflags(write=False)
        self.entries = P
        self.label = label

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def is_symmetric(self) -> bool:
        return bool(np.abs(self.entries - self.entries.T).max() <= 1e-13)

    @cached_property
    def _support_arcs(self) -> tuple[np.ndarray, np.ndarray]:
        """(tails, heads) of the support arcs x -> y, one per P[y, x] > 0."""
        heads, tails = np.divmod(np.flatnonzero(self.entries > 0), self.size)
        return tails, heads

    @cached_property
    def irreducibility_witness(self) -> tuple[int, int] | None:
        """None if irreducible, else a state pair (x, y) with no x->y path."""
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
        the support arcs x -> y, with breadth-first levels from state 0."""
        if not self.is_irreducible:
            raise ReducibleChainError(f"chain {self.label!r} is reducible")
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


def _deflated_spectrum(P: MarkovChain) -> np.ndarray:
    """Eigenvalues of the symmetrized chain with sqrt(pi) deflated (its 1 becomes 0)."""
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
    """d(P): max over column pairs of the total-variation distance."""
    M = P.entries
    n = P.size
    best = 0.0
    # about 2 MiB of differences per chunk, made absolute in place
    chunk = max(1, min(n, 250_000 // max(1, n * n)))
    for start in range(0, n, chunk):
        diffs = M[:, start : start + chunk, None] - M[:, None, :]
        np.abs(diffs, out=diffs)
        best = max(best, 0.5 * float(diffs.sum(axis=0).max()))
    return best


@dataclass(frozen=True)
class NoMix:
    """Threshold not reached within the searched horizon."""

    horizon: int


def _threshold_time(M: np.ndarray, pi: np.ndarray, horizon: int | None = None) -> int | NoMix:
    """Smallest t <= horizon with worst-column TV(M^t, pi) <= 1/(2e), or
    NoMix(horizon). The horizon defaults to default_horizon(N) and must be
    at least 1; every mixing time searches through here.

    Worst-column TV to the stationary distribution is nonincreasing for
    time-homogeneous chains; violations beyond MONOTONE_TOL are internal
    errors, so the first crossing time is also a stable crossing.
    """
    if horizon is None:
        horizon = default_horizon(M.shape[0])
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    target = pi[:, None]
    power = M
    prev = math.inf
    for t in range(1, horizon + 1):
        dist = 0.5 * one_norm(power - target)
        if dist > prev + MONOTONE_TOL:
            raise InternalCheckError(
                f"TV distance increased from {prev} to {dist} at step {t}"
            )
        prev = dist
        if dist <= MIX_THRESHOLD:
            return t
        power = M @ power
    return NoMix(horizon)


def mixing_time(P: MarkovChain, horizon: int | None = None) -> int | NoMix:
    """Threshold mixing time at 1/(2e), or NoMix(horizon)."""
    witness = P.irreducibility_witness
    if witness is not None:
        raise ReducibleChainError(
            f"chain {P.label!r} is reducible: no path from state {witness[0]} to {witness[1]}"
        )
    return _threshold_time(P.entries, P.stationary, horizon)


def mixing_time_bound_from_distance(alpha: float) -> int:
    """ceil(log base 1/alpha of 2e): steps to push a column gap of alpha
    below the mixing threshold."""
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    return int(math.ceil(math.log(2.0 * math.e) / math.log(1.0 / alpha)))


def distance_bound_from_entries(P: MarkovChain, beta: float, gamma: float) -> float:
    """1 - gamma*(2*beta - 1), valid when every column has at least
    beta*N entries that are >= gamma/N."""
    if not beta > 0.5:
        raise ValueError(f"beta must exceed 1/2, got {beta}")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    n = P.size
    floor = gamma / n - 1e-15
    counts = (P.entries >= floor).sum(axis=0)
    bad = np.nonzero(counts < beta * n - 1e-12)[0]
    if bad.size:
        x = int(bad[0])
        raise HypothesisViolatedError(
            f"column {x} has only {int(counts[x])} entries >= gamma/N, needs {beta * n}"
        )
    bound = 1.0 - gamma * (2.0 * beta - 1.0)
    d = pairwise_column_distance(P)
    if d > bound + SANDWICH_TOL:
        raise InternalCheckError(f"entry bound {bound} below measured d(P)={d}")
    return bound


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
    2 <= N <= 20), and the column-distance sandwich from one eigensolve.

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

    tv = 0.5 * one_norm(P.entries - pi[:, None])
    checks.append(BoundCheck("column_distance_lower", tv, d, tv <= d + SANDWICH_TOL))
    checks.append(BoundCheck("column_distance_upper", d, 2.0 * tv, d <= 2.0 * tv + SANDWICH_TOL))
    return MixingReport(tau, delta, d, phi, tuple(checks))


def standard_chain(G: Graph) -> MarkovChain:
    """Simple-random-walk chain of a graph: column x holds 1/deg(x) at
    each neighbor of x."""
    deg = G.degrees()
    if (deg == 0).any():
        raise ValueError(f"graph {G.kind_tag} has an isolated vertex")
    if not G.is_connected():
        raise ValueError(f"graph {G.kind_tag} is disconnected")
    P = G.adjacency_matrix()
    P /= deg
    return MarkovChain(P, f"P({G.kind_tag})")


def lazy_chain(P: MarkovChain, hold: float = 0.5) -> MarkovChain:
    """Mix in a holding probability: hold*I + (1-hold)*P."""
    if not (0.0 < hold < 1.0):
        raise ValueError(f"hold must lie in (0,1), got {hold}")
    M = hold * np.eye(P.size) + (1.0 - hold) * P.entries
    return MarkovChain(M, f"lazy({P.label})")


def uniform_projector_chain(n: int) -> MarkovChain:
    """The rank-one chain u 1^T whose every column is uniform."""
    _check_cap(n)
    return MarkovChain(np.full((n, n), 1.0 / n), f"uniform({n})")


def random_symmetric_chain(n: int, rng: np.random.Generator) -> MarkovChain:
    """Random symmetric doubly stochastic chain: symmetrize a uniform
    random matrix, then scale rows/columns symmetrically to sum 1."""
    _check_cap(n)
    A = rng.uniform(0.0, 1.0, size=(n, n))
    M = 0.5 * (A + A.T)
    for _ in range(10_000):
        r = M.sum(axis=0)
        M = M / np.sqrt(np.outer(r, r))
        if np.abs(M.sum(axis=0) - 1.0).max() < 1e-14:
            break
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


def atomic_write_text(path: str, text: str) -> None:
    """Write UTF-8 text to path through a temporary file that is unique per
    writer and sits in the same directory. Mode "x" creates it exclusively,
    as mkstemp does, but with the umask's mode rather than mkstemp's 0o600,
    which would need the umask, and that is read only by setting it."""
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_csv(path: str, label: str | None = None) -> MarkovChain:
    """Read a chain written by save_csv; the state cap is checked on the
    header's N before any row is read."""
    with open(path, "r", encoding="ascii") as fh:
        lines = (ln.strip() for ln in fh)
        header = next((ln for ln in lines if ln), "")
        if not header.startswith(CSV_HEADER_PREFIX):
            raise ValueError(f"missing {CSV_HEADER_PREFIX!r} header in {path}")
        n = int(header[len(CSV_HEADER_PREFIX):])
        _check_cap(n)
        rows = [ln for ln in lines if ln]
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, found {len(rows)}")
    M = np.vstack([np.array([float(v) for v in ln.split(",")]) for ln in rows])
    if M.shape != (n, n):
        raise ValueError(f"expected {n}x{n} matrix, got {M.shape}")
    return MarkovChain(M, label or path)
