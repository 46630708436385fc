"""Random-time measurement of a quantum walk and the classical chains
it generates.

A measurement rule is a distribution over the measurement time t. The
generated chain entry is P_hat[y, x] = E_t |<y| U^t |x>|^2 (position
register only for discrete walks). Discrete walks are evaluated by
explicit, possibly truncated, time sums. A walk that declares a lattice
(n, d) commutes with the translations of Z_n^d, so only base state 0 is
stepped and the chain is expanded from its column 0 through
graphs.lattice_difference; other walks step every embedded start state.

Continuous-time chains are evaluated in closed form through the rule's
characteristic function phi. With cluster values v_c, cluster
projectors P_c and chi[c, c'] = Re phi(v_c - v_c'), each entry is
P_hat[y, x] = p^T chi p with p[c] = P_c[y, x]. One eigendecomposition
chi = Q diag(mu) Q^T turns this into
P_hat = sum_m mu_m (V diag(Q[owner, m]) V^T)**2 (entrywise square),
where owner[j] is the cluster of eigenvector j: one N x N x N product
per kept term and O(N^2) memory, with no stack of projectors. Terms
with |mu_m| <= CHI_RANK_TOL are dropped, which moves no entry by more
than CHI_RANK_TOL. The delta rule's chi has rank 2, so it costs two
products; the long-time limit chain is the same sum with chi the
identity. H is real symmetric, so exp(-iHt) is complex-symmetric and every
continuous-time chain here is symmetric, whatever the base chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .chains import MarkovChain, NoMix, _threshold_time, atomic_write_text, save_csv
from .config import DEFAULT_TAIL_TOL
from .graphs import lattice_difference
from .walks import CTWalk, DTWalk, RuleFamilyError

CT_FAMILIES = ("delta", "uniform_ct", "exponential")
DT_FAMILIES = ("delta", "uniform_dt", "geometric")
GENERATED_TOL = 1e-9
# Terms of chi = Q diag(mu) Q^T with |mu_m| at most this are dropped.
# Entrywise bound: P_hat[y, x] = sum_m mu_m (Q^T p)_m^2 with p[c] = P_c[y, x],
# so dropping a set D of terms moves the entry by at most
# max_D |mu| * |Q^T p|^2 = max_D |mu| * |p|^2, since Q is orthogonal. And
# |p|^2 <= 1: P_c[y, x] = <P_c y, P_c x>, so by Cauchy-Schwarz
# P_c[y, x]^2 <= |P_c y|^2 |P_c x|^2 <= |P_c y|^2, and the P_c resolve
# the identity, so sum_c |P_c y|^2 = |y|^2 = 1.
CHI_RANK_TOL = 1e-13


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
    """E[exp(i * theta * t)] under the rule, vectorized over theta.

    Exactly 1 at theta = 0 for every family.
    """
    th = np.asarray(theta, dtype=np.float64)
    T = rule.T
    if rule.family == "delta":
        out = np.exp(1j * th * T)
    elif rule.family == "uniform_ct":
        z = th * T
        small = np.abs(z) < 1e-8
        zsafe = np.where(small, 1.0, z)
        out = np.where(
            small,
            1.0 + 0.5j * z - z * z / 6.0,
            (np.exp(1j * zsafe) - 1.0) / (1j * zsafe),
        )
    elif rule.family == "exponential":
        out = 1.0 / (1.0 - 1j * th * T)
    elif rule.family == "uniform_dt":
        # integer support, so wrap the angle; Dirichlet-kernel form of
        # (1/T) * (1 - e^{i theta T}) / (1 - e^{i theta})
        Ti = int(round(T))
        phi = np.mod(th + np.pi, 2.0 * np.pi) - np.pi
        small = np.abs(phi) < 1e-12
        psafe = np.where(small, 1.0, phi)
        out = np.where(
            small,
            1.0 + 0.0j,
            np.exp(0.5j * psafe * (Ti - 1)) * np.sin(0.5 * Ti * psafe) / (Ti * np.sin(0.5 * psafe)),
        )
    elif rule.family == "geometric":
        p = 1.0 / T
        out = p / (1.0 - (1.0 - p) * np.exp(1j * th))
    else:  # pragma: no cover - guarded by the constructor
        raise ValueError(f"unknown rule family {rule.family!r}")
    out = np.where(th == 0.0, 1.0 + 0.0j, out)
    return out if out.ndim else complex(out)


def rule_weights(rule: MeasurementRule) -> tuple[np.ndarray, np.ndarray, float]:
    """(times, weights, truncation_error) for a discrete-time rule.

    Geometric support is truncated at ceil(T * ln(1/DEFAULT_TAIL_TOL)) and
    the kept weights renormalized; the entrywise error bound 2 * dropped
    mass is returned.
    """
    if rule.family == "delta":
        if abs(rule.T - round(rule.T)) > 1e-9:
            raise RuleFamilyError(f"discrete delta rule needs integer T, got {rule.T}")
        return np.array([int(round(rule.T))]), np.array([1.0]), 0.0
    if rule.family == "uniform_dt":
        Ti = int(round(rule.T))
        return np.arange(Ti), np.full(Ti, 1.0 / Ti), 0.0
    if rule.family == "geometric":
        p = 1.0 / rule.T
        t_max = int(math.ceil(rule.T * math.log(1.0 / DEFAULT_TAIL_TOL)))
        t = np.arange(t_max + 1)
        w = p * (1.0 - p) ** t
        captured = float(w.sum())
        dropped = max(0.0, 1.0 - captured)
        return t, w / captured, 2.0 * dropped
    raise RuleFamilyError(f"{rule.family!r} has no discrete support")


@dataclass(frozen=True)
class GeneratedChain:
    """Classical chain produced by measuring a walk at a random time."""

    chain: MarkovChain
    walk_kind: str
    base_label: str
    rule: MeasurementRule
    truncation_error: float

    @property
    def size(self) -> int:
        return self.chain.size


def _check_generated(M: np.ndarray, symmetric: bool, trunc: float, what: str) -> np.ndarray:
    tol = GENERATED_TOL + trunc
    if M.min() < -tol:
        raise ArithmeticError(f"{what}: negative entry {M.min()}")
    M = np.clip(M, 0.0, None)
    col_err = np.abs(M.sum(axis=0) - 1.0).max()
    if col_err > tol:
        raise ArithmeticError(f"{what}: column sums off by {col_err}")
    if symmetric:
        sym_err = np.abs(M - M.T).max()
        if sym_err > tol:
            raise ArithmeticError(f"{what}: asymmetry {sym_err} in a chain that must be symmetric")
        M = 0.5 * (M + M.T)
        row_err = np.abs(M.sum(axis=1) - 1.0).max()
        if row_err > tol:
            raise ArithmeticError(f"{what}: row sums off by {row_err}")
    # tiny float drift: renormalize columns so MarkovChain validation is exact
    M = M / M.sum(axis=0, keepdims=True)
    if symmetric:
        M = 0.5 * (M + M.T)
    return M


def _spectral_square_sum(walk: CTWalk, mu: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_m mu_m (V diag(Q[owner, m]) V^T)**2 over the terms with
    |mu_m| > CHI_RANK_TOL, where owner[j] is the cluster of eigenvector j.

    Eigenvectors of zero weight are left out of a term's product, so a
    column of Q supported on one cluster costs that cluster's width.
    """
    V = walk.eigenvectors
    sizes = [len(c) for c in walk.clusters]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    acc = np.zeros((walk.size, walk.size))
    for m in np.flatnonzero(np.abs(mu) > CHI_RANK_TOL):
        weights = Q[owner, m]
        keep = np.flatnonzero(weights)
        Vk = V[:, keep]
        term = (Vk * weights[keep]) @ Vk.T
        term *= term
        term *= mu[m]
        acc += term
    return acc


def _generated_ct(walk: CTWalk, rule: MeasurementRule) -> GeneratedChain:
    values = walk.cluster_values()
    chi = np.real(characteristic_function(rule, np.subtract.outer(values, values)))
    # Re phi is even, so chi is symmetric up to rounding
    mu, Q = np.linalg.eigh(0.5 * (chi + chi.T))
    acc = _spectral_square_sum(walk, mu, Q)
    M = _check_generated(acc, True, 0.0, "ct generated chain")
    label = f"generated({walk.base.label},{rule.family},T={rule.T:g})"
    return GeneratedChain(MarkovChain(M, label), "ct", walk.base.label, rule, 0.0)


def _generated_dt(walk: DTWalk, rule: MeasurementRule) -> GeneratedChain:
    times, weights, trunc = rule_weights(rule)
    # a translation-invariant walk's chain is M[y, x] = c[y - x], with c its
    # column 0, so only base state 0 is stepped
    psi = walk.embed_matrix if walk.lattice is None else walk.embed_matrix[:, :1]
    acc = np.zeros((walk.base_size, psi.shape[1]))
    t_prev = 0
    for t, w in zip(times, weights):  # rule_weights gives ascending times
        for _ in range(t - t_prev):
            psi = walk.step(psi)
        t_prev = t
        acc += w * walk.project(psi)
    if walk.lattice is not None:
        acc = acc[lattice_difference(*walk.lattice), 0]
    M = _check_generated(acc, walk.base_symmetric, trunc, "dt generated chain")
    label = f"generated({walk.base_label},{rule.family},T={rule.T:g})"
    return GeneratedChain(MarkovChain(M, label), walk.walk_kind, walk.base_label, rule, trunc)


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
    entrywise squares of the eigenvalue-cluster projectors, one cluster
    at a time (chi is the identity)."""
    C = len(walk.clusters)
    Pi = _spectral_square_sum(walk, np.ones(C), np.eye(C))
    M = _check_generated(Pi, True, 0.0, "limit chain")
    return MarkovChain(M, f"limit({walk.base.label})")


def repeated_mixing_time(G: GeneratedChain, horizon: int | None = None) -> int | NoMix:
    """Smallest number of measure-and-restart rounds after which the
    composed chain is within 1/(2e) of uniform in worst-column TV, or
    NoMix(horizon); the horizon defaults to default_horizon(N)."""
    if not G.chain.is_symmetric:
        raise ValueError("repeated mixing targets uniform; needs a symmetric generated chain")
    return _threshold_time(G.chain.entries, G.chain.stationary, horizon)


def export_generated(G: GeneratedChain, csv_path: str) -> tuple[str, str]:
    """Write the chain CSV plus a JSON sidecar describing its origin."""
    save_csv(G.chain, csv_path)
    sidecar = {
        "walk_kind": G.walk_kind,
        "base_label": G.base_label,
        "rule_family": G.rule.family,
        "T": G.rule.T,
        "truncation_error": G.truncation_error,
    }
    side_path = csv_path + ".json"
    atomic_write_text(side_path, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return csv_path, side_path
