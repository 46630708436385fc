"""The experiment registry: each experiment's runner, its JSON parameters
and its report description, importable without numpy.

A runner or parameter parser given by name is a function of
qwmix.experiments, looked up there only when a job runs, so validating a
config and writing a report load none of the numerical modules.
"""

from __future__ import annotations

from collections import namedtuple


class Experiment(namedtuple("Experiment", "run params description")):
    """A registered experiment: its runner, its JSON parameters in
    argument order with the parser of each, and its report description.
    A runner or parser given as a str names a function of
    qwmix.experiments."""

    __slots__ = ()


def _int_list(value) -> list[int]:
    return [int(v) for v in value]


def _float_list(value) -> list[float]:
    return [float(v) for v in value]


EXPERIMENTS = {
    "gap_inequality_audit": Experiment(
        "gap_inequality_audit",
        {"chain": "chain_from_spec", "T": float, "k_values": _int_list},
        "sandwich between averaged-rule and memoryless-rule spectral gaps",
    ),
    "measurement_equivalence_audit": Experiment(
        "measurement_equivalence_audit",
        {"chain": "chain_from_spec", "T": float},
        "equivalence of averaged and memoryless measurement mixing times",
    ),
    "cycle_threshold_audit": Experiment(
        "cycle_threshold_audit",
        {"n": int, "walk": str},
        "constant-round mixing of measured cycle walks inside the linear window",
    ),
    "tensor_power_identity_audit": Experiment(
        "tensor_power_identity_audit",
        {"graph": "graph_from_spec", "d": int, "t_values": _float_list},
        "generated chain of a graph power factorizes as a Kronecker power",
    ),
    "lattice_scaling_sweep": Experiment(
        "lattice_scaling_sweep",
        {"n_values": _int_list, "d_values": _int_list},
        "classical quadratic versus measured-quantum near-linear lattice mixing cost",
    ),
    "grover_complete_graph_sweep": Experiment(
        "grover_complete_graph_sweep",
        {"N_values": _int_list},
        "linear slowdown of the measured discrete walk on complete graphs",
    ),
    "hypercube_limit_audit": Experiment(
        "hypercube_limit_audit",
        {"d_values": _int_list},
        "nonuniform long-time hypercube limit with finite repeated mixing",
    ),
}


def check_experiment(name, keys) -> Experiment:
    """The registry entry of `name` once `keys` match its parameter names;
    KeyError for an unknown experiment, ValueError for a key mismatch."""
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {name!r}; known: {experiment_names()}")
    entry = EXPERIMENTS[name]
    expected = sorted(entry.params)
    if sorted(keys) != expected:
        raise ValueError(f"keys {sorted(keys)} do not match parameters {expected} of {name!r}")
    return entry


def experiment_names() -> list[str]:
    return sorted(EXPERIMENTS)
