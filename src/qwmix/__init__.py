"""Measured quantum walks as Markov chains: build graphs and
column-stochastic chains, quantize them as continuous or discrete walks,
apply measurement-time rules to obtain generated chains, and audit
mixing-time relationships between the classical and quantum sides.

Names are exported lazily (PEP 562): the first access to one imports the
submodule that defines it, so `import qwmix` alone loads no numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS_BY_MODULE = {
    "bessel": ("bessel_j",),
    "chains": (
        "BoundCheck",
        "MarkovChain",
        "MixingReport",
        "NoMix",
        "NonReversibleError",
        "ReducibleChainError",
        "conductance",
        "lazy_chain",
        "mixing_time",
        "mixing_time_bound_from_distance",
        "one_norm",
        "pairwise_column_distance",
        "random_symmetric_chain",
        "save_csv",
        "spectral_gap",
        "standard_chain",
        "stationary_distribution",
        "symmetrized_generator",
        "uniform_projector_chain",
        "verify_inequalities",
    ),
    "decoherence": (
        "GeneratedChain",
        "MeasurementRule",
        "characteristic_function",
        "delta_rule",
        "exponential_rule",
        "generated_chain",
        "geometric_rule",
        "limit_chain",
        "repeated_mixing_time",
        "rule_weights",
        "uniform_ct_rule",
        "uniform_dt_rule",
    ),
    "experiments": (
        "Assertion",
        "ExperimentResult",
        "cycle_threshold_audit",
        "gap_inequality_audit",
        "grover_complete_graph_sweep",
        "hypercube_limit_audit",
        "lattice_scaling_sweep",
        "measurement_equivalence_audit",
        "run_experiment",
        "tensor_power_identity_audit",
    ),
    "graphs": (
        "Graph",
        "StateCapError",
        "build_graph",
        "cartesian_power",
        "complete",
        "cycle",
        "hypercube",
        "lattice",
        "path",
    ),
    "walks": (
        "CTWalk",
        "DegenerateSpectrumError",
        "DTWalk",
        "RuleFamilyError",
        "coined_walk",
        "ct_amplitude_row",
        "eigenphases",
        "phase_gap",
        "quantize_ct",
        "quantize_szegedy",
    ),
}
# The one name -> submodule table.
_EXPORTS = {name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names}
# Submodules reachable as attributes, as when this package imported them all.
_SUBMODULES = frozenset({*_EXPORTS_BY_MODULE, "config"})

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
