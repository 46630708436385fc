"""Measured quantum walks as Markov chains: build graphs and
column-stochastic chains, quantize them as continuous or discrete walks,
apply measurement-time rules to obtain generated chains, and audit
mixing-time relationships between the classical and quantum sides.
"""

from .bessel import bessel_j
from .chains import (
    BoundCheck,
    MarkovChain,
    MixingReport,
    NoMix,
    NonReversibleError,
    ReducibleChainError,
    conductance,
    distance_bound_from_entries,
    lazy_chain,
    load_csv,
    mixing_time,
    mixing_time_bound_from_distance,
    one_norm,
    pairwise_column_distance,
    random_symmetric_chain,
    save_csv,
    spectral_gap,
    standard_chain,
    stationary_distribution,
    symmetrized_generator,
    uniform_projector_chain,
    verify_inequalities,
)
from .decoherence import (
    GeneratedChain,
    MeasurementRule,
    characteristic_function,
    delta_rule,
    export_generated,
    exponential_rule,
    generated_chain,
    geometric_rule,
    limit_chain,
    repeated_mixing_time,
    rule_weights,
    uniform_ct_rule,
    uniform_dt_rule,
)
from .experiments import (
    Assertion,
    ExperimentResult,
    cycle_threshold_audit,
    gap_inequality_audit,
    grover_complete_graph_sweep,
    hypercube_limit_audit,
    lattice_scaling_sweep,
    measurement_equivalence_audit,
    run_experiment,
    tensor_power_identity_audit,
)
from .graphs import (
    Graph,
    StateCapError,
    build_graph,
    cartesian_power,
    complete,
    cycle,
    format_edge_list,
    hypercube,
    lattice,
    parse_edge_list,
    path,
)
from .walks import (
    CTWalk,
    DegenerateSpectrumError,
    DTWalk,
    RuleFamilyError,
    coined_walk,
    ct_amplitude_row,
    ct_propagator,
    eigenphases,
    phase_gap,
    quantize_ct,
    quantize_szegedy,
    szegedy_stationary_state,
)

__version__ = "0.1.0"
