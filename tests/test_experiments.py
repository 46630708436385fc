import json

import numpy as np
import pytest

from qwmix.experiments import (
    ASSERT_TOL,
    EQUIVALENCE_CEILING,
    EXPERIMENTS,
    chain_from_spec,
    cycle_threshold_audit,
    experiment_names,
    gap_inequality_audit,
    graph_from_spec,
    grover_complete_graph_sweep,
    hypercube_limit_audit,
    lattice_scaling_sweep,
    loglog_slope,
    make_assertion,
    measurement_equivalence_audit,
    run_experiment,
    tensor_power_identity_audit,
)
from qwmix import registry
from qwmix.chains import one_norm, standard_chain, uniform_projector_chain
from qwmix.cli import ConfigError, RunConfig
from qwmix.decoherence import delta_rule, generated_chain, limit_chain
from qwmix.graphs import cartesian_power, cycle, hypercube, path
from qwmix.walks import coined_walk, quantize_ct

from conftest import refusal_peak, traced_peak


def _check_result_invariants(result):
    for a in result.assertions:
        assert a.holds == (a.lhs <= a.rhs + ASSERT_TOL)
    payload = json.dumps(result.to_dict(), sort_keys=True)
    round_tripped = json.loads(payload)
    assert round_tripped["name"] == result.name


def test_make_assertion_tolerance():
    assert make_assertion("x", 1.0, 1.0).holds
    assert make_assertion("x", 1.0 + 5e-13, 1.0).holds
    assert not make_assertion("x", 1.0 + 5e-12, 1.0).holds


def test_loglog_slope_recovers_power_law():
    xs = np.array([2.0, 4.0, 8.0, 16.0])
    assert loglog_slope(xs, 3.0 * xs**1.7) == pytest.approx(1.7, abs=1e-12)


def test_chain_from_spec():
    assert chain_from_spec("cycle:6").size == 6
    assert chain_from_spec("uniform:4").size == 4
    lazy = chain_from_spec("lazy:cycle:4")
    assert lazy.entries[0, 0] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        chain_from_spec("moebius:4")
    with pytest.raises(ValueError):
        graph_from_spec("cycle")


def test_gap_inequality_audit_holds_on_grid():
    for spec in ("cycle:5", "hypercube:3"):
        P = chain_from_spec(spec)
        for T in (1.0, 5.0, 25.0):
            result = gap_inequality_audit(P, T, [1, 2, 3, 5])
            _check_result_invariants(result)
            assert result.all_hold(), result.failing()


def test_gap_inequality_audit_validates_input():
    with pytest.raises(ValueError):
        gap_inequality_audit(chain_from_spec("cycle:5"), 1.0, [0])
    from qwmix import MarkovChain

    asym = MarkovChain(
        np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), "rot3"
    )
    with pytest.raises(ValueError):
        gap_inequality_audit(asym, 1.0, [1])


def test_measurement_equivalence_cycle7():
    result = measurement_equivalence_audit(chain_from_spec("cycle:7"), 3.0)
    _check_result_invariants(result)
    assert result.all_hold()
    values = dict(result.measurements)
    assert values["tprime_uniform_ct"] == 3.0
    assert values["tprime_exponential"] == 2.0
    assert values["C"] == pytest.approx(2.0 / (3.0 * (1.0 + np.log(7.0))), abs=1e-12)
    assert values["C"] <= EQUIVALENCE_CEILING


def test_measurement_equivalence_complete6():
    result = measurement_equivalence_audit(chain_from_spec("complete:6"), 5.0)
    assert result.all_hold()
    values = dict(result.measurements)
    assert values["C"] <= EQUIVALENCE_CEILING
    assert values["C_prime"] <= EQUIVALENCE_CEILING


def test_measurement_equivalence_inconclusive_diagnosis():
    # tiny horizon forces a NoMix outcome via an effectively frozen walk
    result = measurement_equivalence_audit(chain_from_spec("uniform:12"), 1e-9)
    assert result.assertions == ()
    assert "inconclusive" in result.parameters["diagnosis"]
    assert dict(result.measurements)["tprime_uniform_ct"] is None


def test_cycle_threshold_audit_ct():
    for n in (4, 5, 8):
        result = cycle_threshold_audit(n, "ct")
        _check_result_invariants(result)
        assert result.all_hold(), (n, result.failing())
    with pytest.raises(ValueError):
        cycle_threshold_audit(2, "ct")
    with pytest.raises(ValueError):
        cycle_threshold_audit(5, "szegedy")


def test_cycle_threshold_audit_hadamard_parity():
    result = cycle_threshold_audit(8, "hadamard")
    assert result.all_hold()
    values = dict(result.measurements)
    assert values["parity_leak"] == 0.0
    odd = cycle_threshold_audit(5, "hadamard")
    assert "parity_leak" not in dict(odd.measurements)


def test_tensor_power_identity_audit():
    result = tensor_power_identity_audit(cycle(3), 2, [0.7, 2.3])
    _check_result_invariants(result)
    assert result.all_hold()
    with pytest.raises(ValueError):
        tensor_power_identity_audit(path(3), 2, [1.0])
    with pytest.raises(ValueError):
        tensor_power_identity_audit(cycle(9), 7, [1.0])


def test_claimed_audits_match_their_dense_forms():
    # the audits read claimed chains through their column; the N x N
    # entries they read before give the same numbers, bit for bit
    for n, d, t in ((3, 2, 0.7), (5, 3, 2.3), (8, 2, 3.7), (16, 2, 32.0), (64, 1, 3.7)):
        big = generated_chain(quantize_ct(standard_chain(cartesian_power(cycle(n), d))), delta_rule(t))
        single = generated_chain(quantize_ct(standard_chain(cycle(n))), delta_rule(t / d))
        K = np.array([[1.0]])
        for _ in range(d):
            K = np.kron(K, single.chain.entries)
        dev = float(np.abs(big.chain.entries - K).max())
        assert tensor_power_identity_audit(cycle(n), d, [t]).measurements == ((f"max_deviation_t{t:g}", dev),)
    for d in range(1, 7):
        P = limit_chain(quantize_ct(standard_chain(hypercube(d))))
        dev = 0.5 * one_norm(P.entries - 1.0 / P.size)
        assert dict(hypercube_limit_audit([d]).measurements)[f"limit_deviation_d{d}"] == dev
    for n in (2, 4, 6, 12, 20):
        t = max(1, round(n / np.sqrt(2.0)))
        single = generated_chain(coined_walk("hadamard_cycle", n), delta_rule(t)).chain.entries
        y, x = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        leak = float(single[(y - x - t) % 2 == 1].max())
        assert dict(cycle_threshold_audit(n, "hadamard").measurements)["parity_leak"] == leak


def test_claimed_audits_form_no_dense_chain(monkeypatch):
    # 64^2 and 2^12 states: the dense forms took 512 and 384 MiB
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    assert traced_peak(lambda: tensor_power_identity_audit(cycle(64), 2, [3.7])) < 16 * 2**20
    assert traced_peak(lambda: hypercube_limit_audit([12])) < 16 * 2**20


@pytest.mark.parametrize("n, d, t_values", [(1024, 2, [3.7, 512.0]), (4, 10, [20.0])])
def test_tensor_identity_past_the_state_cap(monkeypatch, n, d, t_values):
    # 2**20 states, past the state cap and at the claimed limit
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    results = []
    peak = traced_peak(lambda: results.append(tensor_power_identity_audit(cycle(n), d, t_values)))
    assert peak < 192 * 2**20
    _check_result_invariants(results[0])
    assert results[0].all_hold() and len(results[0].assertions) == len(t_values)


def test_lattice_scaling_sweep_growth_branch():
    result = lattice_scaling_sweep([4], [1, 2])
    _check_result_invariants(result)
    assert result.all_hold()
    labels = [a.label for a in result.assertions]
    assert any(label.startswith("tprime_log_growth") for label in labels)
    # no regression assertions with fewer than 4 sizes
    assert not any("slope" in label for label in labels)


def test_grover_sweep_small():
    result = grover_complete_graph_sweep([2, 4, 8])
    _check_result_invariants(result)
    assert result.all_hold()
    values = dict(result.measurements)
    assert values["tprime_N2"] is None
    assert values["classical_tau_N4"] == 2.0
    assert "tprime_slope" not in values  # needs 4 regression points


def test_hypercube_limit_audit_floor_exemption():
    result = hypercube_limit_audit([1, 2])
    _check_result_invariants(result)
    assert result.all_hold()
    labels = [a.label for a in result.assertions]
    assert "limit_nonuniform_d2" in labels
    assert "limit_nonuniform_d1" not in labels
    values = dict(result.measurements)
    assert values["limit_deviation_d1"] <= 1e-12
    assert values["limit_deviation_d2"] == pytest.approx(0.25, abs=1e-12)
    assert values["base_period_d1"] == 2.0


def test_run_experiment_registry():
    assert EXPERIMENTS is registry.EXPERIMENTS  # one registry, re-exported
    assert experiment_names() == sorted(EXPERIMENTS)
    for name, entry in EXPERIMENTS.items():
        assert entry.description
        grid = {key: [None] for key in entry.params}
        assert RunConfig.from_dict({"experiment": name, "grid": grid}).experiment == name
        for wrong in (dict(grid, extra=[1]), dict(list(grid.items())[1:])):
            with pytest.raises(ConfigError, match="do not match"):
                RunConfig.from_dict({"experiment": name, "grid": wrong})
    result = run_experiment(
        "gap_inequality_audit", {"chain": "cycle:5", "T": 2.0, "k_values": [1, 2]}
    )
    assert result.all_hold()
    with pytest.raises(KeyError):
        run_experiment("bogus", {})
    with pytest.raises(ValueError):
        run_experiment("gap_inequality_audit", {"chain": "cycle:5", "T": 2.0})
    with pytest.raises(ValueError):
        run_experiment(
            "gap_inequality_audit",
            {"chain": "cycle:5", "T": 2.0, "k_values": [1], "extra": 1},
        )


def test_results_are_deterministic():
    a = lattice_scaling_sweep([4, 6], [2])
    b = lattice_scaling_sweep([4, 6], [2])
    assert a.to_dict() == b.to_dict()
    assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "build",
    [
        lambda: lattice_scaling_sweep([1025], [2]),
        lambda: grover_complete_graph_sweep([65]),
        lambda: hypercube_limit_audit([21]),
        lambda: tensor_power_identity_audit(cycle(5), 9, [1.0]),
        lambda: cycle_threshold_audit(2**20 + 1, "ct"),
        lambda: cycle_threshold_audit(2**18 + 1, "hadamard"),
        lambda: uniform_projector_chain(4097),
    ],
    ids=["lattice", "grover", "hypercube", "tensor_power", "cycle_ct", "cycle_hadamard", "uniform"],
)
def test_experiments_refuse_past_default_cap_before_allocating(monkeypatch, build):
    monkeypatch.delenv("QWMIX_STATE_CAP", raising=False)
    assert refusal_peak(build) < 2**20
