"""End-to-end acceptance gate.

Each test prints exactly one CRITERION k: PASS/FAIL line (visible under
pytest -s) and then asserts. Tolerances are pinned inline. Criterion 1
audits the discrete-time relaxation sandwich on a fixed 177-chain
corpus; its lower side is log(1/(2*eps))/log(1/(1-gap)) <= tau (Levin,
Peres & Wilmer, ch. 12), not the continuous-time 1/gap <= tau, which
fails on complete graphs with N >= 6 where tau = 1.
"""

import hashlib
import json
import math
import os
import time

import mpmath
import numpy as np
import pytest

from qwmix import (
    NoMix,
    bessel_j,
    coined_walk,
    ct_amplitude_row,
    delta_rule,
    exponential_rule,
    generated_chain,
    lazy_chain,
    limit_chain,
    mixing_time,
    one_norm,
    quantize_ct,
    random_symmetric_chain,
    repeated_mixing_time,
    standard_chain,
    symmetrized_generator,
    uniform_ct_rule,
    uniform_dt_rule,
    verify_inequalities,
)
from qwmix.cli import main as cli_main
from qwmix.config import default_horizon
from qwmix.experiments import (
    gap_inequality_audit,
    grover_complete_graph_sweep,
    lattice_scaling_sweep,
)
from qwmix.graphs import complete, cycle, hypercube, lattice

from conftest import (
    MIX_THRESHOLD,
    RANDOM_CHAIN_SEED,
    brute_dt_average,
    brute_grover_unitary,
    brute_hadamard_unitary,
    dense_embedding,
)

LATTICE_CORPUS = (
    (4, 2), (6, 2), (8, 2), (10, 2), (12, 2), (16, 2),
    (4, 3), (6, 3), (8, 3), (5, 3), (4, 4), (3, 4), (3, 5),
    (27, 1), (64, 1),
)

# frozen single-digit ceilings for criterion 6, measured once and pinned
CT_CYCLE_CEILING = {"delta": 2, "uniform_ct": 3, "exponential": 2}
HADAMARD_GEOMETRIC_CEILING = 2


def _corpus():
    chains = []
    for n in range(3, 66, 2):
        chains.append(standard_chain(cycle(n)))
    for N in range(3, 33):
        chains.append(standard_chain(complete(N)))
    for n, d in LATTICE_CORPUS:
        chains.append(lazy_chain(standard_chain(lattice(n, d))))
    rng = np.random.default_rng(RANDOM_CHAIN_SEED)
    for i in range(100):
        chains.append(random_symmetric_chain(4 + (i % 13), rng))
    return chains


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


def _report(k: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"CRITERION {k}: {status}{suffix}")


def test_criterion_01_classical_inequality_corpus(corpus):
    start = time.monotonic()
    violations = {}
    for P in corpus:
        report = verify_inequalities(P)
        for check in report.bound_checks:
            if check.conclusive and not check.holds:
                violations.setdefault(check.name, []).append(P.label)
    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 120.0
    detail = "; ".join(f"{name}: {len(ls)} chains" for name, ls in sorted(violations.items()))
    _report(1, ok, detail or f"{len(corpus)} chains clean in {elapsed:.1f}s")
    assert elapsed < 120.0
    assert not violations, (
        f"bound violations on {sum(len(v) for v in violations.values())} of "
        f"{len(corpus)} chains: {detail}; e.g. {violations[next(iter(violations))][:3]}"
    )


def test_criterion_02_sampled_versus_spectral():
    start = time.monotonic()
    rng = np.random.default_rng(RANDOM_CHAIN_SEED)
    samples = 100_000
    spot_checks = [
        ("cycle", (5,), "uniform_ct", 3.0, 0, 1),
        ("cycle", (5,), "exponential", 3.0, 0, 2),
        ("cycle", (7,), "uniform_ct", 5.0, 1, 4),
        ("cycle", (7,), "delta", 2.5, 0, 3),
        ("hypercube", (3,), "uniform_ct", 4.0, 0, 7),
        ("hypercube", (3,), "exponential", 2.0, 2, 5),
        ("complete", (6,), "uniform_ct", 5.0, 0, 0),
        ("complete", (6,), "exponential", 1.5, 0, 3),
        ("cycle", (9,), "delta", 4.0, 4, 8),
        ("hypercube", (2,), "uniform_ct", 10.0, 0, 3),
    ]
    builders = {"cycle": cycle, "hypercube": hypercube, "complete": complete}
    rules = {"delta": delta_rule, "uniform_ct": uniform_ct_rule, "exponential": exponential_rule}
    worst_sigma = 0.0
    for kind, args, family, T, x, y in spot_checks:
        P = standard_chain(builders[kind](*args))
        W = quantize_ct(P)
        exact = generated_chain(W, rules[family](T)).chain.entries[y, x]
        if family == "delta":
            times = np.full(samples, T)
        elif family == "uniform_ct":
            times = rng.uniform(0.0, T, samples)
        else:
            times = rng.exponential(T, samples)
        lam, V = np.linalg.eigh(symmetrized_generator(P))
        hits = 0
        for chunk in np.array_split(times, 20):
            amps = np.exp(-1j * np.outer(chunk, lam)) @ (V[y, :] * V[x, :])
            hits += (rng.uniform(0.0, 1.0, len(chunk)) < np.abs(amps) ** 2).sum()
        estimate = hits / samples
        se = max(math.sqrt(estimate * (1.0 - estimate) / samples), 1e-12)
        worst_sigma = max(worst_sigma, abs(estimate - exact) / se)

    # discrete side: rule-weight averaging versus independent powers
    dt_dev = 0.0
    for W, U in (
        (coined_walk("hadamard_cycle", 6), brute_hadamard_unitary(6)),
        (coined_walk("grover_lattice", 3, 2), brute_grover_unitary(3, 2)),
    ):
        T = 6
        got = generated_chain(W, uniform_dt_rule(T)).chain.entries
        expected = brute_dt_average(
            U, dense_embedding(W), W.base_size, [(t, 1.0 / T) for t in range(T)]
        )
        dt_dev = max(dt_dev, one_norm(got - expected))
    elapsed = time.monotonic() - start
    ok = worst_sigma <= 3.0 and dt_dev <= 1e-12 and elapsed < 60.0
    _report(2, ok, f"max {worst_sigma:.2f} standard errors; discrete dev {dt_dev:.2g}")
    assert worst_sigma <= 3.0
    assert dt_dev <= 1e-12
    assert elapsed < 60.0


def test_criterion_03_limit_convergence():
    start = time.monotonic()
    horizons = (10.0, 100.0, 1000.0, 10000.0)
    ok = True
    for G in (cycle(5), cycle(7), hypercube(3), hypercube(4)):
        W = quantize_ct(standard_chain(G))
        Pi = limit_chain(W).entries
        n = Pi.shape[0]
        for rule_fn in (uniform_ct_rule, exponential_rule):
            devs = [
                np.abs(generated_chain(W, rule_fn(T)).chain.entries - Pi).max()
                for T in horizons
            ]
            ok &= all(devs[i + 1] < devs[i] for i in range(len(devs) - 1))
            ok &= devs[-1] <= 1e-3
        ok &= bool(np.abs(Pi - Pi.T).max() <= 1e-12)
        ok &= bool(np.abs(Pi.sum(axis=0) - 1.0).max() <= 1e-12)
        ok &= bool(np.linalg.eigvalsh(Pi).min() >= -1e-9)
        ok &= bool(Pi.min() >= 1.0 / n**2 - 1e-9)
    Pi3 = limit_chain(quantize_ct(standard_chain(cycle(3)))).entries
    ok &= bool(np.abs(np.diag(Pi3) - 5.0 / 9.0).max() <= 1e-12)
    ok &= bool(abs(Pi3[0, 1] - 2.0 / 9.0) <= 1e-12)
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(3, ok, f"{elapsed:.1f}s")
    assert ok


def test_criterion_04_repeated_measurement_always_mixes(corpus):
    start = time.monotonic()
    failures = []
    for P in corpus:
        if not (P.is_symmetric and P.is_irreducible):
            continue
        n = P.size
        W = quantize_ct(P)
        g = generated_chain(W, uniform_ct_rule(10.0 * n))
        tp = repeated_mixing_time(g, default_horizon(n))
        if isinstance(tp, NoMix):
            failures.append((P.label, "no mix"))
            continue
        M = np.linalg.matrix_power(g.chain.entries, tp)
        dist = 0.5 * one_norm(M - 1.0 / n)
        if dist > MIX_THRESHOLD + 1e-12:
            failures.append((P.label, f"distance {dist:.3g}"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 120.0
    _report(4, ok, f"{elapsed:.1f}s" if ok else str(failures[:3]))
    assert not failures, failures[:5]
    assert elapsed < 120.0


def test_criterion_05_gap_sandwich_grid():
    start = time.monotonic()
    specs = [
        standard_chain(cycle(5)),
        standard_chain(cycle(7)),
        standard_chain(hypercube(3)),
        standard_chain(complete(6)),
    ]
    failing = []
    for P in specs:
        for T in (1.0, 5.0, 25.0):
            result = gap_inequality_audit(P, T, [1, 2, 3, 5])
            failing.extend((P.label, T, a.label) for a in result.failing())
    elapsed = time.monotonic() - start
    ok = not failing and elapsed < 60.0
    _report(5, ok, f"{elapsed:.1f}s" if ok else str(failing[:3]))
    assert not failing, failing
    assert elapsed < 60.0


def test_criterion_06_linear_time_constant_rounds():
    start = time.monotonic()
    ct_sizes = (8, 16, 32, 64)
    tprimes = {rule: {} for rule in CT_CYCLE_CEILING}
    ok = True
    for n in ct_sizes:
        W = quantize_ct(standard_chain(cycle(n)))
        T = 0.4 * n
        for family, rule_fn in (
            ("delta", delta_rule),
            ("uniform_ct", uniform_ct_rule),
            ("exponential", exponential_rule),
        ):
            tp = repeated_mixing_time(generated_chain(W, rule_fn(T)), default_horizon(n))
            ok &= not isinstance(tp, NoMix)
            if not isinstance(tp, NoMix):
                tprimes[family][n] = tp
                ok &= tp <= CT_CYCLE_CEILING[family]
    for family in CT_CYCLE_CEILING:
        ok &= tprimes[family][64] <= tprimes[family][16]
    had = {}
    for n in (8, 16, 32):
        W = coined_walk("hadamard_cycle", n)
        from qwmix import geometric_rule

        tp = repeated_mixing_time(
            generated_chain(W, geometric_rule(n / math.sqrt(2.0))), default_horizon(n)
        )
        ok &= not isinstance(tp, NoMix)
        if not isinstance(tp, NoMix):
            had[n] = tp
            ok &= tp <= HADAMARD_GEOMETRIC_CEILING
    ok &= had[32] <= had[16]
    elapsed = time.monotonic() - start
    ok &= elapsed < 180.0
    _report(6, ok, f"ct rounds {max(max(v.values()) for v in tprimes.values())}, coined {max(had.values())}")
    assert ok, (tprimes, had)


def test_criterion_07_amplitude_wave_expansion():
    start = time.monotonic()
    W = quantize_ct(standard_chain(cycle(257)))
    worst = 0.0
    for t in (20.0, 50.0, 90.0):
        amp = ct_amplitude_row(W, 0, t)
        for y in range(-100, 101):
            expected = (-1j) ** y * bessel_j(y, t)
            worst = max(worst, abs(amp[y % 257] - expected))

    def series_bessel(y: int, t: float) -> float:
        mpmath.mp.dps = int(40 + 0.5 * t)
        half = mpmath.mpf(t) / 2
        term = half**y / mpmath.factorial(y)
        total = term
        m = 0
        while True:
            m += 1
            term = -term * half * half / (m * (y + m))
            total += term
            if abs(term) < mpmath.mpf(10) ** (-mpmath.mp.dps + 5) * (1 + abs(total)):
                return float(total)

    rng = np.random.default_rng(20260819)
    orders = rng.integers(0, 513, size=50)
    args = rng.uniform(0.0, 1024.0, size=50)
    worst_series = max(
        abs(series_bessel(int(y), float(t)) - bessel_j(int(y), float(t)))
        for y, t in zip(orders, args)
    )
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and worst_series <= 1e-10 and elapsed < 60.0
    _report(7, ok, f"amplitude dev {worst:.2g}, series dev {worst_series:.2g}")
    assert worst <= 1e-6
    assert worst_series <= 1e-10
    assert elapsed < 60.0


def test_criterion_08_tensor_power_identity():
    from qwmix.experiments import tensor_power_identity_audit

    start = time.monotonic()
    failing = []
    for n, d in ((3, 2), (3, 3), (4, 2), (5, 2)):
        result = tensor_power_identity_audit(cycle(n), d, [0.9, 3.7, 11.0])
        failing.extend(a.label for a in result.failing())
        worst = max(v for _, v in result.measurements)
        if worst > 1e-9:
            failing.append(f"cycle({n})^{d} dev {worst:.2g}")
    elapsed = time.monotonic() - start
    ok = not failing and elapsed < 60.0
    _report(8, ok, f"{elapsed:.1f}s" if ok else str(failing[:3]))
    assert not failing, failing
    assert elapsed < 60.0


def test_criterion_09_lattice_speedup():
    start = time.monotonic()
    sweep = lattice_scaling_sweep([4, 6, 8, 10, 12], [2])
    growth = lattice_scaling_sweep([4], [1, 2, 3])
    values = dict(sweep.measurements)
    classical_slope = values["classical_slope_d2"]
    cost_slopes = [values[f"quantum_cost_slope_{r}_d2"] for r in ("delta", "uniform_ct")]
    failing = [a.label for a in sweep.failing()] + [a.label for a in growth.failing()]
    elapsed = time.monotonic() - start
    ok = not failing and classical_slope >= 1.8 and max(cost_slopes) <= 1.2 and elapsed < 300.0
    _report(
        9,
        ok,
        f"classical slope {classical_slope:.3f}, quantum cost slopes "
        f"{', '.join(f'{s:.3f}' for s in cost_slopes)}",
    )
    assert not failing, failing
    assert classical_slope >= 1.8
    assert max(cost_slopes) <= 1.2
    assert elapsed < 300.0


def test_criterion_10_hypercube_instantaneous_uniform():
    start = time.monotonic()
    worst = 0.0
    for d in (2, 3, 4, 5):
        W = quantize_ct(standard_chain(hypercube(d)))
        M = generated_chain(W, delta_rule(math.pi * d / 4.0)).chain.entries
        worst = max(worst, np.abs(M - 2.0**-d).max())
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(10, ok, f"max deviation {worst:.2g}")
    assert worst <= 1e-9
    assert elapsed < 30.0


def test_criterion_11_complete_graph_slowdown():
    start = time.monotonic()
    result = grover_complete_graph_sweep([4, 8, 16, 32])
    values = dict(result.measurements)
    slope = values["tprime_slope"]
    taus = [values[f"classical_tau_N{N}"] for N in (4, 8, 16, 32)]
    elapsed = time.monotonic() - start
    ok = result.all_hold() and 0.8 <= slope <= 1.2 and max(taus) <= 2 and elapsed < 180.0
    _report(11, ok, f"slowdown exponent {slope:.3f}, classical max {max(taus):.0f}")
    assert result.all_hold(), result.failing()
    assert 0.8 <= slope <= 1.2
    assert max(taus) <= 2
    assert elapsed < 180.0


def test_criterion_12_coined_cycle_perfect_mixing():
    start = time.monotonic()
    worst = 0.0
    for n in (5, 8, 13):
        W = coined_walk("grover_lattice", n, 1)
        g = generated_chain(W, uniform_dt_rule(n))
        worst = max(worst, 0.5 * one_norm(g.chain.entries - 1.0 / n))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(12, ok, f"max total variation {worst:.2g}")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_13_byte_identical_runs(tmp_path):
    config = {
        "experiment": "hypercube_limit_audit",
        "grid": {"d_values": [[1, 2, 3], [2, 4]]},
        "seed": 5,
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    digests = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["run", str(config_path), "--out", str(out)])
        assert code == 0
        assert cli_main(["report", str(out)]) == 0
        h = hashlib.sha256()
        for fname in sorted(os.listdir(out)):
            h.update(fname.encode())
            with open(out / fname, "rb") as fh:
                h.update(fh.read())
        digests.append(h.hexdigest())
    ok = digests[0] == digests[1]
    _report(13, ok, f"digest {digests[0][:12]}")
    assert ok
