"""The package's lazy exports, that each has a caller in the package or
the benchmark, that only a claimed chain's entries expand its column to
N x N, and which commands load the numerical stack: `import
qwmix`, `report`, a fully cached `run` and a config error load no numpy;
a cold `run` does. `report` and a fully cached `run` load no
`dataclasses` (and through it `inspect`) either."""

import ast
import glob
import json
import os
import subprocess
import sys

import pytest

import qwmix

# The names `qwmix` exports.
EXPORTED = [
    "Assertion", "BoundCheck", "CTWalk", "DTWalk", "DegenerateSpectrumError",
    "ExperimentResult", "GeneratedChain", "Graph", "MarkovChain", "MeasurementRule",
    "MixingReport", "NoMix", "NonReversibleError", "ReducibleChainError",
    "RuleFamilyError", "StateCapError", "bessel_j", "build_graph", "cartesian_power",
    "characteristic_function", "coined_walk", "complete", "conductance",
    "ct_amplitude_row", "cycle", "cycle_threshold_audit", "delta_rule",
    "eigenphases", "exponential_rule", "gap_inequality_audit", "generated_chain",
    "geometric_rule", "grover_complete_graph_sweep", "hypercube", "hypercube_limit_audit",
    "lattice", "lattice_scaling_sweep", "lazy_chain", "limit_chain",
    "measurement_equivalence_audit", "mixing_time", "mixing_time_bound_from_distance",
    "one_norm", "pairwise_column_distance", "path", "phase_gap",
    "quantize_ct", "quantize_szegedy", "random_symmetric_chain", "repeated_mixing_time",
    "rule_weights", "run_experiment", "save_csv", "spectral_gap", "standard_chain",
    "stationary_distribution", "symmetrized_generator",
    "tensor_power_identity_audit", "uniform_ct_rule", "uniform_dt_rule",
    "uniform_projector_chain", "verify_inequalities",
]
# Exported names that nothing in the package or the benchmark calls yet,
# each with the ROADMAP item or acceptance criterion that gives it a caller.
PLANNED_CALLERS = {
    "bessel_j": "criterion 7's subject; ROADMAP item 4 calls it from src",
    "ct_amplitude_row": "criterion 7's subject",
    "mixing_time_bound_from_distance": "ROADMAP item 6 certifies T' with it",
}
NUMERICAL = {"numpy", "qwmix.chains"}
# what a command that only reads and writes JSON must not load
START_UP = NUMERICAL | {"dataclasses", "inspect"}
SRC = os.path.dirname(os.path.dirname(os.path.abspath(qwmix.__file__)))
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_public_api_is_pinned():
    assert sorted(qwmix.__all__) == EXPORTED
    assert qwmix.__version__ == "0.1.0"
    assert "__version__" not in qwmix.__all__
    for name in qwmix.__all__:
        value = getattr(qwmix, name)
        assert value.__module__.startswith("qwmix.")
        assert value is getattr(sys.modules[value.__module__], name), name
        assert vars(qwmix)[name] is value  # resolved once, then a plain global
    submodules = ["bessel", "chains", "config", "decoherence", "experiments", "graphs", "walks"]
    assert set(EXPORTED + submodules) <= set(dir(qwmix))
    for name in submodules:
        assert getattr(qwmix, name) is sys.modules[f"qwmix.{name}"]


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from qwmix import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTED
    with pytest.raises(AttributeError, match="no_such_name"):
        qwmix.no_such_name
    assert not hasattr(qwmix, "eigenphase_gap")  # defined in walks, never exported
    with pytest.raises(ImportError):
        exec("from qwmix import no_such_name", {})


def referenced_names(paths) -> set[str]:
    """Every name the code of the files uses: variables, attributes,
    imported names, and string constants that are identifiers, as the
    registry names its runners. The name a def or class statement
    defines is not a use, and neither are comments."""
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


def test_every_export_has_a_caller():
    package = glob.glob(os.path.join(REPO, "src", "qwmix", "*.py"))
    callers = [p for p in package if os.path.basename(p) != "__init__.py"]
    callers += glob.glob(os.path.join(REPO, "perfbench", "*.py"))
    used = referenced_names(callers)
    assert set(PLANNED_CALLERS) <= set(qwmix.__all__)
    assert not used & set(PLANNED_CALLERS), "a planned caller has landed; drop the exemption"
    unused = sorted(set(qwmix.__all__) - used - set(PLANNED_CALLERS))
    assert not unused, f"exported with no caller in the package or the benchmark: {unused}"


def scopes_referencing(path: str, name: str) -> list[str]:
    """The dotted def and class scope ("" at module level) of every use of
    name in the file, in the sense of referenced_names."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            if (
                (isinstance(child, ast.Name) and child.id == name)
                or (isinstance(child, ast.Attribute) and child.attr == name)
                or (isinstance(child, ast.alias) and child.name == name)
                or (isinstance(child, ast.Constant) and child.value == name)
            ):
                found.append(inner)
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_claimed_entries_expand_a_column():
    # lattice_circulant expands a column to N x N; a claimed chain's
    # entries are the one N x N form it keeps, so nothing else in the
    # package calls it
    uses = {
        f"{os.path.basename(path)}:{scope}"
        for path in glob.glob(os.path.join(REPO, "src", "qwmix", "*.py"))
        for scope in scopes_referencing(path, "lattice_circulant")
    }
    assert uses == {"chains.py:", "chains.py:MarkovChain.entries"}, sorted(uses)


def imported_modules(argv, cwd):
    """Run `python -X importtime *argv` with this checkout's sources first
    on the path; the completed process and the set of modules it imported."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300, check=False,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    return proc, modules


def test_only_commands_that_compute_load_numpy(tmp_path):
    proc, modules = imported_modules(["-c", "import qwmix"], tmp_path)
    assert proc.returncode == 0 and "qwmix" in modules
    assert not modules & NUMERICAL

    config = tmp_path / "config.json"
    config.write_text(json.dumps({"experiment": "hypercube_limit_audit", "grid": {"d_values": [[1, 2]]}}))
    run = ["-m", "qwmix", "run", str(config), "--out", "results"]
    proc, modules = imported_modules(run, tmp_path)
    assert proc.returncode == 0 and "computed ok" in proc.stdout
    assert NUMERICAL <= modules  # a cold run computes

    proc, modules = imported_modules([*run, "--cache", "use"], tmp_path)
    assert proc.returncode == 0 and "cached ok" in proc.stdout
    assert not modules & START_UP

    proc, modules = imported_modules(["-m", "qwmix", "report", "results"], tmp_path)
    assert proc.returncode == 0 and (tmp_path / "results" / "report.md").is_file()
    assert not modules & START_UP

    config.write_text(json.dumps({"experiment": "no_such_audit", "grid": {"x": [1]}}))
    proc, modules = imported_modules(run, tmp_path)
    assert proc.returncode == 2 and "unknown experiment" in proc.stderr
    assert not modules & NUMERICAL
