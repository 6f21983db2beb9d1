"""The benchmark still finds every package name it uses.

`perfbench/spans.py` replaces functions at the names their callers look
them up by (for example `collidersim.oracle.distance_bracket`), and
`perfbench/workloads.py` imports its entry points by name.  A refactor
that drops or bypasses one of those names would otherwise fail only
inside a benchmark run; here it fails in the unit suite.
"""

import ast
import importlib.util
from fractions import Fraction
from pathlib import Path

from collidersim import cli, dyadic, oracle, procedures, sources

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_import_and_build_grid_targets():
    workloads = load("workloads")
    # the grid-exact pool's target, built the way the workload builds it
    src = sources.from_dyadic(workloads.Dyadic(5, 64))
    assert src.exact_value == Fraction(5, 1 << 64)


def test_tracer_installs_records_and_restores(tmp_path, capsys):
    originals = (oracle.distance_bracket, oracle.validate_word,
                 oracle.word_to_dyadic, oracle.CollisionOracle.query,
                 sources.MassSource.interval, procedures.grid_sweep, cli.main)
    tracer = load("spans").Tracer()
    tracer.install()
    try:
        tracer.active = True
        assert cli.main(["measure", "--mass", "pattern:3,2,4", "--digits", "24",
                         "--schedule", "exp:k=6", "--out", str(tmp_path / "m")]) == 0
        cfg = oracle.OracleConfig(wait_policy=oracle.WaitPolicy.FULL_BUDGET)
        grid = oracle.CollisionOracle(sources.from_rational(1, 3), cfg)
        assert procedures.grid_sweep(grid, 3).complete
    finally:
        tracer.restore()
    capsys.readouterr()
    # the clock reads prefix_bracket's integers, so no path here calls
    # distance_bracket or interval; their wrappers must still install
    for name in ("cli.main", "procedures.bisection", "procedures.grid_sweep",
                 "oracle.query", "dyadic.validate_word", "dyadic.word_to_dyadic"):
        assert tracer.stats.get(name, [0])[0] > 0, name
    assert tracer.counters["oracle.probe_depth.max"] >= 8
    assert originals == (oracle.distance_bracket, oracle.validate_word,
                         oracle.word_to_dyadic, oracle.CollisionOracle.query,
                         sources.MassSource.interval, procedures.grid_sweep,
                         cli.main)
    assert dyadic.validate_word is oracle.validate_word


def test_every_package_attribute_the_benchmark_reads_exists():
    # attributes are looked up when a workload runs, not when it loads,
    # so walk the source for each `<collidersim module>.<attr>` read
    found = set()
    for name in ("workloads", "run"):
        tree = ast.parse((PERFBENCH / f"{name}.py").read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names
                               if a.name == "collidersim")
            elif isinstance(node, ast.ImportFrom) and node.module == "collidersim":
                modules.update((a.asname or a.name, f"collidersim.{a.name}")
                               for a in node.names)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
    for module, attr in sorted(found):
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
    assert {("collidersim.kernels", "thresholds"), ("collidersim.kernels", "engines"),
            ("collidersim.kernels", "engine_name"), ("collidersim.rng", "derive_seed")} <= found
