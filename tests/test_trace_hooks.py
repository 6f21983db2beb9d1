"""The benchmark tracer's hooks still find every name they wrap.

`perfbench/spans.py` replaces functions at the names their callers look
them up by (for example `collidersim.oracle.distance_bracket`).  A
refactor that drops or bypasses one of those names would otherwise fail
only inside a traced benchmark run; here it fails in the unit suite.
"""

import importlib.util
from pathlib import Path

from collidersim import cli, dyadic, oracle, procedures, sources

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_restores(tmp_path, capsys):
    originals = (oracle.distance_bracket, oracle.validate_word,
                 oracle.word_to_dyadic, oracle.CollisionOracle.query,
                 sources.MassSource.interval, procedures.grid_sweep, cli.main)
    tracer = load_spans().Tracer()
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
    for name in ("cli.main", "procedures.bisection", "procedures.grid_sweep",
                 "oracle.query", "sources.distance_bracket", "sources.interval",
                 "dyadic.validate_word", "dyadic.word_to_dyadic"):
        assert tracer.stats.get(name, [0])[0] > 0, name
    assert tracer.counters["oracle.probe_depth.max"] >= 8
    assert originals == (oracle.distance_bracket, oracle.validate_word,
                         oracle.word_to_dyadic, oracle.CollisionOracle.query,
                         sources.MassSource.interval, procedures.grid_sweep,
                         cli.main)
    assert dyadic.validate_word is oracle.validate_word
