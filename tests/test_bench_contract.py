"""The names the benchmark's layer tracer wraps and the entry points its
child processes call must survive refactors; a break here would otherwise
show up only under ``perfbench/run.py --trace 1``."""

import importlib.util
import inspect
import json
import os
import sys

import fglab.verify

PERFBENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "perfbench")


def load_perfbench(name: str):
    """A perfbench script loaded as a module, with its directory on the path
    while it imports (child.py imports calibrate.py from there)."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH_DIR, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, PERFBENCH_DIR)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(PERFBENCH_DIR)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_tracer_targets_resolve():
    for name, owner, attr, _ in load_tracer().TARGETS:
        if isinstance(owner, type):
            assert attr in owner.__dict__, name
        else:
            assert hasattr(owner, attr), name


def test_build_pipeline_is_cached():
    assert hasattr(fglab.verify.build_pipeline, "cache_info")


def test_descent_command_signature():
    params = inspect.signature(fglab.verify.run_descent_command).parameters
    assert {"u_prec", "random_count", "seed", "force"} <= set(params)


def test_tracer_hooks_read_live_fields():
    """The result hooks read ReducedLawData grids, DescentTrace.steps and
    horizon_flagged, and MultiSeries.terms; a rename there would break only
    traced benchmark runs.  uninstall must put every original back."""
    import fglab.bigseries
    import fglab.descent
    from fglab.fgl import ChromaticConfig
    from fglab.scalars import USeries
    from fglab.series import MultiSeries

    tracer_module = load_tracer()
    modules = [m for k, m in sys.modules.items() if k.startswith("fglab") and m]
    originals = {}
    for _, owner, attr, _ in tracer_module.TARGETS:
        if isinstance(owner, type):
            originals[owner, attr] = owner.__dict__[attr]
            continue
        for mod in modules:
            if getattr(mod, attr, None) is getattr(owner, attr):
                originals[mod, attr] = getattr(owner, attr)

    op = fglab.verify.build_pipeline(2, 1, 0, 32).operator
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        fglab.bigseries.build_reduced_law_data(ChromaticConfig(2, 1, u_precision=4))
        fglab.descent.descent_run(USeries.monomial(2, 32, 5), op)
        x = MultiSeries.variable(("x",), "x", 4)
        (x + x * x) * (x + x * x)
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, (owner, attr)
    c = tracer.counters
    assert c["bigseries.grid_terms"] > 0
    assert c["descent.steps"] > 0
    assert c["series.mul_pairs"] > 0 and c["series.mul_result_terms"] > 0
    assert tracer.summary()["descent.run_calls"] == 1


def test_reference_digests_recompute():
    """The benchmark's correctness gate: the four digests recorded in
    perfbench/references.json, recomputed with the calls perfbench/child.py
    makes for its cold verify and its seed-0 reference batch."""
    with open(os.path.join(PERFBENCH_DIR, "references.json")) as fh:
        refs = json.load(fh)
    digest = load_perfbench("child").digest  # sha256 of the timing-stripped bytes
    verify, descent = fglab.verify.run_verify, fglab.verify.run_descent_command
    assert digest(verify(2, 2).to_dict()) == refs["verify"]["2-2-32"]
    assert digest(verify(2, 1, 0, 96, force=True).to_dict()) == refs["verify"]["2-1-96"]
    assert (digest(descent(2, 2, u_prec=32, random_count=100, seed=0).to_dict())
            == refs["descent"]["2-2-32-b100"])
    assert (digest(descent(2, 1, u_prec=96, random_count=10, seed=0, force=True).to_dict())
            == refs["descent"]["2-1-96-b10"])


def test_timed_batch_seeds_pass_the_gate():
    """The timed batches run at seeds other than 0: at (2,2), seeds 1-20 of
    the workload's batch shape pass every row and end every trace at a unit,
    by the child's own rule."""
    is_unit = load_perfbench("child").is_unit
    for seed in range(1, 21):
        payload = fglab.verify.run_descent_command(
            2, 2, u_prec=32, random_count=100, seed=seed
        ).to_dict()
        assert len(payload["descent_traces"]) == 100
        assert all(row["status"] == "pass" for row in payload["checks"]), seed
        assert all(is_unit(tr["terminal"]) for tr in payload["descent_traces"]), seed
