"""The names the benchmark's layer tracer wraps and the entry points its
child processes call must survive refactors; a break here would otherwise
show up only under ``perfbench/run.py --trace 1``."""

import importlib.util
import inspect
import os
import sys

import fglab.verify

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    from fglab.series import MultiSeries, RationalRing

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
        x = MultiSeries.variable(RationalRing(), ("x",), "x", 4)
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
