"""The names the benchmark's layer tracer wraps and the entry points its
child processes call must survive refactors; a break here would otherwise
show up only under ``perfbench/run.py --trace 1``."""

import importlib.util
import inspect
import os

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
