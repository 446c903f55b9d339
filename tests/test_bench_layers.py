"""The traced benchmark wraps functions by name; every name it lists must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("mod, fns", sorted(load_layers().items()))
def test_traced_layer_functions_resolve(mod, fns):
    module = importlib.import_module(f"edchan.{mod}")
    for fn in fns:
        target = module
        for attr in fn.split("."):
            assert hasattr(target, attr), f"edchan.{mod}.{fn} is listed in bench/tracing.py"
            target = getattr(target, attr)
        assert callable(target)
