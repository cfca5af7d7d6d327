"""Every layer the benchmark tracer wraps still exists under its traced name.

bench/tracer.py looks each TARGETS entry up with getattr on the module, or in
the class __dict__ for methods; a renamed or deleted function would make
`bench/run.py --trace 1` crash, so the lookup is repeated here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS)
def test_target_resolves(target):
    module_name, _, qualname = target.partition(".")
    module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        value = getattr(module, owner_name).__dict__[attr]
    else:
        value = getattr(module, attr)
    assert callable(value), target
