"""Every name the benchmark's span tracer wraps still exists where
``perfbench/tracer.py``'s ``install`` looks it up, so a rename or a moved
method fails here and not only in a traced benchmark run."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPS = _tracer().WRAPS


@pytest.mark.parametrize("module, qual, aggregate", WRAPS,
                         ids=[f"{m}.{q}" for m, q, _ in WRAPS])
def test_wrapped_name_resolves(module, qual, aggregate):
    # install reads sys.modules["eisenzeta.<module>"], then a function as an
    # attribute of it, or a method from its class's own __dict__
    home = importlib.import_module(f"eisenzeta.{module}")
    assert sys.modules[f"eisenzeta.{module}"] is home
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert attr in getattr(home, cls_name).__dict__
    else:
        assert callable(getattr(home, qual))


def test_integrate_cells_arguments():
    # the integrate_cells wrapper binds these parameters by name
    from eisenzeta.padic import integrate_cells
    params = inspect.signature(integrate_cells).parameters
    assert {"h", "region", "M", "integrands"} <= set(params)
