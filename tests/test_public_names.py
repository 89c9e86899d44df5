"""Every name a module exports through __all__ exists: a stale entry breaks `import *`."""

import importlib
import pkgutil

import pytest

import five

# five.__main__ runs the command line when imported
MODULES = ["five"] + [f"five.{info.name}" for info in pkgutil.iter_modules(five.__path__) if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


STEPS = ["prewhiten", "five_iteration", "evaluate_nll", "head_residual", "project_back", "apply_demixing"]


@pytest.mark.parametrize("name", STEPS)
def test_step_functions_live_in_core_not_the_package(name):
    # five exports the extraction; its steps, which take the raw (F, N, M)
    # data, are five.core's
    assert name in five.core.__all__
    assert name not in five.__all__
