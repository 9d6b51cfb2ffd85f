"""Every public name a module exports resolves."""

import importlib
import pkgutil

import pytest

import lelab

# ``lelab.__main__`` runs the command line when imported
MODULES = ["lelab"] + [f"lelab.{m.name}" for m in pkgutil.iter_modules(lelab.__path__)
                       if m.name != "__main__"]


def test_every_module_listed():
    assert {"lelab.closed_form", "lelab.radial", "lelab.eigen", "lelab.scan",
            "lelab.cli", "lelab.config"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})
