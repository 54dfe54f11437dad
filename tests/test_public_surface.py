"""The declared surface is real: ``__all__`` names resolve, ``kept.txt`` names exist.

``tests/traffic/run.py`` (CI's ``traffic`` job) lists the functions of ``src/``
no product command calls; each one that stays has a line in
``tests/traffic/kept.txt``.  Tier-1 cannot afford the traced run, but it can
hold both lists of names to the code.
"""

import importlib
import pkgutil

import pytest

import repro
from tests.traffic.run import kept_names, src_functions

MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_every_name_in_all_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names what the module does not define"
    assert len(set(exported)) == len(exported), f"{module_name}.__all__ repeats a name"


def test_kept_list_names_functions_that_exist_and_says_why():
    functions = src_functions()
    kept = kept_names()
    assert kept, "tests/traffic/kept.txt is empty"
    gone = sorted(set(kept) - set(functions))
    assert not gone, f"kept.txt names functions that src/ no longer has: {gone}"
    unexplained = sorted(name for name, reason in kept.items() if not reason)
    assert not unexplained, f"kept.txt lines without a reason: {unexplained}"
