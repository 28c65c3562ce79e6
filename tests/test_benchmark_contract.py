"""The contris names that the benchmark under ``perfbench/`` relies on.

The benchmark calls contris through module attributes and its traced run
wraps the functions listed in ``perfbench/layers.py``; renaming any of them
would break the benchmark without failing a unit test.  The perfbench files
are parsed, not imported, so nothing under ``perfbench/`` is written.
"""

import ast
import importlib
from pathlib import Path

import pytest

from contris import cli, mcsim

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"analytic", "cli", "mcsim", "quadrature", "specfun", "sysmodel"}


def traced_targets():
    """(owner, name) of every ``Target`` in ``layers.TARGETS``."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return [tuple(arg.value for arg in call.args[:2]) for call in node.value.elts]
    raise AssertionError("perfbench/layers.py defines no TARGETS")


def module_attributes():
    """Every ``<contris module>.<name>`` written in a perfbench file."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                names.add((node.value.id, node.attr))
    return sorted(names)


@pytest.mark.parametrize("owner,name", traced_targets())
def test_traced_names_resolve(owner, name):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    assert callable(getattr(obj, name))


@pytest.mark.parametrize("module,name", module_attributes())
def test_benchmark_attributes_resolve(module, name):
    assert hasattr(importlib.import_module(f"contris.{module}"), name)


def test_cli_binds_the_traced_sampling_functions():
    # the traced run wraps each module's own binding of a traced function
    assert cli.sample_field is mcsim.sample_field
    assert cli.run_replicates is mcsim.run_replicates
