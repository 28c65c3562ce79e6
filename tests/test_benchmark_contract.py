"""The contris names that the benchmark under ``perfbench/`` relies on.

The benchmark calls contris through module attributes and its traced run
wraps the functions listed in ``perfbench/layers.py``; renaming any of them
would break the benchmark without failing a unit test.  The perfbench files
are parsed, not imported, so nothing under ``perfbench/`` is written.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from contris import cli, mcsim, sysmodel
from contris.errors import DomainError

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = PERFBENCH.parent / "src" / "contris"
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


def benchmark_calls():
    """Every call of a ``<contris module>.<name>[.<name>...]`` written in a
    perfbench file, as a pytest param of (module, attribute path, call)."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            names, func = [], node.func
            while isinstance(func, ast.Attribute):
                names.insert(0, func.attr)
                func = func.value
            if names and isinstance(func, ast.Name) and func.id in MODULES:
                label = f"{path.name}:{node.lineno}:{func.id}.{'.'.join(names)}"
                out.append(pytest.param(func.id, names, node, id=label))
    return out


@pytest.mark.parametrize("module,names,call", benchmark_calls())
def test_benchmark_calls_bind_to_signatures(module, names, call):
    # a parameter the benchmark passes must still exist where it passes it
    obj = importlib.import_module(f"contris.{module}")
    for name in names:
        obj = getattr(obj, name)
    signature = inspect.signature(obj)
    args = [arg for arg in call.args if not isinstance(arg, ast.Starred)]
    kwargs = {kw.arg: kw.value for kw in call.keywords if kw.arg is not None}
    # a starred argument hides its count, so only what is written is bound
    exact = len(args) == len(call.args) and len(kwargs) == len(call.keywords)
    (signature.bind if exact else signature.bind_partial)(*args, **kwargs)


def test_cli_binds_the_traced_sampling_functions():
    # the traced run wraps each module's own binding of a traced function
    assert cli.sample_field is mcsim.sample_field
    assert cli.run_replicates is mcsim.run_replicates


def hook_parameters():
    """(owner, name, index, parameter) for every argument a tracer hook in
    ``perfbench/layers.py`` reads as ``_arg(..., index, parameter)`` or
    ``_points(index, parameter)``."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text())
    reads = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            reads[node.name] = [
                tuple(arg.value for arg in call.args[2:4])
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg"
                and all(isinstance(arg, ast.Constant) for arg in call.args[2:4])]
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            for call in node.value.elts:
                owner, name = (arg.value for arg in call.args[:2])
                for hook in call.keywords:
                    if isinstance(hook.value, ast.Call):
                        pairs = [tuple(arg.value for arg in hook.value.args)]
                    else:
                        pairs = reads[hook.value.id]
                    out += [(owner, name, index, param) for index, param in pairs]
    return out


@pytest.mark.parametrize("owner,name,index,param", hook_parameters())
def test_hook_arguments_match_signatures(owner, name, index, param):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    if cls:
        obj = getattr(obj, cls)
    params = list(inspect.signature(getattr(obj, name)).parameters.values())
    if cls:
        params = params[1:]  # the tracer drops ``self`` before the hook reads
    assert params[index].name == param
    assert params[index].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


def test_hook_result_attributes():
    # the observers read rank, n and n_points off these results
    system = cli.default_system()
    grid = mcsim.make_grid(system.geometry, 5, 4)
    assert grid.n_points == 20
    gains = sysmodel.derive_gains(system)
    sampler = mcsim.build_surface_covariance(system.geometry, grid, system.correlation,
                                             gains.beta_ur)
    assert isinstance(sampler.rank, int) and 1 <= sampler.rank <= grid.n_points
    assert mcsim.run_replicates(system, grid, 3, 0).n == 3


def test_covariance_hook_contract():
    # perfbench/layers.py::_covariance reads geom, grid and model by position
    # and the rank and grid off the result
    params = inspect.signature(mcsim.build_surface_covariance).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        for name in ("geom", "grid", "model", "beta_ur")]
    system = cli.default_system()
    grid = mcsim.make_grid(system.geometry, 5, 4)
    beta_ur = sysmodel.derive_gains(system).beta_ur
    sampler = mcsim.build_surface_covariance(system.geometry, grid, system.correlation, beta_ur)
    assert sampler.grid == grid and sampler.grid.n_points == 20
    assert isinstance(sampler.rank, int) and 1 <= sampler.rank <= grid.n_points


@pytest.mark.parametrize("nx", [0, "8"])
def test_make_grid_rejects_bad_sides(nx):
    # the benchmark builds its grids through make_grid, which checks the
    # sides by GridSpec's one rule before any cell area is taken
    with pytest.raises(DomainError):
        mcsim.make_grid(sysmodel.SurfaceGeometry(1.0, 1.0), nx, 4)


# wrappers that src/ does not call, kept only while the benchmark does; each
# carries this marker comment
PERFBENCH_ONLY = ["analytic.mean_snr", "analytic.second_moment_snr",
                  "analytic.YMoments.from_first_two", "mcsim.make_grid"]
MARKER = "# kept for the callers in perfbench/"


def dotted_references(paths):
    """Every ``<contris module>.<name>[.<name>...]`` written in these files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            parts, value = [], node
            while isinstance(value, ast.Attribute):
                parts.insert(0, value.attr)
                value = value.value
            if parts and isinstance(value, ast.Name) and value.id in MODULES:
                names.add(".".join([value.id, *parts]))
    return names


def called_names(paths):
    """The last name of every call's function in these files."""
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for path in paths for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))}


@pytest.mark.parametrize("dotted", PERFBENCH_ONLY)
def test_perfbench_only_wrappers(dotted):
    # when the benchmark stops calling a wrapper, the first assert names it
    # for deletion
    assert dotted in dotted_references(PERFBENCH.glob("*.py")), (
        f"perfbench/ no longer uses {dotted}: delete the wrapper")
    module, *path = dotted.split(".")
    assert path[-1] not in called_names(PACKAGE.glob("*.py")), (
        f"src/ calls {dotted}, which is kept only for perfbench/")
    obj = importlib.import_module(f"contris.{module}")
    for name in path:
        obj = getattr(obj, name)
    assert MARKER in inspect.getsource(obj)
