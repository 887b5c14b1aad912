"""The package's public surface, and the names of it that the benchmark's
span tracer (bench/tracer.py, read here as text) keys its counters on: a
rename there would zero a traced metric without failing a run."""

import ast
import dataclasses
import importlib
import inspect
import os

import pytest

import shorttime

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "tracer.py")

PUBLIC = [
    "AssumptionReport", "CompositionPlan", "DriftDomainError", "DriftError",
    "DriftExpr", "DriftParseError", "ErrorEstimate", "GridDensity", "GridSpec",
    "InitialLaw", "KernelKind", "LampertiError", "LampertiMap", "MCConfig",
    "RateFit", "SampleSet", "approx_exponential", "builtin_drift",
    "compose_chapman", "density_distance", "girsanov_kernel_cdf",
    "kernel_eval", "kernel_matrix", "ks_distance", "lp_errors",
    "marginal_density", "normalization_defect", "parse_drift", "rate_fit",
    "sample_crypto", "sample_em_path", "solve_fokker_planck", "u_eval",
    "validate_assumption",
]

# The tracer keys its Monte Carlo span on lp_error, a name the package does
# not define (the pass is lp_errors); its re-keying is open in ROADMAP.md,
# so this key alone is not checked.
STALE = {"girsanov.lp_error"}

# The classes of the arguments whose fields a SIZES function reads.
ARG_CLASSES = {"plan": shorttime.CompositionPlan, "s": shorttime.SampleSet}


def test_public_names():
    assert sorted(shorttime.__all__) == PUBLIC
    assert all(hasattr(shorttime, name) for name in PUBLIC)


def _arg_read(node):
    """(index, name) if node is a call _arg(a, k, index, name), else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_arg"):
        return tuple(ast.literal_eval(a) for a in node.args[2:])
    return None


def _tracer_tables():
    """METHODS, and for each SIZES key the (index, name) of every argument
    its size function reads, with the (index, name, field) of every field
    it reads from one."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    tables = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    sizes = {}
    for key, fn in zip(tables["SIZES"].keys, tables["SIZES"].values):
        nodes = list(ast.walk(fn))
        args = {_arg_read(n) for n in nodes} - {None}
        fields = {_arg_read(n.value) + (n.attr,) for n in nodes
                  if isinstance(n, ast.Attribute) and _arg_read(n.value)}
        sizes[ast.literal_eval(key)] = args, fields
    return ast.literal_eval(tables["METHODS"]), sizes


METHODS, SIZES = _tracer_tables()


def _traced(key):
    """The function that tracer.Tracer.patch wraps for a span name: a
    METHODS method, or a public function defined in the layer's module."""
    layer, name = key.split(".")
    mod = importlib.import_module(f"shorttime.{layer}")
    for (m_layer, cls_name), methods in METHODS.items():
        for attr, suffix in methods.items():
            if m_layer == layer and suffix == name:
                return vars(getattr(mod, cls_name))[attr]
    fn = vars(mod).get(name)
    assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, key
    return fn


@pytest.mark.parametrize("layer, cls_name", sorted(METHODS))
def test_traced_methods_are_live(layer, cls_name):
    cls = getattr(importlib.import_module(f"shorttime.{layer}"), cls_name)
    for attr in METHODS[layer, cls_name]:
        assert inspect.isfunction(vars(cls).get(attr)), (cls_name, attr)


@pytest.mark.parametrize("key", sorted(set(SIZES) - STALE))
def test_sizes_read_live_parameters(key):
    params = list(inspect.signature(_traced(key)).parameters)
    args, fields = SIZES[key]
    assert args
    for index, name in args:
        assert params[index] == name, (key, index, params)
    for _, name, field in fields:
        names = {f.name for f in dataclasses.fields(ARG_CLASSES[name])}
        assert field in names, (key, name, field)


def test_only_the_known_key_is_stale():
    stale = set()
    for key in SIZES:
        try:
            _traced(key)
        except (AssertionError, KeyError):
            stale.add(key)
    assert stale == STALE
