"""The benchmark's workload file reads only names the library has, so a
rename in the library fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

import mixbound as mb
from mixbound import adversary as adv
from mixbound import staircase as st

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"
MODULE_ALIASES = {"adv", "ch", "gr", "sv", "st", "vf"}


def _resolve(module: str, name: str):
    """module.name, where name may be a submodule not yet imported."""
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")
    return getattr(owner, name)


def test_perfbench_workload_reads_only_existing_library_names():
    tree = ast.parse(WORKLOAD.read_text(), filename=str(WORKLOAD))
    aliases, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mixbound":
            for alias in node.names:
                try:
                    value = _resolve(node.module, alias.name)
                except (AttributeError, ImportError):
                    missing.append(f"{node.module}.{alias.name}")
                    continue
                aliases[alias.asname or alias.name] = value
    assert MODULE_ALIASES <= set(aliases)
    read = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in MODULE_ALIASES):
            read.add((node.value.id, node.attr))
            if not hasattr(aliases[node.value.id], node.attr):
                missing.append(f"{node.value.id}.{node.attr}")
    assert len(read) >= 10
    assert not missing, missing


def test_perfbench_workload_reads_an_enumerated_family_as_it_does():
    # the traced breakdown counts the good pairs from the family's
    # instances: len(family), family.instances, inst.walk and inst.bit
    P = mb.lazy_simple_walk(mb.complete_graph(4))
    params = mb.default_params(P)
    family = adv.enumerate_family(P, params)
    good_bits = [0, 0]
    for inst in family.instances:
        if st.is_good_walk(inst.walk, params.T):
            good_bits[inst.bit] += 1
    rel = family._relation
    assert len(family) == len(family.instances) == 512
    assert good_bits == [int((rel.good & (rel.bits == bit)).sum()) for bit in (0, 1)]


def _workload_constants(*names):
    """The literal values the workload file assigns to names."""
    tree = ast.parse(WORKLOAD.read_text(), filename=str(WORKLOAD))
    values = {target.id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) for target in node.targets
              if isinstance(target, ast.Name) and target.id in names}
    assert set(values) == set(names)
    return [values[name] for name in names]


def test_library_reproduces_the_benchmark_references():
    # a change that would make a benchmark run report wrong outputs fails here
    t_reference, exact_reference, tol = _workload_constants(
        "T_REFERENCE", "EXACT_REFERENCE", "EXACT_TOL")
    assert t_reference == {"hypercube:11": 91, "hypercube:4": 12}
    for spec, T in t_reference.items():
        P = mb.lazy_simple_walk(mb.graph_from_spec(spec))
        assert mb.default_params(P).T == T
    assert set(exact_reference) == {("complete:6", 2, 4), ("complete:4", 2, 4)}
    for (spec, T, L), (M, q) in exact_reference.items():
        P = mb.lazy_simple_walk(mb.graph_from_spec(spec))
        report = adv.exact_lower_bound(P, st.custom_params(P, T=T, L=L))
        assert abs(report.M - M) <= tol and abs(report.q - q) <= tol
