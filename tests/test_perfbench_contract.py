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
    table = family._table
    assert len(family) == len(family.instances) == 512
    assert good_bits == [table.rows.size, table.cols.size]
