import hashlib
import io
import itertools
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import numpy as np
import pytest

import mixbound as mb
from mixbound import chains
from mixbound.chains import MAX_DENSE_N
from mixbound.cli import analyze_report, main
from mixbound.config import ExperimentConfig
from mixbound.errors import InputError


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def strict_json(text: str):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens
    Python's parser admits: they are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=refuse)


def load_schema():
    ref = resources.files("mixbound") / "schemas" / "analyze.schema.json"
    return json.loads(ref.read_text())


# ---------------------------------------------------------------------------
# graph / chain subcommands
# ---------------------------------------------------------------------------

def test_graph_gen():
    code, out, _ = run_cli("graph", "gen", "--graph", "cycle:4")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 4
    assert sorted(map(tuple, doc["edges"])) == [(1, 2), (1, 4), (2, 3), (3, 4)]


# sha256 of `graph gen` stdout, taken while the graph was still stored as
# an edge set and adjacency tuples; the CSR index must reproduce it.
_GRAPH_GEN_SHA256 = {
    ("cycle:9", None): "1cd2c77f7a56407b882a5b7d5ea199b788e491b440054609b3baf46e853232c6",
    ("path:12", None): "6aa2cfc99326cca3c251d74b121b4a1fcd5feb53ebb2bc7f07360be6826900eb",
    ("complete:16", None): "7c22e3202e6e661be796b4389542f9a803a872824c8370cb8acdab7a7b4a5d35",
    ("hypercube:8", None): "33f283499f31ca3dc77ea5f177dfbf60ec332e61aa5e4600d442066bd90430c4",
    ("torus2d:6x5", None): "b5771fc53ef215d44805f94221e5509851df10eb6c1eeaa849e82686abe1d15a",
    ("barbell:30", None): "4b1786759a456aa5d982828a04c820736b1cfd142df5fbede8fe76f67b39b836",
    ("random-regular:64,4", 0): "b9bd69845dedfa7d3cca6d4da42dc2c8bb4bf3de15eb5f8a6e45f72e4b930b36",
    ("random-regular:64,4", 1): "5f7b8c9d56aaa5ddb43dea184a60431818bf947d0f0f6e3e344e5bc2e7b41514",
    ("random-regular:64,4", 2): "2ad6e5ae536265ba223a4097a8c7cd640b9c2995c34556bae64ab0dbfe26cb49",
    ("random-regular:64,4", 3): "4ddb607b01916eeada92cedece0cc55413fa3087748179dbe42baa72ef489c04",
    ("random-regular:64,4", 4): "ec4ce4b8e4061e65aa3c1923a4f37380fac56373ce0f55aea226741ec5bc5965",
    ("random-regular:64,4", 5): "bba866e96af24698c5185a4073faed56cdd40fd03071e94626b2db655d9909fe",
    ("random-regular:256,4", 0): "01f8511fdc0abcdad29500e0564e2aad5d045d43dc11ac5d3b23cd8739fb27a5",
    ("random-regular:4096,4", 0): "23b91d17c9fdfdbc8f44089d9657192e1a3c95ab2fe3e8cc6a8ef081bcdb6fcf",
}


@pytest.mark.parametrize("spec,seed", list(_GRAPH_GEN_SHA256))
def test_graph_gen_golden(spec, seed):
    argv = ["graph", "gen", "--graph", spec] + ([] if seed is None else ["--seed", str(seed)])
    code, out, err = run_cli(*argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == _GRAPH_GEN_SHA256[spec, seed]


def test_graph_gen_seeded_deterministic():
    runs = [run_cli("graph", "gen", "--graph", "random-regular:8,3", "--seed", "5")
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_graph_gen_requires_seed_for_random():
    code, _, err = run_cli("graph", "gen", "--graph", "random-regular:8,3")
    assert code == 1
    assert "seed" in err


def assert_same_tables(P, Q):
    for a, b in zip(P.sampling_table + P.in_neighbours, Q.sampling_table + Q.in_neighbours):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(P.pi, Q.pi) and P.flags == Q.flags


# sha256 of `chain build` stdout, the chain's stored entries, with each row
# divided by the exactly rounded sum of its entries. Both chains have rows
# whose dense-order (numpy pairwise) sum differs from that in the last bit,
# which once gave hypercube:6 two distinct off-diagonal weights; it now
# stores 0.5 and 1/12.
_CHAIN_BUILD_SHA256 = {
    ("hypercube:6", "lazy-simple"): "e11f941fea830ea36d9b356b2e1d591808299ba5849f599c3e510cbd0e12a18a",
    ("barbell:10", "max-degree"): "3944d0618151745e624112f63f2bf434db784a6a40927c0430bf08fef2c3ae47",
}


@pytest.mark.parametrize("spec,kind", list(_CHAIN_BUILD_SHA256))
def test_chain_build_golden(spec, kind):
    code, out, err = run_cli("chain", "build", "--graph", spec, "--chain", kind)
    assert (code, err) == (0, "")
    g = mb.graph_from_spec(spec)
    assert_same_tables(mb.chain_from_json(strict_json(out)), mb.build_chain(g, kind))
    assert hashlib.sha256(out.encode()).hexdigest() == _CHAIN_BUILD_SHA256[spec, kind]


def test_chain_build_above_the_dense_cap():
    # the document is the stored entries, so no size needs the dense view
    g = mb.path_graph(MAX_DENSE_N + 1)
    code, out, err = run_cli("chain", "build", "--graph", f"path:{g.n}")
    assert (code, err) == (0, "")
    assert_same_tables(mb.chain_from_json(strict_json(out)), mb.lazy_simple_walk(g))


def test_chain_build_roundtrip(tmp_path):
    out_file = tmp_path / "chain.json"
    code, _, _ = run_cli("chain", "build", "--graph", "path:3",
                         "--chain", "max-degree", "--out", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["entries"][0] == [1, 1, 0.75]
    # a chain file is accepted wherever a chain kind is
    code, out, _ = run_cli("chain", "analyze", "--graph", "path:3",
                           "--chain", str(out_file))
    assert code == 0
    assert json.loads(out)["sigma"] == pytest.approx(1.0)


def test_analyze_chain_file_above_the_dense_cap_keeps_t_mix(tmp_path, monkeypatch):
    # a file of the named walk is that walk, so its t_mix needs no dense
    # matrix; one of another chain on the same graph still does
    monkeypatch.setattr(chains, "MAX_DENSE_N", 8)
    analyze = ("chain", "analyze", "--graph", "hypercube:4", "--expansion-cap", "8")
    assert run_cli("chain", "build", "--graph", "hypercube:4",
                   "--out", str(tmp_path / "lazy.json"))[0] == 0
    named = json.loads(run_cli(*analyze)[1])
    code, out, _ = run_cli(*analyze, "--chain", str(tmp_path / "lazy.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["t_mix"] == named["t_mix"] == 12
    for key in ("sigma", "lambda2", "t_mix_bracket", "omitted"):
        assert doc[key] == named[key]
    P = mb.metropolis_walk(mb.hypercube_graph(4), np.arange(17, 33) / 392)
    (tmp_path / "skewed.json").write_text(json.dumps(mb.chain_to_json(P)))
    code, out, _ = run_cli(*analyze, "--chain", str(tmp_path / "skewed.json"))
    assert code == 0
    assert json.loads(out)["omitted"]["t_mix"] == (
        "a dense 16 x 16 matrix is above the cap of n=8")


def test_analyze_k2_values_and_schema():
    code, out, _ = run_cli("chain", "analyze", "--graph", "complete:2")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["sigma"] == 1.0
    assert doc["lambda2"] == pytest.approx(0.0, abs=1e-12)
    assert doc["t_mix"] == 1
    assert doc["t_mix_bracket"] == [0.0, 3]  # eps = 1/4: ceil(ln 8) = 3
    assert doc["flags"] == {"lazy": True, "irreducible": True, "reversible": True}
    assert doc["omitted"] == {}


def test_analyze_omits_bruteforce_above_cap():
    code, out, _ = run_cli("chain", "analyze", "--graph", "barbell:30")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert "phi_star" not in doc
    assert "cap" in doc["omitted"]["phi_star"]
    assert "cap" in doc["omitted"]["beta"]


def test_analyze_expansion_cap_override():
    code, out, _ = run_cli("chain", "analyze", "--graph", "complete:6",
                           "--expansion-cap", "4")
    assert code == 0
    doc = json.loads(out)
    assert "phi_star" not in doc and "beta" not in doc
    assert doc["omitted"] == {"phi_star": "n=6 exceeds brute-force cap 4",
                              "beta": "n=6 exceeds brute-force cap 4"}


def test_analyze_reports_limited_for_nonreversible(tmp_path):
    chain_doc = {"n": 3, "entries": [[1, 1, 0.5], [1, 2, 0.5], [2, 2, 0.5], [2, 3, 0.5],
                                     [3, 1, 0.5], [3, 3, 0.5]]}
    path = tmp_path / "biased.json"
    path.write_text(json.dumps(chain_doc))
    code, out, _ = run_cli("chain", "analyze", "--graph", "cycle:3",
                           "--chain", str(path))
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema())
    assert doc["flags"]["reversible"] is False
    assert "lambda2" in doc["omitted"]
    assert "t_mix_bracket" in doc["omitted"]
    assert "t_mix" in doc  # still computable


def test_analyze_lists_a_capped_lanczos_basis_under_omitted(monkeypatch):
    # spectral_gap's CapabilityError once escaped, and the command exited 2
    # with no document
    monkeypatch.setattr(chains, "MAX_DENSE_N", 8)
    solves, spectral_gap = [], chains.spectral_gap
    monkeypatch.setattr(chains, "spectral_gap", lambda P: solves.append(P) or spectral_gap(P))
    doc = analyze_report(mb.lazy_simple_walk(mb.path_graph(64)))
    jsonschema.validate(doc, load_schema())
    assert len(solves) == 1  # the bracket does not solve for lambda2 again
    for key in ("lambda2", "gap", "t_mix_bracket"):
        assert key not in doc
        assert doc["omitted"][key] == ("Lanczos basis of 40 x 64 after 19 steps is above "
                                       "the dense cap of 8^2 cells")
    assert doc["omitted"]["t_mix"] == "a dense 64 x 64 matrix is above the cap of n=8"


def test_analyze_report_reducible():
    g = mb.path_graph(3)
    P = mb.make_chain(g, np.eye(3))
    doc = analyze_report(P)
    jsonschema.validate(doc, load_schema())
    assert doc["omitted"]["sigma"] == "chain is reducible"


# ---------------------------------------------------------------------------
# instance sample
# ---------------------------------------------------------------------------

def test_instance_sample_hides_values_by_default():
    code, out, _ = run_cli("instance", "sample", "--graph", "complete:16",
                           "--chain", "lazy-simple", "--seed", "3")
    assert code == 0
    doc = json.loads(out)
    assert "f_values" not in doc
    assert doc["b"] in (0, 1)
    assert doc["walk"][0] == 1
    assert len(doc["walk"]) == doc["L"] + 1


def test_instance_sample_reveal_flag():
    code, out, _ = run_cli("instance", "sample", "--graph", "complete:3",
                           "--chain", "lazy-simple", "--seed", "1",
                           "--T", "1", "--L", "2", "--reveal")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["f_values"]) == 3


def test_instance_sample_requires_seed():
    code, _, err = run_cli("instance", "sample", "--graph", "complete:3")
    assert code == 1
    assert "input error" in err


def test_instance_sample_capability_exit():
    code, _, err = run_cli("instance", "sample", "--graph", "path:2",
                           "--chain", "lazy-simple", "--seed", "1",
                           "--T", "1", "--L", "2")
    assert code == 2
    assert "capability error" in err


def test_instance_sample_lone_T_exit():
    code, _, err = run_cli("instance", "sample", "--graph", "complete:4",
                           "--seed", "1", "--T", "2")
    assert code == 1
    assert err == "input error: override T and L together or not at all\n"


def test_instance_sample_bad_graph_exit():
    code, _, err = run_cli("instance", "sample", "--graph", "blob:9", "--seed", "1")
    assert code == 1
    assert "input error" in err


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_exhaustive_all_correct():
    code, out, err = run_cli("bench", "--graph", "hypercube:3",
                             "--chain", "lazy-simple", "--solver", "exhaustive",
                             "--trials", "4", "--seed", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "seed,solver,n,distinct,total,found_vertex,correct,error"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert all(r[6] == "true" for r in rows)
    assert all(r[3] == "8" for r in rows)  # distinct = n
    summary = json.loads(err)
    assert summary["all_correct"] is True
    assert summary["solvers"]["exhaustive"]["mean_distinct"] == 8


def test_bench_deterministic_csv():
    runs = [run_cli("bench", "--graph", "complete:9", "--chain", "lazy-simple",
                    "--trials", "3", "--seed", "11") for _ in range(2)]
    assert runs[0] == runs[1]


def test_bench_config_roundtrip(tmp_path):
    config = ExperimentConfig(graph="complete:9", chain="lazy-simple", seed=5,
                              trials=2, solvers=("steepest",))
    assert ExperimentConfig.from_dict(config.to_dict()) == config
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config.to_dict()))
    code, out, err = run_cli("bench", "--config", str(cfg_path))
    assert code == 0
    assert out.splitlines()[0].startswith("seed,solver")


_CONFIG = {"graph": "complete:9", "chain": "lazy-simple", "seed": 1, "trials": 1}


@pytest.mark.parametrize("flags", [
    ("--graph", "complete:9"), ("--chain", "lazy-simple"), ("--seed", "5"),
    ("--trials", "5"), ("--solver", "steepest"), ("--T", "1"), ("--L", "2"),
    ("--format", "json"), ("--format", "json", "--trials", "5", "--solver", "steepest")],
    ids=lambda flags: "".join(f for f in flags if f.startswith("--")))
def test_bench_config_refuses_the_flags_its_file_sets(tmp_path, flags):
    # once, --format json --trials 5 --solver steepest printed the CSV of
    # the file's 2 trials x 3 solvers
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**_CONFIG, "trials": 2}))
    code, out, err = run_cli("bench", "--config", str(cfg_path), *flags)
    assert (code, out) == (1, "")
    assert err.startswith("input error: ") and err.count("\n") == 1
    assert all(flag in err for flag in flags if flag.startswith("--"))


def test_bench_config_takes_out_from_the_command_line(tmp_path):
    cfg_path, csv_path = tmp_path / "config.json", tmp_path / "trials.csv"
    cfg_path.write_text(json.dumps({**_CONFIG, "out": str(tmp_path / "unused.csv")}))
    code, out, _ = run_cli("bench", "--config", str(cfg_path), "--out", str(csv_path))
    assert code == 0
    assert json.loads(out)["all_correct"] is True
    assert csv_path.read_text().startswith("seed,solver")
    assert not (tmp_path / "unused.csv").exists()


def test_bench_json_format():
    code, out, _ = run_cli("bench", "--graph", "complete:9", "--chain",
                           "lazy-simple", "--trials", "2", "--seed", "1",
                           "--format", "json", "--solver", "steepest")
    assert code == 0
    doc = json.loads(out)
    assert {row["solver"] for row in doc["trials"]} == {"steepest"}
    assert doc["summary"]["all_correct"] is True
    assert "mixing" in doc["summary"]["bounds"]


def test_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(graph="cycle:5", chain="lazy-simple", seed=1, trials=0)
    with pytest.raises(InputError):
        ExperimentConfig(graph="cycle:5", chain="lazy-simple", seed=1,
                         solvers=("nope",))
    with pytest.raises(InputError):
        ExperimentConfig(graph="cycle:5", chain="lazy-simple", seed=1, T=3)
    with pytest.raises(InputError, match="out must be a string"):
        ExperimentConfig(graph="cycle:5", chain="lazy-simple", seed=1, out=5)


@pytest.mark.parametrize("caps", [{"mixing_steps": "abc"},
                                  {"good_walk_retries": 0},
                                  {"enumeration": True},
                                  {"expansion_bruteforce": 2.5}])
def test_bench_config_bad_cap_value(tmp_path, caps):
    [name] = caps
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"graph": "complete:9", "chain": "lazy-simple",
                                    "seed": 1, "trials": 1, "caps": caps}))
    code, out, err = run_cli("bench", "--config", str(cfg_path))
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ")
    assert repr(name) in err


@pytest.mark.parametrize("command,content", [
    pytest.param("bench --config", "{bad json", id="config-not-json"),
    pytest.param("bench --config", "[1, 2]", id="config-not-object"),
    pytest.param("bench --config", json.dumps({**_CONFIG, "seed": "x"}), id="seed-string"),
    pytest.param("bench --config", json.dumps({**_CONFIG, "T": "2", "L": "4"}),
                 id="T-L-strings"),
    pytest.param("bench --config", json.dumps({**_CONFIG, "caps": [1]}), id="caps-list"),
    pytest.param("bench --config", json.dumps({**_CONFIG, "graph": 8}), id="graph-int"),
    pytest.param("bench --config", json.dumps({**_CONFIG, "solvers": 5}), id="solvers-int"),
    pytest.param("bench --config", None, id="config-directory"),
    pytest.param("graph gen --graph", '{"n": 4, "edges": [[1, 2]', id="graph-truncated"),
    pytest.param("graph gen --graph", '{"n": 4, "edges": [["a", 1]]}', id="edge-string"),
    pytest.param("graph gen --graph", '{"n": 4, "edges": 5}', id="edges-int"),
    pytest.param("chain build --graph cycle:4 --chain", '{"n": 4, "entries": ',
                 id="chain-truncated"),
])
def test_malformed_input_file_is_an_input_error(tmp_path, command, content):
    path = tmp_path / "input.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    code, out, err = run_cli(*command.split(), str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("input error")
    assert "Traceback" not in err


_PATH3_ENTRIES = [[1, 1, 0.5], [1, 2, 0.5], [2, 1, 0.25], [2, 2, 0.5], [2, 3, 0.25],
                  [3, 2, 0.5], [3, 3, 0.5]]


# Each of these once parsed by truncation: n = 3.9 and the ends 1.9, 3.2
# built path:3, and true was read as vertex 1.
@pytest.mark.parametrize("command,doc,kind", [
    pytest.param("chain build --chain lazy-simple --graph",
                 {"n": 3.9, "edges": [[1.9, 2], [2, 3.2]]}, "graph", id="graph-floats"),
    pytest.param("chain build --chain lazy-simple --graph",
                 {"n": 3, "edges": [[True, 2], [2, 3]]}, "graph", id="graph-bool-end"),
    pytest.param("graph gen --graph", {"n": True, "edges": [[1, 2]]}, "graph",
                 id="graph-bool-n"),
    pytest.param("chain analyze --graph path:3 --chain",
                 {"n": 3.9, "entries": _PATH3_ENTRIES}, "chain", id="chain-float-n"),
    pytest.param("chain build --graph path:3 --chain",
                 {"n": "3", "entries": _PATH3_ENTRIES}, "chain", id="chain-string-n"),
])
def test_file_numbers_must_be_integers(tmp_path, command, doc, kind):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(*command.split(), str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"input error: malformed {kind} document: expected an integer")


# Each of these was once coerced or passed on: the strings and true were
# read as the numbers 0.5 and 1 and the chain analysed or built, and a NaN
# row ended in a LinAlgError traceback.
@pytest.mark.parametrize("command,doc", [
    pytest.param("chain analyze --graph complete:2 --chain",
                 {"n": 2, "entries": [[1, 1, "0.5"], [1, 2, "0.5"], [2, 1, True], [2, 2, 0.0]]},
                 id="string-and-bool-rows"),
    pytest.param("chain build --graph complete:2 --chain",
                 {"n": 2, "entries": [[1, 1, 0.5], [1, 2, 0.5], [2, 1, True], [2, 2, 0.0]]},
                 id="bool-row"),
    pytest.param("chain analyze --graph path:3 --chain",
                 {"n": 3, "entries": _PATH3_ENTRIES, "pi": ["0.25", "0.5", "0.25"]},
                 id="string-pi"),
    pytest.param("chain build --graph path:3 --chain",
                 {"n": 3, "entries": _PATH3_ENTRIES, "pi": [0.25, 0.5, False]}, id="bool-pi"),
    pytest.param("chain build --graph complete:2 --chain",
                 {"n": 2, "entries": [[1, 1, math.nan], [1, 2, math.nan], [2, 1, 0.5],
                                      [2, 2, 0.5]]}, id="nan-row"),
    pytest.param("chain analyze --graph path:3 --chain",
                 {"n": 3, "entries": _PATH3_ENTRIES, "pi": [0.25, math.inf, 0.25]},
                 id="infinite-pi"),
])
def test_chain_file_entries_must_be_numbers(tmp_path, command, doc):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(*command.split(), str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("input error: malformed chain document: expected a number")


@pytest.mark.parametrize("doc,message", [
    pytest.param({"n": 3, "entries": [*_PATH3_ENTRIES[:-1], [3, 4, 0.5]]},
                 "entry [3, 4, 0.5] has a vertex outside 1..3", id="vertex-out-of-range"),
    pytest.param({"n": 3, "entries": [*_PATH3_ENTRIES, [2, 3, 0.25]]},
                 "pair (2, 3) is listed twice", id="repeated-pair"),
    pytest.param({"n": 3, "entries": [*_PATH3_ENTRIES, [1, 3, -0.5]]},
                 "entry [1, 3, -0.5] is negative", id="negative-entry"),
    # the dense form that chain build wrote before the entries form
    pytest.param({"n": 3, "rows": [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]},
                 "malformed chain document: 'entries'", id="rows-document"),
])
def test_chain_file_entries_are_checked(tmp_path, doc, message):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("chain", "analyze", "--graph", "path:3", "--chain", str(path))
    assert (code, out, err) == (1, "", f"input error: {message}\n")


def test_bench_config_unknown_key_is_an_input_error(tmp_path):
    # "trails" once ran the default 10 trials of every solver and exited 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"graph": "cycle:8", "chain": "lazy-simple",
                                    "seed": 1, "trails": 3,
                                    "solver": ["steepest"]}))
    code, out, err = run_cli("bench", "--config", str(cfg_path))
    assert code == 1
    assert out == ""
    assert err.startswith("input error") and "trails" in err


def test_unwritable_out_path_is_an_input_error(tmp_path):
    code, out, err = run_cli("graph", "gen", "--graph", "cycle:4", "--out", str(tmp_path))
    assert code == 1
    assert out == ""
    assert err.startswith("input error: ") and str(tmp_path) in err
    assert "Traceback" not in err


def test_out_file_that_fails_to_encode_is_removed(tmp_path, monkeypatch):
    # the document is streamed, so "a" is written before "z" fails
    monkeypatch.setattr(mb.graphs, "graph_to_json", lambda g: {"a": 1, "z": object()})
    path = tmp_path / "graph.json"
    path.write_text("old")
    with pytest.raises(TypeError, match="not JSON serializable"):
        run_cli("graph", "gen", "--graph", "cycle:4", "--out", str(path))
    assert not path.exists()


def test_missing_input_file_message(tmp_path):
    path = tmp_path / "absent.json"
    code, _, err = run_cli("bench", "--config", str(path))
    assert code == 1
    assert err == f"input error: [Errno 2] No such file or directory: '{path}'\n"


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_numeric():
    code, out, _ = run_cli("bound", "--n", "16", "--t-mix", "2", "--sigma", "1")
    assert code == 0
    doc = strict_json(out)
    assert doc["values"]["mixing"] == pytest.approx(0.09957, abs=5e-6)


@pytest.mark.parametrize("option", ["--t-mix", "--sigma", "--beta", "--d-max"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_bound_refuses_non_finite_inputs(option, value):
    args = {"--n": "100", "--t-mix": "5", "--sigma": "1", "--lambda2": "0.5",
            "--beta": "1.5", "--d-max": "6"}
    code, out, _ = run_cli("bound", *itertools.chain(*args.items()))
    assert code == 0
    strict_json(out)
    code, out, err = run_cli("bound", *itertools.chain(*{**args, option: value}.items()))
    assert (code, out) == (1, "")
    assert err.startswith("input error: ")


def test_bound_with_a_huge_sigma_reads_zero():
    # e^(3 * 300) is past the largest float; it once escaped as OverflowError
    code, out, err = run_cli("bound", "--n", "100", "--t-mix", "5", "--sigma", "300")
    assert (code, err) == (0, "")
    assert strict_json(out)["values"] == {"mixing": 0.0}


def test_bound_from_graph():
    code, out, _ = run_cli("bound", "--graph", "complete:16",
                           "--chain", "lazy-simple")
    assert code == 0
    doc = strict_json(out)
    assert doc["inputs"]["n"] == 16
    assert set(doc["values"]) >= {"mixing", "spectral", "expansion"}


def test_bound_from_graph_defaults_to_the_lazy_walk():
    assert run_cli("bound", "--graph", "cycle:8") == run_cli(
        "bound", "--graph", "cycle:8", "--chain", "lazy-simple")


# sigma = 180, so eps = sigma/(2n) = 30 leaves no default mixing time
_HETEROGENEOUS_CHAIN = {"n": 3, "entries": [[1, 1, 0.975], [1, 2, 0.025], [2, 1, 0.45],
                                            [2, 2, 0.5], [2, 3, 0.05], [3, 2, 0.5],
                                            [3, 3, 0.5]]}


def test_heterogeneous_chain_with_explicit_T_L(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps(_HETEROGENEOUS_CHAIN))
    code, out, err = run_cli("bench", "--graph", "path:3", "--chain", str(chain),
                             "--T", "1", "--L", "2", "--trials", "2", "--seed", "1")
    assert code == 0
    assert out.splitlines()[0] == "seed,solver,n,distinct,total,found_vertex,correct,error"
    assert len(out.splitlines()) == 1 + 2 * 3
    assert json.loads(err)["bounds"] == {}
    code, out, err = run_cli("bound", "--graph", "path:3", "--chain", str(chain),
                             "--T", "1", "--L", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("capability error: eps = sigma/(2n) = 30 >= 1/2")
    assert "eps must lie in" not in err


def test_bound_missing_inputs():
    code, _, err = run_cli("bound", "--n", "16")
    assert code == 1
    assert "input error" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_single_check():
    code, out, err = run_cli("verify", "--checks", "A7_monotone_grid",
                             "--seed", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert [c["name"] for c in doc["checks"]] == ["A7_monotone_grid"]
    assert "PASS A7_monotone_grid" in err


def test_verify_caps_block_golden():
    # every size the suite runs at, fixed ones and library caps included
    code, out, _ = run_cli("verify", "--checks", "A7_monotone_grid", "--seed", "0")
    assert code == 0
    assert json.loads(out)["caps"] == {
        "max_n": 12, "instances": 500, "reversal_n": 10, "reversal_len": 10,
        "visit_sum_n": 8, "visit_sum_len": 8, "escape_sizes": [16, 25],
        "escape_samples": 10000, "ratio_subsets": 200, "mc_samples": 20000,
        "expansion_cap": 20, "enumeration_cap": 10000000, "mixing_cap": 1000000,
    }


def test_verify_unknown_check():
    code, _, err = run_cli("verify", "--checks", "A99", "--seed", "0")
    assert code == 1
    assert "unknown checks" in err


def test_verify_max_n_below_every_family_graph():
    code, out, err = run_cli("verify", "--checks", "A1_validity", "--max-n", "2",
                             "--seed", "0")
    assert code == 1
    assert out == ""
    assert err == ("input error: max_n=2 admits no family graph; "
                   "the smallest has n=8\n")
    # a check that uses no family graph runs at any max_n
    code, out, _ = run_cli("verify", "--checks", "A7_monotone_grid", "--max-n", "2",
                           "--seed", "0")
    assert code == 0
    assert json.loads(out)["passed"] is True


@pytest.mark.parametrize("argv", [
    ("verify", "--checks", "A1_validity", "--seed", "0", "--max-n", "0"),
    ("verify", "--checks", "A1_validity", "--seed", "0", "--instances", "0"),
    ("verify", "--checks", "A4_milestone_escape", "--seed", "0", "--escape-samples", "-5"),
    ("verify", "--checks", "adversary_ratio_floor", "--seed", "0", "--ratio-subsets", "0"),
    ("verify", "--checks", "adversary_exact_mc", "--seed", "0", "--mc-samples", "abc"),
    ("chain", "analyze", "--graph", "complete:3", "--expansion-cap", "-1"),
    ("bound", "--graph", "complete:3", "--chain", "lazy-simple", "--expansion-cap", "0"),
])
def test_effort_and_cap_options_must_be_positive(argv):
    code, out, err = run_cli(*argv)
    assert code == 1
    assert out == ""
    assert f"input error: argument {argv[-2]}: expected a positive integer" in err


# The commands of acceptance criterion 7 (tests/test_acceptance.py).
_DETERMINISM_COMMANDS = [
    ("graph", "gen", "--graph", "random-regular:8,3", "--seed", "5"),
    ("chain", "analyze", "--graph", "hypercube:3", "--chain", "max-degree"),
    ("chain", "analyze", "--graph", "random-regular:64,4", "--seed", "2"),
    ("instance", "sample", "--graph", "complete:16", "--chain", "lazy-simple", "--seed", "3"),
    ("bench", "--graph", "complete:9", "--chain", "lazy-simple", "--trials", "3", "--seed", "11"),
    ("verify", "--checks", "A7_monotone_grid,B2_expansion_bound", "--seed", "0"),
    ("bound", "--graph", "complete:16", "--chain", "lazy-simple"),
]


@pytest.mark.parametrize("argv", _DETERMINISM_COMMANDS, ids=lambda argv: argv[0])
def test_documents_are_strict_json(argv):
    code, out, err = run_cli(*argv)
    assert code == 0
    # bench writes CSV rows to stdout and its JSON summary to stderr
    strict_json(err if argv[0] == "bench" else out)


# `mixbound verify --seed 0`, every check and the caps block, as the
# whole-suite run prints it
VERIFY_SEED0_GOLDEN = {
    "caps": {
        "enumeration_cap": 10000000, "escape_samples": 10000, "escape_sizes": [16, 25],
        "expansion_cap": 20, "instances": 500, "max_n": 12, "mc_samples": 20000,
        "mixing_cap": 1000000, "ratio_subsets": 200, "reversal_len": 10,
        "reversal_n": 10, "visit_sum_len": 8, "visit_sum_n": 8
    },
    "checks": [
        {"name": "A1_validity", "passed": True,
         "details": "500 instances valid"},
        {"name": "A2_mixing_concentration", "passed": True,
         "details": "21 chains concentrated"},
        {"name": "A3_visit_sum", "passed": True,
         "details": "9 chains, all subsets within bound"},
        {"name": "A4_milestone_escape", "passed": True,
         "details": "n=16: min 0.453; n=25: min 0.498 vs floor 0.0625"},
        {"name": "A5_difference_localization", "passed": True,
         "details": "261408 ordered pairs localized; factor-2 bound holds"},
        {"name": "A6_witness_existence", "passed": True,
         "details": "3 chains produced positive-mass witnesses"},
        {"name": "A7_monotone_grid", "passed": True,
         "details": "nondecreasing on all grid lines"},
        {"name": "A8_time_reversal", "passed": True,
         "details": "21 chains, max asymmetry 5.55e-17"},
        {"name": "A9_unique_minimum", "passed": True,
         "details": "500 instances with unique minimum"},
        {"name": "B1_cheeger_sandwich", "passed": True,
         "details": "21 chains sandwiched"},
        {"name": "B2_expansion_bound", "passed": True,
         "details": "7 lazy simple walks bounded"},
        {"name": "B_spectral_mixing", "passed": True,
         "details": "21 chains within the spectral bound"},
        {"name": "graph_invariants", "passed": True,
         "details": "7 generated graphs pass"},
        {"name": "chain_construction", "passed": True,
         "details": "21 constructions validated"},
        {"name": "adversary_symmetry", "passed": True,
         "details": "262468 ordered pairs checked"},
        {"name": "adversary_ratio_floor", "passed": True,
         "details": "min ratio 1.2343 vs floor 0.0104 over 200 subsets"},
        {"name": "adversary_exact_mc", "passed": True,
         "details": "n=3: M within 0.32 se; n=4: M within 0.60 se"},
        {"name": "solver_invariants", "passed": True,
         "details": "60 instances solved by all solvers"},
    ],
    "passed": True,
    "seed": 0,
    "suite": "all",
}


def test_verify_deterministic_output():
    runs = [run_cli("verify", "--seed", "0") for _ in range(2)]
    assert runs[0][0] == 0
    assert runs[0][1] == runs[1][1]
    assert strict_json(runs[0][1]) == VERIFY_SEED0_GOLDEN
