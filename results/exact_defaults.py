"""Exact M, q and M/q of the lazy simple walk, written to
exact_defaults.json beside this file.

Rows: complete:5, :6 and :7, cycle:5 and path:4 at their default
parameters, and complete:16 and :24 at T=2, L=4. Each row is one
`exact_lower_bound` call, so the file is deterministic; regenerate it with

    PYTHONPATH=src python results/exact_defaults.py
"""

import json
import sys
import warnings
from pathlib import Path

import mixbound as mb

SYSTEMS = [("complete:5", None), ("complete:6", None), ("complete:7", None),
           ("cycle:5", None), ("path:4", None), ("complete:16", (2, 4)),
           ("complete:24", (2, 4))]
OUT = Path(__file__).with_suffix(".json")


def row(spec: str, sizes) -> dict:
    """The exact report of the lazy simple walk on spec, at its default
    parameters or at sizes = (T, L)."""
    P = mb.lazy_simple_walk(mb.graph_from_spec(spec))
    with warnings.catch_warnings():  # small n sits below 16 sigma^2
        warnings.simplefilter("ignore", mb.VacuousRegimeWarning)
        params = mb.default_params(P) if sizes is None else mb.custom_params(P, *sizes)
    report = mb.exact_lower_bound(P, params)
    return {"graph": spec, "chain": "lazy-simple",
            "params": "default" if sizes is None else "custom", "n": P.n, "T": params.T, "L": params.L, "m": params.m,
            "family_size": report.context["family_size"], "M": report.M, "q": report.q,
            "ratio": report.ratio, "argmax_vertex": report.argmax_vertex,
            "ratio_floor": mb.ratio_floor(params)}


def main() -> int:
    rows = [row(spec, sizes) for spec, sizes in SYSTEMS]
    OUT.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
