"""Experiment configuration: one JSON document driving graph, chain,
parameter, solver, and cap choices. Round-trips losslessly; a key that
names no field is refused."""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields

from .errors import DEFAULT_CAPS, InputError
from .solvers import SOLVER_NAMES


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs for a benchmark run. The seed is mandatory because every
    run samples instances (and possibly solver starts)."""

    graph: str
    chain: str
    seed: int
    trials: int = 10
    solvers: tuple[str, ...] = SOLVER_NAMES
    T: int | None = None
    L: int | None = None
    out: str | None = None
    format: str = "csv"
    caps: dict = field(default_factory=lambda: dict(DEFAULT_CAPS))

    def __post_init__(self):
        if self.seed is None:
            raise InputError("a seed is required")
        for name in ("graph", "chain", "out"):
            value = getattr(self, name)
            if value is None and name == "out":
                continue  # no file: write to stdout
            if not isinstance(value, str):
                raise InputError(f"{name} must be a string, got {value!r}")
        for name in ("seed", "trials", "T", "L"):
            value = getattr(self, name)
            if value is None and name in ("T", "L"):
                continue  # no override: T and L come from the chain
            if isinstance(value, bool) or not isinstance(value, int):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")
        if self.format not in ("csv", "json"):
            raise InputError(f"format must be csv or json, got {self.format!r}")
        for s in self.solvers:
            if s not in SOLVER_NAMES:
                raise InputError(f"unknown solver {s!r}; expected one of {SOLVER_NAMES}")
        if (self.T is None) != (self.L is None):
            raise InputError("override T and L together or not at all")
        unknown = set(self.caps) - set(DEFAULT_CAPS)
        if unknown:
            raise InputError(f"unknown cap names: {sorted(unknown)}")
        for name, value in self.caps.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise InputError(f"cap {name!r} must be a positive integer, got {value!r}")

    def cap(self, name: str) -> int:
        return self.caps.get(name, DEFAULT_CAPS[name])

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from a JSON object; unknown keys are an input error."""
        if not isinstance(doc, dict):
            raise InputError(f"config must be a JSON object, got {doc!r}")
        known = fields(cls)
        unknown = sorted(set(doc) - {f.name for f in known})
        if unknown:
            raise InputError(f"unknown config keys: {unknown}")
        if not isinstance(doc.get("caps", {}), dict):
            raise InputError(f"caps must be an object, got {doc['caps']!r}")
        if not isinstance(doc.get("solvers", []), (list, tuple)):
            raise InputError(f"solvers must be a list, got {doc['solvers']!r}")
        for f in known:
            if f.name not in doc and f.default is MISSING and f.default_factory is MISSING:
                raise InputError(f"config is missing required field {f.name!r}")
        doc = {**doc, "caps": {**DEFAULT_CAPS, **doc.get("caps", {})}}
        if "solvers" in doc:
            doc["solvers"] = tuple(doc["solvers"])
        return cls(**doc)
