"""Error and warning types shared across the package, the one reader of
JSON input files, and the integer, number and string checks for the
values in them.

The CLI maps these onto exit codes: InputError -> 1, CapabilityError -> 2.
"""

import json
import math

# Default limit of every brute-force or unbounded step, each written only
# here; going past one raises CapabilityError.
DEFAULT_CAPS = {
    "expansion_bruteforce": 20,
    "enumeration": 10 ** 7,
    "mixing_steps": 10 ** 6,
    "good_walk_retries": 10 ** 4,
}


class InputError(ValueError):
    """Caller supplied an invalid argument (bad vertex, malformed file, ...)."""


def read_json(path: str):
    """Parse the JSON file at path; a file that cannot be opened or is not
    JSON raises InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(str(exc)) from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def json_integer(value) -> int:
    """value itself if it is an integer; a float, bool or string read from
    a JSON document raises TypeError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_string(value) -> str:
    """value itself if it is a string; any other JSON value raises
    TypeError."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def json_number(value) -> float:
    """value as a float if it is a finite JSON number; a bool, a string, or
    the NaN and Infinity that Python's parser admits raises TypeError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


class CapabilityError(RuntimeError):
    """The request is valid but exceeds a configured cap or the method's reach
    (brute-force size limits, enumeration caps, retry exhaustion, missing
    chain properties)."""


class VacuousRegimeWarning(UserWarning):
    """The construction is well defined but its theoretical guarantee is
    vacuous for these parameters (graph too small relative to the stationary
    ratio)."""
