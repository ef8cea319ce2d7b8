"""Error and warning types shared across the package.

The CLI maps these onto exit codes: InputError -> 1, CapabilityError -> 2.
"""

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


class CapabilityError(RuntimeError):
    """The request is valid but exceeds a configured cap or the method's reach
    (brute-force size limits, enumeration caps, retry exhaustion, missing
    chain properties)."""


class VacuousRegimeWarning(UserWarning):
    """The construction is well defined but its theoretical guarantee is
    vacuous for these parameters (graph too small relative to the stationary
    ratio)."""
