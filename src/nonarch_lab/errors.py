"""Error taxonomy shared by all modules, the one reader of JSON input
files, and the integer and list checks that input fields pass before
use.

Exit-code mapping used by the CLI: BoundViolation -> 1, ConfigError -> 2,
cap, precision or memory exhaustion -> 3.  Every search cap is a Budget.
"""

import json


class ConfigError(ValueError):
    """Invalid configuration or malformed input."""


def load_json(path):
    """The JSON document in the file at `path`.  A file that cannot be read
    (missing, a directory, no permission) or does not parse is a
    ConfigError naming the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError as err:
        raise ConfigError(f"no such file: {path}") from err
    except OSError as err:
        raise ConfigError(f"cannot read {path}: {err.strerror or err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"malformed JSON in {path} at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from err


def config_int(value, what, least=None):
    """value when it is an integer (not a bool) of at least `least`; a
    ConfigError naming `what` otherwise.  int() would read 1.5 as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{what} must be >= {least}, got {value}")
    return value


def config_list(value, what):
    """value when it is a list (or tuple); a ConfigError naming `what` and
    the whole value otherwise.  Iterating a string would read it one
    character at a time."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return value


class RingMismatchError(ConfigError):
    """Operands live over different coefficient rings or primes."""


class PrecisionError(ArithmeticError):
    """The answer depends on p-adic digits beyond the known precision."""


class CapExceededError(RuntimeError):
    """A search reached more work than its cap admits."""


class Budget:
    """One search's cap: at most `limit` units of `unit`, set by `option`
    (the CLI option, keyword or constant a user raises).  charge(n) adds n
    to `spent`; past `limit` it raises CapExceededError with the count
    reached, the `option` value that admits it, and `note`."""

    def __init__(self, limit, unit, option):
        self.limit = config_int(limit, option, 0)
        self.unit, self.option = unit, option
        self.spent = 0

    def charge(self, n=1, note=""):
        self.spent += n
        if self.spent > self.limit:
            raise CapExceededError(
                f"{self.spent} {self.unit} exceed cap {self.limit}; "
                f"{self.option} {self.spent} admits them{note}")


class FullRankError(RuntimeError):
    """The monomial matrix has full rank: no auxiliary polynomial exists
    at this degree."""


class BoundViolation(AssertionError):
    """A bound that the theory guarantees was violated by the computation.

    This is the interesting outcome: it is reported, never swallowed.
    """
