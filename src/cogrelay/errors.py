"""Exception types shared across the library.

Domain errors on plain function arguments raise ValueError directly;
the classes here mark configuration problems (exit code 1 at the CLI)
and numeric failures (exit code 2).
"""


class ConfigError(ValueError):
    """Invalid scenario, profile, or config-file input."""


class NumericError(RuntimeError):
    """A numeric procedure failed to produce a trustworthy result."""


class ConvergenceError(NumericError):
    """An iterative solver exhausted its iteration budget."""
