"""The package's failure types and the exit status each one carries.

``dflsim.cli.main`` prints any ``DflsimError`` as ``label: message`` on
stderr and returns its ``exit_code``; any other exception is a program
fault and propagates.  Each module's own failure class derives from one of
the four kinds here, which fixes its code and label.  This module imports
nothing from the package, so every module can import it.
"""


class DflsimError(Exception):
    """A failure of the input or the numerics; each kind sets both fields."""
    exit_code: int
    label: str


class ConfigError(DflsimError, ValueError):
    """A configuration that cannot run: a bad section, key or value, or a file
    that is not UTF-8 INI text."""
    exit_code, label = 2, "config error"


class StallError(DflsimError, RuntimeError):
    """The plant's speed fell below the stall floor."""
    exit_code, label = 3, "plant stall"


class SolverError(DflsimError, RuntimeError):
    """A named numerical solve failed: an integration, an iteration, a QP or a fit."""
    exit_code, label = 4, "solver failure"


class FileFormatError(DflsimError, ValueError):
    """A data, model or trajectory file does not hold the format its reader expects."""
    exit_code, label = 5, "bad input file"
