"""Exception hierarchy shared by all solver modules.

Each class states as ``exit_code`` the status the ``recsp`` command
exits with when it reports that error; the README's "Exit codes" table
lists them.
"""


class RecspError(Exception):
    """Base class for every error raised by this package."""
    exit_code = 2


class CyclicGraphError(RecspError):
    """The graph contains a directed cycle; only DAGs are supported."""
    exit_code = 5


class NotLayeredError(RecspError):
    """The DAG admits no consistent layer assignment between the terminals."""
    exit_code = 6


class NotSeriesParallelError(RecspError):
    """Series/parallel reduction stalled; the graph is not arc series-parallel."""
    exit_code = 7


class TooManyPathsError(RecspError):
    """Exhaustive enumeration would exceed the configured limit."""
    exit_code = 8


class ValidationError(RecspError):
    """Instance or solution data violates a structural invariant."""
    exit_code = 4


class ConfigError(RecspError):
    """Generator or benchmark configuration is inconsistent."""
    exit_code = 2


class ParseError(RecspError):
    """Malformed instance or solution text."""
    exit_code = 3

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
