"""Exception hierarchy shared by all solver modules."""


class RecspError(Exception):
    """Base class for every error raised by this package."""


class CyclicGraphError(RecspError):
    """The graph contains a directed cycle; only DAGs are supported."""


class NotLayeredError(RecspError):
    """The DAG admits no consistent layer assignment between the terminals."""


class NotSeriesParallelError(RecspError):
    """Series/parallel reduction stalled; the graph is not arc series-parallel."""


class TooManyPathsError(RecspError):
    """Exhaustive enumeration would exceed the configured limit."""


class ValidationError(RecspError):
    """Instance or solution data violates a structural invariant."""


class ConfigError(RecspError):
    """Generator or benchmark configuration is inconsistent."""


class ParseError(RecspError):
    """Malformed instance or solution text."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message
