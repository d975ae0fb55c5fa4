"""Error types raised by the library.

Every error carries a single-line message so the CLI can print it in a
structured `error=<Class> <message>` form.  Plain builtin IndexError is
used for out-of-range node ids.
"""


class GraphUnlearnError(Exception):
    """Base class for all library errors."""


class MaskError(GraphUnlearnError):
    """Train/test mask inconsistency (overlap, bad ids)."""


class DataError(GraphUnlearnError):
    """Malformed numeric data: non-finite features, bad label rows."""


class ShapeError(GraphUnlearnError):
    """Array shape does not match the graph or model."""


class ConfigError(GraphUnlearnError):
    """Invalid configuration value or combination."""


class RequestError(GraphUnlearnError):
    """Unlearning request references entities that cannot be removed."""


class MetricError(GraphUnlearnError):
    """Metric undefined for the given inputs (empty mask, one class)."""


class IoError(GraphUnlearnError):
    """File could not be read or written."""


class CheckpointError(GraphUnlearnError):
    """Checkpoint file is malformed or does not match the model."""
