"""Exception types shared across the pipeline.

Every error raised on purpose by this package derives from PipelineError so
callers (notably the CLI) can separate expected failures from bugs.  Most
subclasses also derive from ValueError because they signal bad values.
"""


class PipelineError(Exception):
    """Base class for all errors raised deliberately by posepartition."""


class AnnotationError(PipelineError, ValueError):
    """A scene or person annotation violates a structural constraint."""


class ParameterError(PipelineError, ValueError):
    """A numeric or structural parameter is outside its allowed range."""


class DimensionError(PipelineError, ValueError):
    """Array shapes or sequence lengths do not line up."""


class MapFormatError(PipelineError, ValueError):
    """A serialized map file is corrupt or of the wrong kind."""


class SchemaError(PipelineError, ValueError):
    """A JSON document does not match the expected schema."""


class ConfigurationError(PipelineError, ValueError):
    """A configuration file or command-line setting is invalid."""


class EvaluationError(PipelineError, RuntimeError):
    """Evaluation cannot proceed, e.g. no usable head size for a person."""
