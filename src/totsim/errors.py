"""Exception types shared across the package.

Every error raised on a contract violation derives from :class:`TotsimError`
so the command line layer can catch one type, print a single diagnostic
line, and exit non-zero.  That covers input that cannot be decoded: a byte
that is not UTF-8, or JSON that does not parse, raised by ``util``'s readers.
"""

from __future__ import annotations

__all__ = [
    "TotsimError",
    "CorpusError",
    "SamplingError",
    "ProviderError",
    "TemplateError",
    "GenerationError",
    "RunFileError",
    "EvaluationError",
    "ConstantVectorError",
    "CollectionError",
    "ConfigError",
]


class TotsimError(Exception):
    """Base class for all package errors."""


class CorpusError(TotsimError):
    """Malformed corpus input: parse failures, duplicate ids, bad fields."""


class SamplingError(TotsimError):
    """Sampling cannot satisfy its targets or received bad parameters."""


class ProviderError(TotsimError):
    """A text generation or translation backend failed."""


class TemplateError(TotsimError):
    """A prompt template is missing or malformed."""


class GenerationError(TotsimError):
    """Query generation hit an unusable input or provider response."""


class RunFileError(TotsimError):
    """An external run file violates the expected format."""


class EvaluationError(TotsimError):
    """Metric computation or correlation received invalid inputs."""


class ConstantVectorError(EvaluationError):
    """A correlation is undefined because one score vector is constant."""


class CollectionError(TotsimError):
    """Collection assembly or bundle IO hit inconsistent inputs."""


class ConfigError(TotsimError):
    """A configuration file is missing required keys or has bad values."""
