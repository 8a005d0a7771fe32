"""Exception hierarchy shared across the toolkit.

Every category maps to a distinct CLI exit code (see ``markkit.cli``):
usage errors exit 2, resource errors 3, parse/input errors 4,
configuration errors 5, anything else 1.
"""


class MarkkitError(Exception):
    """Base class for all toolkit errors."""


class ResourceError(MarkkitError):
    """A resource file is missing or unreadable, or an output file cannot be
    written."""


class ParseError(MarkkitError):
    """A text input is malformed. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class InputError(MarkkitError):
    """Runtime inputs violate an operation's preconditions."""


class ConfigError(MarkkitError):
    """A configuration value or vocabulary is invalid. Names the invalid
    setting when known, as ``<setting> <reason>``."""

    def __init__(self, reason: str, setting: str | None = None):
        self.reason, self.setting = reason, setting
        super().__init__(reason if setting is None else f"{setting} {reason}")


class TrainingError(MarkkitError):
    """Training produced a non-finite loss or otherwise diverged."""
