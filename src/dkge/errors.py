"""Exception types shared across the package."""
from __future__ import annotations


class DkgeError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(DkgeError):
    """A triple file line could not be parsed."""

    def __init__(self, path, line_no: int, reason: str):
        self.path = str(path)
        self.line_no = line_no
        self.reason = reason
        super().__init__(f"{self.path}:{line_no}: {reason}")


class EmptySnapshotError(DkgeError):
    """A snapshot contained no triples."""


class UnknownObjectError(DkgeError):
    """An entity or relation is not present in the snapshot dictionaries."""

    def __init__(self, kind: str, key):
        self.kind = kind
        self.key = key
        super().__init__(f"unknown {kind}: {key!r}")


class ConfigError(DkgeError):
    """Invalid configuration value, flag, or config-file key."""


class IntegrityError(DkgeError):
    """Stored parameters are unreadable or non-finite, or they and a snapshot
    do not describe the same graph."""
