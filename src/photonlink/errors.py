"""Exception types raised by builders, parsers and the metric engine."""

from __future__ import annotations

from typing import Sequence


class PhotonlinkError(Exception):
    """Base class for all package errors."""


class BuildError(PhotonlinkError):
    """A topology could not be constructed from the given inputs."""


class TopologyError(PhotonlinkError):
    """An operation was asked to run on an invalid topology."""

    def __init__(self, message: str, violations: Sequence[str] = ()):
        self.violations = tuple(violations)
        if self.violations:
            message = message + "\n" + "\n".join(f"  - {v}" for v in self.violations)
        super().__init__(message)


class AnalysisError(PhotonlinkError):
    """A metric could not be computed from the given path and configuration."""


class ScenarioError(PhotonlinkError):
    """A scenario file is malformed; lists every problem found, not just the first."""

    def __init__(self, problems: Sequence[str]):
        self.problems = tuple(problems)
        super().__init__(
            "scenario is invalid:\n" + "\n".join(f"  - {p}" for p in self.problems)
        )
