"""Exception hierarchy for the repro package.

All library-specific errors derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class AddressError(ReproError, ValueError):
    """An IPv6 address or prefix string/value is malformed or out of range."""


class PrefixError(AddressError):
    """A prefix operation is invalid (bad length, split of a /128, ...)."""


class RoutingError(ReproError):
    """A BGP routing operation failed (unknown peer, invalid update, ...)."""


class PolicyError(RoutingError):
    """A BGP policy configuration or IRR database operation is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven into an invalid state."""


class ExperimentError(ReproError):
    """Experiment configuration or orchestration is inconsistent."""


class FaultError(ReproError):
    """A fault-injection plan is malformed or cannot be installed."""


class ShardError(ExperimentError):
    """A shard worker failed terminally (crash or hang).

    Carries the shard index, the attempt that exhausted the retry
    budget, a short machine-readable cause (``exitcode -9``,
    ``timeout``), and the tail of the worker's captured stderr, so
    operators see the worker's actual traceback.
    """

    def __init__(self, message: str, *, shard: int | None = None,
                 attempt: int = 0, cause: str = "",
                 stderr_tail: str = "") -> None:
        super().__init__(message)
        self.shard = shard
        self.attempt = attempt
        self.cause = cause
        self.stderr_tail = stderr_tail


class StoreError(ReproError):
    """Persisted data (corpus segment, checkpoint) is missing or corrupt.

    Carries the offending path and the check that failed, so operators can
    locate and quarantine the bad file instead of decoding a raw numpy or
    OS traceback.
    """

    def __init__(self, message: str, *, path=None, check: str = "") -> None:
        super().__init__(message)
        self.path = path
        self.check = check


class CheckpointError(StoreError):
    """A checkpoint file failed its integrity or format checks."""


class AnalysisError(ReproError):
    """An analysis was invoked on unsuitable data (e.g. empty corpus)."""


class ClassificationError(AnalysisError):
    """A classifier could not be applied to the given sessions."""
