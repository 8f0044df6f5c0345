"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.
"""

__all__ = [
    "ReproError",
    "SimulationError",
    "NetworkError",
    "RemoteAccessError",
    "TimeoutError_",
    "RetriesExhaustedError",
    "FailoverError",
    "AdmissionRejectedError",
    "ThrottledError",
    "AllocationError",
    "IndexError_",
    "ReplicaDivergenceError",
    "CatalogError",
    "ConfigurationError",
    "ConfigurationWarning",
    "AnalysisError",
]


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(ReproError):
    """The discrete-event kernel was used incorrectly (e.g. negative delay)."""


class NetworkError(ReproError):
    """An RDMA-level failure (bad remote address, unregistered memory, ...)."""


class RemoteAccessError(NetworkError):
    """A one-sided verb referenced memory outside a registered region."""


class TimeoutError_(NetworkError):
    """A remote operation did not complete within its timeout budget (named
    with a trailing underscore to avoid shadowing the builtin
    :class:`TimeoutError`)."""


class RetriesExhaustedError(TimeoutError_):
    """Every retry attempt of a verb or RPC timed out.

    The outcome of the operation is *unknown*: a mutating verb whose
    response was lost may have been applied remotely. Callers that need
    certainty must re-read or design their mutations to be idempotent.
    """


class FailoverError(TimeoutError_):
    """A crashed memory server could not be failed over: no live backup
    replica holds its state (``replication_factor`` too low, or every
    replica host is down at once). Subclasses :class:`TimeoutError_`
    because callers observe it exactly where a timeout would surface —
    after the retry budget on the dead primary is spent."""


class AdmissionRejectedError(NetworkError):
    """A memory server refused to enqueue an RPC.

    Raised on the *client* when admission control is enabled and the
    server's bounded receive queue (or the tenant's bulkhead queue) is
    full. Unlike :class:`RetriesExhaustedError` the outcome is certain:
    the request was never handed to a worker, so no remote side effect
    happened and the caller may safely retry — ideally after backing
    off, since the server is telling it to slow down."""


class ThrottledError(AdmissionRejectedError):
    """A per-tenant token-bucket rate limit rejected an RPC.

    Subclass of :class:`AdmissionRejectedError` with the same no-side-
    effect guarantee; distinguished so clients can tell "the server is
    full" (transient, back off) from "you are over your contracted
    rate" (persistent until the tenant sheds offered load)."""


class AllocationError(ReproError):
    """A memory server ran out of registered memory."""


class IndexError_(ReproError):
    """An index-level protocol failure (named with a trailing underscore to
    avoid shadowing the builtin :class:`IndexError`)."""


class ReplicaDivergenceError(IndexError_):
    """A backup replica's bytes differ from its primary's.

    With synchronous primary-then-backup mirroring this must never happen
    on a quiescent cluster; it indicates a replication-protocol bug (or a
    deliberately corrupted replica in tests)."""


class CatalogError(ReproError):
    """Catalog lookup failed (unknown index name, missing root pointer)."""


class ConfigurationError(ReproError):
    """An invalid cluster/workload configuration was supplied."""


class AnalysisError(ReproError):
    """A namsan analysis input was unusable (unparseable source file,
    malformed trace record, unknown rule name)."""


class ConfigurationWarning(UserWarning):
    """A configuration is legal but risky (e.g. a lock lease shorter than
    the worst-case retry budget, which can steal locks from live holders)."""
