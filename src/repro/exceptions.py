"""Exception hierarchy for the repro package.

All library-raised errors derive from :class:`ReproError` so callers can
catch any failure originating here with a single ``except`` clause while
still distinguishing configuration mistakes from data problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class GraphError(ReproError):
    """Raised when a graph is malformed or an operation violates a graph
    invariant (unknown node, self loop, duplicate edge, ...)."""


class LabelError(ReproError):
    """Raised for problems with label alphabets: unknown labels, duplicate
    labels, or mismatched alphabets between graphs and features."""


class EncodingError(ReproError):
    """Raised when a characteristic-sequence encoding cannot be produced or
    parsed (e.g. decoding a corrupted code string)."""


class CensusError(ReproError):
    """Raised for invalid census configurations, such as a non-positive
    maximum edge count."""


class RPCError(ReproError):
    """Raised when a distributed run cannot complete over the wire: every
    worker died, a graph could not be shipped, or a worker answered a
    census RPC with a non-retryable protocol error (see
    :mod:`repro.dist.remote`)."""


class FeatureError(ReproError):
    """Raised when feature matrices cannot be constructed or aligned, e.g.
    transforming with an empty vocabulary."""


class NotFittedError(ReproError):
    """Raised when an estimator is used before :meth:`fit` was called."""


class ConvergenceWarning(UserWarning):
    """Issued when an iterative solver stops before reaching its tolerance."""
