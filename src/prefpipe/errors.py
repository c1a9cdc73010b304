"""Exception hierarchy shared across the pipeline stages."""


class PipelineError(Exception):
    """Base class for every error raised by this package. A ``per_item`` error
    costs only the item (user, instance, call) it was raised for, which the
    stage skips and counts; any other aborts the run."""

    per_item = True


class ValidationError(PipelineError):
    """Malformed data: bad schema fields, bad segment boundaries, bad JSONL."""


class ConfigError(PipelineError):
    """Invalid configuration value (out-of-range fraction, bad endpoint file, ...)."""

    per_item = False


class BackendError(PipelineError):
    """Transport-level failure. ``retryable`` tells the client whether backing off
    and retrying can help (connection resets, 429/5xx) or not (malformed request).
    ``retry_after`` is the wait in seconds the server asked for, if it named one.
    Retryable ones that reach a stage have used up their retries, so they abort."""

    def __init__(self, message: str, retryable: bool = True, retry_after: float | None = None):
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after
        self.per_item = not retryable


class GenerationError(PipelineError):
    """The model produced an unusable completion (e.g. empty output)."""


class JudgeError(PipelineError):
    """The judge reply could not be turned into a verdict."""


class CapabilityError(PipelineError):
    """The backend does not support the requested operation (scoring, logprobs)."""

    per_item = False


class ContractError(PipelineError):
    """An internal invariant was violated (mismatched lengths, missing fields)."""

    per_item = False


class UserSkip(PipelineError):
    """An item dropped by a pipeline filter, counted under ``reason``; not a failure."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason
