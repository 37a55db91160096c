"""Exception taxonomy shared across the package.

Stage-output errors and InfeasibleError mark a single run as an abstention
when caught by the experiment runner (``pipeline.ABSTENTIONS``); gateway and
dataset errors are fatal for the whole run.
"""

from __future__ import annotations

import copyreg


class DecisionFlowError(Exception):
    """Base class for every error raised by this package."""

    def __reduce__(self):  # without __init__, which would decorate args
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ShapeError(DecisionFlowError):
    """Two grids that must share dimensions do not."""


class InfeasibleError(DecisionFlowError):
    """The constraint set leaves no admissible action."""


class TemplateError(DecisionFlowError):
    """A prompt template referenced a placeholder the context did not supply."""


class StageOutputError(DecisionFlowError):
    """Base for failures while interpreting a model completion.

    Carries the raw completion text so failed runs stay debuggable.
    """

    def __init__(self, message: str, raw: str | None = None):
        super().__init__(message)
        self.raw = raw


class OutputParseError(StageOutputError):
    """No JSON object could be recovered from the completion."""


class SchemaError(StageOutputError):
    """JSON was recovered but a required key is missing or mistyped."""


class AlignmentError(StageOutputError):
    """A named variable could not be matched to any known action."""


class AnswerRangeError(StageOutputError):
    """The answer index falls outside the action range after normalization."""


class CompletenessError(StageOutputError):
    """A grounding score is missing for a cell that survived the filter."""


class DecisionError(StageOutputError):
    """No decision could be produced (for example, every sample abstained)."""


class GatewayError(DecisionFlowError):
    """Base for completion-gateway failures."""


class TransportError(GatewayError):
    """Network-level failure that persisted through the retry budget."""


class BackendError(GatewayError):
    """The backend answered, but with an unusable payload."""

    def __init__(self, message: str, payload: object = None):
        super().__init__(message)
        self.payload = payload


class ReplayMissError(GatewayError):
    """Replay mode was asked for a request absent from the transcript store."""

    def __init__(self, digest: str):
        super().__init__(f"no recorded transcript for request digest {digest}")
        self.digest = digest


class TranscriptCorruptError(GatewayError):
    """A stored transcript fails the check made where it is read: it is not a
    JSON object, its request is malformed or differs from the one its digest
    names, or its response, usage or latency is missing or mistyped."""


class DatasetError(DecisionFlowError):
    """A dataset file failed validation; names the file, line and field.

    The loaders set ``path`` once the error leaves them, so the message is
    made when it is shown."""

    def __init__(self, message: str, *, line: int | None = None,
                 field: str | None = None):
        super().__init__(message)
        self.line = line
        self.field = field
        self.path = None

    def __str__(self):
        message = self.args[0]
        if self.path is not None:
            message = f"{message} in {self.path}"
        where = []
        if self.line is not None:
            where.append(f"line {self.line}")
        if self.field is not None:
            where.append(f"field '{self.field}'")
        if where:
            message = f"{message} ({', '.join(where)})"
        return message
