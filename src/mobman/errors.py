"""Exception taxonomy shared across the engine."""


class MobmanError(Exception):
    """Base class for all engine errors."""


class Unreachable(MobmanError):
    """Target pose lies outside the geometric workspace."""


class JointLimitViolation(MobmanError):
    """A joint angle (or the elbow interior angle) is outside its allowed range."""


class SolveFailure(MobmanError):
    """A linear solve failed (singular or non-finite mass matrix)."""


class GeometryError(MobmanError):
    """Circuit geometry is inconsistent (e.g. corner radius too small or too large)."""


class InfeasibleSweep(MobmanError):
    """A spray sweep cannot be executed within its edge time or workspace."""


class DisturbanceBoundViolation(MobmanError):
    """A disturbance sample exceeded the bound the switching gains were sized for."""


class ValidationError(MobmanError):
    """Scenario configuration failed validation.

    Carries one message per offending key path.
    """

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class ParseError(MobmanError):
    """Scenario file could not be parsed at all."""


class EmptyLog(MobmanError):
    """Metrics were requested for an empty or truncated simulation log."""
