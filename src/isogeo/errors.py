"""Semantic exception hierarchy for the isogeo package."""


class IsogeoError(Exception):
    """Base class for all package errors."""


class ValidationError(IsogeoError, ValueError):
    """An input violates a documented contract (shape, domain, normalization)."""


class ShapeError(ValidationError):
    """Array dimensions do not compose."""


class DegenerateDirectionError(IsogeoError):
    """A direction collapsed below the resolvable threshold (residual in span,
    zero-sensitivity denominator, vanishing representation)."""


class TrainingDivergedError(IsogeoError):
    """Loss became non-finite; carries the offending step index."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class UndertrainedModelError(IsogeoError):
    """A check was handed a model whose task loss is too far from optimal;
    carries the measured loss."""

    def __init__(self, message: str, measured_loss: float):
        super().__init__(message)
        self.measured_loss = measured_loss


class ConfigError(IsogeoError):
    """An experiment configuration file is malformed or inconsistent."""
