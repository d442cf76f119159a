"""Exception hierarchy shared by all fedjets modules; `cli.main` maps each
class to its exit code."""

from __future__ import annotations


class FedjetsError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(FedjetsError):
    """Invalid configuration, dimensions, or infeasible request."""


class ProtocolError(FedjetsError):
    """Inconsistent federation traffic, e.g. a packet whose parameter
    vector does not match the server's network spec."""


class NumericError(FedjetsError):
    """Non-finite values encountered during training or inference."""

    def __init__(self, message: str, *, layer: int | None = None, context: str | None = None):
        self.message = message
        self.layer = layer
        self.context = context
        parts = [message]
        if layer is not None:
            parts.append(f"layer={layer}")
        if context:
            parts.append(context)
        super().__init__(" | ".join(parts))

    def within(self, context: str) -> "NumericError":
        """The same error with `context` appended to its own."""
        joined = f"{self.context} | {context}" if self.context else context
        return NumericError(self.message, layer=self.layer, context=joined)


class ArtifactError(FedjetsError):
    """Unreadable or malformed artifact file (checkpoint, metrics, ...)."""
