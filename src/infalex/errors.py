"""Shared exception types."""


class BudgetExceededError(RuntimeError):
    """A computation was refused because it exceeds the configured resource budget.

    ``reason`` is the machine-readable refusal the CLI prints: which ceiling
    (``what``), the facts of the request, and the ``limit`` it passed.
    """

    def __init__(self, what: str, limit: int, **facts):
        self.reason = {"error": "budget", "what": what, **facts, "limit": limit}
        super().__init__(str(self.reason))


class InternalInconsistencyError(RuntimeError):
    """Two routes that must agree produced different answers."""

