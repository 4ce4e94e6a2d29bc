"""Exception types shared across the package."""


class BudgetExceededError(RuntimeError):
    """An exact operation refused to run because it would exceed its size budget."""


class FileFormatError(ValueError):
    """An input file (graph, certificate, instance, manifest) is malformed."""


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; the pipeline report names the stage."""


class CoverError(PipelineStageError):
    """No surviving candidate clique was left for an exceptional vertex."""

    def __init__(self, root: int, survivors: int, message: str = ""):
        self.root = root
        self.survivors = survivors
        super().__init__(
            message
            or f"no surviving candidate clique for root vertex {root} "
            f"({survivors} candidates left after filtering)"
        )


class BalanceError(PipelineStageError):
    """No nonnegative integer clique weights realize lambda on the reduced graph."""

    def __init__(self, message: str, checks: dict | None = None):
        self.checks = dict(checks or {})
        if self.checks:
            message = f"{message}; hypothesis checks: {self.checks}"
        super().__init__(message)


class BalanceTuplesError(PipelineStageError):
    """Round 2 could not extract its cliques: a cluster cannot reach the target,
    or the random choice stranded a tuple (`tuple_key`) before its quota."""

    def __init__(self, message: str, tuple_key=None):
        self.tuple_key = tuple_key
        super().__init__(message)
