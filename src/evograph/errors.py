"""Exception hierarchy shared across the package."""


class EvographError(Exception):
    """Base class for all errors raised by this package."""


class DatasetError(EvographError):
    """A dataset directory is missing files or cannot be parsed."""


class ValidationError(EvographError):
    """Inputs violate a structural invariant (shapes, ranges, masks)."""


class ConfigError(EvographError):
    """A configuration value or config file is invalid."""


class TaskSequenceError(EvographError):
    """A task sequence cannot be built from the given graph."""


class RunError(EvographError):
    """A sequence run aborted; carries the 1-based task index."""

    def __init__(self, task_index: int, message: str):
        super().__init__(f"task {task_index}: {message}")
        self.task_index = task_index
        self._message = message

    def __reduce__(self):
        # pickle (a process pool's result) rebuilds from these arguments, not from ``args``
        return RunError, (self.task_index, self._message)
