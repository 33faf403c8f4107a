"""Shared exception types."""


class GuardError(RuntimeError):
    """A computation was refused because it exceeds a documented size guard."""


class InvariantError(RuntimeError):
    """An exact identity that the mathematics guarantees failed to hold.

    Raised in place of `assert`, which `python -O` strips; it signals a
    defect in the program, never bad input.
    """
