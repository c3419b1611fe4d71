"""Structured exceptions shared across the package.

The solver pipelines catch these and turn them into report statuses; direct
callers of the lower-level modules see them as exceptions. Every exception
carries the data needed to locate the offending index, variable, or grid
point.
"""

from __future__ import annotations


class MomentError(Exception):
    """Base class for structured failures of the moment machinery."""


class NoRecurrenceError(MomentError):
    """No linear recurrence fits a variable's slices at the given truncation."""

    def __init__(self, axis: int, max_order: int, best_residual: float):
        self.axis = axis
        self.max_order = max_order
        self.best_residual = best_residual
        super().__init__(
            f"no recurrence along variable {axis} up to order {max_order} "
            f"(best residual {best_residual:.3e})"
        )


class InconsistentRecurrenceError(MomentError):
    """Two variables' recurrences produce disagreeing values for one entry."""

    def __init__(self, index: tuple[int, ...], value_a: float, value_b: float):
        self.index = index
        self.value_a = value_a
        self.value_b = value_b
        super().__init__(
            f"recurrences disagree at index {index}: {value_a!r} vs {value_b!r}"
        )


class InsufficientInitialDataError(MomentError):
    """An entry required by the extension is not reachable from the data."""

    def __init__(self, index: tuple[int, ...]):
        self.index = index
        super().__init__(f"entry {index} is not derivable from the given moments")


class NonFiniteExtensionError(MomentError):
    """A recurrence carries an extended entry out of the float range."""

    def __init__(self, index: tuple[int, ...], value: float):
        self.index = index
        self.value = value
        super().__init__(f"extended entry {index} is not finite: {value!r}")


class NonFiniteShiftError(MomentError):
    """A shifted sequence q * beta has an entry out of the float range."""

    def __init__(self, index: tuple[int, ...], value: float):
        self.index = index
        self.value = value
        super().__init__(f"shifted entry {index} is not finite: {value!r}")


class InsufficientDataError(MomentError):
    """The sequence is too short for the requested computation."""

    def __init__(self, message: str):
        super().__init__(message)


class RepeatedRootsError(MomentError):
    """A characteristic polynomial has a multiple root.

    Power-sum expansions need distinct roots; a genuine multiple root also
    certifies that the underlying full moment matrix cannot be positive
    semidefinite.
    """

    def __init__(self, axis: int, root: complex, multiplicity: int):
        self.axis = axis
        self.root = root
        self.multiplicity = multiplicity
        super().__init__(
            f"characteristic root {root:.6g} of variable {axis} has "
            f"multiplicity {multiplicity}"
        )


class NegativeWeightError(MomentError):
    """A surviving expansion coefficient has negative real part."""

    def __init__(self, grid_index: tuple[int, ...], point: tuple[float, ...], weight: float):
        self.grid_index = grid_index
        self.point = point
        self.weight = weight
        super().__init__(
            f"negative weight {weight:.6g} at grid index {grid_index}, "
            f"point {point}"
        )


class ComplexAtomError(MomentError):
    """A surviving grid point or its coefficient is not real."""

    def __init__(self, grid_index: tuple[int, ...], value: complex, what: str = "coordinate"):
        self.grid_index = grid_index
        self.value = value
        self.what = what
        super().__init__(
            f"non-real {what} {value:.6g} at grid index {grid_index}"
        )
