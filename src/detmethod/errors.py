"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed user input (files, polynomials, configuration)."""


class ParseError(InputError):
    """Syntax error in the polynomial text format, with position info."""

    def __init__(self, message, line, column):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured search budget."""

    def __init__(self, required, budget):
        super().__init__(
            f"enumeration requires scanning {required} candidates, "
            f"budget is {budget}; raise --budget to override"
        )
        self.required = required
        self.budget = budget


class DegenerateIdealError(ValueError):
    """The staircase construction cannot apply (e.g. mu <= 1 at every degree)."""
