"""Exceptions shared across the package.

Domain errors (bad mathematical input) all derive from PosetError so the
command line can map them to a single exit code. Parse problems, blown
enumeration caps and broken internal invariants get their own roots; they
exit differently.
"""


class PosetError(Exception):
    """Base for errors about the mathematical input itself."""


class DuplicateLabel(PosetError):
    def __init__(self, label: str):
        super().__init__(f"duplicate element label {label!r}")
        self.label = label


class UnknownLabel(PosetError):
    def __init__(self, label: str):
        super().__init__(f"unknown element label {label!r}")
        self.label = label


class CycleError(PosetError):
    def __init__(self, a: str, b: str):
        super().__init__(f"relations force {a!r} and {b!r} into a cycle")
        self.pair = (a, b)


class NotALattice(PosetError):
    def __init__(self, reason: str, pair: tuple[str, str] | None = None, which: str | None = None):
        super().__init__(reason)
        self.pair = pair
        self.which = which


class NotAGermExtension(PosetError):
    def __init__(self, reason: str):
        super().__init__(reason)


class DivisibilityViolation(PosetError):
    def __init__(self, total: int, aut_order: int):
        super().__init__(
            f"alternating sum {total} is not divisible by the"
            f" automorphism count {aut_order}"
        )
        self.total = total
        self.aut_order = aut_order


class DocumentSyntaxError(Exception):
    """A poset document failed to parse. Carries the offending position."""

    def __init__(self, line: int, column: int, expected: str):
        super().__init__(f"line {line}, column {column}: expected {expected}")
        self.line = line
        self.column = column
        self.expected = expected


class CapExceeded(Exception):
    def __init__(self, what: str, cap: int):
        super().__init__(f"{what} exceeds the cap of {cap}")
        self.what = what
        self.cap = cap


class InvariantViolation(Exception):
    """A fact the package guarantees did not hold: a bug, not bad input."""
