"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: user errors exit 1,
solver/internal failures exit 2, infeasibility/inequivalence exit 3.
"""


class TechmapError(Exception):
    pass


class ValidationError(TechmapError):
    """An IR value violates a structural invariant."""


class WidthMismatch(ValidationError):
    def __init__(self, node, expected, actual):
        super().__init__(f"width mismatch at {node}: expected {expected}, got {actual}")
        self.node = node
        self.expected = expected
        self.actual = actual


class UnknownVar(ValidationError):
    def __init__(self, name):
        super().__init__(f"unknown variable '{name}'")
        self.name = name


class HoleNotAllowed(ValidationError):
    def __init__(self, name):
        super().__init__(f"hole '{name}' not allowed in this context")
        self.name = name


class HolePresent(TechmapError):
    """Concrete evaluation reached a hole with no value bound."""

    def __init__(self, name):
        super().__init__(f"cannot evaluate hole '{name}' without a binding")
        self.name = name


class ParseError(TechmapError):
    """Malformed input text. `where` is file:line:col or a JSON path."""

    def __init__(self, message, where=None):
        self.where = where
        self.message = message
        super().__init__(f"{where}: {message}" if where else message)


class VerilogSyntaxError(ParseError):
    pass


class UnsupportedConstruct(ParseError):
    def __init__(self, construct, where=None):
        super().__init__(f"unsupported construct '{construct}'", where)
        self.construct = construct


class UndeclaredIdentifier(ParseError):
    def __init__(self, name, where=None):
        super().__init__(f"undeclared identifier '{name}'", where)
        self.name = name


class CombinationalCycle(TechmapError):
    def __init__(self, participants):
        super().__init__("combinational cycle through: " + ", ".join(sorted(participants)))
        self.participants = tuple(participants)


class TooManyInputBits(TechmapError):
    def __init__(self, total, limit):
        super().__init__(f"{total} input bits exceed the limit of {limit}")
        self.total = total
        self.limit = limit


class LimitExceeded(TechmapError):
    def __init__(self, which, value, limit):
        super().__init__(f"{which} {value} exceeds limit {limit}")
        self.which = which
        self.value = value
        self.limit = limit


class NoCompatiblePrimitive(TechmapError):
    def __init__(self, kind, reason):
        super().__init__(f"no primitive compatible with template '{kind}': {reason}")
        self.kind = kind
        self.reason = reason


class SignatureMismatch(TechmapError):
    pass


class Infeasible(TechmapError):
    """No hole assignment implements the design (exhaustively established)."""


class TemplateInfeasible(Infeasible):
    """The solver proved no assignment is consistent with the example set."""


class BudgetExceeded(TechmapError):
    def __init__(self, iterations):
        super().__init__(f"no solution after {iterations} refinement iterations")
        self.iterations = iterations


class SolverError(TechmapError):
    pass


class SolverSpawnError(SolverError):
    pass


class SolverUnknown(SolverError):
    def __init__(self, message="solver returned 'unknown'"):
        super().__init__(message)


class SolverProtocolError(SolverError):
    """Unexpected solver output. Carries the raw transcript for debugging."""

    def __init__(self, message, transcript=""):
        super().__init__(message + ("\n--- solver output ---\n" + transcript if transcript else ""))
        self.transcript = transcript


class MissingSymbol(SolverError):
    def __init__(self, name):
        super().__init__(f"solver model is missing a value for '{name}'")
        self.name = name


class UnmappedSymbol(TechmapError):
    def __init__(self, name):
        super().__init__(f"no SMT identifier mapped for symbol '{name}'")
        self.name = name


class MissingHole(TechmapError):
    def __init__(self, name):
        super().__init__(f"solution does not assign hole '{name}'")
        self.name = name


class DuplicatePrimitive(TechmapError):
    def __init__(self, name):
        super().__init__(f"duplicate primitive '{name}' in library")
        self.name = name
