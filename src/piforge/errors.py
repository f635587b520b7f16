"""Exception hierarchy shared across the package, and `frozen`, the
decorator that makes the package's immutable value classes.

Everything raised on purpose derives from PiforgeError, so callers (and the
CLI) can distinguish domain failures from genuine bugs.
"""

_set = object.__setattr__


def frozen(cls):
    """Make cls an immutable value class over the fields its own body
    annotates, in order, as `dataclasses.dataclass(frozen=True)` would, but
    without the dataclass machinery, whose processing of each class was most
    of a CLI call's import time.

    `__init__` takes the fields by position or keyword, with defaults from
    the class body, and calls `__post_init__` if the class has one. A field
    annotated `tuple[...]` is stored as a tuple, whatever iterable the
    constructor is given. `==` compares the same class and then the tuple of
    fields, identity first as a tuple compare is; `hash` is the hash of that
    tuple; repr, `__match_args__` and the AttributeError on assigning or
    deleting a field are the dataclass's.

    `__init__`, `==` and `hash` run on hot paths, so they are compiled
    together, from one source per class that reads each field as a plain
    attribute; in a closure, `getattr` or `operator.attrgetter` made a
    one-field `==` 30 to 50% slower. The other methods are closures over the
    field names.
    """
    own = cls.__dict__
    annotations = own.get("__annotations__", {})
    names = tuple(annotations)
    stored = [f"tuple({n})" if str(annotations[n]).startswith("tuple[") else n for n in names]
    mine = "".join(f"self.{n}," for n in names)
    theirs = "".join(f"other.{n}," for n in names)
    lines = [
        f"def __init__(self, {', '.join(names)}):",
        *(f" _set(self, {n!r}, {v})" for n, v in zip(names, stored)),
        " self.__post_init__()" if hasattr(cls, "__post_init__") else "",
        "def __eq__(self, other):",
        " if other is self:",
        "  return True",
        " if other.__class__ is self.__class__:",
        f"  return ({mine}) == ({theirs})",
        " return NotImplemented",
        "def __hash__(self):",
        f" return hash(({mine}))",
    ]
    namespace = {"_set": _set}
    exec("\n".join(lines), namespace)
    namespace["__init__"].__defaults__ = tuple(own[n] for n in names if n in own) or None

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise AttributeError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    for method in (namespace["__init__"], namespace["__eq__"], namespace["__hash__"],
                   __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls


class PiforgeError(Exception):
    """Base class for all errors raised by piforge."""


class NoSolutionError(PiforgeError):
    """A linear system has no exact solution (right side outside the column space)."""


class SingularMatrixError(PiforgeError):
    """Inversion was requested for a matrix of deficient rank."""


class SystemMismatchError(PiforgeError):
    """Values from different dimension systems were combined."""


class DimensionMismatchError(PiforgeError):
    """An operation required equal dimensions and got different ones."""


class ArityMismatchError(PiforgeError):
    """A combination function was applied to the wrong number of inputs."""


class EmptyListError(PiforgeError):
    """A nonempty list of units was required."""


class InconsistentUnitsError(PiforgeError):
    """A consistent unit list was required and the given one clashes."""


class InconsistentReferenceError(PiforgeError):
    """A reference list used for nondimensionalization is not consistent."""


class DependentBaseError(PiforgeError):
    """A base with linearly independent dimensions was required."""


class NotABasisError(PiforgeError):
    """A candidate list of pi groups is not a basis of the kernel space."""


class ParseError(PiforgeError):
    """Malformed dimension, quantity, or relation text."""


class UnknownFundamentalError(ParseError):
    """A dimension expression names a fundamental outside the active system."""


class UnknownUnitError(ParseError):
    """A quantity literal names a unit missing from the registry."""


class DimensionError(PiforgeError):
    """A relation expression violates the dimensional typing discipline.

    Carries the offending AST node and the two dimensions that failed to
    agree (either may be None when the complaint is not a plain mismatch,
    e.g. a transcendental applied to a dimensional operand).
    """

    def __init__(self, message, node=None, left=None, right=None):
        super().__init__(message)
        self.node = node
        self.left = left
        self.right = right


class EvaluationError(PiforgeError):
    """A well-typed expression hit a runtime domain fault (e.g. a non-positive
    intermediate value flowing into a multiplicative context)."""


class SpecError(PiforgeError):
    """A problem-spec file is unreadable, malformed, or ill-typed."""
