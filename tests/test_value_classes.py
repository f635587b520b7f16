"""The value classes made by `errors.frozen` behave as
`dataclasses.dataclass(frozen=True)` would: each is checked against a
dataclass twin built from the same annotations and defaults, over instances
the library builds from the fixtures and from `seeded_systems`."""

import ast
import dataclasses
import importlib
import inspect
import itertools
import pickle
import random

import pytest

from piforge import dsl, harness, nondim, pigroups, units
from piforge.core import Quantity, reduce_dims
from piforge.errors import frozen

from support import FIXTURES, ROOT, random_quantities, seeded_systems


def _frozen_classes():
    """Every class in src/piforge decorated with `frozen`, by AST."""
    found = []
    for path in sorted((ROOT / "src" / "piforge").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                getattr(d, "id", None) == "frozen" for d in node.decorator_list
            ):
                found.append(getattr(importlib.import_module(f"piforge.{path.stem}"), node.name))
    return found


VALUE_CLASSES = _frozen_classes()


def _twin(cls):
    """A frozen dataclass over cls's own annotations and defaults, with no
    methods of its own, named as cls is."""
    own = cls.__dict__
    body = {n: own[n] for n in own["__annotations__"] if n in own}
    body.update(__annotations__=dict(own["__annotations__"]), __qualname__=cls.__qualname__)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), body))


TWINS = {cls: _twin(cls) for cls in VALUE_CLASSES}


def _values(obj):
    """obj and every value-class instance reachable through its fields,
    tuples and dict values."""
    if type(obj) in TWINS:
        yield obj
        for name in type(obj).__match_args__:
            yield from _values(getattr(obj, name))
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _values(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _values(item)


def _roots():
    """Library results over the fixtures and the first seeded systems. Each
    spec's kept compiled relation is evaluated before it is listed."""
    registry = units.UnitRegistry.load(FIXTURES / "registry.json")
    specs = [dsl.load_problem_spec(path) for path in sorted(FIXTURES.glob("*.json"))
             if "relation" in path.read_text()]
    for spec in specs:
        dsl.evaluate(spec.fuzz_plan.compiled, {n: Quantity(0.0, d) for n, d in spec.env.items()})
    yield from specs
    yield from dsl._tokenize("F = m*a^(1/2) + 2.5e3")
    yield dsl.parse_relation("not x < y and x = sqrt(y) or exp(x/y) <= pi")
    yield units.is_consistent([registry.quantity("m"), registry.quantity("cm")])
    yield units.is_consistent([registry.quantity("N"), registry.quantity("kg")])
    for name in ("hidden_constant", "newton"):
        yield harness.fuzz_invariance(dsl.load_problem_spec(FIXTURES / f"{name}.json"), 20, seed=3)
    yield harness.Rescaling.from_factors(specs[0].system, [2.0] * specs[0].system.size)
    rng = random.Random(5)
    for system, dims in itertools.islice(seeded_systems(), 1, 40):
        special = pigroups.special_basis(dims)
        yield special, special.canonical, reduce_dims(dims)
        yield pigroups.transition(special.base, special.canonical)
        xs, ys = random_quantities(rng, dims), random_quantities(rng, dims)
        yield nondim.pi_values(special.base, xs), nondim.equivalent(special.base, xs, ys)
        yield nondim.equivalent(special.base, xs, xs), Quantity.one(system)


def _instances():
    by_class = {cls: [] for cls in VALUE_CLASSES}
    for value in _values(tuple(_roots())):
        if len(by_class[type(value)]) < 12 and all(value is not v for v in by_class[type(value)]):
            by_class[type(value)].append(value)
    return by_class


INSTANCES = _instances()


def _as_twin(obj):
    return TWINS[type(obj)](*(getattr(obj, n) for n in type(obj).__match_args__))


def _hash_or_error(obj):
    try:
        return hash(obj)
    except TypeError as exc:
        return str(exc)


def _raised(action):
    with pytest.raises(AttributeError) as info:
        action()
    return str(info.value)


def test_every_module_has_its_value_classes():
    names = {f"{cls.__module__}.{cls.__qualname__}" for cls in VALUE_CLASSES}
    assert len(names) == 26
    assert {"piforge.dsl._Token", "piforge.core.DimSystem", "piforge.harness.InvarianceReport"} <= names


class _Raising:
    """A field value whose == raises: a compare that reaches it fails."""

    def __eq__(self, other):
        raise AssertionError("a field was compared")

    __hash__ = object.__hash__


@frozen
class _Pair:
    left: object
    right: object


class TestIdentityFirst:
    """`==` on a frozen instance tests `other is self` before any field, and
    a tuple compare tests identity before `==` slot by slot. The reduction
    slot, the reference anchor and the record reader compare by `==` and
    rest on both: the very same objects cost no field compare."""

    @staticmethod
    def _instances():
        """A test class and the library's Quantity, each over a raising field."""
        return [_Pair(_Raising(), _Raising()), Quantity(0.0, _Raising())]

    def test_an_instance_compared_with_itself_compares_no_field(self):
        for x, other in zip(self._instances(), self._instances()):
            assert x == x and not x != x
            # the raising field is wired: another instance's compare reaches it
            with pytest.raises(AssertionError, match="a field was compared"):
                x == other

    def test_a_tuple_of_instances_compared_with_itself_compares_no_field(self):
        xs = tuple(self._instances())
        assert xs == xs and xs == tuple(list(xs)) and not xs != tuple(list(xs))
        with pytest.raises(AssertionError, match="a field was compared"):
            xs == tuple(self._instances())


@pytest.mark.parametrize("cls", VALUE_CLASSES, ids=lambda c: c.__qualname__)
class TestSameAsTheDataclassTwin:
    def test_instances_were_found(self, cls):
        assert INSTANCES[cls]

    def test_signature_and_match_args(self, cls):
        def params(c):
            return [(p.name, p.kind, p.default) for p in inspect.signature(c.__init__).parameters.values()]

        assert params(cls) == params(TWINS[cls])
        assert cls.__match_args__ == TWINS[cls].__match_args__

    def test_eq_hash_and_repr(self, cls):
        for x, y in itertools.product(INSTANCES[cls], repeat=2):
            tx, ty = _as_twin(x), _as_twin(y)
            assert (x == y, x != y) == (tx == ty, tx != ty)
        for x in INSTANCES[cls]:
            assert _hash_or_error(x) == _hash_or_error(_as_twin(x))
            assert repr(x) == repr(_as_twin(x))
            assert (x == 1, x != "x") == (_as_twin(x) == 1, _as_twin(x) != "x")

    def test_frozen_errors(self, cls):
        x = INSTANCES[cls][0]
        tx = _as_twin(x)
        for name in (*cls.__match_args__, "extra"):
            assert _raised(lambda: setattr(x, name, 0)) == _raised(lambda: setattr(tx, name, 0))
            assert _raised(lambda: delattr(x, name)) == _raised(lambda: delattr(tx, name))
        assert all(getattr(x, n) is getattr(tx, n) for n in cls.__match_args__)

    def test_keyword_construction_and_defaults(self, cls):
        defaulted = [n for n in cls.__match_args__ if n in cls.__dict__]
        for x in INSTANCES[cls]:
            fields = {n: getattr(x, n) for n in cls.__match_args__}
            assert cls(**fields) == x
            assert cls(*fields.values()) == x
            if all(fields[n] == cls.__dict__[n] for n in defaulted):
                assert cls(**{n: v for n, v in fields.items() if n not in defaulted}) == x

    def test_pickle_round_trip(self, cls):
        for x in INSTANCES[cls]:
            assert pickle.loads(pickle.dumps(x)) == x
