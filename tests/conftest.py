import pytest

from piforge import core, exactlin
from piforge.units import UnitRegistry

from support import FIXTURES


@pytest.fixture(scope="session")
def registry() -> UnitRegistry:
    return UnitRegistry.load(FIXTURES / "registry.json")


@pytest.fixture
def rref_calls(monkeypatch):
    """The (rows, cols) of every exact elimination, through `exactlin` or
    `core`, from an empty reduction slot, so no count depends on the tests
    before."""
    calls = []
    original = exactlin.eliminate

    def counting(m):
        calls.append((m.rows, m.cols))
        return original(m)

    for module in (exactlin, core):
        monkeypatch.setattr(module, "eliminate", counting)
    monkeypatch.setattr(core, "_last_reduction", ((), None))
    return calls
