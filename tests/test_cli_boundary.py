"""The CLI's trust boundary under mutated input: every file and argument a
user hands `piforge` gives exit 0, 1 or 2, never a crash through `main`'s
catch-all, and the same output when run again.

Hypothesis mutates the fixture specs (their relation and dimension text,
system and keys), the unit registry (magnitudes, dimensions, keys), the
bindings files (values of every JSON kind, quantity literals) and the
command-line values, writes them to files, and runs one of the six commands
through `cli.main` in process, twice.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from functools import reduce
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from piforge import cli, errors

from support import FIXTURES

SPECS = ("electronics", "hidden_constant", "independent_dims", "light_three_var", "mass_spring",
         "newton")
REGISTRY_TEXT = (FIXTURES / "registry.json").read_text()
UNITS = sorted(json.loads(REGISTRY_TEXT)["units"])
# pieces of relation, dimension and quantity text, well-formed and not
TOKENS = (
    "x", "t", "m", "k", "v", "i", "c", "F", "a", "(", ")", "*", "/", "+", "-", "^", "=", "<",
    "<=", " ", "0", "1", "2.5", "1e400", "1e-400", "-1", "1/2", "10000000000000000000000",
    "exp(", "log(", "sin(", "sqrt(", "is_pos_int(", " and ", " or ", "not ", "pi", "M", "L", "T",
    "I", "kg", "s", "ohm", "cm", "é", "１", "\x00", '"', ".", "e", ",", "((((",
)


def _exception_names(cls=BaseException) -> set[str]:
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _exception_names(sub)
    return names


CRASHES = _exception_names() | {name for name in dir(errors) if name.endswith("Error")}
CATCH_ALL = re.compile(r"error: (\w+): ")


def _edit(text: str, edit) -> str:
    at, cut, piece = edit
    at %= len(text) + 1
    return text[:at] + piece + text[at + cut:]


def _mutated(text: str):
    edits = st.lists(st.tuples(st.integers(0, 200), st.integers(0, 3), st.sampled_from(TOKENS)),
                     max_size=4)
    return edits.map(lambda es: reduce(_edit, es, text))


JSON_ODDS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**400), 10**400), st.floats(),
    st.text(max_size=6), st.lists(st.integers(0, 3), max_size=2), st.just({}),
    st.sampled_from(("2 kg", "3 s", "1 ohm", "0.5 cm", "1 V*A")),
)


def _text_or_odd(text):
    return st.one_of(_mutated(text), JSON_ODDS) if isinstance(text, str) else JSON_ODDS


def _mutate(draw, files):
    """One change to one of the files: a text edit of a relation, a
    dimension, a magnitude or a binding, another JSON value in its place, a
    key dropped or added, or an edit of a whole file's JSON text."""
    name = draw(st.sampled_from(sorted(files)))
    content = files[name]
    if isinstance(content, str):  # JSON text edited before
        files[name] = draw(_mutated(content))
        return
    where = {"spec": ("relation", "system", "variables"), "registry": ("system", "units")}
    target = content
    if name in where and draw(st.booleans()):  # one level down
        key = draw(st.sampled_from(where[name]))
        if isinstance(target.get(key), dict) and target[key]:
            target = target[key]
            if name == "registry" and draw(st.booleans()):  # a unit's field
                target = target[draw(st.sampled_from(sorted(target)))]
    if not isinstance(target, dict) or not target:
        return
    keys = sorted(target)
    match draw(st.sampled_from(("edit", "replace", "drop", "add", "raw"))):
        case "edit" | "replace" as how:
            key = draw(st.sampled_from(keys))
            value = target[key]
            target[key] = draw(_mutated(value) if how == "edit" and isinstance(value, str)
                               else _text_or_odd(value))
        case "drop":
            del target[draw(st.sampled_from(keys))]
        case "add":
            target[draw(st.sampled_from(("x", "zz", "system", "", *keys)))] = draw(JSON_ODDS)
        case "raw":
            files[name] = draw(_mutated(json.dumps(content)))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_input_exits_0_1_or_2_the_same_way_twice(data):
    draw = data.draw
    command = draw(st.sampled_from(("pi", "check", "verify", "consistent", "equiv", "nondim")))
    spec = json.loads((FIXTURES / f"{draw(st.sampled_from(SPECS))}.json").read_text())
    files = {"spec": spec, "registry": json.loads(REGISTRY_TEXT)}
    for name in ("a", "b"):
        files[name] = {v: draw(st.floats(1e-3, 1e3)) for v in spec["variables"]}
    for _ in range(draw(st.integers(0, 2))):
        _mutate(draw, files)
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(cli.REGISTRY_ENV, None)
        paths = {}
        for name, content in files.items():
            paths[name] = str(Path(tmp) / f"{name}.json")
            text = content if isinstance(content, str) else json.dumps(content)
            Path(paths[name]).write_text(text, encoding="utf-8")
        argv = [command]
        if command == "consistent":
            argv += draw(st.lists(st.one_of(st.sampled_from(UNITS), _mutated("kg")),
                                  min_size=1, max_size=4))
        else:
            argv += ["--spec", paths["spec"]]
        if command in ("consistent", "equiv", "nondim"):
            argv += ["--registry", paths["registry"]]
        argv += {"equiv": [paths["a"], paths["b"]], "nondim": [paths["a"]]}.get(command, [])
        if command == "verify":
            argv += ["--trials", str(draw(st.integers(-1, 30))),
                     "--seed", str(draw(st.integers(-5, 2**70)))]
        if command not in ("pi", "check") and draw(st.booleans()):
            argv += ["--tol", draw(st.sampled_from(("1e-9", "0.5", "1.5", "0", "-1", "nan", "inf",
                                                    "1e-320", "abc")))]
        if draw(st.booleans()):
            argv.append("--json")
        first = _run(argv)
        assert _run(argv) == first, argv
    code, _, err = first
    assert code in (0, 1, 2), (argv, first)
    crash = CATCH_ALL.match(err)
    assert not (crash and crash.group(1) in CRASHES), (argv, err)
