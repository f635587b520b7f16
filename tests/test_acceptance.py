"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated runtime budget and tolerances."""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from piforge import dsl
from piforge.core import Quantity, dimension_matrix
from piforge.exactlin import QMatrix, rref
from piforge.harness import Rescaling, fuzz_invariance, rescale
from piforge.nondim import (
    VerdictReason,
    equivalent,
    nondimensionalize,
    pi_values,
)
from piforge.pigroups import (
    PiBasis,
    is_pi_basis,
    pi_basis,
    special_basis,
    transition,
)
from piforge.units import is_consistent

from support import (
    FIXTURES,
    GOLDENS,
    GOLDEN_CASES,
    apply_change_of_basis,
    brute_force_integer_kernel,
    mass_spring_dims,
    oracle_equivalent,
    random_dims,
    random_invertible,
    random_quantities,
    run_cli,
)


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.2f}s exceeds the {seconds}s budget"


def _report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def test_criterion_1_rank_nullity_suite():
    rng = random.Random(2024)
    with budget(5.0):
        for _ in range(1000):
            system, dims = random_dims(rng, max_n=8, max_d=4, lo=-3, hi=3)
            basis = pi_basis(dims)
            matrix = dimension_matrix(system, dims)
            rank = rref(matrix)[2]
            assert basis.r == len(dims) - rank
            zero = (Fraction(0),) * system.size
            for g in basis.groups:
                assert matrix.mul_vec(g.exponents) == zero
    _report(1, "1000 random dimension lists: |pi_basis| = n - rank, exact annihilation")


def test_criterion_2_mass_spring_fixture():
    system, dims = mass_spring_dims()
    matrix = dimension_matrix(system, dims)

    # independent oracle: brute-force integer kernel search in {-3..3}^3
    hits = brute_force_integer_kernel(matrix, bound=3)
    primitive_hits = [
        v for v in hits if math.gcd(*(abs(c) for c in v if c != 0)) == 1 and v[2] > 0
    ]
    assert primitive_hits == [(-1, 1, 2)]

    basis = pi_basis(dims)
    assert [g.exponents for g in basis.groups] == [(Fraction(-1), Fraction(1), Fraction(2))]

    sb = special_basis(dims)
    assert [g.exponents for g in sb.base.groups] == [
        (Fraction(-1, 2), Fraction(1, 2), Fraction(1))
    ]

    tr = transition(basis, sb.base)
    assert tr.matrix == QMatrix.from_rows([[Fraction(1, 2)]])
    _report(2, "canonical (-1,1,2) matches brute-force oracle; special (-1/2,1/2,1); transition [[1/2]]")


def test_criterion_3_consistency_fixtures(registry):
    with budget(1.0):
        electronics = [registry.quantity(n) for n in ("V", "A", "ohm", "s", "F")]
        assert is_consistent(electronics).consistent

        clashing = [registry.quantity(n) for n in ("cm", "hr", "knot")]
        report = is_consistent(clashing)
        assert not report.consistent
        assert report.witness.clash_factor == pytest.approx(185200.0, rel=1e-6)
    _report(3, "V/A/ohm/s/F consistent; cm/hr/knot clash factor within 1e-6 of 185200")


def _equivalence_instance(rng):
    """Random dims with a nontrivial kernel and a slot some group touches."""
    while True:
        system, dims = random_dims(rng, max_n=8, max_d=4, lo=-3, hi=3)
        basis = pi_basis(dims)
        if basis.r == 0:
            continue
        slots = [
            i for i in range(len(dims)) if any(g.exponents[i] != 0 for g in basis.groups)
        ]
        if slots:
            return system, dims, basis, slots


def test_criterion_4_complete_pi_equivalence():
    rng = random.Random(2025)
    disagreements = 0
    with budget(10.0):
        for _ in range(1000):
            system, dims, basis, slots = _equivalence_instance(rng)
            xs = random_quantities(rng, dims)
            ys = rescale(
                xs, Rescaling(system, tuple(rng.uniform(-4, 4) for _ in system.names))
            )
            verdict = equivalent(basis, xs, ys)
            oracle = oracle_equivalent(xs, ys)
            assert verdict.equivalent
            assert oracle
            disagreements += verdict.equivalent != oracle

        for _ in range(1000):
            system, dims, basis, slots = _equivalence_instance(rng)
            xs = random_quantities(rng, dims)
            ys = rescale(
                xs, Rescaling(system, tuple(rng.uniform(-4, 4) for _ in system.names))
            )
            # perturb one slot the kernel touches: e_slot is outside the row
            # space exactly when some group has a nonzero coefficient there
            slot = rng.choice(slots)
            delta = math.exp(rng.uniform(math.log(1e-3), math.log(1e-1)))
            assert delta >= 1e-6
            ys[slot] = Quantity(ys[slot].log_magnitude + math.log1p(delta), ys[slot].dim)
            verdict = equivalent(basis, xs, ys)
            oracle = oracle_equivalent(xs, ys)
            assert verdict.reason is VerdictReason.PI_MISMATCH
            assert not oracle
            disagreements += verdict.equivalent != oracle
    assert disagreements == 0
    _report(4, "1000 rescaled pairs Equivalent + 1000 perturbed pairs PiMismatch; oracle agrees on all 2000")


def test_criterion_5_invariance_fuzzing():
    with budget(5.0):
        newton = fuzz_invariance(
            dsl.load_problem_spec(FIXTURES / "newton.json"), trials=10_000, seed=0
        )
        assert newton.passed == newton.trials == 10_000

        hidden = fuzz_invariance(
            dsl.load_problem_spec(FIXTURES / "hidden_constant.json"), trials=10_000, seed=0
        )
        assert hidden.counterexample is not None
        assert hidden.counterexample.trial_index < 10
        factors = hidden.counterexample.factors
        assert factors["L"] != factors["T"]

        light = fuzz_invariance(
            dsl.load_problem_spec(FIXTURES / "light_three_var.json"), trials=10_000, seed=0
        )
        assert light.passed == light.trials == 10_000
    _report(5, "F=ma and x=c*t pass 10^4 trials; hidden constant refuted within 10 trials at seed 0")


def test_criterion_6_basis_independence():
    rng = random.Random(2026)

    # the letter of the criterion on one fixed kernel: 50 pairs, all bases
    system, dims, basis, slots = _equivalence_instance(random.Random(99))
    pairs = []
    for _ in range(50):
        xs = random_quantities(rng, dims)
        kind = rng.randrange(3)
        if kind == 0:
            ys = rescale(xs, Rescaling(system, tuple(rng.uniform(-3, 3) for _ in system.names)))
        elif kind == 1:
            ys = rescale(xs, Rescaling(system, tuple(rng.uniform(-3, 3) for _ in system.names)))
            slot = rng.choice(slots)
            ys[slot] = Quantity(ys[slot].log_magnitude + math.log(1.01), ys[slot].dim)
        else:
            ys = random_quantities(rng, dims)
        pairs.append((xs, ys))
    canonical_verdicts = [equivalent(basis, xs, ys).equivalent for xs, ys in pairs]

    for _ in range(200):
        change = random_invertible(rng, basis.r)
        groups = apply_change_of_basis(change, basis.groups)
        assert is_pi_basis(groups, dims)
        other = PiBasis(dims=dims, groups=groups)
        tr = transition(basis, other)
        assert tr.matrix.matmul(tr.inverse) == QMatrix.identity(basis.r)
        assert tr.inverse.matmul(tr.matrix) == QMatrix.identity(basis.r)
        verdicts = [equivalent(other, xs, ys).equivalent for xs, ys in pairs]
        assert verdicts == canonical_verdicts
    _report(6, "200 random invertible basis changes: is_pi_basis, exact M*N = I, verdicts stable on 50 pairs")


# --- criterion 7: random invariant relations g(pi(...)) -------------------


def _monomial(names, coefficients):
    node = None
    for name, c in zip(names, coefficients):
        if c == 0:
            continue
        factor = dsl.Var(name) if c == 1 else dsl.Pow(dsl.Var(name), c)
        node = factor if node is None else dsl.BinOp("*", node, factor)
    assert node is not None
    return node


def _random_pi_term(rng, atoms, depth):
    """A multiplicative-safe dimensionless term over the pi monomials."""
    if depth <= 0 or rng.random() < 0.35:
        if rng.random() < 0.25:
            return dsl.Const(round(rng.uniform(0.5, 2.0), 3))
        return rng.choice(atoms)
    kind = rng.randrange(5)
    if kind == 0:
        return dsl.BinOp(
            rng.choice(["*", "/"]),
            _random_pi_term(rng, atoms, depth - 1),
            _random_pi_term(rng, atoms, depth - 1),
        )
    if kind == 1:
        exponent = rng.choice([Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(3, 2), Fraction(2)])
        return dsl.Pow(_random_pi_term(rng, atoms, depth - 1), exponent)
    if kind == 2:
        return dsl.Call("sqrt", _random_pi_term(rng, atoms, depth - 1))
    if kind == 3:
        left = _random_pi_term(rng, atoms, depth - 1)
        return dsl.BinOp("+", left, _random_pi_term(rng, atoms, depth - 1))
    return dsl.Call("exp", dsl.Call("sin", _random_pi_term(rng, atoms, depth - 1)))


def _random_pi_atom_predicate(rng, atoms):
    kind = rng.randrange(4)
    t = _random_pi_term(rng, atoms, 2)
    if kind == 0:
        return dsl.Compare(rng.choice(["=", "<", "<="]), t, _random_pi_term(rng, atoms, 2))
    if kind == 1:
        return dsl.Compare(rng.choice(["<", "<="]), dsl.Call("log", t), dsl.Const(1.0))
    if kind == 2:
        return dsl.Call("is_pos_int", t)
    return dsl.Compare("<", t, dsl.BinOp("*", t, dsl.Const(2.0)))


def _random_invariant_relation(rng, names, groups):
    atoms = [_monomial(names, g.exponents) for g in groups]
    node = _random_pi_atom_predicate(rng, atoms)
    for _ in range(rng.randrange(3)):
        other = _random_pi_atom_predicate(rng, atoms)
        op = rng.choice(["and", "or"])
        node = dsl.BoolOp(op, node, other)
        if rng.random() < 0.3:
            node = dsl.Not(node)
    return node


def _criterion_7_dims(rng):
    while True:
        system, dims = random_dims(rng, max_n=5, max_d=3, lo=-2, hi=2, min_n=2)
        basis = pi_basis(dims)
        if basis.r == 0:
            continue
        if all(abs(c) <= 6 for g in basis.groups for c in g.exponents):
            return system, dims, basis


def test_criterion_7_nondimensionalization_soundness():
    rng = random.Random(2027)
    mismatches = 0
    for _ in range(100):
        system, dims, basis = _criterion_7_dims(rng)
        names = [f"x{i}" for i in range(len(dims))]
        relation = _random_invariant_relation(rng, names, basis.groups)
        env = dict(zip(names, dims))
        assert dsl.typecheck(relation, env) is dsl.BOOL

        compiled = dsl.compile_relation(relation, env)

        def f(values, _compiled=compiled, _names=names):
            return dsl.evaluate(_compiled, dict(zip(_names, values)))

        sb = special_basis(dims)
        ref = [Quantity(0.0, d) for d in dims]
        g = nondimensionalize(f, sb, ref)
        for _ in range(100):
            xs = random_quantities(rng, dims, lo=0.5, hi=2.0)
            direct = f(xs)
            recomposed = g(*pi_values(sb.base, xs).values)
            mismatches += direct != recomposed
    assert mismatches == 0
    _report(7, "100 random g(pi(...)) relations x 100 bindings: recomposition reproduces f, zero mismatches")


def test_criterion_8_cli_golden_suite():
    for name, argv, expected_exit in GOLDEN_CASES:
        proc = run_cli(*argv)
        assert proc.returncode == expected_exit, (name, proc.stderr.decode())
        assert proc.stdout == (GOLDENS / name).read_bytes(), name
    _report(8, f"{len(GOLDEN_CASES)} CLI invocations byte-identical to goldens with documented exit codes")
