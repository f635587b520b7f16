"""Reference computations and correctness checks made apart from piforge.

Nothing here imports piforge. Exact facts come from this module's own
Fraction elimination on integer dimension matrices; float facts from plain
Python arithmetic on log magnitudes. Each `check_*` function returns a list
of error strings, empty when the answer is right.
"""

from __future__ import annotations

import math
from fractions import Fraction

REL_TOL = 1e-9


def rank(rows) -> int:
    """Rank of a rational matrix given as rows, by Gaussian elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    rk = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        sel = next((r for r in range(rk, len(work)) if work[r][col] != 0), None)
        if sel is None:
            continue
        work[rk], work[sel] = work[sel], work[rk]
        for r in range(rk + 1, len(work)):
            if work[r][col] != 0:
                f = work[r][col] / work[rk][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rk])]
        rk += 1
    return rk


def columns(matrix) -> list[list]:
    return [list(col) for col in zip(*matrix)]


def first_independent(matrix) -> tuple[int, ...]:
    """Indices of the first maximal independent subfamily of the columns:
    scan left to right, keep a column when it raises the rank."""
    cols = columns(matrix)
    kept: list[int] = []
    for j in range(len(cols)):
        if rank([cols[i] for i in kept + [j]]) > len(kept):
            kept.append(j)
    return tuple(kept)


def used_slots(matrix) -> tuple[int, ...]:
    """Slots that some dimensionless product uses: column j lies in the span
    of the other columns, so dropping it keeps the rank."""
    cols = columns(matrix)
    full = rank(cols)
    return tuple(j for j in range(len(cols)) if rank(cols[:j] + cols[j + 1:]) == full)


def annihilates(matrix, vec) -> bool:
    return all(sum(Fraction(a) * Fraction(v) for a, v in zip(row, vec)) == 0 for row in matrix)


def matmul(a, b) -> list[list[Fraction]]:
    return [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
             for col in zip(*b)] for row in a]


def check_bases(matrix, canonical, special, pivots, frees, trans=None) -> list[str]:
    """The canonical basis, the special basis and the transition between
    them are the unique answer for the integer dimension matrix (d rows, one
    column per variable)."""
    n = len(matrix[0])
    errors: list[str] = []
    rk = rank(matrix)
    want_pivots = first_independent(matrix)
    want_frees = tuple(j for j in range(n) if j not in want_pivots)
    if tuple(pivots) != want_pivots:
        errors.append(f"pivots {tuple(pivots)} != first independent columns {want_pivots}")
    if tuple(frees) != want_frees:
        errors.append(f"free slots {tuple(frees)} != {want_frees}")
    for label, groups in (("canonical", canonical), ("special", special)):
        if len(groups) != n - rk:
            errors.append(f"{label}: {len(groups)} groups, n - rank = {n - rk}")
            return errors
        if groups and rank(groups) != len(groups):
            errors.append(f"{label}: groups are dependent")
        for i, g in enumerate(groups):
            if len(g) != n or not annihilates(matrix, g):
                errors.append(f"{label} group {i} does not annihilate the dimension matrix")
    if errors:
        return errors
    for i, (g, s) in enumerate(zip(canonical, special)):
        free = want_frees[i]
        if any(Fraction(v).denominator != 1 for v in g):
            errors.append(f"canonical group {i} is not integral")
        elif math.gcd(*(int(v) for v in g)) != 1:
            errors.append(f"canonical group {i} is not primitive")
        if not Fraction(g[free]) > 0:
            errors.append(f"canonical group {i} is not positive at free slot {free}")
        for other in want_frees:
            want = 1 if other == free else 0
            if other != free and Fraction(g[other]) != 0:
                errors.append(f"canonical group {i} is nonzero at free slot {other}")
            if Fraction(s[other]) != want:
                errors.append(f"special group {i} has {s[other]} at free slot {other}")
    if trans is not None and matmul(trans, canonical) != [[Fraction(v) for v in s] for s in special]:
        errors.append("transition times canonical exponents != special exponents")
    return errors


def dot(coeffs, logs) -> float:
    """Log magnitude of a product of powers, skipping zero exponents."""
    return sum(float(c) * x for c, x in zip(coeffs, logs) if c != 0)


def close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * (1.0 + scale)


def check_record(groups, xs, ys, pis, same, differs, rep, ref, pivots) -> list[str]:
    """One pi record: `xs` and `ys` are log magnitudes of a binding and of
    its rescaled copy, `pis` the reported log pi-values of xs, `same` and
    `differs` the equivalence verdicts against the rescaled and the perturbed
    copy, `rep` the canonical representative against reference `ref`."""
    errors: list[str] = []
    if len(pis) != len(groups):
        return [f"{len(pis)} pi-values for {len(groups)} groups"]
    for i, g in enumerate(groups):
        scale = sum(abs(float(c) * x) for c, x in zip(g, xs))
        want = dot(g, xs)
        if not close(pis[i], want, scale):
            errors.append(f"pi-value {i}: {pis[i]!r} != {want!r}")
        if not close(dot(g, ys), want, scale + sum(abs(float(c) * y) for c, y in zip(g, ys))):
            errors.append(f"group {i} is not invariant under the rescaling")
        if not close(dot(g, rep), want, scale + sum(abs(float(c) * y) for c, y in zip(g, rep))):
            errors.append(f"canonical representative differs in group {i}")
    if same is not True:
        errors.append("rescaled copy judged not equivalent")
    if differs is not False:
        errors.append("perturbed copy judged equivalent")
    for p in pivots:
        if rep[p] != ref[p]:
            errors.append(f"canonical representative differs from ref at pivot slot {p}")
    return errors


def rescaled(values: dict, dims: dict, factors: dict) -> dict:
    """Linear magnitudes after multiplying by prod factor_j ^ exponent_j."""
    return {
        name: v * math.prod(factors[f] ** float(e) for f, e in dims[name].items())
        for name, v in values.items()
    }


def check_fuzz(invariant: bool, truth, dims, trials, passed, ce) -> list[str]:
    """A fuzz report: invariant relations pass every trial; a non-invariant
    one yields a counterexample on which `truth`, a plain-Python version of
    the relation, flips between the bindings and their rescaled copy."""
    if invariant:
        if passed != trials or ce is not None:
            return [f"invariant relation failed {trials - passed} of {trials} trials"]
        return []
    if ce is None:
        return [f"no counterexample in {trials} trials for a non-invariant relation"]
    bindings, factors, before, after = ce
    want_before = truth(bindings)
    want_after = truth(rescaled(bindings, dims, factors))
    if want_before == want_after:
        return ["reported counterexample does not flip the relation"]
    if (before, after) != (want_before, want_after):
        return [f"reported truth values {before}/{after}, recomputed {want_before}/{want_after}"]
    return []


def rel_eq(a: float, b: float, tol: float = REL_TOL) -> bool:
    """The relation language's '=': equal within a relative tolerance."""
    return abs(a - b) <= tol * max(abs(a), abs(b))


def parse_dim(text: str, names) -> list[Fraction]:
    """Exponent vector of a dimension expression like 'M*L^2*T^-3'."""
    vec = [Fraction(0)] * len(names)
    if text.strip() == "1":
        return vec
    for factor in text.replace(" ", "").split("*"):
        name, _, power = factor.partition("^")
        vec[list(names).index(name)] += Fraction(power.strip("()") or 1)
    return vec
