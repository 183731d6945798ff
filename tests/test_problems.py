"""Problem file grammar: parsing, canonical printing, error positions."""

import random

import pytest

from orefree.classify import ClassifyOptions
from orefree.errors import (
    BadCharacteristic, InconsistentDerivation, InvalidConstantDeclaration,
    NotAnAutomorphism, ParseError, UndeclaredVariable,
)
from orefree.field import FunctionField
from orefree.orefrac import OreFraction
from orefree.orepoly import OrePoly
from orefree.problems import (
    parse_field_expr, parse_ore_expr, parse_problem, print_problem,
    problem_equal,
)

from oracles import random_ratfunc

SHIFT = """\
# shift automorphism on Q(t)
field: Q
vars: t
sigma.t: t + 1
sigma_inv.t: t - 1
"""

TOWER = """\
field: Fp 5
vars: x0, x1
delta.x0: x1
delta.x1: 0
"""


def test_parse_shift_presentation():
    spec = parse_problem(SHIFT)
    pair = spec.pair
    assert pair.is_pure_automorphism()
    t = pair.ff.var(0)
    assert pair.sigma.apply(t) == t + 1
    assert spec.options == ClassifyOptions()


def test_parse_derivation_presentation():
    spec = parse_problem(TOWER)
    pair = spec.pair
    assert pair.is_pure_derivation()
    assert pair.ff.char == 5
    assert pair.delta.apply(pair.ff.var(0)) == pair.ff.var(1)
    assert pair.delta.apply(pair.ff.var(1)).is_zero()


def test_defaults_are_identity_and_zero():
    spec = parse_problem("field: Q\nvars: a, b\n")
    assert spec.pair.is_commutative()


def test_print_parse_round_trip():
    for text in (SHIFT, TOWER):
        spec = parse_problem(text)
        out = print_problem(spec)
        again = parse_problem(out)
        assert problem_equal(spec, again)
        assert print_problem(again) == out


def test_options_and_constants_round_trip():
    text = """\
field: Q
vars: t
sigma.t: 2*t
sigma_inv.t: t/2
E.c: 7/3
option.word_length: 2
option.orbit_bound: 9
option.witness: 1/(t - 1)
"""
    spec = parse_problem(text)
    assert spec.options.word_length == 2
    assert spec.options.orbit_bound == 9
    t = spec.pair.ff.var(0)
    assert spec.options.witness == (t - 1).inverse()
    assert len(spec.pair.e_generators) == 1
    out = print_problem(spec)
    assert problem_equal(spec, parse_problem(out))


def test_non_constant_e_declaration_rejected():
    text = "field: Q\nvars: t\nsigma.t: t + 1\nsigma_inv.t: t - 1\nE.c: t\n"
    with pytest.raises(InvalidConstantDeclaration):
        parse_problem(text)


def test_square_map_is_not_an_automorphism():
    text = "field: Q\nvars: t\nsigma.t: t^2\nsigma_inv.t: t\n"
    with pytest.raises(NotAnAutomorphism):
        parse_problem(text)


def test_nontrivial_sigma_without_inverse_names_the_gap():
    with pytest.raises(NotAnAutomorphism, match="sigma_inv.t is missing"):
        parse_problem("field: Q\nvars: t\nsigma.t: t + 1\n")
    # a declared trivial image needs no inverse line
    spec = parse_problem("field: Q\nvars: t\nsigma.t: t\n")
    assert spec.pair.sigma.is_identity()


def test_inconsistent_delta_pair_rejected():
    text = """\
field: Q
vars: t, s
sigma.t: t + 1
sigma_inv.t: t - 1
sigma.s: s + 1
sigma_inv.s: s - 1
delta.t: t
delta.s: 1
"""
    # then delta(s) != 0 where sigma moves only t, and delta(t) != 0
    # where sigma fixes t
    head = "field: Q\nvars: t, s\n"
    for text in (text,
                 head + "sigma.t: t + 1\nsigma_inv.t: t - 1\ndelta.s: 1\n",
                 head + "sigma.s: s + 1\nsigma_inv.s: s - 1\ndelta.t: 1\n"):
        with pytest.raises(InconsistentDerivation):
            parse_problem(text)


def test_composite_modulus_rejected():
    with pytest.raises(BadCharacteristic):
        parse_problem("field: Fp 6\nvars: t\n")


@pytest.mark.parametrize("text,line,col", [
    ("field: Q\nvars: t\nsigma.t: t +\n", 3, 13),
    ("field: Q\nvars: t\ndelta.t: (t\n", 3, 12),
    ("field: Q\nvars: t\nsigma.t: t ? 1\nsigma_inv.t: t\n", 3, 12),
    ("field: Q\nvars: t\nsigma.t: 2 t\nsigma_inv.t: t\n", 3, 12),
])
def test_positions_point_into_the_source_line(text, line, col):
    with pytest.raises(ParseError) as info:
        parse_problem(text)
    assert info.value.line == line
    assert info.value.col == col


def test_undeclared_names_carry_positions():
    with pytest.raises(UndeclaredVariable) as info:
        parse_problem("field: Q\nvars: t\nsigma.t: t + s\nsigma_inv.t: t\n")
    assert info.value.line == 3 and info.value.col == 14
    with pytest.raises(UndeclaredVariable):
        parse_problem("field: Q\nvars: t\ndelta.s: 1\n")


@pytest.mark.parametrize("text", [
    "vars: t\n",
    "field: Q\n",
    "field: Q\nvars: t\nvars: s\n",
    "field: Q\nvars: X\n",
    "field: Q\nvars: t, t\n",
    "field: Q\nvars: t\nwhatever: 1\n",
    "field: Q\nvars: t\noption.speed: 3\n",
    "field: Q\nvars: t\noption.window: 0\n",
    "field: Q\nvars: t\noption.witness: 0\n",
    "field: Fp five\nvars: t\n",
    "field: Q\nvars: t\njust some words\n",
])
def test_malformed_files_raise_parse_errors(text):
    with pytest.raises(ParseError):
        parse_problem(text)


def test_expression_precedence_and_power():
    ff = FunctionField(0, ["t"])
    t = ff.var(0)
    assert parse_field_expr(ff, "t - 2*t") == -t
    assert parse_field_expr(ff, "2^3") == ff.from_int(8)
    assert parse_field_expr(ff, "-t^2") == -(t * t)
    assert parse_field_expr(ff, "(1 + t)/(1 - t)") == (1 + t) / (1 - t)
    assert parse_field_expr(ff, "1/2*t") == t / 2
    assert parse_field_expr(ff, "t^2^3") == t ** 6


def test_expression_division_by_literal_zero():
    ff = FunctionField(0, ["t"])
    with pytest.raises(ParseError):
        parse_field_expr(ff, "1/(t - t)")


def test_parse_printed_random_fractions():
    """str output of arbitrary field elements feeds back through the parser."""
    for char, seed in ((0, 11), (7, 12)):
        ff = FunctionField(char, ["t", "s"])
        rng = random.Random(seed)
        for _ in range(40):
            f = random_ratfunc(rng, ff, max_terms=4, max_deg=3)
            assert parse_field_expr(ff, str(f)) == f


def test_ore_expressions_build_fractions():
    spec = parse_problem(SHIFT)
    pair = spec.pair
    t = pair.ff.var(0)
    x = OreFraction.from_poly(OrePoly.x(pair))
    tf = OreFraction.from_ratfunc(pair, t)
    one = OreFraction.one(pair)
    assert parse_ore_expr(pair, "X^2 - t*X") == x * x - tf * x
    assert parse_ore_expr(pair, "inv(1 - X)") == (one - x).inverse()
    assert parse_ore_expr(pair, "inv(X)*X") == one
    got = parse_ore_expr(pair, "t/(t + 1)")
    assert got == OreFraction.from_ratfunc(pair, t / (t + 1))


def test_ore_expression_round_trips_through_str():
    spec = parse_problem(SHIFT)
    pair = spec.pair
    f = parse_ore_expr(pair, "inv(1 - X)*t + X^2 - inv(t)")
    assert parse_ore_expr(pair, str(f)) == f


def test_ore_expression_errors():
    spec = parse_problem(SHIFT)
    pair = spec.pair
    with pytest.raises(ParseError):
        parse_ore_expr(pair, "inv(X - X)")
    with pytest.raises(ParseError):
        parse_ore_expr(pair, "inv X")
    with pytest.raises(UndeclaredVariable):
        parse_ore_expr(pair, "X + y")
    with pytest.raises(ParseError):
        parse_ore_expr(pair, "X^t")


def test_comments_and_blank_lines_ignored():
    text = "\n# intro\nfield: Q  # rationals\n\nvars: t\n  # done\n"
    spec = parse_problem(text)
    assert spec.pair.ff.names == ("t",)
