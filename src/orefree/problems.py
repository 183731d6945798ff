"""Problem files: parse and print presentations in a line format.

A problem file declares a rational function field and the operator data
on it, one `key: value` pair per line, `#` starting a comment:

    field: Q                # or: Fp 5
    vars: t                 # comma-separated generator names
    sigma.t: t + 1          # image under sigma (default: identity)
    sigma_inv.t: t - 1      # image under the inverse (checked, not trusted)
    delta.t: 0              # image under delta (default: zero)
    E.c: 2                  # optionally declared psi-constants
    option.word_length: 3   # classification budgets, option.witness a value

Expressions use integers, declared names, `+ - * / ^` and parentheses.
Every structural claim the file makes is verified during construction:
sigma round-trips against sigma_inv, delta is a sigma-derivation (when
sigma != id, delta(y) = c*(sigma(y) - y) on every generator for one c),
declared constants are annihilated by psi.  Nothing
is inferred silently; a nontrivial sigma without usable inverse images
fails the round-trip check rather than being inverted behind the user's
back.

`parse_ore_expr` extends the same grammar with the symbol `X` and
`inv(...)` so command-line computations can build fractions directly.
"""

import re

from .classify import ClassifyOptions, ProblemSpec
from .errors import (
    BadCharacteristic, NotAnAutomorphism, ParseError, UndeclaredVariable,
)
from .field import FunctionField
from .intpoly import _is_prime
from .orefrac import OreFraction
from .orepoly import OrePoly
from .skew import SkewDerivation, SkewEndo, SkewPair

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_OPTION_INTS = ("orbit_bound", "window", "word_length", "tower_depth")


def _tokenize(text, line, col0):
    """Token list [(kind, value, col)] with 1-based columns into the line.

    col0 is the 0-based offset of `text` within its source line, so the
    reported columns point at the original file, not at the slice.
    """
    out = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch in " \t":
            pos += 1
            continue
        col = col0 + pos + 1
        if ch.isdigit():
            end = pos
            while end < len(text) and text[end].isdigit():
                end += 1
            out.append(("int", int(text[pos:end]), col))
            pos = end
        elif ch.isalpha() or ch == "_":
            end = pos
            while end < len(text) and (text[end].isalnum()
                                       or text[end] == "_"):
                end += 1
            out.append(("name", text[pos:end], col))
            pos = end
        elif ch in "+-*/^()":
            out.append(("op", ch, col))
            pos += 1
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    out.append(("end", None, col0 + len(text) + 1))
    return out


class _ExprParser:
    """Recursive descent over the shared expression grammar.

    ops supplies the integers and names of the value algebra (field
    elements or Ore fractions); the operators are the values' own, and
    the parser itself only knows precedence and positions.
    """

    def __init__(self, text, line, col0, ops):
        self.toks = _tokenize(text, line, col0)
        self.line = line
        self.i = 0
        self.ops = ops

    def peek(self):
        return self.toks[self.i]

    def take(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def parse(self):
        v = self.expr()
        kind, val, col = self.peek()
        if kind != "end":
            raise ParseError("unexpected %r after expression" % str(val),
                             self.line, col)
        return v

    def expr(self):
        v = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                w = self.term()
                v = v + w if val == "+" else v - w
            else:
                return v

    def term(self):
        v = self.unary()
        while True:
            kind, val, col = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                w = self.unary()
                if val == "*":
                    v = v * w
                elif w.is_zero():
                    raise ParseError("division by zero", self.line, col)
                else:
                    v = v / w
            else:
                return v

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            v = self.unary()
            return v if val == "+" else -v
        return self.power()

    def power(self):
        v = self.atom()
        while True:
            kind, val, col = self.peek()
            if kind != "op" or val != "^":
                return v
            self.take()
            kind, n, ncol = self.take()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer",
                                 self.line, ncol)
            v = v ** n

    def atom(self):
        kind, val, col = self.take()
        if kind == "int":
            return self.ops.from_int(val)
        if kind == "name":
            return self.ops.name(self, val, col)
        if kind == "op" and val == "(":
            v = self.expr()
            self.expect_close()
            return v
        raise ParseError("expected a number, name, or parenthesis",
                         self.line, col)

    def expect_close(self):
        kind, val, col = self.take()
        if kind != "op" or val != ")":
            raise ParseError("expected ')'", self.line, col)


class _FieldOps:
    """Expression values are elements of the rational function field."""

    def __init__(self, ff):
        self.ff = ff

    def from_int(self, n):
        return self.ff.from_int(n)

    def name(self, parser, val, col):
        if val in self.ff.names:
            return self.ff.var(self.ff.index(val))
        raise UndeclaredVariable("unknown name %r" % val, parser.line, col)


class _OreOps:
    """Expression values are Ore fractions; adds X and inv(...)."""

    def __init__(self, pair):
        self.pair = pair

    def from_int(self, n):
        return OreFraction.from_ratfunc(self.pair, self.pair.ff.from_int(n))

    def name(self, parser, val, col):
        if val == "X":
            return OreFraction.from_poly(OrePoly.x(self.pair))
        if val == "inv":
            kind, v, ccol = parser.take()
            if kind != "op" or v != "(":
                raise ParseError("inv needs a parenthesized argument",
                                 parser.line, ccol)
            inner = parser.expr()
            parser.expect_close()
            if inner.is_zero():
                raise ParseError("inv of zero", parser.line, col)
            return inner.inverse()
        ff = self.pair.ff
        if val in ff.names:
            return OreFraction.from_ratfunc(self.pair,
                                            ff.var(ff.index(val)))
        raise UndeclaredVariable("unknown name %r" % val, parser.line, col)


def parse_field_expr(ff, text, line=1, col0=0):
    """One expression over the declared field; positions are 1-based."""
    return _ExprParser(text, line, col0, _FieldOps(ff)).parse()


def parse_ore_expr(pair, text, line=1, col0=0):
    """One Ore-fraction expression, with X for the skew variable."""
    return _ExprParser(text, line, col0, _OreOps(pair)).parse()


def parse_problem(text):
    """Parse a problem file into a ProblemSpec, verifying as it builds."""
    entries = []
    seen = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if ":" not in body:
            raise ParseError("expected 'key: value'", lineno,
                             len(body) - len(body.lstrip()) + 1)
        key, _, val = body.partition(":")
        kcol = len(key) - len(key.lstrip()) + 1
        vcol0 = len(key) + 1
        key = key.strip()
        if key in seen:
            raise ParseError("duplicate key %r (first on line %d)"
                             % (key, seen[key]), lineno, kcol)
        seen[key] = lineno
        entries.append((key, val, lineno, kcol, vcol0))

    char = None
    names = None
    images = {"sigma": {}, "sigma_inv": {}, "delta": {}}
    e_gens = []
    opt_kw = {}
    deferred = []

    for key, val, lineno, kcol, vcol0 in entries:
        sval = val.strip()
        if key == "field":
            m = re.fullmatch(r"Q|Fp\s+(\d+)", sval)
            if m is None:
                raise ParseError("field must be 'Q' or 'Fp <prime>'",
                                 lineno, vcol0 + 1)
            if m.group(1) is None:
                char = 0
            else:
                p = int(m.group(1))
                if not _is_prime(p):
                    raise BadCharacteristic("%d is not prime" % p)
                char = p
        elif key == "vars":
            names = []
            for piece in sval.split(","):
                name = piece.strip()
                if not _IDENT.match(name):
                    raise ParseError("bad generator name %r" % name,
                                     lineno, vcol0 + 1)
                if name == "X":
                    raise ParseError(
                        "'X' is reserved for the skew variable",
                        lineno, vcol0 + 1)
                if name in names:
                    raise ParseError("generator %r declared twice" % name,
                                     lineno, vcol0 + 1)
                names.append(name)
        else:
            deferred.append((key, val, lineno, kcol, vcol0))

    if char is None:
        raise ParseError("missing 'field' declaration", 1, 1)
    if not names:
        raise ParseError("missing 'vars' declaration", 1, 1)
    ff = FunctionField(char, tuple(names))

    for key, val, lineno, kcol, vcol0 in deferred:
        head, _, tail = key.partition(".")
        if head in images:
            if tail not in names:
                raise UndeclaredVariable(
                    "%s refers to undeclared generator %r" % (key, tail),
                    lineno, kcol)
            images[head][tail] = parse_field_expr(ff, val, lineno, vcol0)
        elif head == "E":
            if not _IDENT.match(tail):
                raise ParseError("bad constant label %r" % tail, lineno,
                                 kcol)
            e_gens.append(parse_field_expr(ff, val, lineno, vcol0))
        elif head == "option":
            if tail in _OPTION_INTS:
                sval = val.strip()
                if not re.fullmatch(r"\d+", sval) or int(sval) < 1:
                    raise ParseError(
                        "option.%s needs a positive integer" % tail,
                        lineno, vcol0 + 1)
                opt_kw[tail] = int(sval)
            elif tail == "witness":
                opt_kw["witness"] = parse_field_expr(ff, val, lineno, vcol0)
                witness_at = lineno, vcol0 + 1 + len(val) - len(val.lstrip())
            else:
                raise ParseError("unknown option %r" % tail, lineno, kcol)
        else:
            raise ParseError("unknown key %r" % key, lineno, kcol)

    if images["sigma"] or images["sigma_inv"]:
        for i, n in enumerate(names):
            img = images["sigma"].get(n)
            if img is not None and img != ff.var(i) \
                    and n not in images["sigma_inv"]:
                raise NotAnAutomorphism(
                    "sigma.%s is declared but sigma_inv.%s is missing"
                    % (n, n))
        fwd = [images["sigma"].get(n, ff.var(i))
               for i, n in enumerate(names)]
        bwd = [images["sigma_inv"].get(n, ff.var(i))
               for i, n in enumerate(names)]
        sigma = SkewEndo(ff, fwd, bwd)
    else:
        sigma = SkewEndo.identity(ff)
    if images["delta"]:
        dimgs = [images["delta"].get(n, ff.zero()) for n in names]
        delta = SkewDerivation(ff, dimgs, sigma)
    else:
        delta = SkewDerivation.zero(ff, sigma)
    pair = SkewPair(sigma, delta, e_gens)
    if "witness" in opt_kw and opt_kw["witness"].is_zero():
        raise ParseError("option.witness must be nonzero", *witness_at)
    return ProblemSpec(pair, ClassifyOptions(**opt_kw))


def print_problem(spec):
    """Canonical text for a ProblemSpec; parse(print(s)) rebuilds s.

    Trivial maps are omitted entirely, nontrivial ones list every
    generator so the output does not depend on which lines the source
    file happened to spell out.
    """
    pair, opts = spec.pair, spec.options
    ff = pair.ff
    lines = ["field: %s" % ("Q" if ff.char == 0 else "Fp %d" % ff.char),
             "vars: %s" % ", ".join(ff.names)]
    if not pair.sigma.is_identity():
        for i, n in enumerate(ff.names):
            lines.append("sigma.%s: %s" % (n, pair.sigma.images[i]))
        for i, n in enumerate(ff.names):
            lines.append("sigma_inv.%s: %s" % (n,
                                               pair.sigma.inverse_images[i]))
    if not pair.delta.is_zero():
        for i, n in enumerate(ff.names):
            if not pair.delta.images[i].is_zero():
                lines.append("delta.%s: %s" % (n, pair.delta.images[i]))
    for j, g in enumerate(pair.e_generators, 1):
        lines.append("E.c%d: %s" % (j, g))
    defaults = ClassifyOptions()
    for fieldname in _OPTION_INTS:
        have = getattr(opts, fieldname)
        if have != getattr(defaults, fieldname):
            lines.append("option.%s: %d" % (fieldname, have))
    if opts.witness is not None:
        lines.append("option.witness: %s" % opts.witness)
    return "\n".join(lines) + "\n"


def problem_equal(a, b):
    """Semantic equality of two ProblemSpecs (pairs compare by images)."""
    fa, fb = a.pair.ff, b.pair.ff
    if (fa.char, fa.names) != (fb.char, fb.names):
        return False
    if a.pair.sigma.images != b.pair.sigma.images:
        return False
    if a.pair.sigma.inverse_images != b.pair.sigma.inverse_images:
        return False
    if a.pair.delta.images != b.pair.delta.images:
        return False
    if a.pair.e_generators != b.pair.e_generators:
        return False
    return a.options == b.options
