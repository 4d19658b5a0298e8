"""Algebra file format and the differential polynomial grammar.

The algebra format is line oriented:

    algebra <name>
    dim <N>
    unit <N rationals>          (optional)
    table
    i j k p/q                   (1-based, omitted entries are zero)
    end
    derivation <name>           (repeatable)
    <N rows of N rationals>
    end

A rational is an integer or p/q with an optional sign; decimal and
exponent forms are refused.  Serialization is canonical (table sorted,
reduced rationals), so a generate/parse/serialize round trip is byte
identical.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import Derivation, LieAction, StructureAlgebra, leibniz_failure
from .errors import NotADerivation, NotMultilinear, ParseError, WordCapExceeded
from .linalg import Matrix, ZERO, frac
from .piengine import (
    DEFAULT_MAX_ENTRIES,
    LPolynomial,
    charge_evaluation,
    commutator_poly,
    derive_polynomial,
    normalize_poly,
)


@dataclass
class AlgebraFile:
    name: str
    dim: int
    table: dict  # (i, j, k) 1-based -> Fraction, zeros omitted
    unit: list | None = None
    derivations: list = field(default_factory=list)  # (name, Matrix) pairs

    def serialize(self) -> str:
        lines = [f"algebra {self.name}", f"dim {self.dim}"]
        if self.unit is not None:
            lines.append("unit " + " ".join(str(frac(x)) for x in self.unit))
        lines.append("table")
        for (i, j, k) in sorted(self.table):
            v = frac(self.table[(i, j, k)])
            if v:
                lines.append(f"{i} {j} {k} {v}")
        lines.append("end")
        for name, m in self.derivations:
            lines.append(f"derivation {name}")
            for row in m.entries:
                lines.append(" ".join(str(frac(x)) for x in row))
            lines.append("end")
        return "\n".join(lines) + "\n"

    def to_algebra(self) -> tuple[StructureAlgebra, list[Derivation]]:
        n = self.dim
        constants = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in self.table.items():
            constants[i - 1][j - 1][k - 1] = frac(v)
        alg = StructureAlgebra(
            constants,
            unit_vector=[frac(x) for x in self.unit] if self.unit else None,
            label=self.name,
        )
        ders = []
        for name, m in self.derivations:
            pair = leibniz_failure(alg, m)
            if pair is not None:
                raise NotADerivation(pair, name)
            ders.append(Derivation(m, name=name))
        return alg, ders

    @classmethod
    def from_algebra(cls, name: str, alg: StructureAlgebra, derivations=()):
        table = {}
        for i in range(alg.dim):
            for j in range(alg.dim):
                for k in range(alg.dim):
                    v = alg.constants[i][j][k]
                    if v:
                        table[(i + 1, j + 1, k + 1)] = v
        unit = list(alg.unit_vector) if alg.unit_vector is not None else None
        return cls(
            name=name,
            dim=alg.dim,
            table=table,
            unit=unit,
            derivations=[(d.name, d.matrix) for d in derivations],
        )


_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_rational(tok: str, where: str) -> Fraction:
    """An integer or p/q with an optional sign.  Decimal and exponent forms
    are refused before Fraction sees them: Fraction("1e30000000") would
    build a 30-million-digit integer."""
    if _RATIONAL.fullmatch(tok):
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParseError(f"bad rational {tok!r}", where)


def parse_algebra_file(text: str) -> AlgebraFile:
    lines = text.splitlines()
    idx = 0

    def current(expect: str):
        nonlocal idx
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            raise ParseError(f"expected {expect}", "end of file")
        return lines[idx].strip(), f"line {idx + 1}"

    line, where = current("algebra header")
    if not line.startswith("algebra "):
        raise ParseError("expected 'algebra <name>'", where)
    name = line.split(None, 1)[1]
    idx += 1

    line, where = current("dim")
    if not line.startswith("dim "):
        raise ParseError("expected 'dim <N>'", where)
    try:
        dim = int(line.split()[1])
    except (IndexError, ValueError):
        raise ParseError("bad dimension", where)
    if dim < 1:
        raise ParseError("dimension must be positive", where)
    idx += 1

    unit = None
    line, where = current("table")
    if line.startswith("unit "):
        parts = line.split()[1:]
        if len(parts) != dim:
            raise ParseError(f"unit needs {dim} coordinates", where)
        unit = [parse_rational(p, where) for p in parts]
        idx += 1
        line, where = current("table")

    if line != "table":
        raise ParseError("expected 'table'", where)
    idx += 1
    table = {}
    while True:
        line, where = current("table entry or 'end'")
        idx += 1
        if line == "end":
            break
        parts = line.split()
        if len(parts) != 4:
            raise ParseError("table entries are 'i j k value'", where)
        try:
            i, j, k = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError("bad table indices", where)
        for x in (i, j, k):
            if not 1 <= x <= dim:
                raise ParseError(f"index {x} out of range 1..{dim}", where)
        v = parse_rational(parts[3], where)
        if v:
            table[(i, j, k)] = v

    derivations = []
    while True:
        while idx < len(lines) and not lines[idx].strip():
            idx += 1
        if idx >= len(lines):
            break
        line, where = current("derivation")
        if not line.startswith("derivation "):
            raise ParseError("expected 'derivation <name>'", where)
        dname = line.split(None, 1)[1]
        idx += 1
        rows = []
        for _ in range(dim):
            line, where = current(f"row of derivation {dname}")
            parts = line.split()
            if len(parts) != dim:
                raise ParseError(
                    f"derivation {dname} rows need {dim} entries", where
                )
            rows.append([parse_rational(p, where) for p in parts])
            idx += 1
        line, where = current("'end'")
        if line != "end":
            raise ParseError(f"expected 'end' after derivation {dname}", where)
        idx += 1
        derivations.append((dname, Matrix.from_rows(rows)))

    return AlgebraFile(name=name, dim=dim, table=table, unit=unit, derivations=derivations)


# ---------------------------------------------------------------------------
# polynomial grammar
#
#   expr   := [sign] term ((+|-) term)*
#   term   := [rational] factor+
#   factor := atom [^ '[' name (',' name)* ']']
#   atom   := x<i> | '[' expr (',' expr)+ ']'     (commutators, left-normed)
#
# Commutators nest at most MAX_NESTING deep, which keeps the recursive
# descent well inside Python's recursion limit.

MAX_NESTING = 32

_TOKEN = re.compile(
    r"(?P<rat>-?\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>[\[\],^+*-])"
)
_SPACE = re.compile(r"\s*")


def _tokenize(text: str):
    """(kind, text, offset) triples, offset being where the token starts."""
    out = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", f"offset {pos}")
        kind = m.lastgroup
        out.append((kind, m.group(kind), pos))
        pos = _SPACE.match(text, m.end()).end()
    return out


def _shown(text) -> str:
    return "end of input" if text is None else repr(text)


class _PolyParser:
    """Recursive descent over tokens; past the last token peek() returns
    (None, None, len(source)), so errors there read "found end of input".

    Every polynomial built on the way (a sum, a product, a commutator step,
    a derivative) is built by charged: a refusal to build it names the
    offset of the term or factor being built, and it is charged as
    is_identity charges it, by charge_evaluation at that offset."""

    def __init__(self, tokens, end: int, act: LieAction, max_entries: int):
        self.tokens = tokens
        self.end = end
        self.i = 0
        self.depth = 0
        self.act = act
        self.max_entries = max_entries
        # the first element of a name wins: a commutator d<i> never shadows a generator
        self.letters = {d.name: i for i, d in reversed(list(enumerate(act.closure_basis)))}
        # generators lie_closure left out, whose names must resolve to nothing
        own = {d.name: d.matrix for d in reversed(act.closure_basis)}
        self.dropped = {g.name for g in act.generators if own.get(g.name) != g.matrix}

    def charged(self, build, pos: int) -> LPolynomial:
        """build(), its NotMultilinear or WordCapExceeded naming offset pos,
        charged at that offset."""
        where = f" (at offset {pos})"
        try:
            poly = build()
        except (NotMultilinear, WordCapExceeded) as exc:
            raise type(exc)(f"{exc}{where}") from None
        charge_evaluation(poly, self.act.algebra.dim, self.max_entries, where)
        return poly

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, self.end)

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value):
        kind, text, pos = self.take()
        if text != value:
            raise ParseError(f"expected {value!r}, found {_shown(text)}", f"offset {pos}")

    def parse(self) -> LPolynomial:
        poly = self.expr()
        kind, text, pos = self.peek()
        if kind is not None:
            raise ParseError(f"trailing input {text!r}", f"offset {pos}")
        return normalize_poly(self.act, poly)

    def expr(self) -> LPolynomial:
        sign = 1
        kind, text, _ = self.peek()
        if text in ("+", "-"):
            self.take()
            sign = -1 if text == "-" else 1
        poly = self.term().scale(sign)
        while True:
            kind, text, pos = self.peek()
            if text not in ("+", "-"):
                return poly
            self.take()
            nxt = self.term() if text == "+" else self.term().scale(-1)
            poly = self.charged(lambda: poly + nxt, pos)

    def term(self) -> LPolynomial:
        coeff = Fraction(1)
        kind, text, pos = self.peek()
        if kind == "rat":
            self.take()
            coeff = parse_rational(text, f"offset {pos}")
            kind, text, _ = self.peek()
            if text == "*":
                self.take()
        poly = None
        while True:
            kind, text, at = self.peek()
            if kind == "var" or text == "[":
                f = self.factor()
                poly = f if poly is None else self.charged(lambda: poly * f, at)
            elif text == "*":
                self.take()
            else:
                break
        if poly is None:
            raise ParseError(
                f"a term needs at least one factor, found {_shown(text)}", f"offset {pos}"
            )
        return poly.scale(coeff)

    def factor(self) -> LPolynomial:
        kind, text, pos = self.take()
        if kind == "var":
            base = LPolynomial.variable(int(text[1:]))
        elif text == "[":
            if self.depth == MAX_NESTING:
                raise ParseError(f"commutators nest deeper than {MAX_NESTING}", f"offset {pos}")
            self.depth += 1
            args = [self.expr()]
            while True:
                kind, t, p = self.take()
                if t == ",":
                    args.append(self.expr())
                elif t == "]":
                    break
                else:
                    raise ParseError(f"expected ',' or ']', found {_shown(t)}", f"offset {p}")
            self.depth -= 1
            if len(args) < 2:
                raise ParseError("commutators need at least two arguments", f"offset {pos}")
            base = args[0]
            for arg in args[1:]:
                base = self.charged(lambda: commutator_poly(base, arg), pos)
        else:
            raise ParseError(
                f"expected a variable or '[', found {_shown(text)}", f"offset {pos}"
            )
        kind, text, _ = self.peek()
        if text == "^":
            self.take()
            self.expect("[")
            while True:
                kind, t, p = self.take()
                if kind != "name":
                    raise ParseError(f"expected derivation name, found {_shown(t)}", f"offset {p}")
                if t in self.dropped:
                    why = "is zero or a combination of the derivations before it"
                    raise ParseError(f"derivation {t!r} {why}", f"offset {p}")
                if t not in self.letters:
                    raise ParseError(f"unknown derivation {t!r}", f"offset {p}")
                letter = self.letters[t]
                base = self.charged(lambda: derive_polynomial(base, letter, self.act), pos)
                kind, t, p = self.take()
                if t == "]":
                    break
                if t != ",":
                    raise ParseError(f"expected ',' or ']', found {_shown(t)}", f"offset {p}")
        return base


def parse_polynomial(
    text: str, act: LieAction, max_entries: int = DEFAULT_MAX_ENTRIES
) -> LPolynomial:
    return _PolyParser(_tokenize(text), len(text), act, max_entries).parse()


def check_multilinear(poly: LPolynomial) -> int:
    """Degree of a multilinear polynomial in x1..xn; raises otherwise."""
    if poly.is_zero():
        raise NotMultilinear("the zero polynomial has no degree")
    n = poly.degree
    for (vars_, _w) in poly.terms:
        if sorted(vars_) != list(range(1, n + 1)):
            raise NotMultilinear(f"term variables {vars_} are not x1..x{n}")
    return n
