"""Text formats for configurations, polynomials, tiles, and windows.

Line-oriented, whitespace-tolerant grammar.  Descriptor variants:

    periodic lattice{(2,0) (0,2)} values{(0,0):0 (0,1):1 (1,0):1 (1,1):0}
    coset offset(0,0,0) gens{(1,0,0)} value 1
    mechanical weights(1,1) alpha sqrt(2)
    finite dim 2 cells{(0,0):1 (2,3):-4}
    sum { +mechanical weights(1,1) alpha sqrt(2) -coset offset(0,0) gens{(1,0)} value 1 }
    valuemap map{0:5 1:7} default 0 of coset offset(0,0) gens{(1,0)} value 1

Numbers take an optional sign, written either as ASCII '-' or the typeset
minus U+2212; rationals are p/q.  Radicands must be squarefree: sqrt(8)
is rejected rather than silently rewritten as 2*sqrt(2).  Every printer
emits the canonical form, and parsing a printed value reproduces it.

A ConfigSyntaxError carries the (line, col) of the character or token it
is about, both counted from 1, with a tab as one column.  An error at the
end of the input points at the last token, and one about no token at (1, 1).
"""

from __future__ import annotations

from fractions import Fraction

from .configurations import (
    Configuration,
    CosetIndicator,
    FiniteSupport,
    Mechanical,
    Periodic,
    Sum,
    ValueMap,
)
from .errors import ConfigSyntaxError, NonSquarefreeRadicandError
from .lattice import Lattice, Window
from .laurent import LaurentPolynomial
from .quadratic import QuadraticReal, is_squarefree
from .tiling import ClusterTile

_PUNCT = "(){}:,*/^"
MINUS = "−"
_SUGAR = {"x": (1, 0), "y": (0, 1)}  # the 2-D variables of parse_poly


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind  # "int" | "name" | punctuation char | "sign"
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    """The tokens of text, each at the (line, col) of its first character.

    Lines and columns count from 1; a column is the number of characters
    from the line's start, so a tab is one column like any other.
    """
    tokens = []
    line, start, i = 1, 0, 0  # start: the index of the line's first character
    while i < len(text):
        ch, j = text[i], i + 1
        if ch == "\n":
            line, start = line + 1, j
        elif ch.isspace():
            pass
        elif ch in _PUNCT:
            tokens.append(_Token(ch, ch, line, i - start + 1))
        elif ch in "+-" or ch == MINUS:
            tokens.append(_Token("sign", "-" if ch == MINUS else ch, line, i - start + 1))
        elif ch.isdigit():
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, i - start + 1))
        elif ch.isalpha() or ch == "_":
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, i - start + 1))
        else:
            raise ConfigSyntaxError(
                f"unexpected character {ch!r}", position=(line, i - start + 1))
        i = j
    return tokens


class _Cursor:
    def __init__(self, tokens, text_kind="input"):
        self.tokens = tokens
        self.pos = 0
        self.text_kind = text_kind

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def accept(self, kind, text=None):
        tok = self.peek()
        if tok is None or tok.kind != kind or (text is not None and tok.text != text):
            return None
        self.pos += 1
        return tok

    def expect(self, kind, text=None):
        tok = self.accept(kind, text)
        if tok is None:
            got = self.peek()
            found = "end of input" if got is None else repr(got.text)
            self.fail(f"expected {text or kind!r}, found {found}", got)
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            self.fail(f"trailing input from {tok.text!r}", tok)

    def fail(self, msg, tok=None):
        if tok is None:
            tok = self.tokens[-1] if self.tokens else None
        pos = (tok.line, tok.col) if tok else (1, 1)
        raise ConfigSyntaxError(f"{self.text_kind}: {msg}", position=pos)


def _parse_int(cur: _Cursor) -> int:
    sign = cur.accept("sign")
    tok = cur.expect("int")
    value = int(tok.text)
    return -value if sign is not None and sign.text == "-" else value


def _parse_rational(cur: _Cursor) -> Fraction:
    num = _parse_int(cur)
    if cur.accept("/"):
        tok, den = cur.peek(), _parse_int(cur)
        if den == 0:
            cur.fail("zero denominator", tok)
        return Fraction(num, den)
    return Fraction(num)


def _parse_vector(cur: _Cursor) -> tuple:
    cur.expect("(")
    coords = [_parse_int(cur)]
    while cur.accept(","):
        coords.append(_parse_int(cur))
    cur.expect(")")
    return tuple(coords)


def _parse_vector_set(cur: _Cursor) -> list:
    cur.expect("{")
    out = []
    while not cur.accept("}"):
        out.append(_parse_vector(cur))
    return out


def _parse_map(cur: _Cursor, key) -> dict:
    """`{key:int ...}`, each key read by key(cur); a repeated key overrides."""
    cur.expect("{")
    out = {}
    while not cur.accept("}"):
        k = key(cur)
        cur.expect(":")
        out[k] = _parse_int(cur)
    return out


def _parse_alpha(cur: _Cursor) -> QuadraticReal:
    """sqrt(n), quad(a, b, n, q) for (a + b*sqrt(n)) / q, or a rational."""
    tok = cur.accept("name", "sqrt") or cur.accept("name", "quad")
    if tok is None:
        return QuadraticReal.from_fraction(_parse_rational(cur))
    cur.expect("(")
    args = [_parse_int(cur)]
    if tok.text == "sqrt":
        args = [0, 1, args[0], 1]
    else:
        for _ in range(3):
            cur.expect(",")
            den = cur.peek()
            args.append(_parse_int(cur))
        if args[3] == 0:
            cur.fail("zero denominator", den)
    cur.expect(")")
    n = args[2]
    if n < 0 or not is_squarefree(n):
        raise NonSquarefreeRadicandError(f"radicand {n} is not squarefree")
    return QuadraticReal(*args)


def _parse_descriptor(cur: _Cursor) -> Configuration:
    tok = cur.expect("name")
    kind = tok.text
    if kind == "periodic":
        cur.expect("name", "lattice")
        gens = _parse_vector_set(cur)
        cur.expect("name", "values")
        values = _parse_map(cur, _parse_vector)
        return Periodic(Lattice(gens), values)
    if kind == "coset":
        cur.expect("name", "offset")
        offset = _parse_vector(cur)
        cur.expect("name", "gens")
        gens = _parse_vector_set(cur)
        cur.expect("name", "value")
        value = _parse_int(cur)
        return CosetIndicator(offset, gens, value)
    if kind == "mechanical":
        cur.expect("name", "weights")
        weights = _parse_vector(cur)
        cur.expect("name", "alpha")
        alpha = _parse_alpha(cur)
        return Mechanical(weights, alpha)
    if kind == "finite":
        dim = None
        if cur.accept("name", "dim"):
            dim = _parse_int(cur)
        cur.expect("name", "cells")
        cells = _parse_map(cur, _parse_vector)
        if dim is None and not cells:
            cur.fail("empty finite descriptor needs an explicit dim")
        return FiniteSupport(cells, dim=dim)
    if kind == "sum":
        cur.expect("{")
        terms = []
        while not cur.accept("}"):
            coeff = 1 if cur.expect("sign").text == "+" else -1
            tok = cur.accept("int")
            if tok is not None:
                coeff *= int(tok.text)
                cur.expect("*")
            terms.append((coeff, _parse_descriptor(cur)))
        return Sum(terms)
    if kind == "valuemap":
        cur.expect("name", "map")
        mapping = _parse_map(cur, _parse_int)
        cur.expect("name", "default")
        default = _parse_int(cur)
        cur.expect("name", "of")
        inner = _parse_descriptor(cur)
        return ValueMap(inner, mapping, default)
    cur.fail(f"unknown descriptor {kind!r}", tok)


def parse_config(text: str) -> Configuration:
    cur = _Cursor(_tokenize(text), "configuration")
    out = _parse_descriptor(cur)
    cur.done()
    return out


def _format_vector(v) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _format_alpha(a: QuadraticReal) -> str:
    if a.b == 0:
        return str(a.a) if a.q == 1 else f"{a.a}/{a.q}"
    if a.a == 0 and a.b == 1 and a.q == 1:
        return f"sqrt({a.n})"
    return f"quad({a.a},{a.b},{a.n},{a.q})"


def format_config(c: Configuration) -> str:
    """Canonical text for a descriptor; parse_config inverts this exactly."""
    if isinstance(c, Periodic):
        gens = " ".join(_format_vector(g) for g in c.lattice.basis())
        cells = " ".join(
            f"{_format_vector(r)}:{c.value(r)}" for r in c.lattice.residues())
        return f"periodic lattice{{{gens}}} values{{{cells}}}"
    if isinstance(c, CosetIndicator):
        gens = " ".join(_format_vector(g) for g in c.generators)
        return (f"coset offset{_format_vector(c.offset)} "
                f"gens{{{gens}}} value {c.value_on}")
    if isinstance(c, Mechanical):
        return (f"mechanical weights{_format_vector(c.weights)} "
                f"alpha {_format_alpha(c.alpha)}")
    if isinstance(c, FiniteSupport):
        cells = " ".join(
            f"{_format_vector(p)}:{v}" for p, v in sorted(c.assoc.items()))
        return f"finite dim {c.dim} cells{{{cells}}}"
    if isinstance(c, Sum):
        parts = []
        for coeff, term in c.terms:
            sign = "+" if coeff > 0 else "-"
            mag = abs(coeff)
            prefix = sign if mag == 1 else f"{sign}{mag}*"
            parts.append(prefix + format_config(term))
        return "sum { " + " ".join(parts) + " }"
    if isinstance(c, ValueMap):
        pairs = " ".join(f"{k}:{v}" for k, v in sorted(c.mapping.items()))
        return (f"valuemap map{{{pairs}}} default {c.default} "
                f"of {format_config(c.inner)}")
    raise TypeError(f"no text form for {type(c).__name__}")


def parse_poly(text: str, dim: int | None = None) -> LaurentPolynomial:
    """Sum of signed terms: coef, coef*X^(e1,e2), X^(e1,...), or x/y sugar."""
    cur = _Cursor(_tokenize(text), "polynomial")
    terms = []  # (exponent, or () for a constant, coefficient)

    def parse_atom():
        tok = cur.accept("name")
        if tok is None:
            return None
        if tok.text == "X":
            cur.expect("^")
            return _parse_vector(cur)
        if tok.text in _SUGAR:
            return _SUGAR[tok.text]
        cur.fail(f"unknown symbol {tok.text!r}", tok)

    while cur.peek() is not None:
        sign = cur.accept("sign")
        tok = cur.peek()
        if sign is None and terms:
            cur.fail(f"expected '+' or '-', found {tok.text!r}", tok)
        if tok is None:
            cur.fail("dangling sign")
        if tok.kind == "int":
            coeff, exp = _parse_rational(cur), ()
            if cur.accept("*"):
                exp = parse_atom()
                if exp is None:
                    cur.fail("expected a monomial after '*'")
        else:
            coeff, exp = 1, parse_atom()
            if exp is None:
                cur.fail(f"expected a term, found {tok.text!r}", tok)
        terms.append((exp, -coeff if sign is not None and sign.text == "-" else coeff))
    if not terms:
        cur.fail("empty polynomial text")

    lengths = {len(exp) for exp, _ in terms if exp}
    if dim is not None:
        lengths.add(dim)
    if len(lengths) > 1:
        raise ConfigSyntaxError("mixed exponent dimensions", position=(1, 1))
    d = lengths.pop() if lengths else 2
    out = {}
    for exp, coeff in terms:
        e = exp or (0,) * d
        out[e] = out.get(e, 0) + coeff
    return LaurentPolynomial(d, out)


def format_poly(f: LaurentPolynomial) -> str:
    """Terms in descending graded-lex order; coefficient 1 is left implicit."""
    if f.is_zero:
        return "0"
    items = sorted(f.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    parts = []
    for k, (e, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        if all(x == 0 for x in e):
            body = str(mag)
        elif mag == 1:
            body = f"X^{_format_vector(e)}"
        else:
            body = f"{mag}*X^{_format_vector(e)}"
        if k == 0:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def parse_tile(text: str) -> ClusterTile:
    """`tile { (0,0) (1,0) (0,1) }`"""
    cur = _Cursor(_tokenize(text), "tile")
    cur.expect("name", "tile")
    cells = _parse_vector_set(cur)
    cur.done()
    if not cells:
        cur.fail("a tile needs at least one cell")
    return ClusterTile(cells)


def format_tile(t: ClusterTile) -> str:
    inner = " ".join(_format_vector(p) for p in t.cells)
    return f"tile {{ {inner} }}"


def parse_window(text: str, dim: int | None = None) -> Window:
    """Box windows: `MxN[xK]` or `500` anchored at 0, or `a..b,c..d` spans."""
    text = text.strip().replace(MINUS, "-")
    if ".." in text:
        lo, hi = [], []
        for part in text.split(","):
            a, _, b = part.partition("..")
            try:
                lo.append(int(a))
                hi.append(int(b))
            except ValueError:
                raise ConfigSyntaxError(
                    f"bad span {part!r}", position=(1, 1)) from None
        return Window.box(tuple(lo), tuple(hi))
    sizes = text.split("x")
    try:
        sizes = [int(s) for s in sizes]
    except ValueError:
        raise ConfigSyntaxError(f"bad window size {text!r}", position=(1, 1)) from None
    if len(sizes) == 1 and dim is not None:
        sizes = sizes * dim
    if any(s < 1 for s in sizes):
        raise ConfigSyntaxError("window extents must be positive", position=(1, 1))
    return Window.box((0,) * len(sizes), tuple(s - 1 for s in sizes))


def parse_vectors(text: str) -> list:
    """Whitespace- or semicolon-separated list of integer vectors."""
    cleaned = text.replace(";", " ")
    cur = _Cursor(_tokenize(cleaned), "vectors")
    out = []
    while cur.peek() is not None:
        out.append(_parse_vector(cur))
    if not out:
        raise ConfigSyntaxError("no vectors given", position=(1, 1))
    return out
