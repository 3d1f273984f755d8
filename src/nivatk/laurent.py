"""Laurent polynomials with rational coefficients and their action on
configurations.

Exponents are integer tuples of either sign.  The module also carries the
line polynomial machinery: Newton polygon edge directions, extraction of
the full content of line factors in a given direction, and the resulting
factorization f = X^m * phi_1 * ... * phi_k * remainder where each phi_i
collects every line factor of one primitive direction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatchError,
    EmptySampleError,
    ZeroPolynomialError,
)
from .configurations import Configuration, Pattern, Sum, combine, window_values
from .lattice import (
    Window,
    canonical_sign,
    checked_step,
    primitive_vector,
    vec_add,
    vec_neg,
    vec_scale,
    vec_sub,
)
from .linalg import _exact, integer_primitive


class LaurentPolynomial:
    """Finite rational combination of monomials X^e, e in Z^d.

    `terms` maps exponents to nonzero coefficients: an int when integral,
    a Fraction with denominator > 1 otherwise.
    """

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        clean = {}
        for e, a in (terms or {}).items():
            if type(a) is not int:
                if not isinstance(a, (int, Fraction)):
                    raise TypeError(f"coefficient {a!r} is not an int or a Fraction")
                a = Fraction(a)
                if a.denominator == 1:
                    a = a.numerator
            if a:
                e = tuple(map(operator.index, e))
                if len(e) != dim:
                    raise DimensionMismatchError(f"exponent {e} vs dimension {dim}")
                clean[e] = a
        self.terms = clean

    @classmethod
    def _from_clean(cls, dim, terms):
        """Trusted constructor for terms already in the checked form:
        length-dim int tuples mapped to nonzero ints or non-integral
        Fractions."""
        f = object.__new__(cls)
        f.dim = dim
        f.terms = terms
        return f

    # --- constructors ---

    @classmethod
    def zero(cls, dim):
        return cls(dim, {})

    @classmethod
    def one(cls, dim):
        return cls(dim, {(0,) * dim: 1})

    @classmethod
    def constant(cls, dim, c):
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def monomial(cls, exponent, coeff=1):
        exponent = tuple(map(operator.index, exponent))
        return cls(len(exponent), {exponent: coeff})

    @classmethod
    def difference(cls, v):
        """X^v - 1; the zero polynomial when v = 0."""
        v = tuple(map(operator.index, v))
        return cls(len(v), {v: 1, (0,) * len(v): -1} if any(v) else {})

    @classmethod
    def difference_product(cls, dim, vectors):
        """(X^v1 - 1)...(X^vm - 1), multiplied left to right; 1 when m = 0."""
        return math.prod(map(cls.difference, vectors), start=cls.one(dim))

    # --- predicates and views ---

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def support(self):
        return tuple(sorted(self.terms))

    def _columns(self):
        """The exponents split into one tuple per axis, in term order."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no support")
        return tuple(zip(*self.terms))

    def min_exponent(self):
        return tuple(map(min, self._columns()))

    def max_exponent(self):
        return tuple(map(max, self._columns()))

    def bbox(self):
        """Componentwise extents of the support box."""
        return tuple(max(col) - min(col) for col in self._columns())

    def has_integer_coefficients(self) -> bool:
        return not any(isinstance(a, Fraction) for a in self.terms.values())

    def coefficient_abs_sum(self):
        return sum(map(abs, self.terms.values()))

    def leading_term(self):
        """(exponent, coefficient) maximal in graded lexicographic order."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no leading term")
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    # --- arithmetic ---

    def _coerce(self, other):
        if isinstance(other, LaurentPolynomial):
            if other.dim != self.dim:
                raise DimensionMismatchError("mixed dimensions")
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPolynomial.constant(self.dim, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, a in other.terms.items():
            terms[e] = terms.get(e, 0) + a
        return LaurentPolynomial(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._from_clean(self.dim, {e: -a for e, a in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """The product, convolved on packed exponents (Kronecker substitution).

        Each factor's exponents are split into columns once and packed by
        Horner's rule into one int in mixed radix: axis k has radix the
        product's span on it plus one, last axis fastest.  A product term's
        key packs (e_0, e_1 - lo_1, ..., e_{d-1} - lo_{d-1}), lo the
        product's minimum, so no digit but the first is negative and sums
        never carry: keys add as exponents do, and the int-keyed
        convolution, self outer and other inner, keeps the insertion order
        of the exponent-tuple one.  The nonzero sums unpack last axis
        first, one mod and one floordiv map per axis; the first axis is the
        quotient left over.
        """
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPolynomial._from_clean(self.dim, {})
        cols1, cols2 = self._columns(), other._columns()
        lo = tuple(map(operator.add, map(min, cols1), map(min, cols2)))
        hi = map(operator.add, map(max, cols1), map(max, cols2))
        radix = [h - l + 1 for h, l in zip(hi, lo)]
        base = 0
        for r, l in zip(radix[1:], lo[1:]):
            base = base * r + l
        keys1, keys2 = cols1[0], cols2[0]
        for r, col1, col2 in zip(radix[1:], cols1[1:], cols2[1:]):
            keys1 = map(operator.add, map(operator.mul, keys1, itertools.repeat(r)), col1)
            keys2 = map(operator.add, map(operator.mul, keys2, itertools.repeat(r)), col2)
        packed = list(zip(keys2, other.terms.values()))
        out = {}
        for k1, a1 in zip(keys1, self.terms.values()):
            k1 -= base
            for k2, a2 in packed:
                k = k1 + k2
                c = out.get(k)
                out[k] = a1 * a2 if c is None else c + a1 * a2
        keys = [k for k, c in out.items() if c]
        coeffs = [c.numerator if c.denominator == 1 else c for c in out.values() if c]
        cols = []
        for r, l in zip(radix[:0:-1], lo[:0:-1]):
            cols.append(map(operator.add, map(operator.mod, keys, itertools.repeat(r)), itertools.repeat(l)))
            keys = list(map(operator.floordiv, keys, itertools.repeat(r)))
        cols.append(keys)
        return LaurentPolynomial._from_clean(self.dim, dict(zip(zip(*cols[::-1]), coeffs)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        result = LaurentPolynomial.one(self.dim)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def shift(self, v):
        """Multiply by the monomial X^v."""
        v = tuple(map(operator.index, v))
        if len(v) != self.dim:
            raise DimensionMismatchError(f"shift {v} vs dimension {self.dim}")
        return LaurentPolynomial._from_clean(
            self.dim, {vec_add(e, v): a for e, a in self.terms.items()}
        )

    def substitute_power(self, n: int):
        """f(X^n): every exponent scaled by n."""
        n = operator.index(n)
        if n <= 0:
            raise ValueError("substitution power must be positive")
        return LaurentPolynomial._from_clean(
            self.dim, {vec_scale(n, e): a for e, a in self.terms.items()}
        )

    def coefficients_mod(self, p: int):
        """Termwise residues of the (integer) coefficients."""
        if not self.has_integer_coefficients():
            raise ValueError("mod reduction needs integer coefficients")
        return {e: r for e, a in self.terms.items() if (r := a % p)}

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPolynomial.constant(self.dim, other)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        # textio imports this module, so it is imported here
        from .textio import format_poly

        return format_poly(self)


def normalize_integer_primitive(f: LaurentPolynomial) -> LaurentPolynomial:
    """Scale by a rational so coefficients are coprime integers and the
    graded lexicographic leading coefficient is positive."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot normalize the zero polynomial")
    out = LaurentPolynomial(f.dim, dict(zip(f.terms, integer_primitive(f.terms.values()))))
    if out.leading_term()[1] < 0:
        out = -out
    return out


# --- action on configurations ------------------------------------------------


def coset_certificate(f: LaurentPolynomial, c: Configuration) -> bool:
    """True when c's period lattices prove f * c = 0 on all of Z^d; False claims nothing.

    A Sum is read term by term; any other descriptor is one atom, whose
    value at u - e depends only on the coset e + L of its periods(), of
    any rank.  So f * c vanishes when f's coefficients sum to 0 on every
    coset (Kari and Szabados, arXiv 1510.00177, the converse half of the
    decomposition theorem).  An atom without a lattice certifies nothing.
    """
    if isinstance(c, Sum):
        return all(coset_certificate(f, t) for _, t in c.terms)
    lattice = c.periods()
    if lattice is None:
        return False
    sums = {}
    for e, a in f.terms.items():
        r = lattice.reduce(e)
        sums[r] = sums.get(r, 0) + a
    return not any(sums.values())


def apply(f: LaurentPolynomial, c: Configuration, window: Window) -> Pattern:
    """Pattern of f*c on the window, where (f*c)_u = sum_v a_v c_{u-v}.

    Zeros when coset_certificate holds, tried where c.exact_domain() is
    None.  Otherwise term v reads c on the translate window - v.  On a box
    window every term reads it by row slices out of one block of c on the
    box covering all the translates; as in covering_pattern, each term
    reads its own block instead when that box holds more cells than the
    translates together, as for far-spread exponents.  An explicit window
    reads per term through window_values, so the cost follows its cells,
    not its bounding box.
    """
    if f.dim != c.dim or window.dim != c.dim:
        raise DimensionMismatchError("polynomial/configuration/window dimensions")
    if c.exact_domain() is None and coset_certificate(f, c):
        return Pattern(window, [0] * len(window))
    return _evaluate(f, c, window)


def _evaluate(f: LaurentPolynomial, c: Configuration, window: Window) -> Pattern:
    """apply's values read from c's cells, with no certificate tried."""
    if f.is_zero:
        return Pattern(window, [0] * len(window))
    read = functools.partial(window_values, c)
    if window.is_box:
        box = Window.box(vec_sub(window.lo, f.max_exponent()), vec_sub(window.hi, f.min_exponent()))
        if len(box) <= len(f.terms) * len(window):
            read = Pattern(box, c.block(box.lo, box.hi)).on
    return Pattern(window, combine((a, read(window.shift(vec_neg(e)))) for e, a in f.terms.items()))


@dataclass
class AnnihilationResult:
    status: str  # "exact" | "window" | "no"
    witness: tuple | None = None

    def __bool__(self):
        return self.status != "no"


def annihilates(f: LaurentPolynomial, c: Configuration, window: Window) -> AnnihilationResult:
    """Does f*c vanish?

    f*c inherits the periods of c, so where c.exact_domain() is a window,
    checking it settles the whole of Z^d and the answer is exact.
    Otherwise coset_certificate, which reads no cell, or else a clean
    scan of the window certifies the window itself.
    """
    if f.dim != c.dim or window.dim != c.dim:
        raise DimensionMismatchError("polynomial/configuration/window dimensions")
    domain = c.exact_domain()
    if domain is None and coset_certificate(f, c):
        return AnnihilationResult("window")
    cells = window if domain is None else domain
    for u, x in zip(cells, _evaluate(f, c, cells).cells):
        if x != 0:
            return AnnihilationResult("no", witness=u)
    return AnnihilationResult("window" if domain is None else "exact")


@dataclass
class PeriodicityResult:
    status: str  # "periodic" | "not-periodic" | "unknown"
    witness: tuple | None = None


_PERIODICITY_STATUS = {"exact": "periodic", "window": "unknown", "no": "not-periodic"}


def periodicity_test(c: Configuration, v, sample: Window | None = None) -> PeriodicityResult:
    """Is v a translation period of c?

    (X^(-v) - 1) * c is c(u + v) - c(u) at u, so this is annihilates() on
    the sample, or on c.exact_domain() without one, sharing its exact
    domain and coset certificate: exact reads periodic, window unknown and
    no not-periodic, the witness the first u with c(u + v) != c(u).
    """
    if sample is not None and sample.dim != c.dim:
        raise DimensionMismatchError("sample vs configuration dimension")
    v = checked_step(v, c.dim, "period candidate")

    window = sample or c.exact_domain()
    if window is None:
        raise EmptySampleError("non-periodic descriptors need a sample window")
    res = annihilates(LaurentPolynomial.difference(vec_neg(v)), c, window)
    return PeriodicityResult(_PERIODICITY_STATUS[res.status], witness=res.witness)


# --- Newton polygon and line factors -----------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points):
    """Monotone chain; returns hull vertices counterclockwise, no repeats.

    Collinear input collapses to its two endpoints.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def newton_polygon_directions(f: LaurentPolynomial):
    """Primitive edge directions of the support hull, deduplicated up to
    sign (first nonzero coordinate positive) and sorted.  Monomials give
    the empty tuple."""
    if f.dim != 2:
        raise DimensionMismatchError("Newton polygon directions need d = 2")
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial has no Newton polygon")
    hull = _convex_hull(list(f.terms))
    if len(hull) == 1:
        return ()
    dirs = set()
    for i, p in enumerate(hull):
        q = hull[(i + 1) % len(hull)]
        dirs.add(canonical_sign(primitive_vector(vec_sub(q, p))))
    return tuple(sorted(dirs))


def _levels(f, v):
    """Group f's terms by the line e + Zv through them, keyed by det(v, e):
    {det: (lowest <e, v>, {<e, v>: coeff})}.  Along a line <e, v> grows by
    |v|^2 per step of v, and e = (<e, v> v + det(v, e) (-v1, v0)) / |v|^2."""
    v0, v1 = v
    raw = {}
    for (e0, e1), a in f.terms.items():
        raw.setdefault(v0 * e1 - v1 * e0, {})[v0 * e0 + v1 * e1] = a
    return {de: (min(table), table) for de, table in raw.items()}


def _dense(level, step):
    """Coefficients of one level, lowest first, one entry per step of <e, v>."""
    lo, table = level
    dense = [0] * ((max(table) - lo) // step + 1)
    for dot, a in table.items():
        dense[(dot - lo) // step] = a
    return dense


def _upoly_prem(a, b):
    """Primitive part of a pseudo-remainder of int polys a by b, trimmed.

    Each step cancels a's top coefficient c against b's leading one lc as
    (lc/g)*a - (c/g)*x^i*b with g = gcd(lc, c), so the result is a nonzero
    integer multiple of the rational remainder (Knuth, TAOCP vol. 2,
    4.6.1, Algorithm R).  Folded as g, b = b, _upoly_prem(g, b) until b is
    [], it leaves a gcd in coprime ints (Collins, JACM 1967).  b is signed
    so that lc > 0.  A step rescales only the entries a[i:] it rewrites; the
    entries below owe the running factor s and pay it as each joins them.
    """
    a = list(a)
    if b[-1] < 0:
        b = [-x for x in b]
    *body, lc = b
    s = 1
    for i in range(len(a) - len(b), -1, -1):
        c = a.pop()
        if s != 1 and body:
            a[i] *= s
        if c:
            g = math.gcd(lc, c)
            m, c = lc // g, c // g
            if m != 1:
                a[i:] = [m * x for x in a[i:]]
                s *= m
            for j, bj in enumerate(body, i):
                a[j] -= c * bj
    while a and a[-1] == 0:
        a.pop()
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _upoly_exquo(a, b):
    """a / b for int polys, b primitive.  If b divides a, each step of the
    long division divides exactly (Gauss's lemma); else ValueError."""
    a = list(a)
    *body, lc = b
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c, r = divmod(a.pop(), lc)
        if r:
            raise ValueError("division is not exact")
        if c:
            q[i] = c
            for j, bj in enumerate(body, i):
                a[j] -= c * bj
    if any(a):
        raise ValueError("division is not exact")
    return q


def _line_split(f: LaurentPolynomial, v):
    """(line_content(f, v), f / line_content(f, v)) for a primitive v, or
    None when the content is 1.  f's levels, dense lists in a power of X^v,
    are scaled once to coprime ints, an int scale for an int level; their
    gcd g, folded by _upoly_prem and signed as phi, divides each on ints,
    scaled back after.  phi's lowest term is X^-m, so a quotient term is
    X^(m + its level's lowest exponent + a multiple of v)."""
    v0, v1 = v
    n2 = v0 * v0 + v1 * v1
    levels = _levels(f, v)
    # each level is a polynomial in X^(step v / |v|^2), 1 when no level has two terms
    step = math.gcd(*(dot - lo for lo, table in levels.values() for dot in table)) or 1
    scaled, g = [], []
    for level in levels.values():
        d = _dense(level, step)
        b = integer_primitive(d)
        scaled.append((b, _exact(d[-1], b[-1])))
        while b:
            g, b = b, _upoly_prem(g, b)
        if len(g) == 1:
            return None
    phi = LaurentPolynomial(f.dim, {vec_scale(k * step // n2, v): a for k, a in enumerate(g) if a})
    m = phi.min_exponent()
    phi = normalize_integer_primitive(phi.shift(vec_neg(m)))
    if phi.terms[vec_neg(m)] != g[0]:
        g = [-a for a in g]
    out = {}
    for (de, (lo, _)), (d, scale) in zip(levels.items(), scaled):
        base = ((lo * v0 - de * v1) // n2 + m[0], (lo * v1 + de * v0) // n2 + m[1])
        q = _upoly_exquo(d, g)
        n, den = scale.numerator, scale.denominator
        out.update((vec_add(base, vec_scale(k * step // n2, v)), _exact(a * n, den)) for k, a in enumerate(q) if a)
    return phi, LaurentPolynomial._from_clean(f.dim, out)


def line_content(f: LaurentPolynomial, v) -> LaurentPolynomial:
    """Product of all line factors of f in direction v, canonically scaled.

    A line factor of direction v is a polynomial in X^v alone, so it
    divides each line of f parallel to v, the terms X^e of one det(v, e)
    ordered by <e, v>, and their product is the gcd of those lines.
    Returns 1 when that gcd is trivial.  The result has coprime integer
    coefficients, positive graded lexicographic leading coefficient, and
    componentwise minimal exponent zero.
    """
    if f.dim != 2:
        raise DimensionMismatchError("line content needs d = 2")
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    split = _line_split(f, primitive_vector(checked_step(v, 2, "line direction")))
    return LaurentPolynomial.one(f.dim) if split is None else split[0]


@dataclass
class LineFactorization:
    """f = X^monomial * prod(factors) * remainder, exactly."""

    monomial: tuple
    factors: tuple  # ((direction, LaurentPolynomial), ...)
    remainder: LaurentPolynomial

    @property
    def directions(self):
        return tuple(d for d, _ in self.factors)

    def product(self) -> LaurentPolynomial:
        out = LaurentPolynomial.monomial(self.monomial)
        for _, phi in self.factors:
            out = out * phi
        return out * self.remainder


def line_factorization(f: LaurentPolynomial) -> LineFactorization:
    """Split off the full line content of every Newton polygon direction.

    One pass suffices: contents in different directions are coprime, so
    extracting one never creates or destroys another.  The remainder has
    trivial line content in every edge direction of its own polygon.
    """
    if f.is_zero:
        raise ZeroPolynomialError("zero polynomial")
    mono = f.min_exponent()
    cur = f.shift(vec_neg(mono))
    factors = []
    if not cur.is_monomial:
        for v in newton_polygon_directions(cur):
            split = _line_split(cur, v)
            if split is not None:
                factors.append((v, split[0]))
                cur = split[1]
    return LineFactorization(mono, tuple(factors), cur)
