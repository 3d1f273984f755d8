"""Discovery and certification of annihilating Laurent polynomials.

The central construction: when a configuration shows at most as many
distinct patterns of some shape as the shape has cells, the augmented
pattern vectors are linearly dependent and the dependency coefficients
assemble into a polynomial g with g*c constant, hence (X^e - 1)g
annihilates c.  The rest of the module turns such certificates around:
power-substitution bounds, radical witnesses built from a support set,
and bounded exhaustive search for pure products of difference factors.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .configurations import (
    Configuration,
    covering_pattern,
    extract_pattern,
    residue_representatives,
    support_anchors,
    window_values,
)
from .decomposition import difference as pattern_difference, difference_vanishes
from .errors import (
    DimensionMismatchError,
    EmptyResultError,
    NonIntegerCoefficientsError,
    NotPrimeError,
    V0NotInSupportError,
    VerificationFailedError,
    WindowTooSmallError,
    ZeroPolynomialError,
)
from .lattice import Window, canonical_sign, vec_neg, vec_scale, vec_sub
from .laurent import (
    AnnihilationResult,
    LaurentPolynomial,
    annihilates,
    apply,
)
from .linalg import kernel_vector
from .quadratic import is_prime


@dataclass
class AnnihilatorReport:
    """Certified pair (g, f): g*c is the constant below, f*c vanishes."""

    g: LaurentPolynomial
    constant: int
    f: LaurentPolynomial
    shape: Window
    sample: Window
    verified_on: Window


def find_annihilator(c: Configuration, shape: Window, sample: Window,
                     verify: Window) -> AnnihilatorReport | None:
    """Look for a dependency among the sampled patterns of the given shape.

    Builds one augmented row (1, values of c on v + shape) per distinct
    pattern at the sample anchors v, keyed as support_anchors cuts them:
    to anchors meeting the sample's residue classes of a full rank
    c.periods(), and to those near c.support().  Back-substitutes only the
    canonical kernel vector (kernel_vector): first in the reduced-echelon
    kernel basis, scaled to coprime integers, sign chosen so g's
    graded-lex leading coefficient is positive.  Returns None when the
    kernel is trivial, which certifies that the sampled pattern count
    exceeds the shape size.
    """
    if shape.dim != c.dim or sample.dim != c.dim or verify.dim != c.dim:
        raise DimensionMismatchError("shape/sample/verify vs configuration")
    shape_pts = list(shape)

    keyed = support_anchors(c, shape, sample)
    table, at = covering_pattern(c, shape, keyed)
    keys = set(table.keys(shape, at))
    rows = sorted((1,) + tuple(itertools.chain.from_iterable(k)) for k in keys)
    a = kernel_vector(rows)
    if len(rows) <= len(shape_pts):
        # n+1 columns and at most n independent rows force a dependency
        assert a is not None, "trivial kernel despite pattern count <= shape size"
    if a is None:
        return None

    g = LaurentPolynomial(
        c.dim, {vec_neg(u): a[i + 1] for i, u in enumerate(shape_pts) if a[i + 1]})
    assert not g.is_zero, "kernel vector supported on the augmentation only"
    if g.leading_term()[1] < 0:
        a = [-x for x in a]
        g = -g
    constant = -a[0]

    e1 = (1,) + (0,) * (c.dim - 1)
    f = LaurentPolynomial.difference(e1) * g

    # g*c has the periods of c, so its values on cells of the verify window
    # meeting the same residue classes are its values on the whole window
    got = apply(g, c, residue_representatives(c, verify)).constant_value()
    if got != constant:
        raise VerificationFailedError(
            f"g*c is not the constant {constant} on the verify window (got {got})")
    ver = annihilates(f, c, verify)
    if not ver:
        raise VerificationFailedError(
            f"f*c is nonzero on the verify window at {ver.witness}")
    return AnnihilatorReport(
        g=g, constant=constant, f=f,
        shape=shape, sample=sample, verified_on=verify)


def _expansion_threshold(f: LaurentPolynomial, c_max: int) -> int:
    """The coefficient-mass threshold s = c_max * (sum of |coefficients|)."""
    if f.is_zero:
        raise ZeroPolynomialError("expansion bound needs a nonzero polynomial")
    if not f.has_integer_coefficients():
        raise NonIntegerCoefficientsError("expansion bound needs integer coefficients")
    if operator.index(c_max) < 0:
        raise ValueError("c_max must be nonnegative")
    return c_max * f.coefficient_abs_sum()


def expansion_bound(f: LaurentPolynomial, c_max: int):
    """Coefficient-mass threshold s and modulus r = s! for power substitution.

    For an integer annihilator f of a configuration bounded by c_max, every
    power substitution X -> X^n with n coprime to r again annihilates.  The
    claim is exported for checking, not recomputed here.
    """
    s = _expansion_threshold(f, c_max)
    return s, math.factorial(s)


@dataclass
class ExpansionCheck:
    prime: int
    threshold: int
    above_bound: bool
    modp_ok: bool
    exact: AnnihilationResult | None


def verify_expansion(f: LaurentPolynomial, c: Configuration, primes,
                     window: Window) -> list:
    """Check power substitutions f(X^p) against c on a window.

    f must annihilate c on the window to begin with.  Every prime gets the
    mod-p congruence check f(X^p)*c = 0 (mod p); primes above the
    coefficient-mass threshold get the exact annihilation check too, and a
    failing exact check is reported in the entry rather than raised.
    """
    base = annihilates(f, c, window)
    if not base:
        raise VerificationFailedError(
            f"f*c is nonzero on the window at {base.witness}")
    c_max = max(map(abs, window_values(c, window)))
    s = _expansion_threshold(f, c_max)

    out = []
    for p in primes:
        p = operator.index(p)
        if not is_prime(p):
            raise NotPrimeError(f"{p} is not prime")
        fp = f.substitute_power(p)
        exact = annihilates(fp, c, window) if p > s else None
        modp_ok = bool(exact) or all(v % p == 0 for v in apply(fp, c, window).cells)
        out.append(ExpansionCheck(
            prime=p, threshold=s, above_bound=p > s,
            modp_ok=modp_ok, exact=exact))
    return out


def build_radical_witness(f: LaurentPolynomial, r: int, v0) -> LaurentPolynomial:
    """Product of all variables times prod over v in support, v != v0,
    of (X^(r*v) - X^(r*v0)).

    A witness of this shape lies in the annihilator ideal whenever f does
    and r is the matching substitution modulus; it reduces to a pure
    product of difference factors after monomial division.
    """
    monomial, vectors = radical_witness_normal_form(f, r, v0)
    return LaurentPolynomial.difference_product(f.dim, vectors).shift(monomial)


def radical_witness_normal_form(f: LaurentPolynomial, r: int, v0):
    """Difference-product shape of the radical witness.

    Returns (monomial_exponent, vectors) with
    build_radical_witness(f, r, v0) = X^monomial * prod (X^w - 1) over the
    vectors w = r*(v - v0), v running over the support minus v0: each
    factor X^(r*v) - X^(r*v0) is X^(r*v0) * (X^w - 1).
    """
    if f.is_zero:
        raise ZeroPolynomialError("radical witness needs a nonzero polynomial")
    if r < 1:
        raise ValueError("substitution modulus must be >= 1")
    v0 = tuple(map(operator.index, v0))
    supp = f.support()
    if v0 not in supp:
        raise V0NotInSupportError(f"{v0} is not in the support of f")
    others = [v for v in supp if v != v0]
    vectors = [vec_scale(r, vec_sub(v, v0)) for v in others]
    monomial = tuple(1 + r * x * len(others) for x in v0)
    return monomial, vectors


def search_difference_annihilator(c: Configuration, max_factors: int,
                                  coord_bound: int, window: Window):
    """Bounded exhaustive search for a vanishing chain of difference steps.

    Candidate steps are the sign-canonical nonzero vectors with coordinates
    in [-coord_bound, coord_bound], in lexicographic order; sequences are
    nondecreasing to kill permutation symmetry, and each step shrinks the
    valid window by the step's extent.  Returns the first certificate in
    shortest-then-lex order that passes re-verification, or None.  A chain
    that vanishes on the window but fails the re-check, which is exact for
    a Periodic descriptor, is skipped and the search goes on.
    """
    if max_factors < 1:
        raise ValueError("max_factors must be >= 1")
    if coord_bound < 1:
        raise ValueError("coord_bound must be >= 1")
    if window.dim != c.dim:
        raise DimensionMismatchError("window vs configuration dimension")

    zero = (0,) * c.dim
    steps = sorted({
        canonical_sign(v)
        for v in itertools.product(range(-coord_bound, coord_bound + 1), repeat=c.dim)
        if v != zero
    })
    base = extract_pattern(c, zero, window)

    def verified(chain, dom: Window) -> bool:
        return bool(annihilates(LaurentPolynomial.difference_product(c.dim, chain), c, dom))

    def dfs(pat, start: int, depth: int, chain: list):
        for idx in range(start, len(steps)):
            v = steps[idx]
            try:
                # a leaf tests the repeat by row slices, building no difference
                nxt = difference_vanishes(pat, v) if depth == 1 else pattern_difference(pat, v)
            except EmptyResultError:
                raise WindowTooSmallError(
                    f"window exhausted after shrinking by step {v}") from None
            if depth > 1:
                found = dfs(nxt, idx, depth - 1, chain + [v])
                if found is not None:
                    return found
            elif nxt and verified(chain + [v], pat.shape.intersect(pat.shape.shift(v))):
                return chain + [v]
        return None

    for length in range(1, max_factors + 1):
        found = dfs(base, 0, length, [])
        if found is not None:
            return found
    return None
