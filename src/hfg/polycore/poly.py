"""Sparse multivariate polynomials over the rationals.

A polynomial is a map from exponent tuples to nonzero Fractions, tagged with
the VariableBlock it lives on.  Zero is the empty map.  Operations between
polynomials require identical blocks; mixing blocks raises
BlockMismatchError instead of guessing an embedding.

The text format is a signed sum of terms `c*x0^a*x1^b` with rational
coefficients written `num/den`; `^1` and a unit coefficient may be omitted.
The JSON term format is `[["num/den", [e0, e1, ...]], ...]`.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence, Union

from ..errors import BlockMismatchError, ParseError

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


def _grevlex_key(exps: Exponents) -> tuple:
    """Sort key of graded reverse lexicographic order, the fixed term order."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


@dataclass(frozen=True)
class VariableBlock:
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        if not self.names:
            raise ValueError("a block needs at least one variable")

    @property
    def arity(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}") from None


PLANE = VariableBlock(("x0", "x1", "x2"))


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.add, a, b))


class Polynomial:
    __slots__ = ("block", "terms")

    def __init__(self, block: VariableBlock, terms: Mapping[Exponents, Scalar]):
        clean: dict[Exponents, Fraction] = {}
        arity = block.arity
        for exps, coeff in terms.items():
            if len(exps) != arity:
                raise ValueError(
                    f"exponent tuple {exps} does not match block arity {arity}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c:
                clean[tuple(exps)] = c
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "terms", clean)

    @classmethod
    def _trusted(
        cls, block: VariableBlock, terms: dict[Exponents, Fraction]
    ) -> "Polynomial":
        """The polynomial with exactly these terms, unchecked: arithmetic here
        and the Groebner engine build them as exponent tuples of the block's
        arity with no negative entry, and nonzero Fraction coefficients."""
        p = object.__new__(cls)
        object.__setattr__(p, "block", block)
        object.__setattr__(p, "terms", terms)
        return p

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("Polynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, block: VariableBlock) -> "Polynomial":
        return cls(block, {})

    @classmethod
    def constant(cls, block: VariableBlock, c: Scalar) -> "Polynomial":
        return cls(block, {(0,) * block.arity: c})

    @classmethod
    def variable(cls, block: VariableBlock, i: int) -> "Polynomial":
        exps = [0] * block.arity
        exps[i] = 1
        return cls(block, {tuple(exps): 1})

    @classmethod
    def monomial(cls, block: VariableBlock, exps: Sequence[int]) -> "Polynomial":
        return cls(block, {tuple(exps): 1})

    @classmethod
    def linear_form(cls, block: VariableBlock, coeffs: Sequence[Scalar]) -> "Polynomial":
        if len(coeffs) != block.arity:
            raise ValueError("coefficient count must match block arity")
        terms: dict[Exponents, Scalar] = {}
        for i, c in enumerate(coeffs):
            exps = [0] * block.arity
            exps[i] = 1
            terms[tuple(exps)] = c
        return cls(block, terms)

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention here."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def integer_terms(self) -> tuple[int, list[tuple[Exponents, int]]]:
        """The lcm of the coefficients' denominators, and each term with its
        coefficient times that lcm: the polynomial is the integer one over
        that denominator."""
        den = math.lcm(*(c.denominator for c in self.terms.values()))
        return den, [(e, c.numerator * (den // c.denominator)) for e, c in self.terms.items()]

    # -- arithmetic --------------------------------------------------------

    def _check_block(self, other: "Polynomial") -> None:
        if self.block != other.block:
            raise BlockMismatchError(
                f"blocks differ: {self.block.names} vs {other.block.names}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_block(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, 0) + c
        return Polynomial._trusted(self.block, {e: c for e, c in terms.items() if c})

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.block, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.block)
            return Polynomial._trusted(
                self.block, {e: c * other for e, c in self.terms.items()}
            )
        self._check_block(other)
        # integer numerators over a common denominator, so that the pairs
        # of terms cost int arithmetic and only each result term a Fraction
        den1, nums1 = self.integer_terms()
        den2, nums2 = other.integer_terms()
        terms: dict[Exponents, int] = {}
        for e1, c1 in nums1:
            for e2, c2 in nums2:
                e = monomial_mul(e1, e2)
                terms[e] = terms.get(e, 0) + c1 * c2
        den = den1 * den2
        return Polynomial._trusted(
            self.block, {e: Fraction(c, den) for e, c in terms.items() if c}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(self.block, 1)
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.block == other.block and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.block, frozenset(self.terms.items())))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- text and JSON -----------------------------------------------------

    _FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")
    _RATIONAL_RE = re.compile(r"^\d+(?:/\d+)?$")

    @classmethod
    def from_string(cls, block: VariableBlock, text: str) -> "Polynomial":
        s = text.replace(" ", "")
        if not s:
            raise ParseError("empty polynomial text")
        if s == "0":
            return cls.zero(block)
        s = s.replace("-", "+-")
        parts = [p for p in s.split("+") if p]
        if not parts:
            raise ParseError(f"cannot parse polynomial {text!r}")
        terms: dict[Exponents, Fraction] = {}
        for part in parts:
            sign = 1
            if part.startswith("-"):
                sign = -1
                part = part[1:]
            if not part:
                raise ParseError(f"dangling sign in {text!r}")
            coeff = Fraction(sign)
            exps = [0] * block.arity
            for factor in part.split("*"):
                if not factor:
                    raise ParseError(f"empty factor in {text!r}")
                if cls._RATIONAL_RE.match(factor):
                    coeff *= parse_rational(factor)
                    continue
                m = cls._FACTOR_RE.match(factor)
                if not m:
                    raise ParseError(f"cannot parse factor {factor!r} in {text!r}")
                i = block.index(m.group(1))
                exps[i] += int(m.group(2) or 1)
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + coeff
        return cls(block, terms)

    def _sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        return sorted(
            self.terms.items(), key=lambda t: _grevlex_key(t[0]), reverse=True
        )

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for exps, coeff in self._sorted_terms():
            factors = []
            for name, e in zip(self.block.names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(pieces)

    def to_json_terms(self) -> list:
        out = []
        for exps, coeff in self._sorted_terms():
            out.append([format_rational(coeff), list(exps)])
        return out

    @classmethod
    def from_json_terms(cls, block: VariableBlock, data) -> "Polynomial":
        if isinstance(data, str):
            return cls.from_string(block, data)
        if not isinstance(data, list):
            raise ParseError(f"polynomial JSON must be a string or list, got {data!r}")
        terms: dict[Exponents, Fraction] = {}
        for item in data:
            try:
                coeff_text, exps = item
                # a JSON number is a binary float, not the rational it reads as
                if type(coeff_text) not in (str, int):
                    raise TypeError
                coeff = Fraction(coeff_text)
                key = tuple(exps)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad polynomial term {item!r}") from exc
            if any(type(e) is not int or e < 0 for e in key):
                raise ParseError(f"term {item!r} needs non-negative integer exponents")
            if len(key) != block.arity:
                raise ParseError(f"term {item!r} does not match block arity")
            terms[key] = terms.get(key, 0) + coeff
        return cls(block, terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"


def variables(block: VariableBlock) -> tuple[Polynomial, ...]:
    """Generator polynomials x_0, ..., x_{n-1} of the block."""
    return tuple(Polynomial.variable(block, i) for i in range(block.arity))


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse rational {text!r}") from exc


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def monomials_of_degree(block: VariableBlock, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, deterministic order."""

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> Iterator[Exponents]:
        if slots == 1:
            yield prefix + (remaining,)
            return
        for e in range(remaining, -1, -1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    if degree < 0:
        return iter(())
    return rec((), degree, block.arity)
