"""Scalar kinds used throughout: exact rationals or plain floats.

Every table, series, measure, and model carries a single kind; kinds are
never mixed inside one value. Rational mode keeps all arithmetic exact,
float mode carries inexact data, which the Gram gates read exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"
KINDS = (RATIONAL, FLOAT)
# clear_graded's bound on the bit length of L^D: past it, ints that large
# cost more than the Fraction arithmetic they replace
GRADED_MAX_BITS = 4096


def check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise ValueError(f"unknown scalar kind {kind!r}; expected one of {KINDS}")
    return kind


def coerce(value, kind: str):
    """Coerce a number, or a decimal or 'p/q' string, into the given kind.

    Flags and JSON files parse through here. A zero denominator and a NaN
    or infinite value raise ValueError, so no such value enters a table, a
    series or a flag's value.
    """
    number = value
    if isinstance(value, str):
        try:
            number = Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"value {value!r} has a zero denominator") from None
        except ValueError:
            number = float(value)  # 'nan' and 'inf' reach the check below
    if kind == RATIONAL and not isinstance(number, float):
        return number if isinstance(number, Fraction) else Fraction(number)
    try:
        number = float(number)
    except OverflowError:  # an exact value beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"value {value!r} is not a finite number")
    return Fraction(number) if kind == RATIONAL else number


def check_finite(values, kind: str) -> None:
    """Raise ValueError, as coerce does, when a float value is NaN or infinite."""
    if kind == FLOAT and not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"value {bad!r} is not a finite number")


def zero(kind: str):
    return Fraction(0) if kind == RATIONAL else 0.0


def one(kind: str):
    return Fraction(1) if kind == RATIONAL else 1.0


def close(a, b, kind: str, tol: float) -> bool:
    """Exact equality for rationals, absolute tolerance for floats."""
    if kind == RATIONAL:
        return a == b
    return abs(a - b) <= tol


def clear_denominators(values) -> tuple:
    """The common denominator L of rational values and their numerators over it.

    Returns (L, numerators), value_i = numerators[i] / L with integer
    numerators, so exact kernels run on Python ints and divide by a power
    of L once per result. Float data has nothing to clear: it comes back
    unchanged with L = 1. An empty collection gives (1, ()).
    """
    values = tuple(values)
    if any(isinstance(v, float) for v in values):
        return 1, values
    common = math.lcm(*(v.denominator for v in values))
    return common, tuple(v.numerator * (common // v.denominator) for v in values)


def clear_graded(entries: dict) -> tuple:
    """The common denominator L of a table on keys (m, n) and the table L^(m+n) v_{m,n}.

    Returns (L, scaled). A map between tables whose entry (m, n) is an
    integer combination of products of entries with degrees adding up to
    m + n sends the scaled table to the scaled result, so it runs on Python
    ints and divides by L^(m+n) once per result. Entries of degree 0 must
    be integers. Clearing pays only while the scaled entries stay small:
    when L^D, D the table's degree, would exceed GRADED_MAX_BITS bits (many
    unrelated or very large denominators), and for float data, the entries
    come back unchanged with L = 1.
    """
    values = entries.values()
    if any(isinstance(v, float) for v in values):
        return 1, entries
    top = max((m + n for m, n in entries), default=0)
    denominators = [v.denominator for v in values]
    # L is at least the largest denominator, so that test spares the lcm
    if top * max(denominators, default=1).bit_length() > GRADED_MAX_BITS:
        return 1, entries
    common = math.lcm(*denominators)
    if top * common.bit_length() > GRADED_MAX_BITS:
        return 1, entries
    powers = [common**k for k in range(top + 1)]
    return common, {(m, n): v.numerator * powers[m + n] // v.denominator
                    for (m, n), v in entries.items()}


def over(numerator, scale: int, kind: str):
    """numerator / scale as a Fraction in rational mode; a float's scale is 1."""
    if kind != RATIONAL:
        return float(numerator)
    # a Fraction over 1 is already in lowest terms: no gcd of its parts
    return Fraction(numerator, scale) if scale != 1 else Fraction(numerator)


def to_jsonable(x, kind: str):
    if kind == RATIONAL:
        return str(x)
    return float(x)


def from_jsonable(v, kind: str):
    # str() keeps a JSON float such as 0.1 at its decimal value in rational mode
    return coerce(str(v) if kind == RATIONAL else v, kind)


def exact_sqrt(x):
    """The square root of x in x's own kind, or ValueError.

    A Fraction's root is a Fraction, and a Fraction that is not the square
    of a rational raises rather than turning float; a float's root is
    math.sqrt. Negative input raises.
    """
    if x < 0:
        raise ValueError(f"square root of the negative number {x}")
    if isinstance(x, float):
        return math.sqrt(x)
    roots = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if roots[0] ** 2 != x.numerator or roots[1] ** 2 != x.denominator:
        raise ValueError(f"{x} is not the square of a rational")
    return Fraction(*roots)
