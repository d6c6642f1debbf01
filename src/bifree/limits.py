"""Example distributions and numeric checks of the triangular limit theorem.

The limit theorem is exercised through measure families N -> mu_N: the
scaled single-entry moments N * phi_N(a^m b^n) converge to the limit
cumulants, and the N-fold self-convolution (cumulant scaling by N) has
moments converging at rate O(1/N).
"""

from __future__ import annotations

from . import scalars
from .convolution import semigroup_scale
from .cumulants import (CumulantTable, cumulants_to_moments, moments_to_cumulants,
                        table_keys)
from .errors import RealizabilityError
from .measures import DiscretePlanarMeasure, moment_table, point_mass


def bifree_gaussian(s1, s2, c, degree: int, kind: str = scalars.RATIONAL) -> CumulantTable:
    """Gaussian pair: variances s1, s2 and covariance c, all else zero.

    Realizable as inner products of two vectors, so c^2 <= s1 * s2 is
    required.
    """
    s1 = scalars.coerce(s1, kind)
    s2 = scalars.coerce(s2, kind)
    c = scalars.coerce(c, kind)
    if s1 <= 0 or s2 <= 0:
        raise ValueError("variances must be positive")
    if c * c > s1 * s2:
        raise RealizabilityError(f"covariance {c} violates Cauchy-Schwarz")
    entries = dict.fromkeys(table_keys(degree, 1), scalars.zero(kind))
    if degree >= 2:  # degree 1 keeps only the zero means
        entries.update({(2, 0): s1, (0, 2): s2, (1, 1): c})
    return CumulantTable(degree, kind, entries)


def bifree_poisson(rate, alpha, beta, degree: int, kind: str = scalars.RATIONAL) -> CumulantTable:
    """Poisson pair with the given rate and jump: entry (m, n) is rate * alpha^m * beta^n."""
    return compound_bifree_poisson(rate, point_mass(alpha, beta, kind), degree)


def compound_bifree_poisson(rate, jump: DiscretePlanarMeasure, degree: int) -> CumulantTable:
    """Compound Poisson pair: entry (m, n) is rate times the jump moment."""
    kind = jump.kind
    rate = scalars.coerce(rate, kind)
    if rate <= 0:
        raise ValueError("rate must be positive")
    if not jump.is_probability():
        raise ValueError("jump distribution must be a probability measure")
    moments = jump.moments(degree)
    entries = {(m, n): rate * moments[(m, n)] for m, n in table_keys(degree, 1)}
    return CumulantTable(degree, kind, entries)


def poisson_family(rate, alpha, beta, kind: str = scalars.RATIONAL):
    """The triangular family (1 - rate/N) delta_(0,0) + (rate/N) delta_(alpha,beta)."""
    return compound_family(rate, point_mass(alpha, beta, kind))


def compound_family(rate, jump: DiscretePlanarMeasure):
    """The triangular family (1 - rate/N) delta_(0,0) + (rate/N) jump."""
    kind = jump.kind
    rate = scalars.coerce(rate, kind)
    one = scalars.one(kind)
    zero = scalars.zero(kind)

    def family(n_rows: int) -> DiscretePlanarMeasure:
        p = rate / scalars.coerce(n_rows, kind)
        atoms = [(zero, zero, one - p)]
        atoms.extend((s, t, p * w) for s, t, w in jump.atoms)
        return DiscretePlanarMeasure.from_atoms(atoms, kind=kind)

    return family


def triangular_limit_estimate(family, m: int, n: int, n_list):
    """The scaled row moments N * phi_N(a^m b^n) along the given N values.

    Callers compare the sequence against the target cumulant; for the
    Poisson families the value is already exact at every N.
    """
    rows = [family(n_rows) for n_rows in n_list]
    return [scalars.coerce(n_rows, mu.kind) * mu.moment(m, n) for n_rows, mu in zip(n_list, rows)]


def row_sum_moments(family, n_rows: int, degree: int):
    """Moments of the N-fold bi-free self-convolution of family(N).

    Computed by scaling the cumulants of one row by N and expanding back;
    as N grows these converge to the limit moments at rate O(1/N).
    """
    table = moment_table(family(n_rows), degree)
    scaled = semigroup_scale(moments_to_cumulants(table), n_rows)
    return cumulants_to_moments(scaled)
