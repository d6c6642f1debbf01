"""Additive bi-free convolution and semigroups, all by cumulant arithmetic.

Convolution is defined on cumulant tables, where it is entrywise addition;
measure-level convolution goes measure -> moments -> cumulants -> add ->
moments. Realizability of the output as a positive measure is not asserted
for general inputs.
"""

from __future__ import annotations

import warnings

from . import scalars
from .cumulants import (CumulantTable, cumulant_seq_to_moment_seq,
                        moment_seq_to_cumulant_seq)
from .errors import DegreeError


class UncertifiedScaleWarning(UserWarning):
    """Scaling by 0 < t < 1 without a conditional-PSD certificate."""


def bifree_convolve(k1: CumulantTable, k2: CumulantTable) -> CumulantTable:
    """Entrywise cumulant addition: the additive bi-free convolution."""
    if k1.degree != k2.degree or k1.kind != k2.kind:
        raise DegreeError("tables must share degree and kind")
    entries = {key: k1.entries[key] + k2.entries[key] for key in k1.entries}
    return CumulantTable._unchecked(k1.degree, k1.kind, entries)


def semigroup_scale(table: CumulantTable, t, assume_divisible: bool = False) -> CumulantTable:
    """Entrywise multiplication by t > 0; the convolution-power table.

    For t >= 1 the scaled table is always a convolution power (compression
    by a free projection of trace 1/t). For 0 < t < 1 it is only guaranteed
    realizable when the table is conditionally positive semi-definite;
    callers who have verified that may pass assume_divisible=True to
    silence the warning.
    """
    t = scalars.coerce(t, table.kind)
    if t <= 0:
        raise ValueError("scale factor must be positive")
    if t < 1 and not assume_divisible:
        warnings.warn(
            "scaling by t < 1 is only a distribution when the table is "
            "conditionally positive semi-definite", UncertifiedScaleWarning,
            stacklevel=2)
    entries = {key: t * v for key, v in table.entries.items()}
    return CumulantTable._unchecked(table.degree, table.kind, entries)


def free_convolve_marginal(seq1, seq2, degree: int, kind: str = scalars.RATIONAL):
    """Free convolution of one-variable moment sequences.

    Inputs are [1, m_1, ..., m_degree]; the sequences are inverted to free
    cumulants over the non-crossing lattice, added entrywise, and expanded
    back to moments.
    """
    if len(seq1) < degree + 1 or len(seq2) < degree + 1:
        raise DegreeError("moment sequences shorter than requested degree")
    one = scalars.one(kind)
    if scalars.coerce(seq1[0], kind) != one or scalars.coerce(seq2[0], kind) != one:
        raise ValueError("moment sequences must start with 1")
    c1 = moment_seq_to_cumulant_seq(seq1[:degree + 1], kind)
    c2 = moment_seq_to_cumulant_seq(seq2[:degree + 1], kind)
    total = [a + b for a, b in zip(c1, c2)]
    return cumulant_seq_to_moment_seq(total, kind)
