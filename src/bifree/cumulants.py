"""Moment and cumulant tables of a commuting two-faced pair.

A table stores the two-index family {v_{m,n}} of a pair (a, b) with
[a, b] = 0 up to a total-degree bound. Because the pair commutes, the
cumulant attached to a left/right word depends only on how many left and
right letters it contains, so one (m, n)-indexed table covers every
labelling; the labelling-resolved values are exposed only through
``chi_cumulant_values`` / ``verify_chi_independence``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scalars
from .errors import DegreeError
from .partitions import (apply_permutation, all_chi_maps, block_side_counts,
                         enumerate_nc, mobius_top, sigma_chi)

TRANSFORM_MAX_DEGREE = 12
CHI_MAX_DEGREE = 8


def _check_entries(entries, degree, lowest):
    for total in range(lowest, degree + 1):
        for m in range(total + 1):
            if (m, total - m) not in entries:
                raise ValueError(f"missing entry ({m}, {total - m})")
    # every expected key is present, so any surplus lies outside the window
    if len(entries) != sum(total + 1 for total in range(lowest, degree + 1)):
        allowed = {(m, t - m) for t in range(lowest, degree + 1) for m in range(t + 1)}
        extra = next(k for k in entries if k not in allowed)
        raise ValueError(f"entry {extra} outside m, n >= 0 and "
                         f"{lowest} <= m + n <= {degree}")


@dataclass
class MomentTable:
    """Joint moments phi(a^m b^n) for 0 <= m+n <= degree; entry (0,0) is 1."""

    degree: int
    kind: str
    entries: dict = field(repr=False)

    def __post_init__(self):
        scalars.check_kind(self.kind)
        self.entries = {k: scalars.coerce(v, self.kind) for k, v in self.entries.items()}
        _check_entries(self.entries, self.degree, 0)
        if not scalars.close(self.entries[(0, 0)], scalars.one(self.kind), self.kind, 1e-12):
            raise ValueError("entry (0, 0) must equal 1")

    def get(self, m: int, n: int):
        return self.entries[(m, n)]

    def to_jsonable(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "degree": self.degree,
            "kind": self.kind,
            "entries": [[m, n, scalars.to_jsonable(v, self.kind)] for (m, n), v in items],
        }

    @classmethod
    def from_jsonable(cls, data) -> "MomentTable":
        kind = scalars.check_kind(data["kind"])
        entries = {(m, n): scalars.from_jsonable(v, kind) for m, n, v in data["entries"]}
        return cls(degree=int(data["degree"]), kind=kind, entries=entries)


@dataclass
class CumulantTable:
    """Bi-free cumulants kappa_{m,n} for 1 <= m+n <= degree."""

    degree: int
    kind: str
    entries: dict = field(repr=False)

    def __post_init__(self):
        scalars.check_kind(self.kind)
        self.entries = {k: scalars.coerce(v, self.kind) for k, v in self.entries.items()}
        _check_entries(self.entries, self.degree, 1)

    def get(self, m: int, n: int):
        return self.entries[(m, n)]

    def to_jsonable(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "degree": self.degree,
            "kind": self.kind,
            "entries": [[m, n, scalars.to_jsonable(v, self.kind)] for (m, n), v in items],
        }

    @classmethod
    def from_jsonable(cls, data) -> "CumulantTable":
        kind = scalars.check_kind(data["kind"])
        entries = {(m, n): scalars.from_jsonable(v, kind) for m, n, v in data["entries"]}
        return cls(degree=int(data["degree"]), kind=kind, entries=entries)


def zero_cumulants(degree: int, kind: str = scalars.RATIONAL) -> CumulantTable:
    z = scalars.zero(kind)
    entries = {(m, t - m): z for t in range(1, degree + 1) for m in range(t + 1)}
    return CumulantTable(degree, kind, entries)


def _partition_sum(parts, left_count, value_of, kind, include_top):
    # Sum over the non-crossing partitions `parts` of [total] of the per-block
    # product of value_of(a_count, b_count), the word being a^left_count b^rest.
    acc = scalars.zero(kind)
    for part in parts:
        if not include_top and len(part.blocks) == 1:
            continue
        term = scalars.one(kind)
        for block in part.blocks:
            a, b = block_side_counts(block, left_count)
            term = term * value_of(a, b)
        acc = acc + term
    return acc


def moments_to_cumulants(table: MomentTable) -> CumulantTable:
    """Invert the non-crossing moment-cumulant system.

    The cumulants are the Mobius inversion of the moments over NC(m+n) read
    on the word a^m b^n; they are obtained here by peeling the full-block
    term off the moment formula degree by degree, which solves the same
    triangular system without tabulating Mobius values.
    """
    if table.degree > TRANSFORM_MAX_DEGREE:
        raise DegreeError(f"degree {table.degree} exceeds cap {TRANSFORM_MAX_DEGREE}")
    kind = table.kind
    out: dict = {}
    for total in range(1, table.degree + 1):
        parts = enumerate_nc(total)
        for m in range(total + 1):
            rest = _partition_sum(parts, m, lambda a, b: out[(a, b)], kind, include_top=False)
            out[(m, total - m)] = table.get(m, total - m) - rest
    return CumulantTable(table.degree, kind, out)


def cumulants_to_moments(table: CumulantTable) -> MomentTable:
    """Moments as sums of cumulant products over non-crossing partitions."""
    if table.degree > TRANSFORM_MAX_DEGREE:
        raise DegreeError(f"degree {table.degree} exceeds cap {TRANSFORM_MAX_DEGREE}")
    kind = table.kind
    out = {(0, 0): scalars.one(kind)}
    for total in range(1, table.degree + 1):
        parts = enumerate_nc(total)
        for m in range(total + 1):
            out[(m, total - m)] = _partition_sum(parts, m, table.get, kind, include_top=True)
    return MomentTable(table.degree, kind, out)


def moment_seq_to_cumulant_seq(seq, kind: str):
    """One-variable version: seq[j] = phi(a^j) with seq[0] = 1.

    Returns the list [kappa_1, ..., kappa_D] of free cumulants.
    """
    degree = len(seq) - 1
    if degree > TRANSFORM_MAX_DEGREE:
        raise DegreeError(f"degree {degree} exceeds cap {TRANSFORM_MAX_DEGREE}")
    seq = [scalars.coerce(v, kind) for v in seq]
    kappa = [scalars.zero(kind)]  # index 0 unused
    for total in range(1, degree + 1):
        rest = scalars.zero(kind)
        for part in enumerate_nc(total):
            if len(part.blocks) == 1:
                continue
            term = scalars.one(kind)
            for block in part.blocks:
                term = term * kappa[len(block)]
            rest = rest + term
        kappa.append(seq[total] - rest)
    return kappa[1:]


def cumulant_seq_to_moment_seq(kappa, kind: str):
    """Inverse of :func:`moment_seq_to_cumulant_seq`; returns [1, m_1, ...]."""
    degree = len(kappa)
    if degree > TRANSFORM_MAX_DEGREE:
        raise DegreeError(f"degree {degree} exceeds cap {TRANSFORM_MAX_DEGREE}")
    kappa = [scalars.zero(kind)] + [scalars.coerce(v, kind) for v in kappa]
    out = [scalars.one(kind)]
    for total in range(1, degree + 1):
        acc = scalars.zero(kind)
        for part in enumerate_nc(total):
            term = scalars.one(kind)
            for block in part.blocks:
                term = term * kappa[len(block)]
            acc = acc + term
        out.append(acc)
    return out


def chi_cumulant_values(table: MomentTable, m: int, n: int):
    """The order-(m+n) cumulant computed separately for every labelling.

    For each of the binom(m+n, m) left/right labellings chi, evaluates the
    Mobius sum over the bi-non-crossing lattice for chi, reading each
    block's moment off the table by its left/right letter counts (the pair
    commutes, so only the counts matter). For a genuine commuting pair all
    returned values coincide.
    """
    total = m + n
    if not 1 <= total <= CHI_MAX_DEGREE:
        raise DegreeError(f"m + n = {total} outside [1, {CHI_MAX_DEGREE}]")
    if total > table.degree:
        raise DegreeError(f"table degree {table.degree} < m + n = {total}")
    kind = table.kind
    values = []
    sources = enumerate_nc(total)
    mobius = [mobius_top(p) for p in sources]
    for chi in all_chi_maps(m, n):
        left_set = set(chi.left_positions())
        perm = sigma_chi(chi)
        acc = scalars.zero(kind)
        for source, mu in zip(sources, mobius):
            image = apply_permutation(source, perm)
            term = scalars.one(kind)
            for block in image.blocks:
                a = sum(1 for k in block if k in left_set)
                term = term * table.get(a, len(block) - a)
            acc = acc + term * mu
        values.append(acc)
    return values


def verify_chi_independence(table: MomentTable, m: int, n: int, tol: float = 1e-10) -> bool:
    """True iff the cumulant value is the same for every left/right labelling."""
    values = chi_cumulant_values(table, m, n)
    first = values[0]
    return all(scalars.close(v, first, table.kind, tol) for v in values[1:]) or len(values) == 1
