"""Atomic planar measures: moments, marginals, products.

Only purely atomic measures are representable; that covers every
desk-scale object here (Gaussian and Poisson Levy data, compound jumps
with finitely many atoms). Atoms with equal coordinates are merged, within
1e-12 in float mode, so canonical form is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .cumulants import MomentTable, table_keys
from .errors import UnsupportedMeasureError

MERGE_TOL = 1e-12

FIRST = "first"
SECOND = "second"


def _merge_1d(pairs, kind):
    pairs = sorted(pairs)
    merged = []
    for x, w in pairs:
        if merged and scalars.close(merged[-1][0], x, kind, MERGE_TOL):
            merged[-1][1] = merged[-1][1] + w
        else:
            merged.append([x, w])
    return tuple((x, w) for x, w in merged if not scalars.close(w, scalars.zero(kind), kind, 0.0))


@dataclass(frozen=True)
class DiscreteMeasure1D:
    """Finite atomic measure on the line; atoms sorted by coordinate."""

    atoms: tuple
    kind: str

    @classmethod
    def from_atoms(cls, atoms, kind=scalars.RATIONAL):
        pairs = [(scalars.coerce(x, kind), scalars.coerce(w, kind)) for x, w in atoms]
        return cls(_merge_1d(pairs, kind), kind)

    def moment(self, k: int):
        acc = scalars.zero(self.kind)
        for x, w in self.atoms:
            acc = acc + w * x**k
        return acc

    def total_mass(self):
        return self.moment(0)

    def is_probability(self, tol: float = 1e-12) -> bool:
        positive = all(w > 0 for _, w in self.atoms)
        return positive and scalars.close(self.total_mass(), scalars.one(self.kind), self.kind, tol)

    def to_jsonable(self):
        return [[scalars.to_jsonable(x, self.kind), scalars.to_jsonable(w, self.kind)]
                for x, w in self.atoms]

    @classmethod
    def from_jsonable(cls, data, kind):
        return cls.from_atoms([(scalars.from_jsonable(x, kind), scalars.from_jsonable(w, kind))
                               for x, w in data], kind)


def _merge_2d(triples, kind):
    triples = sorted(triples)
    merged = []
    for s, t, w in triples:
        if merged and scalars.close(merged[-1][0], s, kind, MERGE_TOL) \
                and scalars.close(merged[-1][1], t, kind, MERGE_TOL):
            merged[-1][2] = merged[-1][2] + w
        else:
            merged.append([s, t, w])
    return tuple((s, t, w) for s, t, w in merged
                 if not scalars.close(w, scalars.zero(kind), kind, 0.0))


@dataclass(frozen=True)
class DiscretePlanarMeasure:
    """Finite atomic measure on the plane; signed weights allowed if flagged."""

    atoms: tuple
    signed: bool
    kind: str

    @classmethod
    def from_atoms(cls, atoms, signed=False, kind=scalars.RATIONAL):
        triples = [(scalars.coerce(s, kind), scalars.coerce(t, kind), scalars.coerce(w, kind))
                   for s, t, w in atoms]
        merged = _merge_2d(triples, kind)
        if not signed and any(w < 0 for _, _, w in merged):
            raise UnsupportedMeasureError("negative weight in an unsigned measure")
        return cls(merged, signed, kind)

    def moment(self, m: int, n: int):
        acc = scalars.zero(self.kind)
        for s, t, w in self.atoms:
            acc = acc + w * s**m * t**n
        return acc

    def total_mass(self):
        return self.moment(0, 0)

    def is_probability(self, tol: float = 1e-12) -> bool:
        positive = all(w > 0 for _, _, w in self.atoms)
        return positive and scalars.close(self.total_mass(), scalars.one(self.kind), self.kind, tol)

    def weight_at(self, s, t):
        for a, b, w in self.atoms:
            if scalars.close(a, s, self.kind, MERGE_TOL) and scalars.close(b, t, self.kind, MERGE_TOL):
                return w
        return scalars.zero(self.kind)

    def to_jsonable(self):
        return {
            "atoms": [[scalars.to_jsonable(s, self.kind), scalars.to_jsonable(t, self.kind),
                       scalars.to_jsonable(w, self.kind)] for s, t, w in self.atoms],
            "signed": self.signed,
        }

    @classmethod
    def from_jsonable(cls, data, kind):
        atoms = [(scalars.from_jsonable(s, kind), scalars.from_jsonable(t, kind),
                  scalars.from_jsonable(w, kind)) for s, t, w in data["atoms"]]
        return cls.from_atoms(atoms, signed=bool(data.get("signed", False)), kind=kind)


def point_mass(s, t, kind=scalars.RATIONAL) -> DiscretePlanarMeasure:
    return DiscretePlanarMeasure.from_atoms([(s, t, 1)], kind=kind)


def marginal(mu: DiscretePlanarMeasure, axis: str) -> DiscreteMeasure1D:
    """Pushforward onto one coordinate; atoms with equal coordinate merge."""
    if mu.signed:
        raise UnsupportedMeasureError("marginal of a signed measure is not supported")
    if axis not in (FIRST, SECOND):
        raise ValueError(f"axis must be {FIRST!r} or {SECOND!r}")
    idx = 0 if axis == FIRST else 1
    return DiscreteMeasure1D.from_atoms([(atom[idx], atom[2]) for atom in mu.atoms], mu.kind)


def product_measure(nu1: DiscreteMeasure1D, nu2: DiscreteMeasure1D) -> DiscretePlanarMeasure:
    """Product measure; its moment table factorizes along the two axes."""
    if nu1.kind != nu2.kind:
        raise ValueError("factors must share a scalar kind")
    atoms = [(s, t, w1 * w2) for s, w1 in nu1.atoms for t, w2 in nu2.atoms]
    return DiscretePlanarMeasure.from_atoms(atoms, kind=nu1.kind)


def moment_table(mu: DiscretePlanarMeasure, degree: int) -> MomentTable:
    """Moments of mu collected into a table of the given total degree."""
    entries = {(m, n): mu.moment(m, n) for m, n in table_keys(degree, 0)}
    return MomentTable(degree, mu.kind, entries)
