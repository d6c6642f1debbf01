"""Atomic planar measures and their moments.

Only purely atomic measures are representable; that covers every
desk-scale object here (Gaussian and Poisson Levy data, compound jumps
with finitely many atoms). Atoms with equal coordinates are merged, within
1e-12 in float mode, so canonical form is deterministic. A law on the
line is a planar measure on one axis.

Moments are read off cleared data: in rational mode the s-coordinates, the
t-coordinates and the weights are each put over their common denominator
(L_s, L_t, L_w) once per measure, so the sum over atoms of W S^m T^n runs
on Python ints. One kernel, `moment_rows`, returns these sums unreduced,
as rows sums[m][n], with the three scales. `moments` and `moment` divide
each entry back once, by L_w L_s^m L_t^n; `levy_hincin.lh_to_cumulants`
compares its formulas on the rows themselves, by cross-multiplying. Float
data is not scaled, and each float term is w * s**m * t**n summed in atom
order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import scalars
from .cumulants import MomentTable, table_keys
from .errors import UnsupportedMeasureError

MERGE_TOL = 1e-12
PROBABILITY_TOL = 1e-12  # how far a float total mass may sit from 1


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

    @cached_property
    def _cleared(self) -> tuple:
        # (L_s, L_t, L_w, atoms (S, T, W)) with s = S / L_s, t = T / L_t, w = W / L_w
        scale_s, s = scalars.clear_denominators(s for s, _, _ in self.atoms)
        scale_t, t = scalars.clear_denominators(t for _, t, _ in self.atoms)
        scale_w, w = scalars.clear_denominators(w for _, _, w in self.atoms)
        return scale_s, scale_t, scale_w, tuple(zip(s, t, w))

    def moment_rows(self, degree: int) -> tuple:
        """Unreduced moment rows: (L_s, L_t, L_w, sums), the one moment kernel.

        sums[m][n], m + n <= degree, is the sum over atoms of W S^m T^n, on
        Python ints in rational mode; the moment is sums[m][n] / (L_w L_s^m
        L_t^n). Rows are plain lists filled atom by atom, so in float mode
        (scales 1) each sum adds the terms (w * s**m) * t**n in atom order,
        starting from 0.0.
        """
        scale_s, scale_t, scale_w, atoms = self._cleared
        start = 0 if self.kind == scalars.RATIONAL else 0.0
        sums = [[start] * (degree - i + 1) for i in range(degree + 1)]
        for s, t, w in atoms:
            powers = [t**j for j in range(degree + 1)]
            for i, row in enumerate(sums):
                weighted = w * s**i
                sums[i] = [acc + weighted * power for acc, power in zip(row, powers)]
        return scale_s, scale_t, scale_w, sums

    def moment(self, m: int, n: int):
        """The integral of s^m t^n: entry (m, n) of the kernel's rows."""
        scale_s, scale_t, scale_w, sums = self.moment_rows(m + n)
        return scalars.over(sums[m][n], scale_w * scale_s**m * scale_t**n, self.kind)

    def moments(self, degree: int) -> dict:
        """Every moment of total degree <= degree, keyed (m, n) in table order."""
        scale_s, scale_t, scale_w, sums = self.moment_rows(degree)
        return {(m, n): scalars.over(sums[m][n], scale_w * scale_s**m * scale_t**n, self.kind)
                for m, n in table_keys(degree, 0)}

    def is_probability(self) -> bool:
        positive = all(w > 0 for _, _, w in self.atoms)
        return positive and scalars.close(self.moment(0, 0), scalars.one(self.kind), self.kind,
                                          PROBABILITY_TOL)

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
        """A measure document in its own "kind", or in `kind` when it states none."""
        kind = scalars.check_kind(data.get("kind", kind))
        atoms = [(scalars.from_jsonable(s, kind), scalars.from_jsonable(t, kind),
                  scalars.from_jsonable(w, kind)) for s, t, w in data["atoms"]]
        return cls.from_atoms(atoms, signed=bool(data.get("signed", False)), kind=kind)


def point_mass(s, t, kind=scalars.RATIONAL) -> DiscretePlanarMeasure:
    return DiscretePlanarMeasure.from_atoms([(s, t, 1)], kind=kind)


def moment_table(mu: DiscretePlanarMeasure, degree: int) -> MomentTable:
    """Moments of mu collected into a table of the given total degree."""
    return MomentTable(degree, mu.kind, mu.moments(degree))
