"""Moment and cumulant tables of a commuting two-faced pair.

A table stores the two-index family {v_{m,n}} of a pair (a, b) with
[a, b] = 0 up to a total-degree bound. Because the pair commutes, the
cumulant attached to a left/right word depends only on how many left and
right letters it contains, so one (m, n)-indexed table covers every
labelling.

Every table, rational or float, takes the closed form of the two-variable
partial R-transform (:func:`bifree.series.transform`): O(D^4)
multiply-adds for a table of degree D, about D^4 / 24 in each of its
two-variable steps.

The first-block recursion below has one job: it is the independent
combinatorial side of :func:`verify_voiculescu_identity`, which compares it
with the closed form (the closed form checked against itself would read 0
by construction). It reads the moment-cumulant formula phi(a^m b^n) = sum
over pi in NC(m+n) of the block products of kappa on the word a^m b^n
through the block V that holds position 1 (first-block decomposition;
Nica-Speicher, Lectures 10-11). Between consecutive elements of V, and
after its last one, only whole blocks occur, so each gap is partitioned on
its own; a gap is a contiguous word a^i b^j, and its partitions sum to its
moment phi(a^i b^j):

    phi(a^m b^n) = sum over V of kappa(V's letter counts) * prod of gap moments.

Every term but V = [m+n] has lower degree, so it fills the table degree
by degree. Walking V left to right with the state (last position, a-count,
b-count) costs O((m+n)^4) multiply-adds per entry and O(D^5) per table,
against Catalan(m+n) products per entry for the literal sum.

The one-variable transforms are the n = 0 column of the two-variable
ones. Both directions are graded: entry (m, n) is an integer combination
of products whose degrees add up to m + n. So with L the common
denominator of the given table, the scaled table L^(m+n) v_{m,n} is an
integer table whose transform is the scaled result, and both the closed
form and the recursion run on Python ints with one Fraction(x, L^(m+n))
per result (scalars.clear_graded). Clearing is declined, and the same
code runs on the values as they are with L = 1, for float data and when
L^D would exceed scalars.GRADED_MAX_BITS bits, where ints that large cost
more than the Fraction arithmetic they replace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import scalars, series
from .errors import DegreeError

TRANSFORM_MAX_DEGREE = 12
MOBIUS_MAX_DEGREE = 8
UNIT_MASS_TOL = 1e-12  # how far a float moment (0, 0) may sit from 1


def table_keys(degree: int, lowest: int) -> list:
    """The keys (m, n) with m, n >= 0 and lowest <= m + n <= degree, by degree."""
    return [(m, t - m) for t in range(lowest, degree + 1) for m in range(t + 1)]


def _check_entries(entries, degree, lowest):
    keys = table_keys(degree, lowest)
    for key in keys:
        if key not in entries:
            raise ValueError(f"missing entry {key}")
    # every expected key is present, so any surplus lies outside the window
    if len(entries) != len(keys):
        extra = next(k for k in entries if k not in keys)
        raise ValueError(f"entry {extra} outside m, n >= 0 and "
                         f"{lowest} <= m + n <= {degree}")


@dataclass
class _Table:
    # The body shared by both tables: entries on table_keys(degree, lowest).
    degree: int
    kind: str
    entries: dict = field(repr=False)
    lowest = 0

    def __post_init__(self):
        scalars.check_kind(self.kind)
        self._check_degree()
        self.entries = {k: scalars.coerce(v, self.kind) for k, v in self.entries.items()}
        _check_entries(self.entries, self.degree, self.lowest)
        self._check_values()

    @classmethod
    def _unchecked(cls, degree: int, kind: str, entries: dict):
        # a table that a producer in this package made: its entries are
        # already in `kind` on table_keys(degree, lowest), and coercing and
        # checking them again cost 12-14 % of lh_to_cumulants. The cheap
        # checks stay: a float product may overflow to inf on its way here.
        table = cls.__new__(cls)
        table.degree, table.kind, table.entries = degree, kind, entries
        table._check_degree()
        scalars.check_finite(entries.values(), kind)
        table._check_values()
        return table

    def _check_degree(self):
        if self.degree < self.lowest:
            raise ValueError(f"degree {self.degree} < {self.lowest} leaves the table empty")

    def _check_values(self):
        pass

    def get(self, m: int, n: int):
        return self.entries[(m, n)]

    @cached_property
    def graded(self) -> tuple:
        """scalars.clear_graded of the entries, made once per table."""
        return scalars.clear_graded(self.entries)

    def to_jsonable(self) -> dict:
        items = sorted(self.entries.items())
        return {
            "degree": self.degree,
            "kind": self.kind,
            "entries": [[m, n, scalars.to_jsonable(v, self.kind)] for (m, n), v in items],
        }

    @classmethod
    def from_jsonable(cls, data):
        kind = scalars.check_kind(data["kind"])
        entries = {(m, n): scalars.from_jsonable(v, kind) for m, n, v in data["entries"]}
        return cls(degree=int(data["degree"]), kind=kind, entries=entries)


class MomentTable(_Table):
    """Joint moments phi(a^m b^n) for 0 <= m+n <= degree; entry (0,0) is 1."""

    def _check_values(self):
        if not scalars.close(self.entries[(0, 0)], scalars.one(self.kind), self.kind,
                             UNIT_MASS_TOL):
            raise ValueError("entry (0, 0) must equal 1")


class CumulantTable(_Table):
    """Bi-free cumulants kappa_{m,n} for 1 <= m+n <= degree."""

    lowest = 1


def _non_top_sum(m, n, moment, kappa):
    # Sum over pi in NC(m+n), pi != 1, of the block products of kappa on the
    # word a^m b^n, walking the block V of position 1 left to right. A state
    # is V's last position p with V's letter counts (a, b); its weight is the
    # product of the moments of the gaps before p. Positions 1..m are a's.
    total = m + n
    frontier = [{} for _ in range(total + 1)]
    frontier[1][(1, 0) if m else (0, 1)] = 1
    acc = 0
    for p in range(1, total + 1):
        # the gap p+1..q-1 before V's next element q: whether q is an a, and
        # the gap's moment; the gap after p when V closes there
        gaps = []
        for q in range(p + 1, total + 1):
            i = min(q - 1, m) - p if p < m else 0
            gaps.append((q <= m, frontier[q], moment[(i, q - 1 - p - i)]))
        i = m - p if p < m else 0
        tail = moment[(i, total - p - i)]
        for (a, b), weight in frontier[p].items():
            if a + b < total:  # V closes at p; the word after p is one gap
                acc += weight * kappa[(a, b)] * tail
            for is_a, after, gap in gaps:  # V's next element is q
                key = (a + 1, b) if is_a else (a, b + 1)
                step = weight * gap
                after[key] = after[key] + step if key in after else step
    return acc


def _solve(given, to_cumulants):
    # The other table (cumulants of moments, or back) at every key of
    # `given`, lowest degree first: a moment is its cumulant plus the
    # non-top sum, whose terms all have lower degree. The integers 0 and 1
    # are the zero and unit of every kind, so ints, Fractions and floats
    # run the same code, and floats give the same bits as with 0.0 and 1.0.
    out = {} if to_cumulants else {(0, 0): 1}
    moment, kappa = (given, out) if to_cumulants else (out, given)
    for m, n in sorted(given, key=lambda key: (sum(key), key)):
        if m + n:
            rest = _non_top_sum(m, n, moment, kappa)
            out[(m, n)] = given[(m, n)] - rest if to_cumulants else given[(m, n)] + rest
    return out


def _transform(entries, degree, kind, to_cumulants):
    check_degree(degree)
    scale, given = scalars.clear_graded(entries)
    out = series.transform(given, degree, to_cumulants)
    powers = [scale ** k for k in range(degree + 1)]
    return {(m, n): scalars.over(v, powers[m + n], kind) for (m, n), v in out.items()}


def check_degree(degree):
    if degree > TRANSFORM_MAX_DEGREE:
        raise DegreeError(f"degree {degree} exceeds cap {TRANSFORM_MAX_DEGREE}")


def moments_to_cumulants(table: MomentTable) -> CumulantTable:
    """Invert the non-crossing moment-cumulant system on the word a^m b^n."""
    out = _transform(table.entries, table.degree, table.kind, to_cumulants=True)
    return CumulantTable._unchecked(table.degree, table.kind, out)


def cumulants_to_moments(table: CumulantTable) -> MomentTable:
    """Moments as sums of cumulant products over non-crossing partitions."""
    out = _transform(table.entries, table.degree, table.kind, to_cumulants=False)
    return MomentTable._unchecked(table.degree, table.kind, out)


def moment_seq_to_cumulant_seq(seq, kind: str):
    """One-variable version: seq[j] = phi(a^j) with seq[0] = 1.

    Returns the list [kappa_1, ..., kappa_D] of free cumulants, the n = 0
    column of :func:`moments_to_cumulants`.
    """
    degree = len(seq) - 1
    given = {(j, 0): scalars.coerce(v, kind) for j, v in enumerate(seq)}
    given[(0, 0)] = scalars.one(kind)
    out = _transform(given, degree, kind, to_cumulants=True)
    return [out[(j, 0)] for j in range(1, degree + 1)]


def cumulant_seq_to_moment_seq(kappa, kind: str):
    """Inverse of :func:`moment_seq_to_cumulant_seq`; returns [1, m_1, ...]."""
    degree = len(kappa)
    given = {(j, 0): scalars.coerce(v, kind) for j, v in enumerate(kappa, 1)}
    out = _transform(given, degree, kind, to_cumulants=False)
    return [out[(j, 0)] for j in range(degree + 1)]


def mobius_cumulant(table: MomentTable, m: int, n: int):
    """kappa_{m,n} as the literal Mobius sum over NC(m+n) on the word a^m b^n.

        kappa_{m,n} = sum over pi in NC(m+n) of mu(pi, 1) * prod over blocks V
                      of phi(a^i b^(|V| - i)), i = |V meets {1..m}|.

    For a commuting pair this one sum is the cumulant of every left/right
    labelling with m left letters: the bi-non-crossing partitions of a
    labelling chi are the images sigma_chi(pi), and sigma_chi sends the
    positions 1..m to the left positions. ``verify chi`` compares it with
    :func:`moments_to_cumulants`, the closed form.
    """
    from .partitions import enumerate_nc, mobius_top  # the lattice loads for this sum alone
    total = m + n
    if not 1 <= total <= MOBIUS_MAX_DEGREE:
        raise DegreeError(f"m + n = {total} outside [1, {MOBIUS_MAX_DEGREE}]")
    if total > table.degree:
        raise DegreeError(f"table degree {table.degree} < m + n = {total}")
    acc = scalars.zero(table.kind)
    for pi in enumerate_nc(total):
        term = scalars.one(table.kind)
        for block in pi.blocks:
            a = sum(k <= m for k in block)
            term = term * table.get(a, len(block) - a)
        acc = acc + term * mobius_top(pi)
    return acc


def verify_voiculescu_identity(table: MomentTable):
    """Coefficient-level residual of the two-variable transform identity.

    The identity R(z, w) = 1 + z R_a(z) + w R_b(w) - zw / G(K_a(z), K_b(w))
    fixes the cumulants degree by degree, and the closed form the transforms
    take (:func:`bifree.series.transform`) is the identity solved for them.
    So the identity holds on a window exactly where the closed form agrees
    with the first-block recursion, which shares no code with it. Returns
    the largest |recursion - closed form| over total degree <= D - 1, the
    window the identity's series side certifies: at degree D its
    reciprocal of G loses one degree.
    """
    if table.degree < 2:
        raise DegreeError("need degree >= 2")
    check_degree(table.degree)
    scale, moments = scalars.clear_graded(table.entries)
    recursion = _solve(moments, to_cumulants=True)
    closed = series.transform(moments, table.degree, to_cumulants=True)
    worst = scalars.zero(table.kind)
    for m, n in table_keys(table.degree - 1, 1):
        worst = max(worst, scalars.over(abs(recursion[(m, n)] - closed[(m, n)]),
                                        scale ** (m + n), table.kind))
    return worst
