"""The bi-free Levy-Hincin correspondence on atomic data.

Forward direction: a triple (rho1, rho2, rho) of atomic planar measures
with t d(rho1) = s d(rho) and s d(rho2) = t d(rho) and, at the origin,
rho{0}^2 <= rho1{0} rho2{0} is a Gaussian part sigma = (rho1{0}, rho{0},
rho2{0}) and one jump measure nu off the origin, with rho1 = s^2 nu,
rho2 = t^2 nu and rho = st nu: its Levy form (Huang-Wang, JFA 2016). Each
triple converts once to that form, atom by atom, and keeps it; the same
pass gives validate_lh's report. lh_to_cumulants refuses a triple that
fails it and otherwise runs the one kernel measures.levy_cumulants: nu's
moments, sigma at degree 2 and the first-order cumulants at degree 1, one
Fraction per entry. Those are the coefficients of the two-variable
R-transform.

Inverse direction: a GNS quotient built from the cumulant Gram form gives
a finite-dimensional operator model, and simultaneous diagonalization of
its two gauge matrices recovers the measures. A table's gates and model
come from one symmetric fraction-free elimination of its Gram, on Python
ints (Bareiss): a rational table's Gram graded-cleared, a float table's
read exactly, since every float is a dyadic rational. It is one
elimination per table and window, kept on the table and shared by the
three calls check_cpsd, check_cond_bounded and gns_reconstruct. A negative
pivot, or a zero pivot with a nonzero rest of row, means not positive; the
kept pivots give rank G_d and rank G_{d+1}, and the window certifies the
table when the two are equal (flatness, Curto-Fialkow). A positive table that is
not flat is "not certified at this window", never "unbounded". The model
whitens the kept pivots: with G_BB = L D L^T,
T_i = D^-1/2 L^-1 G^(shift)_BB L^-T D^-1/2 and f = D^-1/2 L^-1 G_{B,s},
g likewise, exact until that last division, which is rounded to a float
model. extract_levy_measures runs cyclic Jacobi rotations on Python
floats, so nothing here loads numpy. The Fock layer loads only in
gns_reconstruct and extract_levy_measures, which build and read a model.

Certification is windowed: positivity and boundedness are checked on the
monomials of total degree <= d, which needs table entries up to degree
2d + 2. A table can pass at one window and fail at a larger one; reports
state the window used.

Float tolerances and what each is relative to (rational data compares
exactly everywhere, and check_cpsd's face check compares float data
exactly too). PIVOT_TOL is the one Gram tolerance: in a float table's
elimination a Schur pivot within PIVOT_TOL G_kk of 0 reads as 0, and so
does an entry of its row within PIVOT_TOL sqrt(G_kk G_ii), G_kk and G_ii
being diagonal entries of the Gram itself, so a congruence (a scaling of
the form, or a dilation of the measures) leaves the verdict alone.
validate_lh holds each relation a = b of a float triple, t rho1 = s rho
and s rho2 = t rho at each point and rho{0}^2 <= rho1{0} rho2{0}, to
RELATION_TOL times the terms it differences, |a| + |b|; a float point
within MERGE_TOL of the origin is the origin. DIAG_RESIDUAL_TOL bounds the
off-diagonal residual of the joint diagonalization times max(1, |T1|,
|T2|), |T| the largest absolute entry. extract_levy_measures reads an
eigen-coordinate within DIAG_RESIDUAL_TOL |T_i| of 0 as 0, and <f, u_k> or
<g, u_k> within ATOM_WEIGHT_TOL (absolute) as 0; a pair at the origin goes
to sigma, any other to nu.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import scalars
from .cumulants import CumulantTable
from .errors import CommutationError, DegreeError, RealizabilityError
from .measures import MERGE_TOL, DiscretePlanarMeasure, levy_cumulants

PIVOT_TOL = 1e-9
DIAG_RESIDUAL_TOL = 1e-8
ATOM_WEIGHT_TOL = 1e-13
RELATION_TOL = 1e-10
JACOBI_SWEEPS = 50
# PIVOT_TOL as the exact ratio of two ints, for _snap's integer comparisons
_TOL_NUM, _TOL_DEN = PIVOT_TOL.as_integer_ratio()


@functools.cache
def _fock():
    # the Fock layer, imported on first use and then kept: an import
    # statement in every gns_reconstruct and extract_levy_measures call cost
    # about 0.3 ms of a 33 ms round trip of 64 degree-8 tables
    from . import fock
    return fock


@dataclass(frozen=True)
class LevyHincinData:
    """First-order cumulants plus the measure triple (rho1, rho2, rho)."""

    kappa10: object
    kappa01: object
    rho1: DiscretePlanarMeasure
    rho2: DiscretePlanarMeasure
    rho: DiscretePlanarMeasure
    kind: str = scalars.RATIONAL

    def to_jsonable(self) -> dict:
        return {
            "kappa10": scalars.to_jsonable(self.kappa10, self.kind),
            "kappa01": scalars.to_jsonable(self.kappa01, self.kind),
            "rho1": self.rho1.to_jsonable(),
            "rho2": self.rho2.to_jsonable(),
            "rho": self.rho.to_jsonable(),
            "kind": self.kind,
        }

    @classmethod
    def from_jsonable(cls, data, kind=scalars.RATIONAL) -> "LevyHincinData":
        """A triple document in its own "kind", or in `kind` when it states none."""
        kind = scalars.check_kind(data.get("kind", kind))
        # the measures are read in the triple's kind, whatever their own says
        rho1, rho2, rho = ({**data[name], "kind": kind} for name in ("rho1", "rho2", "rho"))
        return cls(
            scalars.from_jsonable(data["kappa10"], kind),
            scalars.from_jsonable(data["kappa01"], kind),
            DiscretePlanarMeasure.from_jsonable(rho1, kind),
            DiscretePlanarMeasure.from_jsonable(rho2, kind),
            DiscretePlanarMeasure.from_jsonable({**rho, "signed": True}, kind),
            kind)

    @functools.cached_property
    def _levy(self) -> tuple:
        """(report, sigma, nu): validate_lh's report and, for a valid triple, its Levy form.

        One pass over the weights gathered per point, a float point within
        MERGE_TOL of the origin being the origin. sigma = (rho1{0}, rho{0},
        rho2{0}), and nu{x} = rho1{x} / s^2 where |s| >= |t| and rho2{x} / t^2
        elsewhere; an invalid triple has neither. Made once and kept.
        """
        kind = self.kind
        zero = scalars.zero(kind)
        weights: dict = {}  # point -> [rho1, rho2, rho] weights
        for index, mu in enumerate((self.rho1, self.rho2, self.rho)):
            for s, t, w in mu.atoms:
                if all(scalars.close(x, zero, kind, MERGE_TOL) for x in (s, t)):
                    s = t = zero
                weights.setdefault((s, t), [zero, zero, zero])[index] += w
        points = weights.items()
        first = [(t * w1, s * w) for (s, t), (w1, _, w) in points]  # t rho1 = s rho
        second = [(s * w2, t * w) for (s, t), (_, w2, w) in points]  # s rho2 = t rho
        w1, w2, w = weights.get((zero, zero), (zero, zero, zero))
        report = LhValidation(
            all(_agree(a, b, kind) for a, b in first),
            all(_agree(a, b, kind) for a, b in second),
            w * w <= w1 * w2 or _agree(w * w, w1 * w2, kind),
            all(v > 0 for mu in (self.rho1, self.rho2) for _, _, v in mu.atoms),
            max((abs(float(a - b)) for a, b in first + second if a != b), default=0.0))
        if not report.ok:
            return report, None, None
        jumps = [(s, t, v1 / (s * s) if abs(s) >= abs(t) else v2 / (t * t))
                 for (s, t), (v1, v2, _) in points if s or t]
        return report, (w1, w, w2), DiscretePlanarMeasure.from_atoms(jumps, kind=kind)

    @classmethod
    def _from_levy(cls, kappa10, kappa01, sigma, nu) -> "LevyHincinData":
        # rho1, rho and rho2 are sigma's entries at the origin and s^2 nu, st nu
        # and t^2 nu off it: they hold the relations by construction, so the
        # triple carries its form and is not validated again
        zero = scalars.zero(nu.kind)
        weighted = [(s, t, (s * s * w, s * t * w, t * t * w)) for s, t, w in nu.atoms]
        rho1, rho, rho2 = (DiscretePlanarMeasure.from_atoms(
            [(zero, zero, sigma[i]), *((s, t, w[i]) for s, t, w in weighted)], i == 1, nu.kind)
            for i in range(3))
        data = cls(kappa10, kappa01, rho1, rho2, rho, nu.kind)
        vars(data)["_levy"] = (LhValidation(True, True, True, True, 0.0), sigma, nu)
        return data


def _agree(a, b, kind) -> bool:
    # a relation a = b: exactly for rational data, and for float data within
    # RELATION_TOL times the terms it differences, |a| + |b|
    return a == b if kind == scalars.RATIONAL else abs(a - b) <= RELATION_TOL * (abs(a) + abs(b))


@dataclass(frozen=True)
class LhValidation:
    relation_rho1_ok: bool
    relation_rho2_ok: bool
    atom_inequality_ok: bool
    positivity_ok: bool
    max_relation_residual: float

    @property
    def ok(self) -> bool:
        return (self.relation_rho1_ok and self.relation_rho2_ok
                and self.atom_inequality_ok and self.positivity_ok)

    def to_jsonable(self) -> dict:
        return {**asdict(self), "ok": self.ok}


def validate_lh(data: LevyHincinData) -> LhValidation:
    """Check the measure relations atom by atom; reports, never throws.

    Over the union of supports: t * rho1{(s,t)} = s * rho{(s,t)} and
    s * rho2{(s,t)} = t * rho{(s,t)}; at the origin
    rho{(0,0)}^2 <= rho1{(0,0)} * rho2{(0,0)}; rho1, rho2 must be positive.
    """
    return data._levy[0]


def lh_to_cumulants(data: LevyHincinData, degree: int) -> CumulantTable:
    """Cumulants from the Levy-Hincin triple: its R-transform's coefficients.

    kappa_{m,n} integrates s^(m-2) t^n against rho1 when m >= 2, s^m t^(n-2)
    against rho2 when n >= 2, and s^(m-1) t^(n-1) against rho when m, n >= 1;
    for a valid triple these are one number, measures.levy_cumulants of its
    Levy form. A triple validate_lh refuses raises RealizabilityError.
    """
    report, sigma, nu = data._levy
    if not report.ok:
        raise RealizabilityError(f"triple fails validation: {report}")
    return levy_cumulants((data.kappa10, data.kappa01), sigma, nu, degree)


def _monomials(top: int) -> tuple:
    """The monomials s^m t^n of degree 1..top, by degree and s-heavy first."""
    return tuple((m, total - m) for total in range(1, top + 1) for m in range(total, -1, -1))


@functools.lru_cache(maxsize=16)
def _gram_keys(top: int) -> tuple:
    # the monomials of degree 1..top and the table key of each Gram entry
    mono = _monomials(top)
    return mono, tuple(tuple((m1 + m2, n1 + n2) for m2, n2 in mono) for m1, n1 in mono)


def _snap(row: list, k: int, diagonal: list, last: int) -> None:
    # a float table's rounding: a Schur pivot row[k] / last within PIVOT_TOL
    # G_kk reads as 0, and then so does each Schur entry row[i] / last within
    # PIVOT_TOL sqrt(G_kk G_ii); cross-multiplied, on ints
    if abs(row[k]) * _TOL_DEN <= _TOL_NUM * diagonal[k] * last:
        bound = (_TOL_NUM * last) ** 2 * diagonal[k]
        row[k:] = [0 if (x * _TOL_DEN) ** 2 <= bound * g else x
                   for x, g in zip(row[k:], diagonal[k:])]


def _eliminate(table, d: int) -> tuple:
    """One symmetric fraction-free elimination of a table's Gram for window d.

    It eliminates G_{d+1} when the table's degree reaches 2d + 2, and G_d
    otherwise. A rational table's graded clearing (scalars.clear_graded,
    made once per table) scales entry (m, n) by L^(m+n), so the Gram
    becomes diag(L^|p|) G diag(L^|p|): a congruence, which keeps the sign
    and the place of every pivot. Where it declines (L = 1), and for a
    float table, whose every entry is a dyadic rational read exactly, the
    entries are put over one common denominator c instead, which scales
    the form by c. Either way the elimination runs on Python ints. Pivots
    are taken in the monomials' order, by degree, so G_d is the leading
    block of G_{d+1}. A kept pivot divides the next step exactly (Bareiss,
    Math. Comp. 22, 1968): the jth kept pivot is delta_j, the jth leading
    minor of G on the kept monomials B, and pivot j's row at its step is
    delta_{j-1} (L^-1 G)_j, with G_BB = L D L^T, valid from the pivot's
    index on and 0 before it. A negative pivot, or a zero pivot whose rest
    of row is nonzero, shows the form is not positive, and the elimination
    stops there; a zero pivot with a zero rest of row is a null direction
    and is skipped. A float table's pivot and row are first snapped to 0
    within PIVOT_TOL of their own diagonal entries (_snap), so a
    congruence leaves its verdict alone too.

    Two stops are kept: the full stop, where the whole pass stops, and the
    leading stop, where G_d's own pass would, seeing only the row within
    G_d. A zero pivot inside G_d whose row is nonzero only beyond G_d sets
    the full stop; G_d's pass skips it as a null direction and goes on to
    its end. A stop is the monomial count of its Gram when that is positive.

    Returns (L, c, monomials, pivots, leading stop, full stop): pivots as
    (index, row at its step, delta_j).
    """
    mono, keys = _gram_keys(d + (table.degree >= 2 * d + 2))
    size = d * (d + 3) // 2  # G_d: the monomials of degree 1..d
    scale, cleared = table.graded
    common = 1
    if type(cleared[(2, 0)]) is not int:  # declined or float: Fractions, which // would floor
        common, values = scalars.clear_denominators(map(Fraction, cleared.values()))
        cleared = dict(zip(cleared, values))
    rows = [[cleared[key] for key in row] for row in keys]
    diagonal = [row[k] for k, row in enumerate(rows)] if table.kind == scalars.FLOAT else None
    pivots, last, leading, full = [], 1, size, len(rows)
    for k, row in enumerate(rows):
        if full < k >= size:  # the whole pass has stopped and G_d's has ended
            break
        if diagonal:
            _snap(row, k, diagonal, last)
        pivot = row[k]
        if pivot < 0 or (pivot == 0 and any(row[k + 1:size])):
            leading, full = min(k, size), min(k, full)
            break
        # a row holds stale values before its diagonal, so beyond G_d starts at k + 1
        if pivot == 0 and any(row[max(k + 1, size):]):
            full = min(k, full)
        elif pivot:
            # the trailing rows from the diagonal on: the rest stays symmetric
            for i in range(k + 1, len(rows)):
                a, target = row[i], rows[i]
                target[i:] = [(pivot * x - a * y) // last for x, y in zip(target[i:], row[i:])]
            pivots.append((k, row, pivot))
            last = pivot
    return scale, common, mono, pivots, leading, full


def _elimination(table, d: int) -> tuple:
    # _eliminate(table, d), made once per table and window and kept on the
    # table, where check_cpsd, check_cond_bounded and gns_reconstruct share it;
    # its pivot rows are read, never written
    memo = vars(table).setdefault("_eliminations", {})
    if d not in memo:
        memo[d] = _eliminate(table, d)
    return memo[d]


@dataclass(frozen=True)
class CpsdReport:
    """check_cpsd's verdict on a window; rank (of G_d) is None where a pivot refused positivity."""

    ok: bool
    degree_window: int
    rank: int | None

    def to_jsonable(self):
        return asdict(self)


def _check_window(table, d: int, need: int) -> None:
    if d < 1:
        raise DegreeError(f"Gram window d = {d} is empty and certifies nothing; "
                          f"need d >= 1 (table degree {table.degree})")
    if need > table.degree:
        raise DegreeError(f"need table degree >= {need}, have {table.degree}")


def _faces_ok(table) -> bool:
    # a vanishing (2,0) entry forces every entry of order >= 2 touching the
    # left face to vanish (Cauchy-Schwarz), and symmetrically for (0,2);
    # exact in both kinds, a float entry being a dyadic rational
    return not any(table.get(*variance) == 0 and any(
        v for key, v in table.entries.items() if key[side] and sum(key) >= 2)
        for side, variance in ((0, (2, 0)), (1, (0, 2))))


def _rank(pivots, stop: int, size: int) -> int | None:
    # the rank of the Gram's leading block on `size` monomials; None when a
    # pivot inside it refused positivity
    return sum(k < size for k, _, _ in pivots) if stop >= size else None


def _cpsd(table, d: int, pivots, leading: int) -> CpsdReport:
    rank = _rank(pivots, leading, d * (d + 3) // 2)  # G_d: the monomials of degree 1..d
    return CpsdReport(rank is not None and _faces_ok(table), d, rank)


def check_cpsd(table: CumulantTable, d: int) -> CpsdReport:
    """Positivity of the cumulant Gram form on monomials of degree 1..d.

    The form pairs s^(m1) t^(n1) with s^(m2) t^(n2) through the entry at
    (m1+m2, n1+n2). The table is decided by the pivot signs of G_d, read
    to the leading stop of the one elimination per table and window, kept
    on the table and shared by the three calls (_eliminate, which takes
    G_{d+1} when the table's degree allows). Degenerate faces are handled
    separately: a vanishing (2,0) entry forces every entry of order >= 2
    touching the left face to vanish (Cauchy-Schwarz), and symmetrically
    for (0,2); the window alone could miss violations beyond it. An empty window (d < 1) raises
    DegreeError instead of passing vacuously.
    """
    _check_window(table, d, 2 * d)
    _, _, _, pivots, leading, _ = _elimination(table, d)
    return _cpsd(table, d, pivots, leading)


@dataclass(frozen=True)
class FlatnessReport:
    """check_cond_bounded's verdict on a window.

    certified: G_{d+1} is positive and flat over G_d, rank_next == rank
    (Curto-Fialkow, Mem. AMS 568, 1996), so the classes of the window span
    the quotient and multiplication by s and by t map it into itself. A
    positive table that is not flat is not shown unbounded: nothing is
    certified at this window, and a larger one may certify it. rank (of
    G_d) and rank_next (of G_{d+1}) are None where a pivot refused
    positivity first.
    """

    certified: bool
    rank: int | None
    rank_next: int | None
    degree_window: int

    @property
    def ok(self) -> bool:
        return self.certified

    def to_jsonable(self):
        return asdict(self)


def _flatness(d: int, mono, pivots, full: int) -> FlatnessReport:
    rank, rank_next = _rank(pivots, full, d * (d + 3) // 2), _rank(pivots, full, len(mono))
    return FlatnessReport(rank is not None and rank == rank_next, rank, rank_next, d)


def check_cond_bounded(table: CumulantTable, d: int) -> FlatnessReport:
    """Whether the shifts act as bounded symmetric operators on the quotient.

    The elimination of G_{d+1} decides it, read to its full stop: the
    window certifies the table when G_{d+1} is positive with the rank of
    G_d. It is the one elimination per table and window, kept on the table
    and shared by the three calls (_eliminate).
    """
    _check_window(table, d, 2 * d + 2)
    _, _, mono, pivots, _, full = _elimination(table, d)
    return _flatness(d, mono, pivots, full)


def _whitened_model(scale, common, mono, pivots) -> tuple:
    """(f, g, T1, T2) of a flat elimination in the orthonormal basis of its kept classes.

    With G_BB = L D L^T on the kept monomials B and D_j = delta_j / delta_{j-1},
    f_j = (L^-1 G_{B,s})_j / sqrt(D_j), g likewise from t, and
    T1 = D^-1/2 L^-1 G^(1,0)_BB L^-T D^-1/2. Column q of G^(1,0)_BB is the
    Gram's column of s q, so row j of delta_{j-1} L^-1 G^(1,0)_BB is read
    off pivot j's row. Replaying the pivots' steps on that row gives
    w_ij = delta_{i-1} delta_{j-1} (L^-1 G^(1,0)_BB L^-T)_ij. Undoing the
    clearing, whose powers of L cancel but one and whose c cancels in T, gives
    f_j = row_j[s] / (L sqrt(c delta_{j-1} delta_j)) and
    T1_ij = w_ij / (L sqrt(delta_{i-1} delta_i delta_{j-1} delta_j)).
    Everything is exact integers until that last division, which is
    rounded once to float before its square root. w is symmetric for a
    rational table; a float table's null columns are read as 0 only within
    PIVOT_TOL, so T1 takes the mean (w_ij + w_ji) / 2, which is w_ij
    bit for bit when the two are equal.
    """
    kept = [k for k, _, _ in pivots]
    minors = [1] + [pivot for _, _, pivot in pivots]
    dim = len(kept)
    products = [minors[j] * minors[j + 1] for j in range(dim)]
    square = scale * scale
    index = {p: i for i, p in enumerate(mono)}

    def entry(j, column):  # delta_{j-1} (L^-1 G)_{j, column}
        k, row, _ = pivots[j]
        return row[column] if column >= k else 0

    def lower(column):  # delta_{i-1} (L^-1 y)_i for an integer column y over B
        y = list(column)
        for k in range(dim):
            for i in range(k + 1, dim):
                y[i] = (minors[k + 1] * y[i] - entry(k, kept[i]) * y[k]) // minors[k]
        return y

    def to_float(value, denominator):  # value / sqrt(denominator); int / int rounds once
        root = math.sqrt(value * value / denominator)
        return root if value >= 0 else -root

    def vector(key):
        return [to_float(entry(j, index[key]), square * common * products[j])
                for j in range(dim)]

    def face(a, b):
        shifted = [index[(m + a, n + b)] for m, n in (mono[k] for k in kept)]
        w = [lower([entry(j, c) for c in shifted]) for j in range(dim)]
        return [[to_float(w[i][j] + w[j][i], 4 * square * products[i] * products[j])
                 for j in range(dim)] for i in range(dim)]

    return vector((1, 0)), vector((0, 1)), face(1, 0), face(0, 1)


def gns_reconstruct(table: CumulantTable, d: int) -> FockModel:
    """Finite-dimensional model from the cumulant Gram form.

    The model space is the quotient of the monomials of degree 1..d by the
    form's null space, with an orthonormal basis; T1 and T2 are the two
    shifts compressed onto it, and f and g the classes of the two
    coordinate monomials; the scalar parts are the first-order cumulants.
    The model reproduces the table on the window and, when the window
    saturates the quotient (every atomic case here), on all degrees.

    The model is read off the elimination of G_{d+1}, the one elimination
    per table and window, kept on the table and shared by the three calls
    (_eliminate): the table must be positive on G_d and flat, and the model
    whitens the kept pivots (_whitened_model), so its floats are exact
    values rounded at the end. Both gates decide first, as check_cpsd and
    check_cond_bounded would, positivity on degree 2d before degree 2d + 2
    is required, raising RealizabilityError on a refusal; an empty window
    d < 1 raises DegreeError.
    """
    _check_window(table, d, 2 * d)
    scale, common, mono, pivots, leading, full = _elimination(table, d)
    cpsd = _cpsd(table, d, pivots, leading)
    if not cpsd.ok:
        raise RealizabilityError(f"not conditionally positive: {cpsd}")
    _check_window(table, d, 2 * d + 2)
    flat = _flatness(d, mono, pivots, full)
    if not flat.certified:
        refused = f"positivity refused on degree {2 * d + 2}: " if flat.rank_next is None else ""
        raise RealizabilityError(f"nothing certified at this window: {refused}{flat}")
    return _fock().FockModel.from_arrays(*_whitened_model(scale, common, mono, pivots),
                                         float(table.get(1, 0)), float(table.get(0, 1)),
                                         kind=scalars.FLOAT)


def _jacobi(matrix) -> list:
    """Eigenvectors (the columns) of a symmetric float matrix by cyclic Jacobi rotations.

    The rotation in the plane (p, q) zeroes entry (p, q): with
    theta = (a_qq - a_pp) / (2 a_pq), t = sign(theta) / (|theta| + sqrt(theta^2 + 1))
    is the smaller root of t^2 + 2 theta t = 1, c = 1 / sqrt(t^2 + 1) and
    s = t c (Golub-Van Loan, Matrix Computations, 8.5). Sweeps over every
    plane stop once the off-diagonal squares sum to at most 1e-30 of all
    the squares, or after JACOBI_SWEEPS; extract_levy_measures checks the
    result against DIAG_RESIDUAL_TOL either way.
    """
    n = len(matrix)
    a = [list(row) for row in matrix]
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    total = sum(x * x for row in a for x in row)
    for _ in range(JACOBI_SWEEPS):
        if sum(a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)) <= 1e-30 * total:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p][q] == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in a + v:  # the columns p and q of a J and of v J
                    x, y = row[p], row[q]
                    row[p], row[q] = c * x - s * y, s * x + c * y
                # the rows p and q of J^T (a J)
                a[p], a[q] = ([c * x - s * y for x, y in zip(a[p], a[q])],
                              [s * x + c * y for x, y in zip(a[p], a[q])])
                a[p][q] = a[q][p] = 0.0
    return v


def extract_levy_measures(model: FockModel) -> LevyHincinData:
    """Levy-Hincin triple of a commuting model by joint diagonalization.

    Diagonalizes T1 + gamma T2 by Jacobi rotations for a gamma from
    random.Random(0) and checks both matrices come out diagonal, retrying
    with a fresh gamma up to five times (only finitely many gammas merge
    distinct eigenvalue pairs). Each basis vector u_k gives an eigenvalue
    pair (s_k, t_k), f_k = <f, u_k> and g_k = <g, u_k>; a pair at the
    origin adds [[f_k^2, f_k g_k], [f_k g_k, g_k^2]] to sigma, any other the
    atom (f_k / s_k)^2 or (g_k / t_k)^2 to nu, dividing by the larger
    coordinate, and the triple derives from (sigma, nu) and carries it.
    Pure Python floats: numpy does not load.
    """
    report = _fock().check_commutation(model)
    if not report.ok:
        raise CommutationError(f"faces do not commute: {report}")
    t1, t2 = ([[float(x) for x in row] for row in t] for t in (model.t1, model.t2))
    sizes = [max((abs(x) for row in t for x in row), default=0.0) for t in (t1, t2)]
    span = range(model.dim)

    def congruence(columns, t):  # V^T t V, V's columns given
        tv = list(zip(*([sum(map(operator.mul, row, col)) for col in columns] for row in t)))
        return [[sum(map(operator.mul, u, w)) for w in tv] for u in columns]

    rng = random.Random(0)
    for _ in range(5):
        gamma = rng.uniform(0.25, 1.75)
        columns = list(zip(*_jacobi([[x + gamma * y for x, y in zip(r1, r2)]
                                     for r1, r2 in zip(t1, t2)])))
        d1, d2 = congruence(columns, t1), congruence(columns, t2)
        off = max((abs(d[i][j]) for d in (d1, d2) for i in span for j in span if i != j),
                  default=0.0)
        if off <= DIAG_RESIDUAL_TOL * max(1.0, *sizes):
            break
    else:
        raise CommutationError(
            f"simultaneous diagonalization residual above {DIAG_RESIDUAL_TOL}")
    fh, gh = ([sum(map(operator.mul, u, map(float, x))) for u in columns]
              for x in (model.f, model.g))
    cut = lambda x, bound: x if abs(x) > bound else 0.0
    sigma, jumps = (0.0, 0.0, 0.0), []
    for k in span:
        s, t = (cut(d[k][k], DIAG_RESIDUAL_TOL * size) for d, size in zip((d1, d2), sizes))
        f, g = cut(fh[k], ATOM_WEIGHT_TOL), cut(gh[k], ATOM_WEIGHT_TOL)
        if s == t == 0.0:
            sigma = (sigma[0] + f * f, sigma[1] + f * g, sigma[2] + g * g)
        else:
            jumps.append((s, t, (f / s) ** 2 if abs(s) >= abs(t) else (g / t) ** 2))
    return LevyHincinData._from_levy(float(model.lambda1), float(model.lambda2), sigma,
                                     DiscretePlanarMeasure.from_atoms(jumps, kind=scalars.FLOAT))
