"""The bi-free Levy-Hincin correspondence on atomic data.

Forward direction: a triple (rho1, rho2, rho) of atomic planar measures
with t d(rho1) = s d(rho) and s d(rho2) = t d(rho) determines every
cumulant of order >= 2 by integration; first-order cumulants ride along
separately. Validation is evaluated atom by atom. lh_to_cumulants reads
the three measures' unreduced moment rows
(`DiscretePlanarMeasure.moment_rows`) and compares the formulas for each
entry on them: exactly, num1 * den2 == num2 * den1, in rational mode, so
only the entry it keeps becomes a Fraction. The coefficients of the
two-variable R-transform are the cumulants, so r_transform_from_lh returns
that CumulantTable.

Inverse direction: a GNS quotient built from the cumulant Gram form gives
a finite-dimensional operator model, and simultaneous diagonalization of
its two gauge matrices recovers the measures. Only this float inverse
(the Gram gates, gns_reconstruct, extract_levy_measures) uses numpy, and
it imports numpy on first use, so the forward direction and the rest of
the package run without loading it. The Fock layer likewise loads only in
gns_reconstruct and extract_levy_measures, which build and read a model.
Each table entry the Grams read is converted to float once per call; the
window's monomials and Gram index arrays are integer data, made once per
window and shared read-only.

Certification is windowed: positivity and boundedness are checked on the
monomials of total degree <= d, which needs table entries up to degree
2d + 2. A table can pass at one window and fail at a larger one; reports
state the window used.

Float tolerances and what each is relative to ("scale" is max(1, the
largest |entry| of the (2,0)- and (0,2)-shifted Grams)): PSD_TOL bounds
the smallest Gram eigenvalue (absolute); Gram eigenvalues <=
NULL_SPACE_TOL (absolute) are null directions; NULL_SHIFT_TOL bounds the
shifted Grams on the null directions and LEAK_TOL what escapes the
quotient, both times scale; DIAG_RESIDUAL_TOL bounds the off-diagonal
residual of the joint diagonalization times max(1, |T1|, |T2|);
FORMULA_TOL bounds how far lh_to_cumulants' formulas for one entry
disagree, times max(1, |entry|) in float mode (rational mode compares
exactly). check_cpsd treats a face as degenerate when its variance entry,
(2,0) or (0,2), is within ZERO_VARIANCE_TOL of 0, and then requires every
entry of order >= 2 on that face within DEGENERATE_FACE_TOL of 0 (both
absolute). extract_levy_measures puts no atom of rho1, rho2 or rho at the
eigenvalue pair of u_k when |<f, u_k>|, |<g, u_k>| or |<f, u_k><g, u_k>|
respectively is at most ATOM_WEIGHT_TOL (absolute). validate_lh accepts a
float triple whose relations t rho1 - s rho and s rho2 - t rho are within
RELATION_TOL of 0 at every atom, and whose rho{(0,0)}^2 exceeds
rho1{(0,0)} rho2{(0,0)} by at most RELATION_TOL (both absolute); every
command and r_transform_from_lh judge a triple by it.
"""

from __future__ import annotations

import functools
import random
from dataclasses import asdict, dataclass

from . import scalars
from .cumulants import CumulantTable, table_keys
from .errors import (CommutationError, DegreeError, InconsistentDataError,
                     RealizabilityError)
from .measures import DiscretePlanarMeasure

PSD_TOL = -1e-9
NULL_SPACE_TOL = 1e-10
NULL_SHIFT_TOL = 1e-8
LEAK_TOL = 1e-8
DIAG_RESIDUAL_TOL = 1e-8
FORMULA_TOL = 1e-10
ZERO_VARIANCE_TOL = 1e-12
DEGENERATE_FACE_TOL = 1e-10
ATOM_WEIGHT_TOL = 1e-13
RELATION_TOL = 1e-10


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
    kind = data.kind
    zero = scalars.zero(kind)
    support = {(s, t) for mu in (data.rho1, data.rho2, data.rho) for s, t, _ in mu.atoms}
    rel1_ok = rel2_ok = True
    worst = 0.0
    for s, t in sorted(support):
        w1 = data.rho1.weight_at(s, t)
        w2 = data.rho2.weight_at(s, t)
        w = data.rho.weight_at(s, t)
        r1 = t * w1 - s * w
        r2 = s * w2 - t * w
        if not scalars.close(r1, zero, kind, RELATION_TOL):
            rel1_ok = False
        if not scalars.close(r2, zero, kind, RELATION_TOL):
            rel2_ok = False
        worst = max(worst, abs(float(r1)), abs(float(r2)))
    w0 = data.rho.weight_at(zero, zero)
    bound = data.rho1.weight_at(zero, zero) * data.rho2.weight_at(zero, zero)
    atom_ok = w0 * w0 <= bound or scalars.close(w0 * w0, bound, kind, RELATION_TOL)
    positive = all(w > 0 for _, _, w in data.rho1.atoms) \
        and all(w > 0 for _, _, w in data.rho2.atoms)
    return LhValidation(rel1_ok, rel2_ok, atom_ok, positive, worst)


def lh_to_cumulants(data: LevyHincinData, degree: int) -> CumulantTable:
    """Cumulants from the Levy-Hincin triple.

    kappa_{m,n} integrates s^(m-2) t^n against rho1 when m >= 2,
    s^m t^(n-2) against rho2 when n >= 2, and s^(m-1) t^(n-1) against rho
    when m, n >= 1. Where several formulas apply they must agree; the
    measure relations guarantee it, and a disagreement raises naming the
    index. Float mode allows FORMULA_TOL times max(1, |entry|).
    """
    kind = data.kind
    exact = kind == scalars.RATIONAL
    # per measure: its unreduced rows, and L_w L_s^i and L_t^j, whose product
    # is the denominator of row entry (i, j) (1 in float mode)
    rows = []
    for mu in (data.rho1, data.rho2, data.rho):
        scale_s, scale_t, scale_w, sums = mu.moment_rows(degree - 2)
        rows.append((sums, [scale_w * scale_s**i for i in range(degree - 1)],
                     [scale_t**j for j in range(degree - 1)]))
    (sums1, left1, right1), (sums2, left2, right2), (sums, left, right) = rows
    entries: dict = {(0, 1): data.kappa01, (1, 0): data.kappa10} if degree >= 1 else {}
    for total in range(2, degree + 1):
        for m in range(total + 1):
            n = total - m
            candidates = []  # (numerator, denominator) of each formula's value
            if m >= 2:
                candidates.append((sums1[m - 2][n], left1[m - 2] * right1[n]))
            if n >= 2:
                candidates.append((sums2[m][n - 2], left2[m] * right2[n - 2]))
            if m and n:
                candidates.append((sums[m - 1][n - 1], left[m - 1] * right[n - 1]))
            num, den = candidates[0]
            # rationals compare exactly, num / den = other / other_den across
            # positive denominators; float entries reach the hundreds, so the
            # float bound scales with them
            bound = None if exact else FORMULA_TOL * max(1.0, abs(num))
            for other, other_den in candidates[1:]:
                if not (other * den == num * other_den if exact else abs(other - num) <= bound):
                    raise InconsistentDataError(
                        f"measure formulas disagree at index ({m}, {n}): "
                        f"{scalars.over(num, den, kind)} vs "
                        f"{scalars.over(other, other_den, kind)}")
            entries[(m, n)] = scalars.over(num, den, kind)
    return CumulantTable(degree, kind, entries)


@functools.lru_cache(maxsize=16)
def _window(d: int) -> tuple:
    """The window's monomials (degree 1..d, s-heavy first) and its Gram's index arrays.

    These are integer data alone, so one read-only copy per window serves
    every table and every call.
    """
    import numpy as np
    mono = tuple((m, total - m) for total in range(1, d + 1)
                 for m in range(total, -1, -1))
    ms, ns = np.array(mono, dtype=int).reshape(-1, 2).T
    rows, cols = np.add.outer(ms, ms), np.add.outer(ns, ns)
    rows.flags.writeable = cols.flags.writeable = False
    return mono, rows, cols


def _gram_source(table, d: int, top: int):
    """The window's monomials and every Gram of it, read from one float array.

    Each entry of total degree 2..top is converted to float once, into
    values[m, n]; a rational entry as numerator / denominator, the correctly
    rounded division float() makes.
    The Gram of shift (a, b) pairs s^m1 t^n1 with s^m2 t^n2 through
    values[m1 + m2 + a, n1 + n2 + b], one fancy-index; a Gram of this Hankel
    type is symmetric as built.
    """
    import numpy as np
    mono, rows, cols = _window(d)
    exact = table.kind == scalars.RATIONAL
    values = np.zeros((top + 1, top + 1))
    for m, n in table_keys(top, 2):
        value = table.entries[(m, n)]
        values[m, n] = value.numerator / value.denominator if exact else value
    return mono, lambda a=0, b=0: values[a:, b:][rows, cols]


@dataclass(frozen=True)
class CpsdReport:
    ok: bool
    min_eigenvalue: float
    degree_window: int

    def to_jsonable(self):
        return asdict(self)


def _check_window(table, d: int, need: int) -> None:
    if d < 1:
        raise DegreeError(f"Gram window d = {d} is empty and certifies nothing; "
                          f"need d >= 1 (table degree {table.degree})")
    if need > table.degree:
        raise DegreeError(f"need table degree >= {need}, have {table.degree}")


def _cpsd(table, d: int, gram: np.ndarray) -> CpsdReport:
    import numpy as np
    smallest = float(np.linalg.eigvalsh(gram)[0])
    ok = smallest >= PSD_TOL
    kind = table.kind
    zero = scalars.zero(kind)
    if ok and scalars.close(table.get(2, 0), zero, kind, ZERO_VARIANCE_TOL):
        ok = all(scalars.close(v, zero, kind, DEGENERATE_FACE_TOL)
                 for (m, n), v in table.entries.items() if m >= 1 and m + n >= 2)
    if ok and scalars.close(table.get(0, 2), zero, kind, ZERO_VARIANCE_TOL):
        ok = all(scalars.close(v, zero, kind, DEGENERATE_FACE_TOL)
                 for (m, n), v in table.entries.items() if n >= 1 and m + n >= 2)
    return CpsdReport(ok, smallest, d)


def check_cpsd(table: CumulantTable, d: int) -> CpsdReport:
    """Positivity of the cumulant Gram form on monomials of degree 1..d.

    The form pairs s^(m1) t^(n1) with s^(m2) t^(n2) through the entry at
    (m1+m2, n1+n2). Degenerate faces are handled separately: a vanishing
    (2,0) entry forces every entry of order >= 2 touching the left face to
    vanish (Cauchy-Schwarz), and symmetrically for (0,2); the eigenvalue
    window alone could miss violations beyond it. An empty window (d < 1)
    raises DegreeError instead of passing vacuously.
    """
    _check_window(table, d, 2 * d)
    _, gram_of = _gram_source(table, d, 2 * d)
    return _cpsd(table, d, gram_of())


@dataclass(frozen=True)
class BoundednessReport:
    ok: bool
    witness: float
    null_shift_residual: float
    invariance_residual: float
    degree_window: int

    def to_jsonable(self):
        return asdict(self)


def _largest(values: np.ndarray) -> float:
    # the largest |entry|; 0.0 when there is none (no null or no quotient direction)
    return float(abs(values).max(initial=0.0))


def _quotient(gram_of, gram: np.ndarray, d: int):
    """Boundedness report, quotient basis and compressed shifts S1, S2.

    The basis (columns) is orthonormal for the form on the eigenvalues
    above NULL_SPACE_TOL. Multiplication by s and by t are operators on
    the quotient only if they send null vectors to null vectors and map
    the quotient span into itself; the second condition is measured by
    comparing the true degree-two Gram against the square of the
    compressed shift (the difference is the squared norm of what escapes
    the span).
    """
    import numpy as np
    eigvals, eigvecs = np.linalg.eigh(gram)
    keep = eigvals > NULL_SPACE_TOL
    basis = eigvecs[:, keep] / np.sqrt(eigvals[keep])
    null = eigvecs[:, ~keep]
    g20, g02 = gram_of(2, 0), gram_of(0, 2)
    null_res = max(_largest(null.T @ g20 @ null), _largest(null.T @ g02 @ null))
    s1 = basis.T @ gram_of(1, 0) @ basis
    s2 = basis.T @ gram_of(0, 1) @ basis
    s1 = (s1 + s1.T) / 2.0
    s2 = (s2 + s2.T) / 2.0
    scale = max(1.0, _largest(g20), _largest(g02))
    leak = max(_largest(basis.T @ g20 @ basis - s1 @ s1),
               _largest(basis.T @ g02 @ basis - s2 @ s2),
               _largest(basis.T @ gram_of(1, 1) @ basis - (s1 @ s2 + s2 @ s1) / 2.0))
    witness = max(_largest(np.linalg.eigvalsh(s1)), _largest(np.linalg.eigvalsh(s2)), 1.0)
    ok = null_res <= NULL_SHIFT_TOL * scale and leak <= LEAK_TOL * scale
    return BoundednessReport(ok, witness, null_res, leak, d), basis, s1, s2


def check_cond_bounded(table: CumulantTable, d: int) -> BoundednessReport:
    """Whether the shifts act as bounded symmetric operators on the quotient.

    Builds the quotient space of the degree-window Gram form, compresses
    multiplication by s and by t onto it, and accepts iff null vectors stay
    null under the shifts and the shifts genuinely map the quotient into
    itself (no mass escapes the window). The witness is
    max(norm(S1), norm(S2), 1); for data carried by a measure it bounds the
    support coordinates seen by the window.
    """
    _check_window(table, d, 2 * d + 2)
    _, gram_of = _gram_source(table, d, 2 * d + 2)
    return _quotient(gram_of, gram_of(), d)[0]


def gns_reconstruct(table: CumulantTable, d: int) -> FockModel:
    """Finite-dimensional model from the cumulant Gram form.

    Eigen-truncates the Gram matrix of the monomials of degree 1..d to an
    orthonormal model space, compresses the two shifts onto it as T1 and
    T2, and reads f and g off the classes of the two coordinate monomials;
    the scalar parts are the first-order cumulants. The model reproduces
    the table on the window and, when the window saturates the quotient
    (every atomic case here), on all degrees. Both gates decide on the same
    Gram and quotient first, raising as check_cpsd and check_cond_bounded
    do; an empty window d < 1 raises DegreeError.
    """
    # the Fock layer before the Gram arrays: loaded after them, it raised a
    # `bifree gns` call's peak RSS from 31.1 to 32.1 MB
    fock = _fock()
    _check_window(table, d, 2 * d)
    mono, gram_of = _gram_source(table, d, min(table.degree, 2 * d + 2))
    gram = gram_of()
    cpsd = _cpsd(table, d, gram)
    if not cpsd.ok:
        raise RealizabilityError(f"not conditionally positive: {cpsd}")
    _check_window(table, d, 2 * d + 2)
    bounded, basis, s1, s2 = _quotient(gram_of, gram, d)
    if not bounded.ok:
        raise RealizabilityError(f"not conditionally bounded: {bounded}")
    # coordinates of the class of a monomial p: column of basis^T G e_p
    coords = basis.T @ gram
    f = coords[:, mono.index((1, 0))]
    g = coords[:, mono.index((0, 1))]
    return fock.FockModel.from_arrays(
        f.tolist(), g.tolist(), s1.tolist(), s2.tolist(),
        float(table.get(1, 0)), float(table.get(0, 1)),
        kind=scalars.FLOAT)


def extract_levy_measures(model: FockModel) -> LevyHincinData:
    """Levy-Hincin triple of a commuting model by joint diagonalization.

    Diagonalizes T1 + gamma T2 for a gamma from random.Random(0) and checks
    both matrices come out diagonal, retrying with a fresh gamma up to five
    times (only finitely many gammas merge distinct eigenvalue pairs). The
    measures put mass <f, u_k>^2, <g, u_k>^2, and <f, u_k><g, u_k> at the
    joint eigenvalue pair of each basis vector u_k.
    """
    import numpy as np
    report = _fock().check_commutation(model)
    if not report.ok:
        raise CommutationError(f"faces do not commute: {report}")
    dim = model.dim
    lam1 = float(model.lambda1)
    lam2 = float(model.lambda2)
    if dim == 0:
        empty = DiscretePlanarMeasure.from_atoms([], kind=scalars.FLOAT)
        empty_signed = DiscretePlanarMeasure.from_atoms([], signed=True, kind=scalars.FLOAT)
        return LevyHincinData(lam1, lam2, empty, empty, empty_signed, scalars.FLOAT)
    t1, t2, fvec, gvec = (np.array(x, dtype=float)
                          for x in (model.t1, model.t2, model.f, model.g))
    scale = max(1.0, _largest(t1), _largest(t2))
    rng = random.Random(0)
    basis = None
    for _ in range(5):
        gamma = rng.uniform(0.25, 1.75)
        _, vecs = np.linalg.eigh(t1 + gamma * t2)
        d1 = vecs.T @ t1 @ vecs
        d2 = vecs.T @ t2 @ vecs
        off = max(_largest(d1 - np.diag(np.diag(d1))), _largest(d2 - np.diag(np.diag(d2))))
        if off <= DIAG_RESIDUAL_TOL * scale:
            basis = vecs
            svals, tvals = np.diag(d1), np.diag(d2)
            break
    if basis is None:
        raise CommutationError(
            f"simultaneous diagonalization residual above {DIAG_RESIDUAL_TOL}")
    fh = basis.T @ fvec
    gh = basis.T @ gvec
    atoms1, atoms2, atoms = [], [], []
    for k in range(dim):
        s, t = float(svals[k]), float(tvals[k])
        if abs(fh[k]) > ATOM_WEIGHT_TOL:
            atoms1.append((s, t, float(fh[k] ** 2)))
        if abs(gh[k]) > ATOM_WEIGHT_TOL:
            atoms2.append((s, t, float(gh[k] ** 2)))
        if abs(fh[k] * gh[k]) > ATOM_WEIGHT_TOL:
            atoms.append((s, t, float(fh[k] * gh[k])))
    return LevyHincinData(
        lam1, lam2,
        DiscretePlanarMeasure.from_atoms(atoms1, kind=scalars.FLOAT),
        DiscretePlanarMeasure.from_atoms(atoms2, kind=scalars.FLOAT),
        DiscretePlanarMeasure.from_atoms(atoms, signed=True, kind=scalars.FLOAT),
        scalars.FLOAT)


def r_transform_from_lh(data: LevyHincinData, degree: int) -> CumulantTable:
    """The R-transform of the triple to total degree `degree`, as its cumulants.

    The coefficients of R(z, w) are the cumulants: z R_1(z) is the pure-z
    row (rho1 moments), w R_2(w) the pure-w column (rho2), and the mixed
    kernel zw/((1-zs)(1-wt)) integrated against rho fills the interior. So
    it is lh_to_cumulants(data, degree), after the triple passes
    validate_lh; coefficient (m, n) is the table's entry (m, n).
    """
    check = validate_lh(data)
    if not check.ok:
        raise RealizabilityError(f"triple fails validation: {check}")
    return lh_to_cumulants(data, degree)
