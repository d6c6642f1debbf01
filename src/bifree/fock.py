"""Full Fock space over R^d and the two-faced operator model.

The model (f, g, T1, T2, lambda1, lambda2) realizes the pair

    a = l(f) + l(f)* + gauge_l(T1) + lambda1,
    b = r(g) + r(g)* + gauge_r(T2) + lambda2,

on the full Fock space over R^d, whose words the left operators read at
the first letter and the right ones at the last. Moving a^m across needs
only that a is self-adjoint (T1 is symmetric and lambda1 real; likewise
for b), so the faces need not commute and

    phi(a^m b^n) = <a^m b^n vac, vac> = <b^n vac, a^m vac>.

No Fock vector is built. A word is a stack for each face, topped by its
first letter for a and by its last for b, and each step of a face is a
push, a pop, a gauge step on the top letter or a scalar step. A letter
pushed by a face with vector v and gauge T is on top for a stretch of
steps; h[k][e] weighs a stretch of k steps, e of them gauge steps on the
letter, which then reads u_e = T^e v. Splitting on the first step,

    h[k][e] = lambda h[k-1][e] + h[k-1][e-1] + sum_{j>=2} X_j h[k-j][e],

where X_j = sum_e h[j-2][e] <u_e, v> is a complete excursion of j steps
(push, stretch, pop). The empty stack has the same recursion without
gauge steps, since gauge_l(T) vac = 0, so its stretch is h[k][0]. The
letters a^m vac and b^n vac leave behind pair up, a's top with b's
bottom, each pair weighing

    P[k][l] = sum_{e,e'} h_a[k-1][e] h_b[l-1][e'] <T1^e f, T2^e' g>,

so phi(a^m b^n) = [z^m w^n] H_a(z) H_b(w) Q(z, w) with H(z) the vacuum
stretches and Q = sum_j P^j = 1 + P Q, solved without division. That is
O(D dim^2 + D^4) for a table of degree D, which is capped at the
transforms' TRANSFORM_MAX_DEGREE.

Rational data is cleared of denominators once per face: with L_a the
common denominator of (f, T1, lambda1) and L_b that of (g, T2, lambda2),
the kernel runs on the integer data of L_a a and L_b b, making no
Fraction on the way, and entry (m, n) is divided back once by
L_a^m L_b^n. Float data is not scaled (L = 1).

Real scalars only: over the reals the mixed-inner-product condition for
commutation is automatic and all cumulants stay real. check_commutation
compares a float model's residuals with COMMUTATION_TOL times the scale of
the products they difference: |T1| |g| + |T2| |f| for T1 g - T2 f, and
dim |T1| |T2| for T1 T2 - T2 T1, each |x| the largest absolute entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .cumulants import CumulantTable, MomentTable, check_degree, table_keys
from .errors import CommutationError, ShapeError

MAX_MODEL_DIM = 12
COMMUTATION_TOL = 1e-10  # check_commutation's float residuals, relative to the model's scale
SYMMETRY_TOL = 1e-12  # how far a float T[i][j] may sit from T[j][i], relative to max|T|


def _dot(x, y):
    return sum((a * b for a, b in zip(x, y)), start=x[0] * 0) if x else 0


def _matvec(mat, x):
    return tuple(_dot(row, x) for row in mat)


def _mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                 for i in range(n))


@dataclass(frozen=True)
class FockModel:
    """Data (f, g, T1, T2, lambda1, lambda2) of a two-faced operator pair."""

    dim: int
    f: tuple
    g: tuple
    t1: tuple
    t2: tuple
    lambda1: object
    lambda2: object
    kind: str = scalars.RATIONAL

    @classmethod
    def from_arrays(cls, f, g, t1, t2, lambda1=0, lambda2=0,
                    kind=scalars.RATIONAL) -> "FockModel":
        scalars.check_kind(kind)
        f = tuple(scalars.coerce(x, kind) for x in f)
        g = tuple(scalars.coerce(x, kind) for x in g)
        dim = len(f)
        if dim > MAX_MODEL_DIM:
            raise ValueError(f"model dimension {dim} exceeds cap {MAX_MODEL_DIM}")
        if len(g) != dim:
            raise ShapeError("f and g must have equal length")
        t1 = tuple(tuple(scalars.coerce(x, kind) for x in row) for row in t1)
        t2 = tuple(tuple(scalars.coerce(x, kind) for x in row) for row in t2)
        for name, t in (("T1", t1), ("T2", t2)):
            if len(t) != dim or any(len(row) != dim for row in t):
                raise ShapeError(f"{name} must be {dim}x{dim}")
            bound = SYMMETRY_TOL * max((abs(x) for row in t for x in row), default=0.0) \
                if kind == scalars.FLOAT else 0.0
            for i in range(dim):
                for j in range(i + 1, dim):
                    if not scalars.close(t[i][j], t[j][i], kind, bound):
                        raise ShapeError(f"{name} is not symmetric")
        return cls(dim, f, g, t1, t2, scalars.coerce(lambda1, kind),
                   scalars.coerce(lambda2, kind), kind)

    def to_jsonable(self) -> dict:
        enc = lambda x: scalars.to_jsonable(x, self.kind)
        return {
            "dim": self.dim,
            "f": [enc(x) for x in self.f],
            "g": [enc(x) for x in self.g],
            "T1": [[enc(x) for x in row] for row in self.t1],
            "T2": [[enc(x) for x in row] for row in self.t2],
            "lambda1": enc(self.lambda1),
            "lambda2": enc(self.lambda2),
            "kind": self.kind,
        }

    @classmethod
    def from_jsonable(cls, data, kind=scalars.RATIONAL) -> "FockModel":
        """A model document in its own "kind", or in `kind` when it states none."""
        kind = scalars.check_kind(data.get("kind", kind))
        dec = lambda v: scalars.from_jsonable(v, kind)
        return cls.from_arrays(
            [dec(x) for x in data["f"]], [dec(x) for x in data["g"]],
            [[dec(x) for x in row] for row in data["T1"]],
            [[dec(x) for x in row] for row in data["T2"]],
            dec(data["lambda1"]), dec(data["lambda2"]), kind)


def _stretches(vec, mat, lam, degree: int) -> tuple:
    # (h, u) for one face's cleared data (v, T, lambda): h[k][e] weighs k steps
    # taken while a letter this face pushed is on top of the stack, e of them
    # gauge steps on it, so that it reads u[e] = T^e v; a letter that is
    # popped or paired takes at most degree - 2 gauge steps
    u = [vec]
    for _ in range(degree - 2):
        u.append(_matvec(mat, u[-1]))
    pops = [_dot(x, vec) for x in u]  # <u_e, v>: popping a letter gauged e times
    h, excursions = [[1]], [0]
    for k in range(1, degree + 1):
        # a complete excursion of k steps: a push, a stretch of k - 2, a pop
        excursions.append(_dot(h[k - 2], pops) if k >= 2 else 0)
        row = [lam * w for w in h[k - 1]] + [0]  # first step scalar,
        for e, w in enumerate(h[k - 1]):  # or a gauge step,
            row[e + 1] += w
        for j in range(2, k + 1):  # or an excursion of j steps
            for e, w in enumerate(h[k - j]):
                row[e] += excursions[j] * w
        h.append(row)
    return h, u


def moment_table_from_model(model: FockModel, degree: int) -> MomentTable:
    """Vacuum moments up to total degree, by stretches and pairings of letters."""
    check_degree(degree)
    dim, faces = model.dim, []
    for vec, mat, lam in ((model.f, model.t1, model.lambda1),
                          (model.g, model.t2, model.lambda2)):
        scale, (lam, *data) = scalars.clear_denominators(
            (lam, *vec, *(x for row in mat for x in row)))
        vec, mat = data[:dim], [data[dim * (i + 1):dim * (i + 2)] for i in range(dim)]
        faces.append((scale, *_stretches(vec, mat, lam, degree)))
    (scale_a, h_a, u_a), (scale_b, h_b, u_b) = faces
    # a letter of a, k steps from its push on, paired with a letter of b, l steps
    gram = [[_dot(x, y) for y in u_b] for x in u_a]
    pair = {(k, l): sum(x * y * gram[e][f] for e, x in enumerate(h_a[k - 1])
                        for f, y in enumerate(h_b[l - 1]))
            for k, l in table_keys(degree, 2) if k and l}
    # chains of paired letters: Q = sum_j P^j, solved as Q = 1 + P Q
    chains = {(0, 0): 1}
    for m, n in table_keys(degree, 1):
        chains[(m, n)] = sum(pair[(k, l)] * chains[(m - k, n - l)]
                             for k in range(1, m + 1) for l in range(1, n + 1))
    # the vacuum stretches are h[i][0]: a stretch with no gauge step on its
    # letter has the recursion of the empty stack, which a gauge step kills
    entries = {(m, n): scalars.over(
        sum(h_a[i][0] * h_b[j][0] * chains[(m - i, n - j)]
            for i in range(m + 1) for j in range(n + 1)),
        scale_a**m * scale_b**n, model.kind) for m, n in table_keys(degree, 0)}
    return MomentTable._unchecked(degree, model.kind, entries)


def vacuum_moment(model: FockModel, m: int, n: int):
    """The joint moment <a^m b^n vac, vac>: entry (m, n) of the table of degree m + n.

    An entry does not depend on the table's degree, so the two agree bit
    for bit in float mode.
    """
    return moment_table_from_model(model, m + n).get(m, n)


@dataclass(frozen=True)
class CommutationReport:
    ok: bool
    gauge_residual: float
    commutator_residual: float


def check_commutation(model: FockModel) -> CommutationReport:
    """Whether the two faces commute: T1 g = T2 f and T1 T2 = T2 T1.

    Over the reals the remaining condition (the mixed inner product being
    real) is automatic. Residuals are max-abs; in rational mode they are
    exact, so ok means residual zero. A float model's are held to
    COMMUTATION_TOL times the scale of the products they difference (module
    docstring), so a dilation of the model leaves the verdict alone.
    """
    diff_vec = [a - b for a, b in zip(_matvec(model.t1, model.g), _matvec(model.t2, model.f))]
    p12 = _mat_mul(model.t1, model.t2)
    p21 = _mat_mul(model.t2, model.t1)
    diff_mat = [p12[i][j] - p21[i][j] for i in range(model.dim) for j in range(model.dim)]
    gauge_res = max((abs(float(x)) for x in diff_vec), default=0.0)
    comm_res = max((abs(float(x)) for x in diff_mat), default=0.0)
    if model.kind == scalars.RATIONAL:
        ok = all(x == 0 for x in diff_vec) and all(x == 0 for x in diff_mat)
    else:
        largest = lambda xs: max((abs(float(x)) for x in xs), default=0.0)
        t1, t2 = (largest(x for row in t for x in row) for t in (model.t1, model.t2))
        f, g = largest(model.f), largest(model.g)
        ok = (gauge_res <= COMMUTATION_TOL * (t1 * g + t2 * f)
              and comm_res <= COMMUTATION_TOL * model.dim * t1 * t2)
    return CommutationReport(ok, gauge_res, comm_res)


def model_cumulants(model: FockModel, degree: int) -> CumulantTable:
    """Closed-form cumulants of a commuting model.

    kappa_{1,0} = lambda1, kappa_{0,1} = lambda2,
    kappa_{m,0} = <T1^(m-2) f, f> for m >= 2 (likewise the right face), and
    kappa_{m,n} = <T1^(m-1) f, T2^(n-1) g> for m, n >= 1.
    """
    report = check_commutation(model)
    if not report.ok:
        raise CommutationError(f"faces do not commute: {report}")
    kind = model.kind
    # iterated images T1^k f and T2^k g, k = 0..degree-1
    t1f = [model.f]
    t2g = [model.g]
    for _ in range(degree - 1):
        t1f.append(_matvec(model.t1, t1f[-1]))
        t2g.append(_matvec(model.t2, t2g[-1]))
    zero = scalars.zero(kind)
    entries: dict = {}
    for m, n in table_keys(degree, 1):
        if (m, n) == (1, 0):
            value = model.lambda1
        elif (m, n) == (0, 1):
            value = model.lambda2
        elif n == 0:
            value = _dot(t1f[m - 2], model.f) if model.dim else zero
        elif m == 0:
            value = _dot(t2g[n - 2], model.g) if model.dim else zero
        else:
            value = _dot(t1f[m - 1], t2g[n - 1]) if model.dim else zero
        entries[(m, n)] = value
    return CumulantTable._unchecked(degree, kind, entries)


def levy_marginal_model(model: FockModel, t) -> FockModel:
    """Time-t marginal of the stationary-increment process through the model.

    Scaling (f, g) by sqrt(t) and the scalar parts by t multiplies every
    cumulant by t, which reproduces the marginal distribution of the
    continuous-time increment construction at cumulant level; at t = 1/n
    it is the summand whose n-fold bi-free sum is the model. The result
    has the model's kind, so a rational model takes only a t whose square
    root is rational (t = 1/4, 9/4, ...); any other t raises ValueError
    naming t, and a float copy of the model takes it.
    """
    t = scalars.coerce(t, model.kind)
    try:
        root = scalars.exact_sqrt(t)
    except ValueError as exc:
        raise ValueError(f"time t = {t} does not rescale a {model.kind} model: {exc}") from None
    return FockModel.from_arrays([x * root for x in model.f], [x * root for x in model.g],
                                 model.t1, model.t2, model.lambda1 * t, model.lambda2 * t,
                                 model.kind)
