"""Full Fock space over R^d and the two-faced operator model.

The model (f, g, T1, T2, lambda1, lambda2) realizes the pair

    a = l(f) + l(f)* + gauge_l(T1) + lambda1,
    b = r(g) + r(g)* + gauge_r(T2) + lambda2,

on the full Fock space over R^d. Vectors are sparse maps from words over
the letters {0..d-1} to amplitudes; the empty word is the vacuum. A face
acts on such a map in one pass over its words.

Moment tables read every entry as an inner product of vacuum powers,

    phi(a^m b^n) = <a^m b^n vac, vac> = <b^n vac, a^m vac>,

so a^k vac and b^k vac are built once for k = 0..D and each entry costs
one sparse dot product.

Rational data is cleared of denominators once per face before any power
is built: with L_a the common denominator of (f, T1, lambda1) and L_b that
of (g, T2, lambda2), the faces L_a a and L_b b have integer data, so their
vacuum powers carry Python ints and no Fraction is made on the way. Entry
(m, n) is divided back once, as <(L_b b)^n vac, (L_a a)^m vac> / (L_a^m L_b^n).
Float data is not scaled (L = 1). Moving a^m across needs only that a is
self-adjoint: l(f)* is the adjoint of l(f), and gauge_l(T1) and lambda1
are self-adjoint because T1 is symmetric and lambda1 is real (likewise
for b). The faces need not commute. No truncation enters, because a^k vac
never leaves the levels <= k; but it can hold d^k words, so a power whose
words could exceed MAX_FOCK_WORDS is refused before it is built.

Real scalars only: over the reals the mixed-inner-product condition for
commutation is automatic and all cumulants stay real.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import scalars
from .cumulants import CumulantTable, MomentTable, table_keys
from .errors import CommutationError, ShapeError, SizeLimitError

MAX_MODEL_DIM = 12
MAX_FOCK_WORDS = 2 ** 14
COMMUTATION_TOL = 1e-10  # largest float residual of check_commutation that passes
SYMMETRY_TOL = 1e-12  # how far a float T[i][j] may sit from T[j][i]


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
            for i in range(dim):
                for j in range(i + 1, dim):
                    if not scalars.close(t[i][j], t[j][i], kind, SYMMETRY_TOL):
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


def _face(amplitudes: dict, vec, mat, lam, left: bool) -> dict:
    # One pass of l(vec) + l(vec)* + gauge_l(mat) + lam over the words, or of
    # the right-handed operators when `left` is false; zero amplitudes dropped.
    creators = [(i, c) for i, c in enumerate(vec) if c]
    columns = [[(i, row[col]) for i, row in enumerate(mat) if row[col]]
               for col in range(len(mat))]
    # a new word starts from the integer 0, the zero of every kind; only the
    # sign of a float zero can differ from starting at the first term, and
    # zeros are dropped
    out: dict = {}
    get = out.get
    for word, amp in amplitudes.items():
        if lam:
            out[word] = get(word, 0) + amp * lam
        if word:
            letter, rest = (word[0], word[1:]) if left else (word[-1], word[:-1])
            if vec[letter]:
                out[rest] = get(rest, 0) + amp * vec[letter]
            for i, t in columns[letter]:
                key = (i,) + rest if left else rest + (i,)
                out[key] = get(key, 0) + amp * t
        for i, c in creators:
            key = (i,) + word if left else word + (i,)
            out[key] = get(key, 0) + amp * c
    return {w: a for w, a in out.items() if a}


def _inner(x: dict, y: dict, zero):
    if len(y) < len(x):
        x, y = y, x
    return sum((a * y[w] for w, a in x.items() if w in y), zero)


def _vacuum_powers(model: FockModel, degree: int, left: bool) -> tuple:
    # (L, [(L a)^k vac for k = 0..degree]) with L the common denominator of
    # the face's data, or the same for b; the top power can hold dim^degree
    # words, so the bound is checked before any work
    words = max(model.dim, 2) ** degree
    if words > MAX_FOCK_WORDS:
        raise SizeLimitError(f"degree {degree} over dimension {model.dim} reaches {words} "
                             f"Fock words, above the cap {MAX_FOCK_WORDS}")
    vec, mat, lam = ((model.f, model.t1, model.lambda1) if left
                     else (model.g, model.t2, model.lambda2))
    dim = model.dim
    scale, (lam, *data) = scalars.clear_denominators((lam, *vec, *(x for row in mat for x in row)))
    vec, mat = data[:dim], [data[dim * (i + 1):dim * (i + 2)] for i in range(dim)]
    powers = [{(): 1 if model.kind == scalars.RATIONAL else 1.0}]
    for _ in range(degree):
        powers.append(_face(powers[-1], vec, mat, lam, left))
    return scale, powers


def _moment(model: FockModel, left: tuple, right: tuple, m: int, n: int):
    # <(L_b b)^n vac, (L_a a)^m vac>, divided back by L_a^m L_b^n
    (scale_a, powers_a), (scale_b, powers_b) = left, right
    zero = 0 if model.kind == scalars.RATIONAL else 0.0
    return scalars.over(_inner(powers_a[m], powers_b[n], zero),
                        scale_a**m * scale_b**n, model.kind)


def vacuum_moment(model: FockModel, m: int, n: int):
    """The joint moment <a^m b^n vac, vac>, read as <b^n vac, a^m vac>.

    The same inner product of the same vacuum powers as entry (m, n) of
    moment_table_from_model, so the two agree bit for bit in float mode.
    """
    return _moment(model, _vacuum_powers(model, m, True), _vacuum_powers(model, n, False),
                   m, n)


def moment_table_from_model(model: FockModel, degree: int) -> MomentTable:
    """Vacuum moments up to total degree, each read as <b^n vac, a^m vac>."""
    left = _vacuum_powers(model, degree, True)
    right = _vacuum_powers(model, degree, False)
    entries = {(m, n): _moment(model, left, right, m, n) for m, n in table_keys(degree, 0)}
    return MomentTable(degree, model.kind, entries)


@dataclass(frozen=True)
class CommutationReport:
    ok: bool
    gauge_residual: float
    commutator_residual: float


def check_commutation(model: FockModel) -> CommutationReport:
    """Whether the two faces commute: T1 g = T2 f and T1 T2 = T2 T1.

    Over the reals the remaining condition (the mixed inner product being
    real) is automatic. Residuals are max-abs; in rational mode they are
    exact, so ok means residual zero.
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
        ok = gauge_res <= COMMUTATION_TOL and comm_res <= COMMUTATION_TOL
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
    return CumulantTable(degree, kind, entries)


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
