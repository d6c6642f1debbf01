"""Truncated formal power series and the two-variable transform identity.

Everything here is coefficient-level: series are truncated by total degree
and no analytic questions are asked. The reciprocal-of-the-Green-function
identity is rearranged into pole-free form before evaluation, so Laurent
terms never need to be represented: with u(z) = z / (1 + z R_a(z)) the
term zw / G(K_a(z), K_b(w)) equals
(1 + z R_a(z)) (1 + w R_b(w)) / M(u(z), v(w)), and every factor is an
honest truncated power series.

The identity runs on the graded tables of the transform it checks
(cumulants.graded_solve): moments and cumulants times L^(m+n), which is
the substitution z -> Lz, w -> Lw. Every series operation commutes with
it, and with constant terms 1 all of 1 + z R_a, the shifted reciprocals
u and v, M(u, v), its reciprocal and the outer product have integer
coefficients, so residual entry (m, n) is one integer over L^(m+n). When
the transform declines to clear (float data, or L^D beyond
scalars.GRADED_MAX_BITS bits), the same code runs on the values with
L = 1. The public series functions run the same coefficient cores.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scalars
from .cumulants import CumulantTable, MomentTable, graded_solve, table_keys
from .errors import DegreeError, SingularSeriesError


# The cores below run on coefficient dicts and tuples of any one number type.
# The integers 0 and 1 serve as the zero and unit of every kind, so the
# identity runs them on ints, and floats give the same bits as with 0.0 and
# 1.0. A constant term equal to 1 is its own inverse, so ints never divide.

def _uni_multiply(f: tuple, g: tuple) -> tuple:
    # one-variable series are coefficient tuples c_0..c_D of equal length
    out = [0] * len(f)
    for i, a in enumerate(f):
        for j in range(len(f) - i):
            out[i + j] = out[i + j] + a * g[j]
    return tuple(out)


def _inverse(c0):
    if c0 == 0:
        raise SingularSeriesError("reciprocal of a series with zero constant term")
    return c0 if c0 == 1 else 1 / c0


def _uni_reciprocal(f: tuple) -> tuple:
    inv0 = _inverse(f[0])
    out = [inv0] + [0] * (len(f) - 1)
    for k in range(1, len(f)):
        acc = 0
        for i in range(1, k + 1):
            acc = acc + f[i] * out[k - i]
        out[k] = -inv0 * acc
    return tuple(out)


def _multiply(f: dict, g: dict, degree: int) -> dict:
    out: dict = {}
    for (m1, n1), a in f.items():
        if a == 0:
            continue
        for (m2, n2), b in g.items():
            if m1 + m2 + n1 + n2 > degree:
                continue
            key = (m1 + m2, n1 + n2)
            out[key] = out.get(key, 0) + a * b
    return out


def _reciprocal(f: dict, degree: int) -> dict:
    inv0 = _inverse(f.get((0, 0), 0))
    out = {(0, 0): inv0}
    for m, n in table_keys(degree, 1):
        acc = 0
        for i in range(m + 1):
            for j in range(n + 1):
                if (i, j) == (0, 0):
                    continue
                c = f.get((i, j), 0)
                if c != 0:
                    acc = acc + c * out[(m - i, n - j)]
        out[(m, n)] = -inv0 * acc
    return out


def _compose(M: dict, u: tuple, v: tuple, degree: int) -> dict:
    if u[0] != 0 or v[0] != 0:
        raise SingularSeriesError("substituted series must have zero constant term")
    # powers of u contribute only from z-degree >= power, so degree many suffice
    u_pows = [(1,) + (0,) * degree]
    v_pows = [u_pows[0]]
    for _ in range(degree):
        u_pows.append(_uni_multiply(u_pows[-1], u))
        v_pows.append(_uni_multiply(v_pows[-1], v))
    out: dict = {}
    for (m, n), c in M.items():
        if c == 0 or m + n > degree:
            continue
        up, vp = u_pows[m], v_pows[n]
        for i in range(m, degree + 1):
            a = up[i]
            if a == 0:
                continue
            for j in range(n, degree + 1 - i):
                b = vp[j]
                if b == 0:
                    continue
                key = (i, j)
                out[key] = out.get(key, 0) + c * a * b
    return out


def _outer_product(f: tuple, g: tuple) -> dict:
    out = {}
    degree = len(f) - 1
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            if i + j > degree:
                break
            if b != 0:
                out[(i, j)] = a * b
    return out


@dataclass
class BivariateSeries:
    """Coefficients on (m, n) with m + n <= degree."""

    degree: int
    kind: str
    coeffs: dict = field(repr=False)

    def __post_init__(self):
        scalars.check_kind(self.kind)
        self.coeffs = {k: scalars.coerce(v, self.kind) for k, v in self.coeffs.items()}
        for (m, n) in self.coeffs:
            if m < 0 or n < 0 or m + n > self.degree:
                raise ValueError(f"index ({m}, {n}) outside degree bound {self.degree}")

    def get(self, m: int, n: int):
        return self.coeffs.get((m, n), scalars.zero(self.kind))

    def to_jsonable(self) -> dict:
        items = sorted((k, v) for k, v in self.coeffs.items() if k != (0, 0))
        return {
            "degree": self.degree,
            "kind": self.kind,
            "constant": scalars.to_jsonable(self.get(0, 0), self.kind),
            "entries": [[m, n, scalars.to_jsonable(v, self.kind)] for (m, n), v in items],
        }

    @classmethod
    def from_jsonable(cls, data) -> "BivariateSeries":
        kind = scalars.check_kind(data["kind"])
        coeffs = {(m, n): scalars.from_jsonable(v, kind) for m, n, v in data["entries"]}
        coeffs[(0, 0)] = scalars.from_jsonable(data.get("constant", 0), kind)
        return cls(int(data["degree"]), kind, coeffs)


def series_multiply(f: BivariateSeries, g: BivariateSeries) -> BivariateSeries:
    """Cauchy product truncated to the common total degree."""
    if f.degree != g.degree or f.kind != g.kind:
        raise DegreeError("series degree or kind mismatch")
    return BivariateSeries(f.degree, f.kind, _multiply(f.coeffs, g.coeffs, f.degree))


def series_reciprocal(f: BivariateSeries) -> BivariateSeries:
    """Multiplicative inverse up to the truncation degree; needs f(0,0) != 0."""
    return BivariateSeries(f.degree, f.kind, _reciprocal(f.coeffs, f.degree))


def series_compose_bi(M: BivariateSeries, u: tuple, v: tuple) -> BivariateSeries:
    """Substitute u(z) for the first variable and v(w) for the second.

    u and v are coefficient tuples c_0..c_D of one-variable series, D the
    degree of M. Both must vanish at 0 so the composition is well-defined
    on truncations.
    """
    if len(u) != M.degree + 1 or len(v) != M.degree + 1:
        raise DegreeError(f"substituted series need {M.degree + 1} coefficients")
    return BivariateSeries(M.degree, M.kind, _compose(M.coeffs, u, v, M.degree))


def r_transform_series(table: CumulantTable, degree: int | None = None) -> BivariateSeries:
    """The two-variable cumulant generating series, zero constant term."""
    degree = table.degree if degree is None else degree
    if degree > table.degree:
        raise DegreeError("requested degree exceeds table degree")
    coeffs = {(m, n): v for (m, n), v in table.entries.items() if m + n <= degree}
    return BivariateSeries(degree, table.kind, coeffs)


def moment_series(table: MomentTable) -> BivariateSeries:
    """Moment generating series including the constant 1."""
    return BivariateSeries(table.degree, table.kind, dict(table.entries))


def verify_voiculescu_identity(table: MomentTable):
    """Coefficient-level residual of the two-variable transform identity.

    Checks R(z, w) = 1 + z R_a(z) + w R_b(w) - zw / G(K_a(z), K_b(w)) on
    truncations, with the last term evaluated in pole-free form. Returns the
    maximum absolute coefficient discrepancy over total degree <= D - 1; the
    final degree is not certified because the reciprocal loses one degree of
    trustworthy information.
    """
    if table.degree < 2:
        raise DegreeError("need degree >= 2")
    scale, moments, kappa = graded_solve(table.entries, table.degree, to_cumulants=True)
    return _residual(moments, kappa, scale, table.degree, table.kind)


def _residual(moments: dict, kappa: dict, scale: int, degree: int, kind: str):
    # The identity on tables scaled by L^(m+n) (L = scale): the substitution
    # z -> Lz, w -> Lw commutes with every series operation below, and the
    # uncertified degree D is never formed.
    top = degree - 1
    # 1 + z R_a(z) and 1 + w R_b(w): coefficient m holds kappa_{m,0}
    one_plus_zra = (1,) + tuple(kappa[(m, 0)] for m in range(1, top + 1))
    one_plus_wrb = (1,) + tuple(kappa[(0, n)] for n in range(1, top + 1))

    # 1 / K_a(z) = z / (1 + z R_a(z)): the reciprocal shifted up by one, vanishing at 0
    u = (0,) + _uni_reciprocal(one_plus_zra)[:-1]
    v = (0,) + _uni_reciprocal(one_plus_wrb)[:-1]

    composed = _compose(moments, u, v, top)
    green_term = _multiply(_outer_product(one_plus_zra, one_plus_wrb),
                           _reciprocal(composed, top), top)

    # The right side, 1 + z R_a(z) + w R_b(w) minus the Green term, is one at
    # the origin, kappa on the two axes and zero inside before the subtraction.
    worst = scalars.zero(kind)
    for m, n in table_keys(top, 0):
        left = kappa.get((m, n), 0)
        base = 1 if m == n == 0 else left if m * n == 0 else 0
        diff = scalars.over(abs(left - (base - green_term.get((m, n), 0))),
                            scale ** (m + n), kind)
        if diff > worst:
            worst = diff
    return worst
