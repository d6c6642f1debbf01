"""Truncated formal power series and the two-variable transform identity.

Everything here is coefficient-level: series are truncated by total degree
and no analytic questions are asked. The reciprocal-of-the-Green-function
identity is rearranged into pole-free form before evaluation, so Laurent
terms never need to be represented: with u(z) = z / (1 + z R_a(z)) the
term zw / G(K_a(z), K_b(w)) equals
(1 + z R_a(z)) (1 + w R_b(w)) / M(u(z), v(w)), and every factor is an
honest truncated power series.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import scalars
from .cumulants import CumulantTable, MomentTable, moments_to_cumulants, table_keys
from .errors import DegreeError, SingularSeriesError


def _uni_multiply(f: tuple, g: tuple, zero) -> tuple:
    # one-variable series are coefficient tuples c_0..c_D of equal length
    out = [zero] * len(f)
    for i, a in enumerate(f):
        for j in range(len(f) - i):
            out[i + j] = out[i + j] + a * g[j]
    return tuple(out)


def _uni_reciprocal(f: tuple, kind: str) -> tuple:
    zero = scalars.zero(kind)
    if f[0] == zero:
        raise SingularSeriesError("reciprocal of a series with zero constant term")
    inv0 = scalars.one(kind) / f[0]
    out = [inv0] + [zero] * (len(f) - 1)
    for k in range(1, len(f)):
        acc = zero
        for i in range(1, k + 1):
            acc = acc + f[i] * out[k - i]
        out[k] = -inv0 * acc
    return tuple(out)


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
    out: dict = {}
    zero = scalars.zero(f.kind)
    for (m1, n1), a in f.coeffs.items():
        if a == zero:
            continue
        for (m2, n2), b in g.coeffs.items():
            if m1 + m2 + n1 + n2 > f.degree:
                continue
            key = (m1 + m2, n1 + n2)
            out[key] = out.get(key, zero) + a * b
    return BivariateSeries(f.degree, f.kind, out)


def series_reciprocal(f: BivariateSeries) -> BivariateSeries:
    """Multiplicative inverse up to the truncation degree; needs f(0,0) != 0."""
    zero = scalars.zero(f.kind)
    if f.get(0, 0) == zero:
        raise SingularSeriesError("reciprocal of a series with zero constant term")
    inv0 = scalars.one(f.kind) / f.get(0, 0)
    out = {(0, 0): inv0}
    for m, n in table_keys(f.degree, 1):
        acc = zero
        for i in range(m + 1):
            for j in range(n + 1):
                if (i, j) == (0, 0):
                    continue
                c = f.get(i, j)
                if c != zero:
                    acc = acc + c * out.get((m - i, n - j), zero)
        out[(m, n)] = -inv0 * acc
    return BivariateSeries(f.degree, f.kind, out)


def series_compose_bi(M: BivariateSeries, u: tuple, v: tuple) -> BivariateSeries:
    """Substitute u(z) for the first variable and v(w) for the second.

    u and v are coefficient tuples c_0..c_D of one-variable series, D the
    degree of M. Both must vanish at 0 so the composition is well-defined
    on truncations.
    """
    degree = M.degree
    if len(u) != degree + 1 or len(v) != degree + 1:
        raise DegreeError(f"substituted series need {degree + 1} coefficients")
    zero = scalars.zero(M.kind)
    if u[0] != zero or v[0] != zero:
        raise SingularSeriesError("substituted series must have zero constant term")
    # powers of u contribute only from z-degree >= power, so degree many suffice
    u_pows = [(scalars.one(M.kind),) + (zero,) * degree]
    v_pows = [u_pows[0]]
    for _ in range(degree):
        u_pows.append(_uni_multiply(u_pows[-1], u, zero))
        v_pows.append(_uni_multiply(v_pows[-1], v, zero))
    out: dict = {}
    for (m, n), c in M.coeffs.items():
        if c == zero:
            continue
        up, vp = u_pows[m], v_pows[n]
        for i in range(m, degree + 1):
            a = up[i]
            if a == zero:
                continue
            for j in range(n, degree + 1 - i):
                b = vp[j]
                if b == zero:
                    continue
                key = (i, j)
                out[key] = out.get(key, zero) + c * a * b
    return BivariateSeries(degree, M.kind, out)


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


def _outer_product(f: tuple, g: tuple, kind: str) -> BivariateSeries:
    out = {}
    zero = scalars.zero(kind)
    degree = len(f) - 1
    for i, a in enumerate(f):
        if a == zero:
            continue
        for j, b in enumerate(g):
            if i + j > degree:
                break
            if b != zero:
                out[(i, j)] = a * b
    return BivariateSeries(degree, kind, out)


def verify_voiculescu_identity(table: MomentTable):
    """Coefficient-level residual of the two-variable transform identity.

    Checks R(z, w) = 1 + z R_a(z) + w R_b(w) - zw / G(K_a(z), K_b(w)) on
    truncations, with the last term evaluated in pole-free form. Returns the
    maximum absolute coefficient discrepancy over total degree <= D - 1; the
    final degree is not certified because the reciprocal loses one degree of
    trustworthy information.
    """
    degree = table.degree
    if degree < 2:
        raise DegreeError("need degree >= 2")
    kind = table.kind
    cum = moments_to_cumulants(table)

    one, zero = scalars.one(kind), scalars.zero(kind)
    # 1 + z R_a(z) and 1 + w R_b(w): coefficient m holds kappa_{m,0}
    one_plus_zra = (one,) + tuple(cum.get(m, 0) for m in range(1, degree + 1))
    one_plus_wrb = (one,) + tuple(cum.get(0, n) for n in range(1, degree + 1))

    # 1 / K_a(z) = z / (1 + z R_a(z)): the reciprocal shifted up by one, vanishing at 0
    u = (zero,) + _uni_reciprocal(one_plus_zra, kind)[:-1]
    v = (zero,) + _uni_reciprocal(one_plus_wrb, kind)[:-1]

    composed = series_compose_bi(moment_series(table), u, v)
    green_term = series_multiply(_outer_product(one_plus_zra, one_plus_wrb, kind),
                                 series_reciprocal(composed))

    # The right side, 1 + z R_a(z) + w R_b(w) minus the Green term, is one at
    # the origin, kappa on the two axes and zero inside before the subtraction.
    left = r_transform_series(cum)
    worst = zero
    for m, n in table_keys(degree - 1, 0):
        base = one if m == n == 0 else left.get(m, n) if m * n == 0 else zero
        diff = abs(left.get(m, n) - (base - green_term.get(m, n)))
        if diff > worst:
            worst = diff
    return worst
