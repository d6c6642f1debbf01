"""Truncated power series on row lists: the closed-form transforms and the identity.

A two-variable series truncated at total degree D is a row list r with
r[m][n] the coefficient of z^m w^n, m + n <= D, so row m holds D - m + 1
entries; a one-variable series is a coefficient sequence c_0..c_D. Every
step is coefficient-level: no analytic questions are asked. Row lists are
internal: the coefficients of the R-transform are the cumulants, so the
public form of that series is the CumulantTable itself.

The moment-cumulant transforms of a commuting pair, rational or float, run
through the two-variable partial R-transform (Voiculescu, Free probability
for pairs of faces I, CMP 2014; analytic form in Huang-Wang, JFA 2016).
With M(z, w) the moment series, M_a, M_b its marginals, C_a(z) = 1 plus
the sum of kappa_{k,0} z^k, and R_mixed the series of the kappa_{m,n} with
m, n >= 1:

- each face is a one-variable free transform, C_a(z M_a(z)) = M_a(z);
- 1 - R_mixed(z, w) = C_a(z) C_b(w) / M(z / C_a(z), w / C_b(w)).

z = s M_a(s) inverts z / C_a(z), so substituting it, and w = t M_b(t),
turns the second relation into S M = M - M_a M_b with S(s, t) =
R_mixed(s M_a(s), t M_b(t)). A transform takes three steps: the marginal
solve (:func:`_marginal`, O(D^3)), which also tabulates the powers M_a^k
and M_b^k; the division-free recursion for S from M or M from S
(:func:`_mixed`, about D^4 / 24 multiply-adds); and the substitution
(:func:`_compose`, about as many) or its inverse (:func:`_uncompose`, two
unit-triangular solves, O(D^3)). The first-block recursion in
:mod:`bifree.cumulants` costs O(D^5). Constant terms are 1, so nothing
divides: graded integer tables stay integers, Fractions stay exact, and
floats round only in the multiply-adds.

The identity's residual (:func:`residual`) reads the second relation the
other way: from the moments and the cumulants of the first-block
recursion it forms C_a(z) C_b(w) / M(u(z), v(w)), u = z / C_a(z), with the
composition, the reciprocal and the separable product, and compares it
with 1 - R_mixed. On graded tables (entries times L^(m+n), the
substitution z -> Lz, w -> Lw) every step keeps integer coefficients, so
residual entry (m, n) is one integer over L^(m+n); float data runs the same
steps on floats.
"""

from __future__ import annotations

from operator import mul

from . import scalars
from .errors import SingularSeriesError


# The cores below run on any one number type. The integers 0 and 1 serve as
# the zero and unit of every kind, so graded tables stay ints, and floats give
# the same bits as with 0.0 and 1.0. A constant term equal to 1 is its own
# inverse, so ints never divide.

def _rows(entries: dict, degree: int) -> list:
    # a table on keys (m, n), m + n <= degree, as rows; absent keys are 0
    return [[entries.get((m, n), 0) for n in range(degree - m + 1)]
            for m in range(degree + 1)]


def _uni_multiply(f, g) -> list:
    # the product truncated at the length of f
    out = [0] * len(f)
    for i, a in enumerate(f):
        for j in range(len(f) - i):
            out[i + j] = out[i + j] + a * g[j]
    return out


def _inverse(c0):
    if c0 == 0:
        raise SingularSeriesError("reciprocal of a series with zero constant term")
    return c0 if c0 == 1 else 1 / c0


def _uni_reciprocal(f) -> list:
    inv0 = _inverse(f[0])
    out = [inv0] + [0] * (len(f) - 1)
    for k in range(1, len(f)):
        acc = 0
        for i in range(1, k + 1):
            acc = acc + f[i] * out[k - i]
        out[k] = -inv0 * acc
    return out


def _powers(f, degree: int) -> list:
    # powers[k][j] = [z^j] f^k for j <= degree - k: the coefficients of
    # (z f)^k from z^k up, all that a composition of degree <= degree reads
    powers = [[1] + [0] * degree]
    for k in range(1, degree + 1):
        powers.append(_uni_multiply(powers[-1][:degree - k + 1], f))
    return powers


def _reciprocal(rows: list) -> list:
    degree = len(rows) - 1
    inv0 = _inverse(rows[0][0])
    out = [[0] * (degree - m + 1) for m in range(degree + 1)]
    out[0][0] = inv0
    for m in range(degree + 1):
        for n in range(degree - m + 1):
            if m + n == 0:
                continue
            acc = 0
            for i in range(m + 1):
                row, back = rows[i], out[m - i]
                for j in range(n + 1):
                    c = row[j]
                    if c != 0 and i + j:
                        acc = acc + c * back[n - j]
            out[m][n] = -inv0 * acc
    return out


def _separable_product(f, g, rows: list) -> list:
    # f(z) g(w) r(z, w), term by term: coefficient (m, n) sums the products
    # (f_i g_j) r[m - i][n - j] over i, then j, ascending
    degree = len(rows) - 1
    out = [[0] * (degree - m + 1) for m in range(degree + 1)]
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j in range(degree - i + 1):
            ab = a * g[j]
            if ab == 0:
                continue
            for m in range(i, degree + 1 - j):
                row, src = out[m], rows[m - i]
                for n in range(j, degree - m + 1):
                    row[n] = row[n] + ab * src[n - j]
    return out


def _compose(rows: list, upowers: list, vpowers: list) -> list:
    # M(z u(z), w v(w)) from the power tables of u and v (see _powers): term
    # (m, n) of M adds (M[m][n] [z^(i-m)] u^m) [w^(j-n)] v^n at (i, j), term
    # by term in table-key order: float residuals round by this order, and
    # tests/test_cumulants.py pins their bits.
    degree = len(rows) - 1
    out = [[0] * (degree - i + 1) for i in range(degree + 1)]
    for total in range(degree + 1):
        for m in range(total + 1):
            n = total - m
            c = rows[m][n]
            if c == 0:
                continue
            up, vp = upowers[m], vpowers[n]
            for i in range(m, degree - n + 1):
                a = up[i - m]
                if a == 0:
                    continue
                ca, row = c * a, out[i]
                for j in range(n, degree - i + 1):
                    b = vp[j - n]
                    if b != 0:
                        row[j] = row[j] + ca * b
    return out


def _marginal(column: list, to_cumulants: bool) -> tuple:
    # One face, C(z M(z)) = M(z), coefficient by coefficient: m_n is kappa_n
    # plus the sum over 1 <= k < n of kappa_k [z^(n-k)] M^k, and M^k up to
    # z^(n-k) needs only moments below n. column holds m_0..m_D (m_0 = 1) or
    # kappa_1..kappa_D behind a placeholder at 0. Returns the moments, the
    # cumulants and powers[k][j] = [z^j] M^k for j <= D - k (as _powers).
    degree = len(column) - 1
    moments = column if to_cumulants else [1] + [0] * degree
    kappa = [0] * (degree + 1) if to_cumulants else column
    powers = [[1] + [0] * degree, moments]
    powers += [[1] + [0] * (degree - k) for k in range(2, degree + 1)]
    for n in range(1, degree + 1):
        for k in range(2, n):
            j = n - k
            powers[k][j] = sum(map(mul, moments[:j + 1], powers[k - 1][j::-1]))
        rest = sum(kappa[k] * powers[k][n - k] for k in range(1, n))
        if to_cumulants:
            kappa[n] = moments[n] - rest
        else:
            moments[n] = kappa[n] + rest
    return moments, kappa, powers


def _mixed(moments: list, mixed: list, to_mixed: bool) -> None:
    # S M = M - M_a M_b on the entries m, n >= 1, in place: M[m][n] is a_m b_n
    # plus the sum over i, j >= 1 of S[i][j] M[m-i][n-j], whose term (i, j) =
    # (m, n) is S[m][n] itself. Solving for S, that term is 0 while it sums.
    degree = len(moments) - 1
    a, b = [row[0] for row in moments], moments[0]
    for m in range(1, degree):
        for n in range(1, degree - m + 1):
            acc = 0
            for i in range(1, m + 1):
                acc += sum(map(mul, mixed[i][1:n + 1], moments[m - i][n - 1::-1]))
            if to_mixed:
                mixed[m][n] = moments[m][n] - a[m] * b[n] - acc
            else:
                moments[m][n] = a[m] * b[n] + acc


def _uncompose(rows: list, upowers: list, vpowers: list) -> list:
    # R from S(z, w) = R(z u(z), w v(w)) on the entries m, n >= 1, in place.
    # S = U^T R V with U[i][m] = [z^m] (z u)^i unit upper triangular, and V
    # alike, so two triangular solves, lowest index first, give it: W = R V
    # from S = U^T W row by row, then R from W within each row.
    degree = len(rows) - 1
    for m in range(2, degree):
        row = rows[m]
        for i in range(1, m):
            c = upowers[i][m - i]
            if c != 0:
                lower = rows[i]
                for n in range(1, degree - m + 1):
                    row[n] = row[n] - c * lower[n]
    for row in rows[1:]:
        for n in range(2, len(row)):
            row[n] = row[n] - sum(row[j] * vpowers[j][n - j] for j in range(1, n))
    return rows


def transform(given: dict, degree: int, to_cumulants: bool) -> dict:
    """The other table of a commuting pair by the closed form, on keys (m, n).

    given holds moments on m + n <= degree with (0, 0) = 1, or cumulants on
    1 <= m + n <= degree, all of one number type; one that holds only the
    n = 0 column is a one-variable sequence, and only that column returns.
    """
    rows = _rows(given, degree)
    a_moments, a_kappa, a_powers = _marginal([row[0] for row in rows], to_cumulants)
    if (0, 1) not in given:
        column = a_kappa if to_cumulants else a_moments
        return {(m, 0): column[m] for m in range(int(to_cumulants), degree + 1)}
    b_moments, b_kappa, b_powers = _marginal(rows[0], to_cumulants)
    if to_cumulants:
        mixed = [[0] * (degree - m + 1) for m in range(degree + 1)]
        _mixed(rows, mixed, to_mixed=True)
        out = _uncompose(mixed, a_powers, b_powers)
        out[0] = b_kappa
        for m in range(1, degree + 1):
            out[m][0] = a_kappa[m]
    else:
        # R_mixed alone: the faces' cumulants are in the marginals already
        rows[0] = [0] * (degree + 1)
        for row in rows[1:]:
            row[0] = 0
        mixed = _compose(rows, a_powers, b_powers)
        out = [b_moments] + [[a_moments[m]] + [0] * (degree - m) for m in range(1, degree + 1)]
        _mixed(out, mixed, to_mixed=False)
    return {(m, total - m): out[m][total - m]
            for total in range(int(to_cumulants), degree + 1) for m in range(total + 1)}


def residual(moments: dict, kappa: dict, scale: int, degree: int, kind: str):
    """The identity's largest coefficient discrepancy below total degree D.

    moments and kappa are the tables times L^(m+n), L = scale: the
    substitution z -> Lz, w -> Lw commutes with every step, and degree D,
    which the reciprocal leaves uncertified, is never formed. Entry (m, n)
    compares kappa_{m,n} with the right side 1 + z R_a(z) + w R_b(w) minus
    C_a(z) C_b(w) / M(u(z), v(w)): one at the origin, kappa on the two axes
    and zero inside before the subtraction.
    """
    top = degree - 1
    one_plus_zra = [1] + [kappa[(m, 0)] for m in range(1, top + 1)]
    one_plus_wrb = [1] + [kappa[(0, n)] for n in range(1, top + 1)]
    # u(z) = z / (1 + z R_a(z)): the powers of the reciprocal, shifted by _compose
    composed = _compose(_rows(moments, top), _powers(_uni_reciprocal(one_plus_zra), top),
                        _powers(_uni_reciprocal(one_plus_wrb), top))
    green = _separable_product(one_plus_zra, one_plus_wrb, _reciprocal(composed))
    worst = scalars.zero(kind)
    for total in range(top + 1):
        for m in range(total + 1):
            n = total - m
            left = kappa.get((m, n), 0)
            base = 1 if total == 0 else left if m * n == 0 else 0
            diff = scalars.over(abs(left - (base - green[m][n])), scale ** total, kind)
            if diff > worst:
                worst = diff
    return worst

