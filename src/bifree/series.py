"""Truncated power series on row lists: the closed-form transforms.

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

The second relation is the identity R(z, w) = 1 + z R_a(z) + w R_b(w) -
zw / G(K_a(z), K_b(w)) read at the coefficients with m, n >= 1. z = s M_a(s)
inverts z / C_a(z), so substituting it, and w = t M_b(t), turns it into
S M = M - M_a M_b with S(s, t) = R_mixed(s M_a(s), t M_b(t)). A transform
takes three steps: the marginal solve (:func:`_marginal`, O(D^3)), which
also tabulates the powers M_a^k and M_b^k; the division-free recursion for
S from M or M from S (:func:`_mixed`, about D^4 / 24 multiply-adds); and
the substitution (:func:`_compose`, about as many) or its inverse
(:func:`_uncompose`, two unit-triangular solves, O(D^3)). Constant terms
are 1, so nothing divides: graded integer tables stay integers, Fractions
stay exact, and floats round only in the multiply-adds. The first-block
recursion in :mod:`bifree.cumulants` costs O(D^5); it shares no code with
this module, and the identity's check compares the two.
"""

from __future__ import annotations

from operator import mul


# The cores below run on any one number type. The integers 0 and 1 serve as
# the zero and unit of every kind, so graded tables stay ints, and floats give
# the same bits as with 0.0 and 1.0.

def _rows(entries: dict, degree: int) -> list:
    # a table on keys (m, n), m + n <= degree, as rows; absent keys are 0
    return [[entries.get((m, n), 0) for n in range(degree - m + 1)]
            for m in range(degree + 1)]


def _compose(rows: list, upowers: list, vpowers: list) -> list:
    # M(z u(z), w v(w)) from the power tables of u and v, upowers[k][j] =
    # [z^j] u^k (see _marginal): term (m, n) of M adds (M[m][n] [z^(i-m)]
    # u^m) [w^(j-n)] v^n at (i, j), term by term in table-key order: the
    # float moments of cumulants_to_moments round by this order, and
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
    # cumulants and powers[k][j] = [z^j] M^k for j <= D - k.
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
