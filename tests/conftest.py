"""Shared random generators for the test suite.

Everything is seeded; rational generators keep all downstream arithmetic
exact so equality assertions can be strict.
"""

import contextlib
import random
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest

from bifree import scalars
from bifree.cumulants import CumulantTable, MomentTable, table_keys
from bifree.errors import ShapeError, UnsupportedMeasureError
from bifree.fock import FockModel
from bifree.levy_hincin import LevyHincinData
from bifree.measures import DiscretePlanarMeasure

FIRST = "first"
SECOND = "second"

# rational rotation pairs (cos, sin) from Pythagorean triples
ROTATIONS = [
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(7, 25), Fraction(24, 25)),
]


def rational(rng, lo=-3, hi=3, max_den=4) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def nonzero_rational(rng, lo=-3, hi=3, max_den=4) -> Fraction:
    while True:
        value = rational(rng, lo, hi, max_den)
        if value != 0:
            return value


def block_side_counts(block, left_count):
    """Split a block of positions in the word a^m b^n into (a-count, b-count)."""
    a = bisect_right(block, left_count)
    return a, len(block) - a


def random_moment_table(rng, degree):
    entries = {(0, 0): Fraction(1)}
    for total in range(1, degree + 1):
        for m in range(total + 1):
            entries[(m, total - m)] = rational(rng)
    return MomentTable(degree, scalars.RATIONAL, entries)


def random_cumulant_table(rng, degree):
    entries = {(m, total - m): rational(rng)
               for total in range(1, degree + 1) for m in range(total + 1)}
    return CumulantTable(degree, scalars.RATIONAL, entries)


def random_planar_measure(rng, natoms=3) -> DiscretePlanarMeasure:
    """Random rational probability measure with distinct atoms."""
    coords = set()
    while len(coords) < natoms:
        coords.add((rational(rng, -2, 2, 3), rational(rng, -2, 2, 3)))
    weights = [Fraction(rng.randint(1, 5)) for _ in range(natoms)]
    total = sum(weights)
    atoms = [(s, t, w / total) for (s, t), w in zip(sorted(coords), weights)]
    return DiscretePlanarMeasure.from_atoms(atoms)


def random_line_measure(rng, natoms=2, axis=FIRST) -> DiscretePlanarMeasure:
    """Random rational probability measure on one coordinate axis."""
    coords = set()
    while len(coords) < natoms:
        coords.add(rational(rng, -2, 2, 3))
    weights = [Fraction(rng.randint(1, 5)) for _ in range(natoms)]
    total = sum(weights)
    return DiscretePlanarMeasure.from_atoms(
        [(x, 0, w / total) if axis == FIRST else (0, x, w / total)
         for x, w in zip(sorted(coords), weights)])


# -- marginals, products and the zero table: test data the library never builds -

def marginal(mu: DiscretePlanarMeasure, axis: str) -> DiscretePlanarMeasure:
    """Pushforward onto one coordinate axis: atoms (s, 0, w) or (0, t, w).

    Atoms with equal coordinate on that axis merge.
    """
    if mu.signed:
        raise UnsupportedMeasureError("marginal of a signed measure is not supported")
    if axis not in (FIRST, SECOND):
        raise ValueError(f"axis must be {FIRST!r} or {SECOND!r}")
    atoms = [(s, 0, w) if axis == FIRST else (0, t, w) for s, t, w in mu.atoms]
    return DiscretePlanarMeasure.from_atoms(atoms, kind=mu.kind)


def product_measure(nu1: DiscretePlanarMeasure,
                    nu2: DiscretePlanarMeasure) -> DiscretePlanarMeasure:
    """Product of nu1's first coordinate and nu2's second; its moments factorize.

    Entry (m, n) of its moment table is nu1.moment(m, 0) * nu2.moment(0, n).
    """
    if nu1.kind != nu2.kind:
        raise ValueError("factors must share a scalar kind")
    atoms = [(s, t, w1 * w2) for s, _, w1 in nu1.atoms for _, t, w2 in nu2.atoms]
    return DiscretePlanarMeasure.from_atoms(atoms, kind=nu1.kind)


def zero_cumulants(degree: int, kind: str = scalars.RATIONAL) -> CumulantTable:
    """The cumulant table of degree `degree` with every entry 0."""
    z = scalars.zero(kind)
    return CumulantTable(degree, kind, dict.fromkeys(table_keys(degree, 1), z))


def rational_orthogonal(rng, dim):
    """Product of rational Givens rotations; exactly orthogonal."""
    mat = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        if dim < 2:
            break
        i, j = rng.sample(range(dim), 2)
        c, s = rng.choice(ROTATIONS)
        if rng.random() < 0.5:
            s = -s
        for row in mat:
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    return mat


def random_commuting_model(rng, dim, with_scalars=True) -> FockModel:
    """Commuting rational model: joint diagonal gauges conjugated by Q.

    In the eigenbasis T1 = diag(s), T2 = diag(t), and g is chosen with
    s_k g_k = t_k f_k; conjugation by a rational orthogonal Q preserves
    everything exactly.
    """
    svals = [nonzero_rational(rng, -2, 2, 2) for _ in range(dim)]
    tvals = [rational(rng, -2, 2, 2) for _ in range(dim)]
    fhat = [rational(rng, -2, 2, 2) for _ in range(dim)]
    ghat = [tvals[k] * fhat[k] / svals[k] for k in range(dim)]
    q = rational_orthogonal(rng, dim)

    def conj_diag(diag):
        return [[sum(q[i][k] * diag[k] * q[j][k] for k in range(dim))
                 for j in range(dim)] for i in range(dim)]

    f = [sum(q[i][k] * fhat[k] for k in range(dim)) for i in range(dim)]
    g = [sum(q[i][k] * ghat[k] for k in range(dim)) for i in range(dim)]
    lam1 = rational(rng) if with_scalars else 0
    lam2 = rational(rng) if with_scalars else 0
    return FockModel.from_arrays(f, g, conj_diag(svals), conj_diag(tvals), lam1, lam2)


def random_validated_lh(rng, natoms=3) -> LevyHincinData:
    """Random atomic triple satisfying the measure relations exactly.

    Atoms sit in general position (nonzero coordinates, distinct pairs);
    weights are tied together by c = t a / s and b = t c / s, which makes
    rho2 positive automatically.
    """
    coords = set()
    while len(coords) < natoms:
        coords.add((nonzero_rational(rng, -2, 2, 2), nonzero_rational(rng, -2, 2, 2)))
    coords = sorted(coords)
    a_weights = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in coords]
    atoms1, atoms2, atoms = [], [], []
    for (s, t), a in zip(coords, a_weights):
        c = t * a / s
        b = t * c / s
        atoms1.append((s, t, a))
        atoms2.append((s, t, b))
        atoms.append((s, t, c))
    return LevyHincinData(
        rational(rng), rational(rng),
        DiscretePlanarMeasure.from_atoms(atoms1),
        DiscretePlanarMeasure.from_atoms(atoms2),
        DiscretePlanarMeasure.from_atoms(atoms, signed=True))


def float_copy(table):
    """The table with every entry converted by float(), as a float table."""
    return type(table)(table.degree, scalars.FLOAT,
                       {key: float(value) for key, value in table.entries.items()})


def numpy_extract_levy_measures(model):
    """extract_levy_measures as numpy.linalg.eigh computed it: the Jacobi sweep's oracle.

    The same gamma draws from random.Random(0), the same DIAG_RESIDUAL_TOL
    check and the same ATOM_WEIGHT_TOL cuts; the model must commute.
    """
    from bifree.levy_hincin import ATOM_WEIGHT_TOL, DIAG_RESIDUAL_TOL
    t1, t2, fvec, gvec = (np.array(x, dtype=float) for x in (model.t1, model.t2, model.f, model.g))
    scale = max(1.0, abs(t1).max(), abs(t2).max())
    rng = random.Random(0)
    for _ in range(5):
        _, vecs = np.linalg.eigh(t1 + rng.uniform(0.25, 1.75) * t2)
        d1, d2 = vecs.T @ t1 @ vecs, vecs.T @ t2 @ vecs
        off = max(abs(d1 - np.diag(np.diag(d1))).max(), abs(d2 - np.diag(np.diag(d2))).max())
        if off <= DIAG_RESIDUAL_TOL * scale:
            break
    else:
        raise AssertionError("numpy found no joint diagonalization")
    fh, gh = vecs.T @ fvec, vecs.T @ gvec
    atoms1, atoms2, atoms = [], [], []
    for k, (s, t) in enumerate(zip(np.diag(d1), np.diag(d2))):
        s, t = float(s), float(t)
        if abs(fh[k]) > ATOM_WEIGHT_TOL:
            atoms1.append((s, t, float(fh[k] ** 2)))
        if abs(gh[k]) > ATOM_WEIGHT_TOL:
            atoms2.append((s, t, float(gh[k] ** 2)))
        if abs(fh[k] * gh[k]) > ATOM_WEIGHT_TOL:
            atoms.append((s, t, float(fh[k] * gh[k])))
    measure = lambda atoms, signed=False: DiscretePlanarMeasure.from_atoms(
        atoms, signed, scalars.FLOAT)
    return LevyHincinData(float(model.lambda1), float(model.lambda2), measure(atoms1),
                          measure(atoms2), measure(atoms, True), scalars.FLOAT)


def random_float_commuting_model(rng, dim):
    """A commuting float model and its source triple's atoms, from a seeded rng.

    Joint eigenvalue pairs (s_k, t_k) sit at least 0.05 apart in s, with
    |s_k| >= 0.25, and g_k = t_k f_k / s_k makes the faces commute; a
    random orthogonal Q (QR of a Gaussian matrix) mixes the eigenbasis.
    Returns (model, (rho1, rho2, rho) atoms as lists of (s, t, w)).
    """
    svals = sorted(rng.sample(range(5, 41), dim))
    svals = [(k / 20.0) * rng.choice((-1.0, 1.0)) for k in svals]
    tvals = [rng.uniform(-2.0, 2.0) for _ in range(dim)]
    fhat = [rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0)) for _ in range(dim)]
    ghat = [t * f / s for s, t, f in zip(svals, tvals, fhat)]
    q, _ = np.linalg.qr(np.array([[rng.gauss(0.0, 1.0) for _ in range(dim)]
                                  for _ in range(dim)]))
    conj = lambda diag: (q * diag) @ q.T
    sym = lambda mat: ((mat + mat.T) / 2.0).tolist()
    model = FockModel.from_arrays((q @ fhat).tolist(), (q @ ghat).tolist(),
                                  sym(conj(np.array(svals))), sym(conj(np.array(tvals))),
                                  kind=scalars.FLOAT)
    atoms = ([(s, t, f * f) for s, t, f in zip(svals, tvals, fhat)],
             [(s, t, g * g) for s, t, g in zip(svals, tvals, ghat)],
             [(s, t, f * g) for s, t, f, g in zip(svals, tvals, fhat, ghat)])
    return model, atoms


# -- the per-atom loops, oracles for the integer kernels ----------------------

def oracle_measure_moment(mu, m, n):
    """The integral of s^m t^n as the per-atom sum of w * s**m * t**n, in mu's kind."""
    acc = scalars.zero(mu.kind)
    for s, t, w in mu.atoms:
        acc = acc + w * s**m * t**n
    return acc


def oracle_lh_to_cumulants(data, degree):
    """Every candidate formula per entry from the per-atom sums, compared exactly.

    Rational mode only; returns the entries, or the message of the first
    disagreement in table order.
    """
    entries = {}
    for m, n in table_keys(degree, 1):
        if (m, n) in ((1, 0), (0, 1)):
            entries[(m, n)] = data.kappa10 if m else data.kappa01
            continue
        candidates = []
        if m >= 2:
            candidates.append(oracle_measure_moment(data.rho1, m - 2, n))
        if n >= 2:
            candidates.append(oracle_measure_moment(data.rho2, m, n - 2))
        if m >= 1 and n >= 1:
            candidates.append(oracle_measure_moment(data.rho, m - 1, n - 1))
        for other in candidates[1:]:
            if other != candidates[0]:
                return (f"measure formulas disagree at index ({m}, {n}): "
                        f"{candidates[0]} vs {other}")
        entries[(m, n)] = candidates[0]
    return entries


FRACTION_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                       "__truediv__", "__rtruediv__", "__pow__", "__rpow__")


@contextlib.contextmanager
def no_fraction_arithmetic():
    """Make every arithmetic operator of Fraction raise inside the block."""
    saved = {name: getattr(Fraction, name) for name in FRACTION_ARITHMETIC}

    def refuse(name):
        def method(*args):
            raise AssertionError(f"Fraction.{name} called inside an integer kernel")
        return method

    try:
        for name in FRACTION_ARITHMETIC:
            setattr(Fraction, name, refuse(name))
        yield
    finally:
        for name, method in saved.items():
            setattr(Fraction, name, method)


# -- the word maps: vacuum powers of each face, an oracle for bifree.fock -----

def face_on_words(amplitudes, vec, mat, lam, left):
    """One pass of l(vec) + l(vec)* + gauge_l(mat) + lam over a word -> amplitude map.

    The right-handed operators when `left` is false; zero amplitudes are
    dropped. A new word starts from the integer 0, the zero of every kind.
    """
    creators = [(i, c) for i, c in enumerate(vec) if c]
    columns = [[(i, row[col]) for i, row in enumerate(mat) if row[col]]
               for col in range(len(mat))]
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


def inner_on_words(x, y, zero):
    """The inner product of two word -> amplitude maps."""
    if len(y) < len(x):
        x, y = y, x
    return sum((a * y[w] for w, a in x.items() if w in y), zero)


def word_moment_table(model, degree):
    """Vacuum moments as <b^n vac, a^m vac> from the powers a^k vac and b^k vac.

    Each power is a map of up to dim^k words, built by one pass of the face
    on the one below it, on the model's own data.
    """
    one, zero = scalars.one(model.kind), scalars.zero(model.kind)
    left, right = [{(): one}], [{(): one}]
    for _ in range(degree):
        left.append(face_on_words(left[-1], model.f, model.t1, model.lambda1, True))
        right.append(face_on_words(right[-1], model.g, model.t2, model.lambda2, False))
    return {(m, n): inner_on_words(left[m], right[n], zero) for m, n in table_keys(degree, 0)}


# -- the operator-by-operator Fock engine, the oracle for bifree.fock ----------

CREATE_L, ANNIH_L, GAUGE_L = "create_l", "annih_l", "gauge_l"
CREATE_R, ANNIH_R, GAUGE_R = "create_r", "annih_r", "gauge_r"
SCALAR = "scalar"


def apply_operator(kind, payload, amplitudes, cap):
    """One creation, annihilation, gauge or scalar operator on a word -> amplitude map.

    Creation prepends (left) or appends (right) the payload vector and
    discards words that would exceed the level cap; annihilation contracts
    the first (left) or last (right) letter against the payload and kills
    the vacuum; gauge applies the payload matrix to the first or last letter
    and kills the vacuum; scalar multiplies throughout. Zero amplitudes are
    dropped.
    """
    if kind not in (CREATE_L, ANNIH_L, GAUGE_L, CREATE_R, ANNIH_R, GAUGE_R, SCALAR):
        raise ShapeError(f"unknown operator kind {kind!r}")
    out: dict = {}

    def put(word, value):
        out[word] = out.get(word, 0) + value

    for word, amp in amplitudes.items():
        if kind == SCALAR:
            put(word, amp * payload)
        elif kind in (CREATE_L, CREATE_R):
            if len(word) < cap:
                for i, c in enumerate(payload):
                    put((i,) + word if kind == CREATE_L else word + (i,), amp * c)
        elif word:
            left = kind in (ANNIH_L, GAUGE_L)
            letter, rest = (word[0], word[1:]) if left else (word[-1], word[:-1])
            if kind in (ANNIH_L, ANNIH_R):
                put(rest, amp * payload[letter])
            else:
                for i in range(len(payload)):
                    put((i,) + rest if left else rest + (i,), amp * payload[i][letter])
    return {w: a for w, a in out.items() if a}


def face_by_operators(model, amplitudes, cap, left):
    """a (or b when not left) applied as the sum of its four operators."""
    ops = (((CREATE_L, model.f), (ANNIH_L, model.f), (GAUGE_L, model.t1),
            (SCALAR, model.lambda1)) if left else
           ((CREATE_R, model.g), (ANNIH_R, model.g), (GAUGE_R, model.t2),
            (SCALAR, model.lambda2)))
    total: dict = {}
    for kind, payload in ops:
        for word, amp in apply_operator(kind, payload, amplitudes, cap).items():
            total[word] = total.get(word, 0) + amp
    return {w: a for w, a in total.items() if a}


def oracle_vacuum_moment(model, m, n, cap=None):
    """<a^m b^n vac, vac>: b applied n times, then a m times, read at the vacuum.

    The level cap defaults to m + n, which is exact: levels above m + n are
    unreachable from the vacuum in m + n applications.
    """
    cap = m + n if cap is None else cap
    state = {(): scalars.one(model.kind)}
    for _ in range(n):
        state = face_by_operators(model, state, cap, left=False)
    for _ in range(m):
        state = face_by_operators(model, state, cap, left=True)
    return state.get((), scalars.zero(model.kind))


# -- series algebra on coefficient dicts: the literal transform identity ---------
# Two-variable series are dicts {(m, n): c} truncated at a total degree, one-
# variable series coefficient tuples c_0..c_D; every loop runs over the terms.

def oracle_multiply(f, g, degree):
    """Cauchy product truncated at total degree `degree`."""
    out = {}
    for (m1, n1), a in f.items():
        for (m2, n2), b in g.items():
            if m1 + m2 + n1 + n2 <= degree:
                key = (m1 + m2, n1 + n2)
                out[key] = out.get(key, 0) + a * b
    return out


def oracle_reciprocal(f, degree):
    """The inverse up to total degree `degree`; f(0, 0) must be nonzero."""
    c0 = f.get((0, 0), 0)
    if c0 == 0:
        raise ZeroDivisionError("reciprocal of a series with zero constant term")
    out = {(0, 0): 1 / Fraction(c0)}
    for m, n in table_keys(degree, 1):
        acc = sum(f.get((i, j), 0) * out[(m - i, n - j)]
                  for i in range(m + 1) for j in range(n + 1) if i + j)
        out[(m, n)] = -out[(0, 0)] * acc
    return out


def oracle_compose(series, u, v, degree):
    """series(u(z), v(w)) for tuples u, v of degree + 1 coefficients, both 0 at 0."""
    if u[0] != 0 or v[0] != 0:
        raise ValueError("substituted series must have zero constant term")
    one = (1,) + (0,) * degree

    def power(f, k):
        out = one
        for _ in range(k):
            out = tuple(sum(out[i] * f[t - i] for i in range(t + 1)) for t in range(degree + 1))
        return out

    result = {}
    for (m, n), c in series.items():
        up, vp = power(u, m), power(v, n)
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                result[(i, j)] = result.get((i, j), 0) + c * up[i] * vp[j]
    return result


@pytest.fixture
def rng():
    return random.Random(20240817)
