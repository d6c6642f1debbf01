"""The four benchmark workloads: seeded inputs, the timed operation, its check.

Every workload builds a fixed list of inputs from its seed; a run replays
that list in the same order, pass after pass. Exact rational arithmetic
costs more as numbers grow, so the seed picks signs, numerators of like
size, positions and orders, while denominators, atom counts, dimensions
and degrees are fixed: runs on different seeds then do work of the same
size, and their timings can be compared. Checks compare each output
with a value the benchmark computes in its own code from how the input was
built, or with a property the method must have. None compares with a saved
copy of the program's output.

The program is reached through attribute lookups on the ``bifree`` package
at call time, so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ATOL = 1e-8
CHILD_TIMEOUT_S = 60

# rational rotation pairs (cos, sin) from Pythagorean triples
ROTATIONS = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
             (Fraction(8, 17), Fraction(15, 17)), (Fraction(7, 25), Fraction(24, 25)))


def bifree():
    import bifree as package
    return package


def _pick(rng, numerators, den):
    """+-n/den with the sign and n drawn by the seed."""
    return Fraction(rng.choice((-1, 1)) * rng.choice(numerators), den)


THIRDS = (1, 2, 4, 5)   # numerators prime to 3
HALVES = (1, 3)


def _distinct_points(rng, count, numerators=THIRDS, den=3):
    """`count` distinct points with coordinates +-n/den."""
    points = set()
    while len(points) < count:
        points.add((_pick(rng, numerators, den), _pick(rng, numerators, den)))
    return sorted(points)


def _jump_atoms(rng):
    """A three-atom probability measure with weights 1/6, 1/3, 1/2."""
    weights = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)]
    rng.shuffle(weights)
    return [(s, t, w) for (s, t), w in zip(_distinct_points(rng, 3), weights)]


def _close(a, b, tol=ATOL):
    return abs(float(a) - float(b)) <= tol


def _atom_errors(label, expected, found):
    """Each expected atom (s, t, w) must have a found atom within ATOL."""
    found = [tuple(float(x) for x in atom) for atom in found]
    if len(found) != len(expected):
        return [f"{label}: {len(found)} atoms, expected {len(expected)}"]
    errors = []
    for s, t, w in expected:
        nearest = min(found, key=lambda a: abs(a[0] - s) + abs(a[1] - t))
        if not all(_close(x, y) for x, y in zip(nearest, (s, t, w))):
            errors.append(f"{label}: atom {(float(s), float(t), float(w))} found as {nearest}")
    return errors


def catalan(k):
    return math.comb(2 * k, k) // (k + 1)


class Workload:
    """A closed loop with one client over a fixed, seeded list of op inputs."""

    name = ""

    def prepare(self, seed: int, work_dir: Path) -> list:
        """Build the inputs of one pass; program calls here count as set-up."""
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list[str]:
        """Reasons the output is wrong; empty when it is right."""
        raise NotImplementedError

    def warm_up(self, inputs):
        """Fill the program's caches and load lazy imports before timing."""
        self.op(inputs[0])

    def trace_op(self, inp, tracer):
        with tracer.op_span():
            return self.op(inp)

    def peak_rss_kb(self) -> int:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Batched(Workload):
    """One op runs `one` over a batch of items made to the same recipe.

    Ops are alike in cost, and a run has 50 to 90 of them: the highest
    percentile with ten samples beyond it then stays between the 80th and
    the 90th, where the host's bursts of slowness move it little.
    """

    batch = ()          # one recipe argument per item of an op
    ops_per_pass = 1

    def prepare(self, seed, work_dir):
        bf = bifree()
        rng = random.Random(f"{self.name}:{seed}")
        return [[self.item(bf, rng, recipe) for recipe in self.batch]
                for _ in range(self.ops_per_pass)]

    def warm_up(self, inputs):
        self.one(inputs[0][0])

    def op(self, inp):
        return [self.one(item) for item in inp]

    def check(self, inp, out):
        errors = []
        for item, result in zip(inp, out):
            if "want" not in item:  # the benchmark's own values, made once
                item["want"] = self.expected(item)
            errors += self.check_one(item, result, item["want"])
        return errors

    def item(self, bf, rng, recipe):
        raise NotImplementedError

    def one(self, item):
        raise NotImplementedError

    def expected(self, item) -> dict:
        raise NotImplementedError

    def check_one(self, item, result, want) -> list[str]:
        raise NotImplementedError


def _table_errors(label, table, want, exact=True):
    errors = []
    for key, value in want.items():
        got = table.get(*key)
        if (got != value) if exact else not _close(got, value):
            errors.append(f"{label} {key} is {got}, expected {value}")
    return errors


class Transforms(Batched):
    """Rational cumulant tables of total degree 7 to moments and back.

    One op takes a compound bi-free Poisson, whose jump has three rational
    atoms, and a bi-free Gaussian through both transforms, the two-variable
    transform identity, a convolution and a semigroup scaling. A pass holds
    four ops.
    """

    name = "transforms"
    degree = 7
    batch = ("poisson", "gaussian")
    ops_per_pass = 4

    def item(self, bf, rng, kind):
        if kind == "poisson":
            rate = Fraction(rng.choice((1, 3, 5)), 2)
            atoms = _jump_atoms(rng)
            jump = bf.DiscretePlanarMeasure.from_atoms(atoms)
            table = bf.compound_bifree_poisson(rate, jump, self.degree)
            return {"kind": kind, "table": table, "rate": rate, "atoms": atoms}
        # c^2 <= 25/16 < 9/4 <= s1 s2: within Cauchy-Schwarz
        s1 = Fraction(rng.choice((3, 5, 7)), 2)
        s2 = Fraction(rng.choice((3, 5, 7)), 2)
        c = _pick(rng, (1, 3, 5), 4)
        table = bf.bifree_gaussian(s1, s2, c, self.degree)
        return {"kind": kind, "table": table, "s1": s1, "s2": s2, "c": c}

    def one(self, item):
        bf = bifree()
        table = item["table"]
        moments = bf.cumulants_to_moments(table)
        return {"moments": moments, "back": bf.moments_to_cumulants(moments),
                "residual": bf.verify_voiculescu_identity(moments),
                "doubled": bf.bifree_convolve(table, table),
                "scaled": bf.semigroup_scale(table, 2)}

    def expected(self, item):
        """Cumulants, and for the Gaussian its marginal moments s^k Cat(k)."""
        keys = [(m, t - m) for t in range(1, self.degree + 1) for m in range(t + 1)]
        if item["kind"] == "poisson":
            rate, atoms = item["rate"], item["atoms"]
            return {"cumulants": {(m, n): rate * sum(w * s**m * t**n for s, t, w in atoms)
                                  for m, n in keys}}
        low = {(2, 0): item["s1"], (0, 2): item["s2"], (1, 1): item["c"]}
        moments = {}
        for j in range(1, self.degree + 1):
            for key, var in (((j, 0), item["s1"]), ((0, j), item["s2"])):
                moments[key] = var ** (j // 2) * catalan(j // 2) if j % 2 == 0 else 0
        return {"cumulants": {key: low.get(key, 0) for key in keys}, "moments": moments}

    def check_one(self, item, out, want):
        errors = _table_errors("cumulant", item["table"], want["cumulants"])
        if out["back"].entries != item["table"].entries:
            errors.append("moments -> cumulants does not return the input table")
        if out["residual"] != 0:
            errors.append(f"transform identity residual {out['residual']}")
        if out["doubled"].entries != out["scaled"].entries:
            errors.append("convolve(k, k) differs from scale(k, 2)")
        return errors + _table_errors("Gaussian moment", out["moments"], want.get("moments", {}))


def _rational_orthogonal(rng, dim):
    """Exactly orthogonal: one rational Givens rotation per plane (i, j).

    The rotations are taken from ROTATIONS in turn, so the denominators do
    not depend on the seed; the seed orders the planes and picks the signs.
    """
    mat = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    planes = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    rng.shuffle(planes)
    for k, (i, j) in enumerate(planes):
        c, s = ROTATIONS[k % len(ROTATIONS)]
        s = rng.choice((-1, 1)) * s
        for row in mat:
            row[i], row[j] = c * row[i] - s * row[j], s * row[i] + c * row[j]
    return mat


class Fock(Batched):
    """Vacuum moment tables of seeded commuting rational models, inverted.

    A model is T1 = Q diag(s) Q^T, T2 = Q diag(t) Q^T with a rational
    orthogonal Q, f = Q fh and g = Q gh where s_k gh_k = t_k fh_k, so the
    faces commute; every s_k, t_k and fh_k is +-1/2 or +-3/2. One op takes
    three models of each dimension 2, 3 and 4 to their degree-4 tables and
    inverts them; a pass holds four ops.
    """

    name = "fock"
    degree = 4
    batch = (2, 3, 4) * 3
    ops_per_pass = 4

    def item(self, bf, rng, dim):
        svals = [_pick(rng, HALVES, 2) for _ in range(dim)]
        tvals = [_pick(rng, HALVES, 2) for _ in range(dim)]
        fh = [_pick(rng, HALVES, 2) for _ in range(dim)]
        gh = [t * f / s for s, t, f in zip(svals, tvals, fh)]
        q = _rational_orthogonal(rng, dim)

        def conj(diag):
            return [[sum(q[i][k] * diag[k] * q[j][k] for k in range(dim))
                     for j in range(dim)] for i in range(dim)]

        def rotate(vec):
            return [sum(q[i][k] * vec[k] for k in range(dim)) for i in range(dim)]

        lam1, lam2 = _pick(rng, THIRDS, 3), _pick(rng, THIRDS, 3)
        model = bf.FockModel.from_arrays(rotate(fh), rotate(gh), conj(svals), conj(tvals),
                                         lam1, lam2)
        return {"model": model, "s": svals, "t": tvals, "fh": fh, "gh": gh,
                "lambda": (lam1, lam2)}

    def one(self, item):
        bf = bifree()
        return bf.moments_to_cumulants(bf.moment_table_from_model(item["model"], self.degree))

    def expected(self, item):
        """kappa_{m,n} = <T1^(m-1) f, T2^(n-1) g> and its one-face forms,
        read in the eigenbasis: sum_k s_k^(m-1) t_k^(n-1) fh_k gh_k."""
        s, t, fh, gh = item["s"], item["t"], item["fh"], item["gh"]
        want = {(1, 0): item["lambda"][0], (0, 1): item["lambda"][1]}
        for total in range(2, self.degree + 1):
            for m in range(total + 1):
                n = total - m
                if n == 0:
                    value = sum(sk ** (m - 2) * f * f for sk, f in zip(s, fh))
                elif m == 0:
                    value = sum(tk ** (n - 2) * g * g for tk, g in zip(t, gh))
                else:
                    value = sum(sk ** (m - 1) * tk ** (n - 1) * f * g
                                for sk, tk, f, g in zip(s, t, fh, gh))
                want[(m, n)] = value
        return want

    def check_one(self, item, out, want):
        return _table_errors("cumulant", out, want)


class LevyRoundtrip(Batched):
    """Triple -> cumulants -> gates -> GNS model -> extracted triple -> cumulants.

    Triples satisfy t rho1 = s rho and s rho2 = t rho atom by atom; atoms
    sit at distinct points with coordinates in +-{1/2, 1, 3/2, 2}. One op
    takes 64 triples, sixteen each with 1, 2, 3 and 4 atoms, round the loop;
    a pass is one op. The table has degree 8, the Gram window is d = 3.
    """

    name = "levy-roundtrip"
    degree = 8
    window = 3
    batch = (1, 2, 3, 4) * 16

    def item(self, bf, rng, count):
        atoms1, atoms2, atoms = [], [], []
        for s, t in _distinct_points(rng, count, (1, 2, 3, 4), 2):
            a = Fraction(rng.choice(THIRDS), 3)
            c = t * a / s
            atoms1.append((s, t, a))
            atoms2.append((s, t, t * c / s))
            atoms.append((s, t, c))
        first = (_pick(rng, THIRDS, 3), _pick(rng, THIRDS, 3))
        measure = bf.DiscretePlanarMeasure.from_atoms
        data = bf.LevyHincinData(first[0], first[1], measure(atoms1), measure(atoms2),
                                 measure(atoms, signed=True))
        return {"data": data, "atoms": (atoms1, atoms2, atoms), "first": first}

    def one(self, item):
        bf = bifree()
        table = bf.lh_to_cumulants(item["data"], self.degree)
        cpsd = bf.check_cpsd(table, self.window)
        bounded = bf.check_cond_bounded(table, self.window)
        model = bf.gns_reconstruct(table, self.window)
        recovered = bf.extract_levy_measures(model)
        return {"table": table, "gates_ok": cpsd.ok and bounded.ok, "recovered": recovered,
                "rebuilt": bf.lh_to_cumulants(recovered, self.degree)}

    def expected(self, item):
        """Cumulants integrated atom by atom from the source triple."""
        atoms1, atoms2, atoms = item["atoms"]
        want = {(1, 0): item["first"][0], (0, 1): item["first"][1]}
        for total in range(2, self.degree + 1):
            for m in range(total + 1):
                n = total - m
                if m >= 2:
                    want[(m, n)] = sum(w * s ** (m - 2) * t ** n for s, t, w in atoms1)
                elif n >= 2:
                    want[(m, n)] = sum(w * s ** m * t ** (n - 2) for s, t, w in atoms2)
                else:
                    want[(m, n)] = sum(w * s ** (m - 1) * t ** (n - 1) for s, t, w in atoms)
        return want

    def check_one(self, item, out, want):
        errors = [] if out["gates_ok"] else ["a valid triple failed a positivity gate"]
        errors += _table_errors("cumulant", out["table"], want)
        errors += _table_errors("rebuilt cumulant", out["rebuilt"], want, exact=False)
        rec = out["recovered"]
        for label, source, found in zip(("rho1", "rho2", "rho"), item["atoms"],
                                        (rec.rho1, rec.rho2, rec.rho)):
            errors += _atom_errors(label, source, found.atoms)
        return errors


def strict_json(text):
    """Parse JSON as the standard defines it: NaN and Infinity are refused."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def run_child(argv, cwd, env=None):
    """Run a child process to its end; return (code, stdout, stderr, seconds, maxrss_kb).

    The child is reaped with wait4 so its own peak RSS is known. A child that
    outlives CHILD_TIMEOUT_S is killed.
    """
    err_path = Path(cwd) / f".stderr-{os.getpid()}"
    with open(err_path, "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err,
                                stdin=subprocess.DEVNULL)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    err_path.unlink()
    return proc.returncode, out.decode(), stderr, seconds, usage.ru_maxrss


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# The console script `bifree` runs exactly this.
BIFREE = [sys.executable, "-c", "import sys; from bifree.cli import main; sys.exit(main())"]


class Cli(Workload):
    """The README pipeline, one `bifree` subprocess per command.

    Seeded inputs: a Poisson rate in {1/3, 2/3, 4/3, 5/3} and a jump
    (alpha, beta) with alpha = +-n/3 and beta = +-1/2 or +-3/2 for `make`,
    and a three-atom rational measure for the two `verify` suites.
    Ten commands per pass; later commands read what earlier ones wrote.
    """

    name = "cli"
    make_degree = 8
    window = 3
    lh_degree = 6
    voiculescu_degree = 7
    chi_degree = 6

    def __init__(self):
        self.child_peak_kb = 0
        self.env = None
        self.command_seconds = []   # subprocess times of traced ops

    def prepare(self, seed, work_dir):
        rng = random.Random(f"{self.name}:{seed}")
        rate = Fraction(rng.choice(THIRDS), 3)
        alpha = _pick(rng, THIRDS, 3)
        beta = _pick(rng, HALVES, 2)
        measure = {"atoms": [[str(x) for x in atom] for atom in _jump_atoms(rng)],
                   "signed": False}
        work_dir.mkdir(parents=True, exist_ok=True)
        (work_dir / "measure.json").write_text(json.dumps(measure))
        self.env = child_env()
        params = {"rate": rate, "alpha": alpha, "beta": beta, "dir": work_dir}
        commands = [
            ("make", ["make", "poisson", f"--lambda={rate}", f"--alpha={alpha}",
                      f"--beta={beta}", "--degree", str(self.make_degree)], "poisson.json"),
            ("moments", ["moments", "poisson.json"], "moments.json"),
            ("cumulants", ["cumulants", "moments.json"], "cumulants.json"),
            ("check-id", ["check-id", "poisson.json", "--gram-degree", str(self.window)], None),
            ("gns", ["gns", "poisson.json", "--gram-degree", str(self.window)], "model.json"),
            ("extract", ["extract", "model.json"], "levy.json"),
            ("lh-validate", ["lh-validate", "levy.json"], None),
            ("lh-cumulants", ["lh-cumulants", "levy.json", "--degree", str(self.lh_degree)], None),
            ("verify-voiculescu", ["verify", "voiculescu", "--measure", "measure.json",
                                   "--degree", str(self.voiculescu_degree)], None),
            ("verify-chi", ["verify", "chi", "--measure", "measure.json",
                            "--degree", str(self.chi_degree)], None),
        ]
        return [{"name": name, "argv": argv, "save": save, **params}
                for name, argv, save in commands]

    def _save(self, inp, stdout):
        if inp["save"]:
            (inp["dir"] / inp["save"]).write_text(stdout)

    def op(self, inp):
        code, out, err, _, rss = run_child(BIFREE + inp["argv"], inp["dir"], self.env)
        self.child_peak_kb = max(self.child_peak_kb, rss)
        self._save(inp, out)
        return {"code": code, "stdout": out, "stderr": err}

    def trace_op(self, inp, tracer):
        """Time the subprocess, then run the same command in-process under the tracer."""
        bf = bifree()
        code, out, err, seconds, _ = run_child(BIFREE + inp["argv"], inp["dir"], self.env)
        self.command_seconds.append(seconds)
        self._save(inp, out)
        buffer = io.StringIO()
        cwd = os.getcwd()
        os.chdir(inp["dir"])
        try:
            with tracer.op_span(), contextlib.redirect_stdout(buffer):
                in_code = bf.cli.run(inp["argv"])
        finally:
            os.chdir(cwd)
        if (in_code, buffer.getvalue()) != (code, out):
            return {"code": f"{code} in a subprocess, {in_code} in-process", "stdout": out,
                    "stderr": "the in-process run printed something else"}
        return {"code": code, "stdout": out, "stderr": err}

    def peak_rss_kb(self):
        return self.child_peak_kb

    def check(self, inp, out):
        if out["code"] != 0:
            return [f"{inp['name']} exited {out['code']}: {out['stderr'].strip()[-300:]}"]
        try:
            doc = strict_json(out["stdout"])
        except ValueError as exc:
            return [f"{inp['name']} printed invalid JSON: {exc}"]
        rate, alpha, beta = inp["rate"], inp["alpha"], inp["beta"]
        poisson = {(m, t - m): rate * alpha**m * beta**(t - m)
                   for t in range(1, self.make_degree + 1) for m in range(t + 1)}
        name = inp["name"]
        errors = []
        if name in ("make", "cumulants"):
            got = {(m, n): Fraction(v) for m, n, v in doc["entries"]}
            if got != poisson:
                errors.append(f"{name}: table differs from rate * alpha^m * beta^n")
        elif name == "moments":
            got = {(m, n): Fraction(v) for m, n, v in doc["entries"]}
            mean = rate * alpha
            if got.get((0, 0)) != 1 or got.get((1, 0)) != mean \
                    or got.get((2, 0)) != rate * alpha**2 + mean**2:
                errors.append("moments: first moments do not match the cumulants")
        elif name in ("check-id", "lh-validate"):
            if doc.get("ok") is not True:
                errors.append(f"{name}: verdict is not ok")
        elif name == "gns":
            if doc["dim"] != 1 or not _close(doc["lambda1"], rate * alpha) \
                    or not _close(doc["lambda2"], rate * beta):
                errors.append("gns: expected a one-dimensional model with the first cumulants")
        elif name == "extract":
            for label, weight in (("rho1", rate * alpha**2), ("rho2", rate * beta**2),
                                  ("rho", rate * alpha * beta)):
                errors += _atom_errors(f"extract {label}", [(alpha, beta, weight)],
                                       doc[label]["atoms"])
            if not (_close(doc["kappa10"], rate * alpha) and _close(doc["kappa01"], rate * beta)):
                errors.append("extract: first cumulants differ")
        elif name == "lh-cumulants":
            if len(doc["entries"]) != sum(t + 1 for t in range(1, self.lh_degree + 1)):
                errors.append("lh-cumulants: wrong number of entries")
            for m, n, v in doc["entries"]:
                if not _close(v, poisson[(m, n)]):
                    errors.append(f"lh-cumulants: ({m}, {n}) is {v}, expected {poisson[(m, n)]}")
        elif name.startswith("verify"):
            if doc["max_residual"] != 0:
                errors.append(f"{name}: residual {doc['max_residual']}")
        return errors


WORKLOADS = {w.name: w for w in (Transforms, Fock, LevyRoundtrip, Cli)}
