"""CLI: golden outputs, byte-identical reruns, exit codes, format round trips.

Regenerate the golden files with BIFREE_REGEN_GOLDEN=1 pytest tests/test_cli.py.
"""

import argparse
import io
import json
import os
import random
import subprocess
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import bifree
from bifree.cli import _verify_payload, build_parser, run
from bifree.cumulants import CumulantTable, MomentTable
from bifree.errors import RealizabilityError
from bifree.fock import FockModel
from bifree.levy_hincin import LevyHincinData, lh_to_cumulants, r_transform_from_lh
from bifree.limits import poisson_family, row_sum_moments
from bifree.measures import DiscretePlanarMeasure

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


def invoke(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


CASES = [
    ("partitions_n3", ["partitions", "--n", "3"]),
    ("partitions_chi", ["partitions", "--chi", "LRL"]),
    ("cumulants", ["cumulants", str(DATA / "delta_moments.json")]),
    ("moments", ["moments", str(DATA / "poisson4.json")]),
    ("convolve", ["convolve", str(DATA / "poisson4.json"), str(DATA / "poisson4.json")]),
    ("semigroup", ["semigroup", str(DATA / "poisson4.json"), "--t", "3/2"]),
    ("make_gaussian", ["make", "gaussian", "--s1", "1", "--s2", "1",
                       "--c", "1/2", "--degree", "4"]),
    ("make_poisson", ["make", "poisson", "--lambda", "1", "--alpha", "1",
                      "--beta", "1", "--degree", "6"]),
    ("make_compound", ["make", "compound", "--lambda", "2",
                       "--nu", str(DATA / "jump.json"), "--degree", "4"]),
    ("lh_cumulants", ["lh-cumulants", str(DATA / "lh_poisson.json"), "--degree", "6"]),
    ("lh_validate", ["lh-validate", str(DATA / "lh_poisson.json")]),
    ("check_id", ["check-id", str(DATA / "poisson8.json"), "--gram-degree", "3"]),
    ("gns", ["gns", str(DATA / "poisson8.json"), "--gram-degree", "3"]),
    ("extract", ["extract", str(DATA / "model_poisson.json")]),
    ("fock_moments", ["fock-moments", str(DATA / "model_gaussian.json"),
                      "--degree", "4"]),
    ("fock_moment_single", ["fock-moments", str(DATA / "model_gaussian.json"),
                            "--m", "1", "--n", "1"]),
    ("verify_voiculescu", ["verify", "voiculescu", "--model",
                           str(DATA / "model_gaussian.json"), "--degree", "6"]),
    ("verify_chi", ["verify", "chi", "--measure", str(DATA / "measure.json"),
                    "--degree", "4"]),
    ("verify_roundtrip", ["verify", "roundtrip", "--measure",
                          str(DATA / "measure.json"), "--degree", "5"]),
    ("verify_limits", ["verify", "limits", "--lambda", "1", "--alpha", "2",
                       "--beta", "1", "--degree", "4", "--kind", "float"]),
    ("verify_semigroup", ["verify", "semigroup", "--table",
                          str(DATA / "poisson8.json"), "--s", "1", "--t", "2"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden_output(name, argv):
    code, out = invoke(argv)
    assert code == 0
    path = GOLDEN / f"{name}.json"
    if os.environ.get("BIFREE_REGEN_GOLDEN"):
        path.write_text(out)
    assert path.read_bytes() == out.encode()


def test_scales_of_at_least_one_raise_no_warning():
    # row_sum_moments scales by the row count and verify semigroup by 2; a
    # factor >= 1 is always a convolution power, so neither may warn
    family = poisson_family(Fraction(1), Fraction(1), Fraction(2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert row_sum_moments(family, 10, 5).degree == 5
        code, out = invoke(["verify", "semigroup", "--table", str(DATA / "poisson8.json"),
                            "--s", "3/2", "--t", "7/3"])
    assert code == 0 and json.loads(out)["max_residual"] == 0


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_reruns_are_byte_identical(name, argv):
    _, first = invoke(argv)
    _, second = invoke(argv)
    assert first == second


def test_outputs_reparse_as_their_own_formats():
    _, out = invoke(["make", "poisson", "--lambda", "2", "--alpha", "1",
                     "--beta", "1/2", "--degree", "4"])
    table = CumulantTable.from_jsonable(json.loads(out))
    assert table.get(2, 1) == 1  # 2 * 1^2 * (1/2)

    _, out = invoke(["moments", str(DATA / "poisson4.json")])
    MomentTable.from_jsonable(json.loads(out))

    _, out = invoke(["gns", str(DATA / "poisson8.json"), "--gram-degree", "3"])
    model = FockModel.from_jsonable(json.loads(out))
    assert (model.dim, model.kind) == (1, "float")

    _, out = invoke(["extract", str(DATA / "model_poisson.json")])
    data = LevyHincinData.from_jsonable(json.loads(out))
    assert (len(data.rho.atoms), data.kind) == (1, "float")

    raw = json.loads((DATA / "measure.json").read_text())
    mu = DiscretePlanarMeasure.from_jsonable(raw, "rational")
    assert mu.to_jsonable() == raw


def test_make_poisson_unit_entries():
    _, out = invoke(["make", "poisson", "--lambda", "1", "--alpha", "1",
                     "--beta", "1", "--degree", "6"])
    payload = json.loads(out)
    assert all(value == "1" for _, _, value in payload["entries"])


def test_convolve_point_masses(tmp_path):
    # two point-mass cumulant tables convolve to the shifted point mass
    from bifree.cumulants import moments_to_cumulants
    from bifree.measures import moment_table, point_mass
    for i, (x, y) in enumerate([(1, 2), (3, -1)]):
        table = moments_to_cumulants(moment_table(point_mass(x, y), 4))
        (tmp_path / f"k{i}.json").write_text(json.dumps(table.to_jsonable()))
    code, out = invoke(["convolve", str(tmp_path / "k0.json"), str(tmp_path / "k1.json")])
    assert code == 0
    got = CumulantTable.from_jsonable(json.loads(out))
    from bifree.cumulants import moments_to_cumulants as m2c
    from bifree.measures import moment_table as mt
    assert got.entries == m2c(mt(point_mass(4, 1), 4)).entries


def test_verify_residuals_are_zero():
    for argv in (["verify", "voiculescu", "--model", str(DATA / "model_gaussian.json"),
                  "--degree", "6"],
                 ["verify", "chi", "--measure", str(DATA / "measure.json"),
                  "--degree", "4"],
                 ["verify", "roundtrip", "--measure", str(DATA / "measure.json"),
                  "--degree", "5"]):
        code, out = invoke(argv)
        assert code == 0
        assert json.loads(out)["max_residual"] == 0.0


def test_exit_code_verdict_false():
    code, out = invoke(["lh-validate", str(DATA / "lh_invalid.json")])
    assert code == 1
    assert json.loads(out)["atom_inequality_ok"] is False

    code, out = invoke(["check-id", str(DATA / "factorial8.json"),
                        "--gram-degree", "3"])
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_lh_cumulants_refuses_an_invalid_triple(capsys):
    # rho{(0,0)} = 2 against rho1 = rho2 = 1 at the origin: the cumulants
    # would be kappa11 = 2 with kappa20 = kappa02 = 1, past Cauchy-Schwarz
    assert invoke(["lh-validate", str(DATA / "lh_invalid.json")])[0] == 1
    assert invoke(["lh-cumulants", str(DATA / "lh_invalid.json"), "--degree", "4"]) == (2, "")
    assert "fails validation" in capsys.readouterr().err


@pytest.mark.parametrize("offset,valid", [(5e-10, False), (5e-11, True)])
def test_one_tolerance_judges_a_float_triple(tmp_path, capsys, offset, valid):
    # rho's weight off by `offset` moves the relations by offset and
    # offset / 2, about RELATION_TOL = 1e-10: every entry point gives one verdict
    doc = {"kind": "float", "kappa10": 0.0, "kappa01": 0.0,
           "rho1": {"atoms": [[1.0, 0.5, 2.0]]}, "rho2": {"atoms": [[1.0, 0.5, 0.5]]},
           "rho": {"atoms": [[1.0, 0.5, 1.0 + offset]], "signed": True}}
    path = _write(tmp_path / "triple.json", doc)
    assert invoke(["lh-validate", path])[0] == (0 if valid else 1)
    code, out = invoke(["lh-cumulants", path, "--degree", "4"])
    assert (code, bool(out)) == ((0, True) if valid else (2, False))
    data = LevyHincinData.from_jsonable(doc)
    if valid:
        assert r_transform_from_lh(data, 4).entries == lh_to_cumulants(data, 4).entries
    else:
        with pytest.raises(RealizabilityError):
            r_transform_from_lh(data, 4)
    capsys.readouterr()


def test_exit_code_input_errors(capsys):
    assert invoke(["cumulants", str(DATA / "malformed.json")])[0] == 2
    assert invoke(["cumulants", str(DATA / "does_not_exist.json")])[0] == 2
    assert invoke(["no-such-command"])[0] == 2
    capsys.readouterr()


def test_stdin_input(monkeypatch):
    import io as _io
    payload = (DATA / "poisson4.json").read_text()
    monkeypatch.setattr("sys.stdin", _io.StringIO(payload))
    code, out = invoke(["moments", "-"])
    assert code == 0
    assert json.loads(out)["degree"] == 4


def test_limits_ratios_in_window():
    code, out = invoke(["verify", "limits", "--lambda", "1", "--alpha", "2",
                        "--beta", "1", "--degree", "4", "--kind", "float"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] == 0.0
    assert all(8 <= r <= 12 for r in payload["convergence_ratios"])


def test_limits_ratio_with_exact_later_error_is_null():
    # alpha = beta = 0 makes every row-sum moment exact, so no ratio exists
    code, out = invoke(["verify", "limits", "--alpha", "0", "--beta", "0",
                        "--degree", "4"])
    assert code == 0
    # the strict JSON rule: NaN and Infinity are refused
    payload = json.loads(out, parse_constant=lambda token: pytest.fail(f"{token} in stdout"))
    assert payload["convergence_ratios"] == [None, None]


DEGREES_BELOW_ONE = {
    "verify-chi-0": ["verify", "chi", "--measure", str(DATA / "measure.json"),
                     "--degree", "0"],
    "verify-chi-neg": ["verify", "chi", "--measure", str(DATA / "measure.json"),
                       "--degree", "-1"],
    "verify-roundtrip-0": ["verify", "roundtrip", "--measure", str(DATA / "measure.json"),
                           "--degree", "0"],
    "verify-limits-0": ["verify", "limits", "--degree", "0"],
    "lh-cumulants-neg": ["lh-cumulants", str(DATA / "lh_poisson.json"), "--degree", "-2"],
    "fock-moments-neg": ["fock-moments", str(DATA / "model_gaussian.json"),
                         "--degree", "-1"],
    "make-0": ["make", "poisson", "--degree", "0"],
    "make-text": ["make", "poisson", "--degree", "two"],
}


@pytest.mark.parametrize("case", sorted(DEGREES_BELOW_ONE))
def test_degrees_below_one_are_input_errors(capsys, case):
    assert invoke(DEGREES_BELOW_ONE[case]) == (2, "")
    assert "degree must be an integer >= 1" in capsys.readouterr().err


def test_float_limits_ratios_match_exact_run():
    # the float golden moves with summation order; the exact run pins it
    argv = ["verify", "limits", "--lambda", "1", "--alpha", "2", "--beta", "1",
            "--degree", "4"]
    ratios = {kind: json.loads(invoke(argv + ["--kind", kind])[1])["convergence_ratios"]
              for kind in ("float", "rational")}
    assert ratios["float"] == pytest.approx(ratios["rational"], rel=1e-12, abs=0)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_empty_gram_window_is_an_input_error(tmp_path, capsys):
    # kappa11 = 5 with kappa20 = kappa02 = 1 breaks Cauchy-Schwarz; the default
    # window (degree - 2) // 2 is 0 on degree 2 and 3 and certifies nothing
    for degree in (2, 3):
        entries = [[m, t - m, "0"] for t in range(1, degree + 1) for m in range(t + 1)]
        for entry in entries:
            if tuple(entry[:2]) == (1, 1):
                entry[2] = "5"
            elif tuple(entry[:2]) in ((2, 0), (0, 2)):
                entry[2] = "1"
        table = _write(tmp_path / f"bad{degree}.json",
                       {"degree": degree, "kind": "rational", "entries": entries})
        for command in ("check-id", "gns"):
            code, out = invoke([command, table])
            assert code == 2
            assert out == ""
            assert "window" in capsys.readouterr().err
    # an explicit empty window is refused too, not replaced by the default
    for command in ("check-id", "gns"):
        code, out = invoke([command, str(DATA / "poisson8.json"), "--gram-degree", "0"])
        assert code == 2
        assert out == ""
        assert "window" in capsys.readouterr().err


def _cumulant_file(path, table):
    return _write(path, table.to_jsonable())


def test_rational_gates_refuse_the_cauchy_schwarz_breaker(tmp_path, capsys):
    # kappa11 = 1 + 10^-10 against kappa20 = kappa02 = 1: a float copy's
    # gates let it through within PIVOT_TOL, the exact pivots do not
    from test_levy_hincin import cauchy_schwarz_breaker
    table = _cumulant_file(tmp_path / "breaker.json", cauchy_schwarz_breaker())
    code, out = invoke(["check-id", table])
    payload = json.loads(out)
    assert code == 1 and payload["ok"] is False and payload["cpsd"]["ok"] is False
    code, out = invoke(["gns", table])
    assert (code, out) == (2, "")
    assert "not conditionally positive" in capsys.readouterr().err


def test_gns_names_the_degree_that_refused_positivity(tmp_path, capsys):
    # positive on G_1, refused on G_2 by a row nonzero only beyond G_1:
    # check-id's cpsd passes, and gns exits 2 with the flatness report
    from test_levy_hincin import positive_only_on_g1
    table = _cumulant_file(tmp_path / "g1.json", positive_only_on_g1())
    code, out = invoke(["check-id", table, "--gram-degree", "1"])
    assert code == 1 and json.loads(out)["cpsd"] == {"degree_window": 1, "ok": True, "rank": 1}
    code, out = invoke(["gns", table, "--gram-degree", "1"])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err
    assert "positivity refused on degree 4" in err and "not conditionally positive" not in err


def test_twelve_atoms_are_not_certified_at_degree_8(tmp_path, capsys):
    # d = 3 holds 9 monomials for 12 atoms: positive, not flat, nothing
    # certified, and nothing says unbounded; degree 10 (d = 4) certifies it.
    # The float copies get the same reports.
    from conftest import float_copy
    from test_levy_hincin import twelve_atom_poisson
    for copy in (lambda table: table, float_copy):
        table = _cumulant_file(tmp_path / "twelve8.json", copy(twelve_atom_poisson(8)[1]))
        code, out = invoke(["check-id", table])
        assert code == 1 and "unbounded" not in out
        assert json.loads(out) == {
            "bounded": {"certified": False, "degree_window": 3, "rank": 9, "rank_next": 12},
            "cpsd": {"degree_window": 3, "ok": True, "rank": 9}, "degree_window": 3, "ok": False}
        code, out = invoke(["gns", table])
        assert (code, out) == (2, "")
        assert "nothing certified at this window" in capsys.readouterr().err
        table = _cumulant_file(tmp_path / "twelve10.json", copy(twelve_atom_poisson(10)[1]))
        code, out = invoke(["check-id", table])
        assert code == 0 and json.loads(out)["bounded"]["certified"] is True
        code, out = invoke(["gns", table])
        assert code == 0 and json.loads(out)["dim"] == 12


def test_non_finite_entries_are_rejected(tmp_path, capsys):
    for bad in ("NaN", "Infinity", "-Infinity"):
        entries = [[m, t - m, 1.0] for t in range(1, 3) for m in range(t + 1)]
        entries[2][2] = bad
        table = _write(tmp_path / "nan.json",
                       {"degree": 2, "kind": "float", "entries": entries})
        code, out = invoke(["moments", table])
        assert code == 2
        assert "NaN" not in out and "Infinity" not in out
        assert "finite" in capsys.readouterr().err


def test_float_overflow_in_a_transform_is_rejected(tmp_path, capsys):
    # every entry is finite, but kappa20^2 = 1e400 overflows in moment (4, 0)
    entries = [[m, t - m, 1e200 if (m, t - m) == (2, 0) else 0.0]
               for t in range(1, 5) for m in range(t + 1)]
    table = _write(tmp_path / "big.json", {"degree": 4, "kind": "float", "entries": entries})
    code, out = invoke(["moments", table])
    assert (code, out) == (2, "")
    assert "finite" in capsys.readouterr().err


def test_cumulants_of_a_degree_0_moment_table_are_refused(tmp_path, capsys):
    table = _write(tmp_path / "deg0.json",
                   {"degree": 0, "kind": "rational", "entries": [[0, 0, "1"]]})
    code, out = invoke(["cumulants", table])
    assert (code, out) == (2, "")
    assert "leaves the table empty" in capsys.readouterr().err


def test_entries_outside_the_degree_bound_are_rejected(tmp_path, capsys):
    base = [[m, t - m, "1"] for t in range(1, 3) for m in range(t + 1)]
    for extra in ([5, 0, "6"], [-1, 3, "1"], [0, 0, "1"]):
        table = _write(tmp_path / "wide.json",
                       {"degree": 2, "kind": "rational", "entries": base + [extra]})
        code, out = invoke(["convolve", table, table])
        assert code == 2
        assert out == ""
        assert str(tuple(extra[:2])) in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_numeric_flags_are_rejected(tmp_path, capsys, bad):
    entries = [[m, t - m, 0.5] for t in range(1, 3) for m in range(t + 1)]
    table = _write(tmp_path / "float.json", {"degree": 2, "kind": "float", "entries": entries})
    jump = _write(tmp_path / "jump.json", {"atoms": [[-1.0, 1.0, 0.5], [1.0, 2.0, 0.5]],
                                            "signed": False})
    commands = [
        ["make", "gaussian", f"--s1={bad}", "--kind", "float", "--degree", "2"],
        ["make", "gaussian", f"--s2={bad}", "--kind", "float", "--degree", "2"],
        ["make", "gaussian", f"--c={bad}", "--kind", "float", "--degree", "2"],
        ["make", "poisson", f"--lambda={bad}", "--kind", "float", "--degree", "2"],
        ["make", "poisson", f"--alpha={bad}", "--kind", "float", "--degree", "2"],
        ["make", "poisson", f"--beta={bad}", "--kind", "float", "--degree", "2"],
        ["make", "compound", f"--lambda={bad}", "--nu", jump, "--kind", "float",
         "--degree", "2"],
        ["semigroup", table, f"--t={bad}", "--assume-divisible"],
        ["verify", "semigroup", "--table", table, f"--s={bad}"],
        ["verify", "semigroup", "--table", table, f"--t={bad}"],
        ["verify", "limits", f"--lambda={bad}", "--kind", "float", "--degree", "2"],
        ["verify", "roundtrip", "--measure", str(DATA / "measure.json"),
         "--degree", "2", f"--tolerance={bad}"],
    ]
    for argv in commands:
        code, out = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert "finite" in capsys.readouterr().err, argv


def test_ratio_text_parses_in_float_mode():
    code, out = invoke(["make", "poisson", "--lambda", "1/2", "--kind", "float",
                        "--degree", "1"])
    assert code == 0
    assert json.loads(out)["entries"] == [[0, 1, 0.5], [1, 0, 0.5]]
    # jump.json holds the weights "2/3" and "1/3"
    runs = {kind: invoke(["make", "compound", "--nu", str(DATA / "jump.json"),
                          "--kind", kind, "--degree", "3"]) for kind in ("float", "rational")}
    assert runs["float"][0] == runs["rational"][0] == 0
    exact = [float(Fraction(v)) for _, _, v in json.loads(runs["rational"][1])["entries"]]
    floats = [v for _, _, v in json.loads(runs["float"][1])["entries"]]
    assert floats == pytest.approx(exact, rel=1e-12, abs=0)


def test_make_gaussian_of_degree_one():
    for kind, zero in (("rational", "0"), ("float", 0.0)):
        code, out = invoke(["make", "gaussian", "--degree", "1", "--kind", kind])
        assert code == 0
        assert json.loads(out) == {"degree": 1, "kind": kind,
                                   "entries": [[0, 1, zero], [1, 0, zero]]}


def test_a_measure_document_reads_in_its_own_kind(tmp_path):
    # three float weights of 1/3: total mass 1 in float, 1 - 1e-16 read exactly
    atoms = [[0.5, 1.0, 1 / 3], [1.0, 0.0, 1 / 3], [1.0, 1.0, 1 / 3]]
    stated = _write(tmp_path / "stated.json", {"atoms": atoms, "kind": "float"})
    unstated = _write(tmp_path / "unstated.json", {"atoms": atoms})
    make = ["make", "compound", "--degree", "2", "--nu"]
    roundtrip = ["verify", "roundtrip", "--degree", "3", "--measure"]
    code, out = invoke(make + [stated])
    assert code == 0
    table = json.loads(out)
    assert table["kind"] == "float"
    assert [type(v) for _, _, v in table["entries"]] == [float] * 5
    assert invoke(roundtrip + [stated])[0] == 0
    # a document that states no kind takes --kind, rational by default
    assert invoke(make + [unstated])[0] == 2
    assert invoke(roundtrip + [unstated])[0] == 2
    assert invoke(make + [unstated, "--kind", "float"]) == (code, out)


def test_zero_denominators_are_input_errors(tmp_path, capsys):
    entries = [[m, t - m, "1"] for t in range(1, 3) for m in range(t + 1)]
    entries[1][2] = "1/0"
    table = _write(tmp_path / "zero.json", {"degree": 2, "kind": "rational", "entries": entries})
    commands = [
        ["make", "poisson", "--lambda", "1/0", "--degree", "2"],
        ["make", "poisson", "--lambda", "1/0", "--kind", "float", "--degree", "2"],
        ["semigroup", str(DATA / "poisson4.json"), "--t", "1/0"],
        ["moments", table],
    ]
    for argv in commands:
        code, out = invoke(argv)
        assert (code, out) == (2, ""), argv
        assert "denominator" in capsys.readouterr().err, argv


# Each subcommand's optional flags (per distribution for make, per suite for
# verify); --kind and --tolerance only where read, and --seed nowhere.
FLAGS = {
    "partitions": ["--chi", "--n"],
    "cumulants": [],
    "moments": [],
    "convolve": [],
    "semigroup": ["--assume-divisible", "--t"],
    "make": {
        "gaussian": ["--c", "--degree", "--kind", "--s1", "--s2"],
        "poisson": ["--alpha", "--beta", "--degree", "--kind", "--lambda"],
        "compound": ["--degree", "--kind", "--lambda", "--nu"],
    },
    "lh-cumulants": ["--degree"],
    "lh-validate": [],
    "check-id": ["--gram-degree"],
    "gns": ["--gram-degree"],
    "extract": [],
    "fock-moments": ["--degree", "--m", "--n"],
    "verify": {
        "voiculescu": ["--degree", "--kind", "--measure", "--model", "--tolerance"],
        "chi": ["--degree", "--kind", "--measure", "--tolerance"],
        "roundtrip": ["--degree", "--kind", "--measure", "--tolerance"],
        "limits": ["--alpha", "--beta", "--degree", "--kind", "--lambda", "--tolerance"],
        "semigroup": ["--s", "--t", "--table", "--tolerance"],
    },
}


def _subparsers(parser):
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), None)


def _flags(parser):
    """A parser's optional flags, or a dict of them per sub-parser."""
    subparsers = _subparsers(parser)
    if subparsers:
        return {name: _flags(sub) for name, sub in subparsers.items()}
    return sorted(flag for action in parser._actions
                  for flag in action.option_strings if flag not in ("-h", "--help"))


def _declared(argv):
    flags = FLAGS[argv[0]]
    return flags[argv[1]] if isinstance(flags, dict) else flags


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_subcommand_flags(command):
    parsers = _subparsers(build_parser())
    assert set(parsers) == set(FLAGS)
    assert _flags(parsers[command]) == FLAGS[command]


REMOVED = [(argv, flag, value)
           for argv in {argv[0]: argv for _, argv in reversed(CASES)}.values()
           for flag, value in (("--kind", "float"), ("--seed", "1"), ("--tolerance", "3"))
           if flag not in _declared(argv)]


@pytest.mark.parametrize("argv,flag,value", REMOVED, ids=[f"{a[0]}{f}" for a, f, _ in REMOVED])
def test_flags_a_subcommand_does_not_read_exit_2(capsys, argv, flag, value):
    assert invoke(argv)[0] == 0
    assert invoke(argv + [flag, value]) == (2, "")
    assert "unrecognized arguments" in capsys.readouterr().err


VERIFY_VALUES = {"--model": str(DATA / "model_gaussian.json"),
                 "--measure": str(DATA / "measure.json"),
                 "--table": str(DATA / "poisson8.json"), "--degree": "4",
                 "--lambda": "1", "--alpha": "1", "--beta": "1", "--s": "1", "--t": "2",
                 "--kind": "float", "--tolerance": "1e-9"}
SUITE_REMOVED = [(argv, flag) for _, argv in CASES if argv[0] == "verify"
                 for flag in sorted(VERIFY_VALUES) if flag not in _declared(argv)]


@pytest.mark.parametrize("argv,flag", SUITE_REMOVED,
                         ids=[f"{argv[1]}{flag}" for argv, flag in SUITE_REMOVED])
def test_verify_suite_flags_it_does_not_read_exit_2(capsys, argv, flag):
    # e.g. semigroup reads the table's own degree, chi reads no model or table
    assert invoke(argv)[0] == 0
    assert invoke(argv + [flag, VERIFY_VALUES[flag]]) == (2, "")
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--m", "1"], ["--n", "1"], ["--m", "-1", "--n", "2"],
                                   ["--m", "1", "--n", "x"]],
                         ids=["m-alone", "n-alone", "m-negative", "n-text"])
def test_fock_moment_indices_are_checked(capsys, flags):
    argv = ["fock-moments", str(DATA / "model_gaussian.json")] + flags
    assert invoke(argv) == (2, "")
    err = capsys.readouterr().err
    assert "--m and --n go together" in err or "index must be an integer >= 0" in err


def test_flag_prefixes_are_not_abbreviations(capsys):
    # --t would otherwise stand in for --tolerance where a suite has no --t
    for argv in (["make", "poisson", "--lam", "2"],
                 ["verify", "chi", "--measure", str(DATA / "measure.json"), "--t", "2"]):
        assert invoke(argv) == (2, ""), argv
        assert "unrecognized arguments" in capsys.readouterr().err


# One wrong input per line: a missing input file, both of voiculescu's
# inputs, a flag another distribution reads, --degree in single-moment mode.
INPUT_ERRORS = {
    "chi-no-measure": ["verify", "chi", "--degree", "3"],
    "roundtrip-no-measure": ["verify", "roundtrip"],
    "voiculescu-no-input": ["verify", "voiculescu"],
    "semigroup-no-table": ["verify", "semigroup"],
    "compound-no-nu": ["make", "compound"],
    "voiculescu-both-inputs": ["verify", "voiculescu", "--model",
                               str(DATA / "model_gaussian.json"), "--measure",
                               "/nonexistent.json"],
    "gaussian-nu": ["make", "gaussian", "--nu", str(DATA / "jump.json")],
    "poisson-s1-c": ["make", "poisson", "--s1", "5", "--c", "3"],
    "fock-degree-with-m-n": ["fock-moments", str(DATA / "model_gaussian.json"),
                             "--degree", "1", "--m", "4", "--n", "4"],
    "partitions-n-and-chi": ["partitions", "--n", "3", "--chi", "LRL"],
    "partitions-no-input": ["partitions"],
}


@pytest.mark.parametrize("case", sorted(INPUT_ERRORS))
def test_inputs_are_required_and_exclusive(capsys, case):
    assert invoke(INPUT_ERRORS[case]) == (2, "")
    assert capsys.readouterr().err


def test_fock_degree_bound_refuses_before_work(capsys):
    start = time.perf_counter()
    code, out = invoke(["fock-moments", str(DATA / "model_gaussian.json"), "--degree", "24"])
    assert (code, out) == (2, "")
    assert time.perf_counter() - start < 1.0
    assert "degree 24" in capsys.readouterr().err


def _leaves(parser, path=()):
    """The argv prefix of every sub-parser that takes no further sub-command."""
    subparsers = _subparsers(parser)
    if not subparsers:
        return [list(path)]
    return [leaf for name, sub in subparsers.items() for leaf in _leaves(sub, path + (name,))]


POSITIONALS = {"cumulants": [DATA / "delta_moments.json"], "moments": [DATA / "poisson4.json"],
               "convolve": [DATA / "poisson4.json"] * 2, "semigroup": [DATA / "poisson4.json"],
               "lh-cumulants": [DATA / "lh_poisson.json"],
               "lh-validate": [DATA / "lh_poisson.json"], "check-id": [DATA / "poisson8.json"],
               "gns": [DATA / "poisson8.json"], "extract": [DATA / "model_poisson.json"],
               "fock-moments": [DATA / "model_gaussian.json"]}
LEAVES = _leaves(build_parser())


@pytest.mark.parametrize("path", LEAVES, ids=[" ".join(p) for p in LEAVES])
def test_no_input_flags_never_raise(capsys, path):
    code, out = invoke(path + [str(p) for p in POSITIONALS.get(path[0], [])])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    capsys.readouterr()


def test_float_single_moment_is_the_table_entry(tmp_path):
    rng = random.Random(11)
    for trial in range(8):
        dim = rng.randint(1, 3)
        sym = [[0.0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                sym[i][j] = sym[j][i] = rng.uniform(-1, 1)
        model = FockModel.from_arrays([rng.uniform(-1, 1) for _ in range(dim)],
                                      [rng.uniform(-1, 1) for _ in range(dim)], sym,
                                      [[rng.uniform(-1, 1) if i == j else 0.0
                                        for j in range(dim)] for i in range(dim)],
                                      rng.uniform(-1, 1), rng.uniform(-1, 1), kind="float")
        path = _write(tmp_path / f"model{trial}.json", model.to_jsonable())
        for m, n in ((0, 3), (2, 2), (3, 1), (4, 2), (1, 5)):
            single = json.loads(invoke(["fock-moments", path, "--m", str(m), "--n", str(n)])[1])
            table = json.loads(invoke(["fock-moments", path, "--degree", str(m + n)])[1])
            entry = next(v for a, b, v in table["entries"] if (a, b) == (m, n))
            assert single["value"] == entry, (trial, m, n)


# Every subcommand that reads a file, with BAD in each file slot.
BAD = "BAD"
FILE_READERS = [
    ["cumulants", BAD], ["moments", BAD], ["convolve", BAD, BAD],
    ["semigroup", BAD, "--t", "2"], ["make", "compound", "--nu", BAD],
    ["lh-cumulants", BAD], ["lh-validate", BAD], ["check-id", BAD], ["gns", BAD],
    ["extract", BAD], ["fock-moments", BAD], ["verify", "voiculescu", "--model", BAD],
    ["verify", "voiculescu", "--measure", BAD], ["verify", "chi", "--measure", BAD],
    ["verify", "roundtrip", "--measure", BAD], ["verify", "semigroup", "--table", BAD],
]


@pytest.mark.parametrize("value", ["[1, 2]", "null", "3"])
@pytest.mark.parametrize("argv", FILE_READERS,
                         ids=[" ".join(arg for arg in a if arg != BAD) for a in FILE_READERS])
def test_non_object_json_is_an_input_error(tmp_path, capsys, argv, value):
    path = tmp_path / "value.json"
    path.write_text(value)
    code, out = invoke([str(path) if arg == BAD else arg for arg in argv])
    assert (code, out) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(path) in err[0]


def _fresh_python(script, *args):
    """Run `script` in a new interpreter on this checkout's src; its stdout parsed as JSON.

    A subprocess, because this test process has loaded every module already
    (numpy too, through conftest).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(__file__).parent.parent / "src"),
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADS = """
import contextlib, io, json, sys
import bifree
loaded = lambda: sorted(m.removeprefix("bifree.") for m in sys.modules
                        if m.startswith("bifree.")) + ["numpy"] * ("numpy" in sys.modules)
before = loaded()
import bifree.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = bifree.cli.run(json.loads(sys.argv[1]))
print(json.dumps({"import": before, "code": code, "stdout": out.getvalue(), "loaded": loaded()}))
"""
# The bifree modules (and numpy) each golden command loads, beyond the cli,
# scalars and errors modules that `import bifree.cli` loads. fock, levy_hincin,
# limits and partitions load only where the command calls them. No command
# loads numpy, check-id and gns on a float table included.
TABLES = {"cumulants", "series"}
LEVY_HINCIN = TABLES | {"levy_hincin", "measures"}
LIMITS = TABLES | {"convolution", "limits", "measures"}
COMMAND_LOADS = {
    "partitions_n3": {"partitions"},
    "partitions_chi": {"partitions"},
    "cumulants": TABLES,
    "moments": TABLES,
    "convolve": TABLES | {"convolution"},
    "semigroup": TABLES | {"convolution"},
    "make_gaussian": LIMITS,
    "make_poisson": LIMITS,
    "make_compound": LIMITS,
    "lh_cumulants": LEVY_HINCIN,
    "lh_validate": LEVY_HINCIN,
    "check_id": LEVY_HINCIN,
    "gns": LEVY_HINCIN | {"fock"},
    "extract": LEVY_HINCIN | {"fock"},
    "fock_moments": TABLES | {"fock"},
    "fock_moment_single": TABLES | {"fock"},
    "verify_voiculescu": TABLES | {"fock"},
    "verify_chi": TABLES | {"measures", "partitions"},
    "verify_roundtrip": TABLES | {"measures"},
    "verify_limits": LIMITS,
    "verify_semigroup": TABLES | {"convolution"},
}


def test_each_command_loads_only_the_modules_it_calls(tmp_path):
    # one new interpreter per command, two at a time; check-id and gns run the
    # check_id case's table as a float table too: its entries are exact in
    # float, so they print the goldens and, like every command, load no numpy
    doc = json.loads((DATA / "poisson8.json").read_text())
    doc["kind"] = "float"
    float_table = _write(tmp_path / "poisson8_float.json", doc)
    floats = [(name, [argv[0], float_table, *argv[2:]])
              for name, argv in CASES if name in ("check_id", "gns")]
    assert len(floats) == 2
    with ThreadPoolExecutor(2) as pool:
        reports = list(pool.map(lambda case: _fresh_python(LOADS, json.dumps(case[1])),
                                CASES + floats))
    assert sorted(COMMAND_LOADS) == sorted(name for name, _ in CASES)
    for (name, _), report in zip(CASES + floats, reports):
        assert report["import"] == [], name  # `import bifree` loads no layer module
        assert report["code"] == 0, name
        assert report["stdout"].encode() == (GOLDEN / f"{name}.json").read_bytes(), name
        assert set(report["loaded"]) == {"cli", "scalars", "errors"} | COMMAND_LOADS[name], name


SURFACE = """
import json, sys
import bifree
loaded = sorted(m for m in sys.modules if m.startswith("bifree."))
modules = [bifree.scalars.__name__, bifree.fock.__name__]
after_modules = sorted(m for m in sys.modules if m.startswith("bifree."))
unknown = hasattr(bifree, "no_such_name")
star = {}
exec("from bifree import *", star)
print(json.dumps({"loaded": loaded, "modules": modules, "after_modules": after_modules,
                  "unknown": unknown, "star": sorted(set(star) - {"__builtins__"}),
                  "dir": dir(bifree)}))
"""


def test_package_surface_is_whole_in_a_fresh_interpreter():
    report = _fresh_python(SURFACE)
    assert report["loaded"] == []
    # a submodule name loads that module (and what it imports), not the layers
    assert report["modules"] == ["bifree.scalars", "bifree.fock"]
    assert not {"bifree.levy_hincin", "bifree.limits"} & set(report["after_modules"])
    assert report["unknown"] is False
    assert set(report["star"]) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(report["dir"])


def test_rational_verify_verdicts_are_exact(monkeypatch):
    # a rational residual of 1e-30 lies far inside --tolerance and prints as
    # 1e-30, yet fails; float data keeps the tolerance for its 1e-12. The
    # suites import the transform from bifree.cumulants when they run.
    from bifree import cumulants

    def shift(table):
        out = transform(table)
        entries = dict(out.entries)
        entries[(1, 1)] += Fraction(1, 10**30) if out.kind == "rational" else 1e-12
        return type(out)(out.degree, out.kind, entries)

    transform = cumulants.moments_to_cumulants
    monkeypatch.setattr(cumulants, "moments_to_cumulants", shift)
    for suite in ("chi", "roundtrip"):
        argv = ["verify", suite, "--measure", str(DATA / "measure.json"), "--degree", "4"]
        code, out = invoke(argv)
        assert code == 1 and json.loads(out)["max_residual"] == pytest.approx(1e-30), suite
        code, out = invoke(argv + ["--kind", "float"])
        assert code == 0 and 0 < json.loads(out)["max_residual"] < 1e-9, suite
        assert invoke(argv + ["--kind", "float", "--tolerance", "1e-14"])[0] == 1, suite


def test_verify_model_is_read_in_the_kind_flag():
    # --kind reads a model file as it reads a measure file: the strings of
    # model_gaussian.json give floats, and the float identity leaves a residual
    argv = ["verify", "voiculescu", "--model", str(DATA / "model_gaussian.json"), "--degree", "6"]
    for kind in ("rational", "float"):
        payload, found = _verify_payload(build_parser().parse_args(argv + ["--kind", kind]))
        assert found == kind
        assert (payload["max_residual"] == 0) == (kind == "rational")
        assert 0 <= payload["max_residual"] < 1e-12


def test_model_document_states_its_kind(tmp_path):
    # model_gaussian.json written as JSON numbers: without "kind" both commands
    # read it as rational (the flag's default), with "kind": "float" as float,
    # whatever --kind says
    def numbers(value):
        if isinstance(value, list):
            return [numbers(v) for v in value]
        return float(Fraction(value)) if isinstance(value, str) else value

    text = json.loads((DATA / "model_gaussian.json").read_text())
    raw = {key: numbers(v) for key, v in text.items()}
    for stated, want in ((None, "rational"), ("float", "float")):
        doc = raw if stated is None else {**raw, "kind": stated}
        path = _write(tmp_path / f"model_{want}.json", doc)
        code, out = invoke(["fock-moments", path, "--m", "0", "--n", "2"])
        value = json.loads(out)["value"]
        assert code == 0 and isinstance(value, str if want == "rational" else float)
        argv = ["verify", "voiculescu", "--model", path, "--degree", "6", "--kind"]
        flags = ("rational", "float") if stated else ("rational",)
        for flag in flags:
            assert _verify_payload(build_parser().parse_args(argv + [flag]))[1] == want
    assert value == 1.3611111111111112  # 1 + (1/2)^2 + (1/3)^2 in float


# What the package exports; perfbench reaches the program through these names.
# SingularSeriesError is gone: no series step divides since the identity's
# reciprocals were removed.
PUBLIC_NAMES = {
    "BifreeError", "ChiMap", "CommutationError", "CpsdReport",
    "CumulantTable", "DegreeError", "DiscretePlanarMeasure", "FlatnessReport", "FockModel",
    "InconsistentDataError", "LevyHincinData", "LhValidation", "MomentTable", "OrderError",
    "Partition", "RealizabilityError", "ShapeError", "SizeLimitError",
    "UncertifiedScaleWarning", "UnsupportedMeasureError", "bifree_convolve",
    "bifree_gaussian", "bifree_poisson", "catalan", "check_commutation", "check_cond_bounded",
    "check_cpsd", "compound_bifree_poisson", "compound_family", "cumulant_seq_to_moment_seq",
    "cumulants_to_moments", "enumerate_bnc", "enumerate_nc", "extract_levy_measures",
    "free_convolve_marginal", "gns_reconstruct", "is_noncrossing", "levy_marginal_model",
    "lh_to_cumulants", "mobius_cumulant", "mobius_nc", "mobius_top", "model_cumulants",
    "moment_seq_to_cumulant_seq", "moment_table", "moment_table_from_model",
    "moments_to_cumulants", "point_mass", "poisson_family", "r_transform_from_lh",
    "row_sum_moments", "semigroup_scale", "sigma_chi", "triangular_limit_estimate",
    "vacuum_moment", "validate_lh", "verify_voiculescu_identity",
}


def test_public_names_are_pinned():
    # dir, not vars: the package binds its names on the first lookup of one
    exported = {name for name in dir(bifree)
                if not name.startswith("_") and not isinstance(getattr(bifree, name), type(bifree))}
    assert exported == PUBLIC_NAMES
