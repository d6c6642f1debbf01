"""The benchmark's checks must count a wrong output as a failed operation.

    python3 -m pytest perfbench/test_checks.py -q

Each test runs one real operation, then feeds the same check a copy of the
result with one deliberate fault and requires the runner to count it.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bifree  # noqa: E402
from run import attempt  # noqa: E402
from workloads import Cli, Fock, LevyRoundtrip, Transforms  # noqa: E402


def statuses(workload, inp, outputs):
    """Status the runner records for each given output of one input."""
    record = []
    for out in outputs:
        attempt(workload, inp, lambda _: out, record)
    return [status for _, status, _ in record]


def off_by_a_seventh(table, key):
    entries = dict(table.entries)
    entries[key] += Fraction(1, 7)
    return type(table)(table.degree, table.kind, entries)


def replaced(out, index, result):
    return out[:index] + [result] + out[index + 1:]


def test_transforms_check_catches_a_wrong_entry():
    workload = Transforms()
    inp = workload.prepare(1, None)[0]  # a compound Poisson and a Gaussian
    out = workload.op(inp)
    wrong = []
    for index in (0, 1):
        result = out[index]
        wrong += [replaced(out, index, {**result, "back": off_by_a_seventh(result["back"], (2, 1))}),
                  replaced(out, index, {**result, "residual": Fraction(1, 7)}),
                  replaced(out, index, {**result, "scaled": off_by_a_seventh(result["scaled"],
                                                                             (1, 1))})]
    wrong.append(replaced(out, 1, {**out[1], "moments": off_by_a_seventh(out[1]["moments"],
                                                                         (4, 0))}))
    assert statuses(workload, inp, [out] + wrong) == ["ok"] + ["wrong"] * 7


def test_fock_check_catches_a_wrong_entry():
    workload = Fock()
    inp = workload.prepare(1, None)[0]
    out = workload.op(inp)
    wrong = [replaced(out, 2, off_by_a_seventh(out[2], key))
             for key in ((1, 0), (3, 0), (0, 2), (2, 2))]
    assert statuses(workload, inp, [out] + wrong) == ["ok"] + ["wrong"] * 4


def test_levy_check_catches_a_moved_atom():
    workload = LevyRoundtrip()
    inp = workload.prepare(1, None)[0]
    out = workload.op(inp)
    rec = out[2]["recovered"]  # the triple with three atoms
    s, t, w = rec.rho1.atoms[0]
    moved = bifree.DiscretePlanarMeasure.from_atoms(
        [(s + 1e-6, t, w)] + list(rec.rho1.atoms[1:]), kind=rec.kind)
    wrong_atom = {**out[2], "recovered": bifree.LevyHincinData(
        rec.kappa10, rec.kappa01, moved, rec.rho2, rec.rho, rec.kind)}
    wrong_table = {**out[2], "rebuilt": off_by_a_seventh(out[2]["table"], (2, 2))}
    outputs = [out] + [replaced(out, 2, wrong) for wrong in (wrong_atom, wrong_table)]
    assert statuses(workload, inp, outputs) == ["ok", "wrong", "wrong"]


def test_failing_operation_is_counted():
    workload = Fock()
    inp = workload.prepare(1, None)[0]
    record = []

    def broken(_):
        raise bifree.DegreeError("deliberate")

    attempt(workload, inp, broken, record)
    assert [status for _, status, _ in record] == ["failed"]


@pytest.fixture
def cli_pass(tmp_path):
    workload = Cli()
    return workload, workload.prepare(1, tmp_path)


def test_cli_check_catches_invalid_json_and_wrong_values(cli_pass):
    workload, inputs = cli_pass
    make = inputs[0]
    out = workload.op(make)
    doc = json.loads(out["stdout"])
    doc["entries"][3][2] = str(Fraction(doc["entries"][3][2]) + Fraction(1, 7))
    wrong_entry = {**out, "stdout": json.dumps(doc)}
    got = statuses(workload, make, [out, {**out, "code": 2}, wrong_entry])
    assert got == ["ok", "wrong", "wrong"]
    chi = next(inp for inp in inputs if inp["name"] == "verify-chi")
    nan = {"code": 0, "stdout": '{"max_residual": NaN, "suite": "chi"}\n', "stderr": ""}
    nonzero = {**nan, "stdout": '{"max_residual": 1e-300, "suite": "chi"}\n'}
    missing = {**nan, "stdout": '{"suite": "chi"}\n'}
    assert statuses(workload, chi, [nan, nonzero, missing]) == ["wrong"] * 3


def test_cli_check_catches_a_moved_atom(cli_pass):
    workload, inputs = cli_pass
    extract = next(inp for inp in inputs if inp["name"] == "extract")
    for inp in inputs[:inputs.index(extract) + 1]:
        out = workload.op(inp)
    assert statuses(workload, extract, [out]) == ["ok"]
    doc = json.loads(out["stdout"])
    doc["rho"]["atoms"][0][0] += 1e-6
    assert statuses(workload, extract, [{**out, "stdout": json.dumps(doc)}]) == ["wrong"]
