"""Command-line pipelines over the library, one JSON document per call.

Every subcommand reads JSON from file arguments (or "-" for stdin) and
writes a single JSON document to stdout. Output is byte-deterministic for
fixed inputs and flags. Exit codes: 0 for success or a true verdict, 1 for
a false verdict, 2 for input errors.

Each handler imports the modules it calls, so a call loads only what its
command reads: `moments` never loads the Fock or Levy-Hincin layers. No
command loads numpy: a table's gates and model, rational or float, come
from one integer elimination, and `extract` diagonalizes in pure Python.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import scalars
from .errors import BifreeError


def _load(path: str) -> dict:
    if path == "-":
        data = json.load(sys.stdin)
    else:
        with open(path) as handle:
            data = json.load(handle)
    if not isinstance(data, dict):
        name = "stdin" if path == "-" else path
        raise ValueError(f"{name}: the top-level JSON value must be an object")
    return data


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _finite_float(text: str) -> float:
    try:
        return scalars.coerce(text, scalars.FLOAT)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer_at_least(lowest: int, name: str):
    def parse(text: str) -> int:
        try:
            if int(text) >= lowest:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{name} must be an integer >= {lowest}, got {text!r}")
    return parse


_degree = _integer_at_least(1, "degree")


def _gram_window(args, table) -> int:
    # the largest window a table of this degree supports for both gates
    return (table.degree - 2) // 2 if args.gram_degree is None else args.gram_degree


def cmd_partitions(args) -> int:
    from .partitions import ChiMap, enumerate_bnc, enumerate_nc
    if args.chi is not None:
        chi = ChiMap.from_string(args.chi)
        pairs = enumerate_bnc(chi)
        _emit({
            "chi": args.chi.upper(),
            "count": len(pairs),
            "partitions": [{"blocks": img.to_jsonable(), "source": src.to_jsonable()}
                           for img, src in pairs],
        })
    else:
        parts = enumerate_nc(args.n)
        _emit({"n": args.n, "count": len(parts),
               "partitions": [p.to_jsonable() for p in parts]})
    return 0


def cmd_cumulants(args) -> int:
    from .cumulants import MomentTable, moments_to_cumulants
    table = MomentTable.from_jsonable(_load(args.table))
    _emit(moments_to_cumulants(table).to_jsonable())
    return 0


def cmd_moments(args) -> int:
    from .cumulants import CumulantTable, cumulants_to_moments
    table = CumulantTable.from_jsonable(_load(args.table))
    _emit(cumulants_to_moments(table).to_jsonable())
    return 0


def cmd_convolve(args) -> int:
    from .convolution import bifree_convolve
    from .cumulants import CumulantTable
    k1 = CumulantTable.from_jsonable(_load(args.left))
    k2 = CumulantTable.from_jsonable(_load(args.right))
    _emit(bifree_convolve(k1, k2).to_jsonable())
    return 0


def cmd_semigroup(args) -> int:
    from .convolution import semigroup_scale
    from .cumulants import CumulantTable
    table = CumulantTable.from_jsonable(_load(args.table))
    t = scalars.coerce(args.t, table.kind)
    _emit(semigroup_scale(table, t, assume_divisible=args.assume_divisible).to_jsonable())
    return 0


def cmd_make(args) -> int:
    from .limits import bifree_gaussian, bifree_poisson, compound_bifree_poisson
    from .measures import DiscretePlanarMeasure
    kind = args.kind
    conv = lambda text: scalars.coerce(text, kind)
    if args.distribution == "gaussian":
        table = bifree_gaussian(conv(args.s1), conv(args.s2), conv(args.c),
                                args.degree, kind)
    elif args.distribution == "poisson":
        table = bifree_poisson(conv(args.rate), conv(args.alpha), conv(args.beta),
                               args.degree, kind)
    else:
        # the rate takes the kind of the jump document, which may state its own
        jump = DiscretePlanarMeasure.from_jsonable(_load(args.nu), kind)
        table = compound_bifree_poisson(args.rate, jump, args.degree)
    _emit(table.to_jsonable())
    return 0


def cmd_lh_cumulants(args) -> int:
    from .levy_hincin import LevyHincinData, r_transform_from_lh
    data = LevyHincinData.from_jsonable(_load(args.data))
    _emit(r_transform_from_lh(data, args.degree).to_jsonable())
    return 0


def cmd_lh_validate(args) -> int:
    from .levy_hincin import LevyHincinData, validate_lh
    data = LevyHincinData.from_jsonable(_load(args.data))
    report = validate_lh(data)
    _emit(report.to_jsonable())
    return 0 if report.ok else 1


def cmd_check_id(args) -> int:
    from .cumulants import CumulantTable
    from .levy_hincin import check_cond_bounded, check_cpsd
    table = CumulantTable.from_jsonable(_load(args.table))
    d = _gram_window(args, table)
    cpsd = check_cpsd(table, d)
    bounded = check_cond_bounded(table, d)
    _emit({"cpsd": cpsd.to_jsonable(), "bounded": bounded.to_jsonable(),
           "degree_window": d, "ok": cpsd.ok and bounded.ok})
    return 0 if cpsd.ok and bounded.ok else 1


def cmd_gns(args) -> int:
    from .cumulants import CumulantTable
    from .levy_hincin import gns_reconstruct
    table = CumulantTable.from_jsonable(_load(args.table))
    _emit(gns_reconstruct(table, _gram_window(args, table)).to_jsonable())
    return 0


def cmd_extract(args) -> int:
    from .fock import FockModel
    from .levy_hincin import extract_levy_measures
    model = FockModel.from_jsonable(_load(args.model))
    _emit(extract_levy_measures(model).to_jsonable())
    return 0


def cmd_fock_moments(args) -> int:
    from .fock import FockModel, moment_table_from_model, vacuum_moment
    if (args.m is None) != (args.n is None):
        raise ValueError("--m and --n go together: both for one moment, neither for the table")
    if args.m is not None and args.degree is not None:
        raise ValueError("--degree sizes the table; it does not go with --m and --n")
    model = FockModel.from_jsonable(_load(args.model))
    if args.m is not None:
        value = vacuum_moment(model, args.m, args.n)
        _emit({"m": args.m, "n": args.n,
               "value": scalars.to_jsonable(value, model.kind)})
    else:
        degree = 6 if args.degree is None else args.degree
        _emit(moment_table_from_model(model, degree).to_jsonable())
    return 0


def _verify_payload(args):
    # (payload, kind): max_residual is exact, a Fraction for rational data
    if args.suite in ("voiculescu", "chi", "roundtrip"):
        if getattr(args, "model", None):  # only voiculescu takes --model
            from .fock import FockModel, moment_table_from_model
            model = FockModel.from_jsonable(_load(args.model), args.kind)
            table = moment_table_from_model(model, args.degree)
        else:
            from .measures import DiscretePlanarMeasure, moment_table
            mu = DiscretePlanarMeasure.from_jsonable(_load(args.measure), args.kind)
            table = moment_table(mu, args.degree)
    if args.suite == "voiculescu":
        from .cumulants import verify_voiculescu_identity
        return {"suite": "voiculescu", "max_residual": verify_voiculescu_identity(table)}, \
            table.kind
    if args.suite == "chi":
        from .cumulants import mobius_cumulant, moments_to_cumulants, table_keys
        # the literal Mobius sum against the closed-form transform
        kappa = moments_to_cumulants(table)
        worst = max(abs(mobius_cumulant(table, m, n) - kappa.get(m, n))
                    for m, n in table_keys(args.degree, 1))
        return {"suite": "chi", "max_residual": worst}, table.kind
    if args.suite == "roundtrip":
        from .cumulants import cumulants_to_moments, moments_to_cumulants
        back = cumulants_to_moments(moments_to_cumulants(table))
        worst = max(abs(back.get(m, n) - table.get(m, n)) for (m, n) in table.entries)
        return {"suite": "roundtrip", "max_residual": worst}, table.kind
    if args.suite == "limits":
        from .cumulants import cumulants_to_moments, table_keys
        from .limits import (bifree_poisson, poisson_family, row_sum_moments,
                             triangular_limit_estimate)
        kind = args.kind
        rate, alpha, beta = (scalars.coerce(v, kind) for v in (args.rate, args.alpha, args.beta))
        family = poisson_family(rate, alpha, beta, kind)
        target = bifree_poisson(rate, alpha, beta, args.degree, kind)
        worst = scalars.zero(kind)
        for m, n in table_keys(args.degree, 1):
            for est in triangular_limit_estimate(family, m, n, [10, 100]):
                worst = max(worst, abs(est - target.get(m, n)))
        limit_moments = cumulants_to_moments(target)
        ratios = []
        errors = []
        for n_rows in (10, 100, 1000):
            approx = row_sum_moments(family, n_rows, args.degree)
            errors.append(max(float(abs(approx.get(m, n) - limit_moments.get(m, n)))
                              for (m, n) in limit_moments.entries))
        for early, late in zip(errors, errors[1:]):
            # null where the later error is exactly 0 and the ratio is undefined
            ratios.append(early / late if late else None)
        return {"suite": "limits", "max_residual": worst,
                "convergence_ratios": ratios}, kind
    # semigroup
    from .convolution import bifree_convolve, free_convolve_marginal, semigroup_scale
    from .cumulants import CumulantTable, cumulants_to_moments
    table = CumulantTable.from_jsonable(_load(args.table))
    s = scalars.coerce(args.s, table.kind)
    t = scalars.coerce(args.t, table.kind)
    combined = bifree_convolve(semigroup_scale(table, s, assume_divisible=True),
                               semigroup_scale(table, t, assume_divisible=True))
    direct = semigroup_scale(table, s + t, assume_divisible=True)
    worst = max(abs(combined.get(m, n) - direct.get(m, n)) for (m, n) in direct.entries)
    moments = cumulants_to_moments(table)
    first_marginal = [moments.get(m, 0) for m in range(table.degree + 1)]
    convolved = free_convolve_marginal(first_marginal, first_marginal,
                                       table.degree, table.kind)
    doubled = cumulants_to_moments(semigroup_scale(table, 2))
    worst_marginal = max(abs(convolved[m] - doubled.get(m, 0))
                         for m in range(table.degree + 1))
    return {"suite": "semigroup", "max_residual": max(worst, worst_marginal)}, table.kind


def cmd_verify(args) -> int:
    payload, kind = _verify_payload(args)
    worst = payload["max_residual"]
    payload["max_residual"] = float(worst)  # rounding keeps the max: same figure
    _emit(payload)
    # rational data passes on an exact 0 alone; --tolerance is for float data
    if kind == scalars.RATIONAL:
        return 0 if worst == 0 else 1
    return 0 if worst <= args.tolerance else 1


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # a flag is its full name: --t is not --tolerance
        super().__init__(allow_abbrev=False, **kwargs)


# The flags of the `make` distributions and the `verify` suites; each
# sub-parser declares only the ones it reads.
_OPTIONS = {"model": {}, "measure": {}, "table": {}, "nu": {"help": "jump distribution JSON"},
            "degree": {"type": _degree, "default": 6},
            "s1": {"default": "1"}, "s2": {"default": "1"}, "c": {"default": "0"},
            "lambda": {"dest": "rate", "default": "1"},
            "alpha": {"default": "1"}, "beta": {"default": "1"},
            "s": {"default": "1"}, "t": {"default": "2"},
            "kind": {"choices": list(scalars.KINDS), "default": scalars.RATIONAL},
            "tolerance": {"type": _finite_float, "default": 1e-9,
                          "help": "largest max_residual that passes on float data; "
                                  "rational data passes only on an exact 0"}}


def _add_parsers(sub, func, table) -> None:
    # table rows: (name, input files of which exactly one is required, flags)
    for name, inputs, flags in table:
        q = sub.add_parser(name)
        if inputs:
            group = q.add_mutually_exclusive_group(required=True)
            for flag in inputs.split():
                group.add_argument(f"--{flag}", **_OPTIONS[flag])
        for flag in flags.split():
            q.add_argument(f"--{flag}", **_OPTIONS[flag])
        q.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bifree",
        description="bi-free probability pipelines with deterministic JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partitions", help="enumerate non-crossing or bi-non-crossing partitions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--chi", help="left/right word such as LRRL")
    p.set_defaults(func=cmd_partitions)

    p = sub.add_parser("cumulants", help="moment table -> cumulant table")
    p.add_argument("table")
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("moments", help="cumulant table -> moment table")
    p.add_argument("table")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("convolve", help="additive bi-free convolution of two cumulant tables")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("semigroup", help="scale a cumulant table by t")
    p.add_argument("table")
    p.add_argument("--t", required=True)
    p.add_argument("--assume-divisible", action="store_true")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("make", help="construct a named cumulant table")
    _add_parsers(p.add_subparsers(dest="distribution", required=True), cmd_make,
                 (("gaussian", "", "s1 s2 c degree kind"),
                  ("poisson", "", "lambda alpha beta degree kind"),
                  ("compound", "nu", "lambda degree kind")))

    p = sub.add_parser("lh-cumulants", help="Levy-Hincin triple -> cumulant table")
    p.add_argument("data")
    p.add_argument("--degree", type=_degree, default=8)
    p.set_defaults(func=cmd_lh_cumulants)

    p = sub.add_parser("lh-validate", help="check the Levy-Hincin measure relations")
    p.add_argument("data")
    p.set_defaults(func=cmd_lh_validate)

    p = sub.add_parser("check-id", help="conditional positivity and boundedness gates")
    p.add_argument("table")
    p.add_argument("--gram-degree", type=int)
    p.set_defaults(func=cmd_check_id)

    p = sub.add_parser("gns", help="reconstruct an operator model from cumulants")
    p.add_argument("table")
    p.add_argument("--gram-degree", type=int)
    p.set_defaults(func=cmd_gns)

    p = sub.add_parser("extract", help="Levy measures of an operator model")
    p.add_argument("model")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("fock-moments", help="vacuum moments of an operator model")
    p.add_argument("model")
    p.add_argument("--degree", type=_degree, help="table mode only; default 6")
    p.add_argument("--m", type=_integer_at_least(0, "index"))
    p.add_argument("--n", type=_integer_at_least(0, "index"))
    p.set_defaults(func=cmd_fock_moments)

    p = sub.add_parser("verify", help="run a named invariant suite")
    _add_parsers(p.add_subparsers(dest="suite", required=True), cmd_verify,
                 (("voiculescu", "model measure", "degree kind tolerance"),
                  ("chi", "measure", "degree kind tolerance"),
                  ("roundtrip", "measure", "degree kind tolerance"),
                  ("limits", "", "lambda alpha beta degree kind tolerance"),
                  ("semigroup", "table", "s t tolerance")))

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (BifreeError, ValueError, KeyError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
