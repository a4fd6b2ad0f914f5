"""Command-line interface.

Exit codes: 0 success / property true, 1 property false, 2 evaluation
budget exceeded, 3 input error, 4 internal error (any other exception,
reported on stderr without a traceback).  All output is deterministic
given the inputs and seeds.

Each command imports the layers it runs when it runs, and calls them as
module attributes: `gen` and `verify` load `core` and `harness` only.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .core import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    as_rational,
    validate_certificate,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BUDGET = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _set_entry(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--set entry {text.strip()!r} is not an integer") from None


# gen_random's parameters by the flags that set them
_RANDOM_FLAGS = {
    "n": "--n", "m": "--m", "value_range": "--values", "chore_prob": "--chore-prob"
}


def _cmd_gen(args) -> int:
    if args.family in ("identical-chores", "paired-goods"):
        if args.n is None:
            raise ValueError(f"--n is required for the {args.family} family")
        if args.family == "identical-chores":
            gen = harness.gen_identical_chores
        else:
            gen = harness.gen_paired_goods
        try:
            inst = gen(args.n)
        except ValueError as exc:
            raise ValueError(f"--n: {exc}") from None
        meta = {"family": args.family, "n": args.n}
    elif args.family == "partition":
        if not args.set:
            raise ValueError("--set is required for the partition family")
        values = [_set_entry(x) for x in args.set.split(",") if x.strip()]
        try:
            inst, alloc, k = harness.gen_partition_reduction(values)
        except ValueError as exc:
            raise ValueError(f"--set: {exc}") from None
        meta = {"family": "partition", "set": values, "k": k}
        if args.alloc_out:
            _write(args.alloc_out, harness.serialize_allocation(alloc))
    elif args.family == "random":
        if args.n is None or args.m is None or args.seed is None:
            raise ValueError("--n, --m, and --seed are required for random")
        try:
            chore_prob = as_rational(args.chore_prob)
        except ValueError as exc:
            raise ValueError(f"--chore-prob: {exc}") from None
        try:
            inst = harness.gen_random(
                args.n, args.m, args.values, chore_prob, args.seed
            )
        except ValueError as exc:
            flag = _RANDOM_FLAGS[str(exc).split(" ", 1)[0]]
            raise ValueError(f"{flag}: {exc}") from None
        meta = {
            "family": "random",
            "n": args.n,
            "m": args.m,
            "values": args.values,
            "chore_prob": args.chore_prob,
            "seed": args.seed,
        }
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {args.family}")
    _write(args.output, harness.serialize_instance(inst, meta))
    return EXIT_OK


def solve_instance(inst, algo: str, extend: bool = False, max_candidates=10**7):
    """Dispatch shared by the CLI and tests; returns the solve artifact."""
    if algo == "fixed-n":
        from . import fixed_n

        _, cert, _ = fixed_n.search_efr_po(inst, max_candidates=max_candidates)
        return cert
    from . import algorithms

    if algo == "ef1":
        return algorithms.double_round_robin_ef1(inst)
    if algo == "efr":
        return algorithms.efr_n_minus_1(inst)
    if algo == "goods":
        if not extend:
            return algorithms.conflict_aware_picking(inst)
        partial, reserved, _ = algorithms.run_picking_rounds(inst)
        base = algorithms.extend_with_round_robin(inst, partial, reserved)
        return algorithms.reserve_certificate(base, reserved)
    raise ValueError(f"unknown algorithm {algo}")


def _cmd_solve(args) -> int:
    inst = harness.parse_instance(_read(args.input))
    result = solve_instance(
        inst, args.algo, args.extend_round_robin, args.max_candidates
    )
    if args.algo == "ef1":
        _write(args.output, harness.serialize_allocation(result))
    else:
        _write(args.output, harness.serialize_certificate(result))
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = harness.parse_instance(_read(args.input))
    cert = harness.parse_certificate(_read(args.cert), inst)
    ok = validate_certificate(inst, cert)
    print("valid" if ok else "invalid")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_decide_efr(args) -> int:
    from . import oracles

    inst = harness.parse_instance(_read(args.input))
    alloc = harness.parse_allocation(_read(args.alloc), inst)
    decision = oracles.decide_efr_k(inst, alloc, args.k, budget=args.budget)
    print("true" if decision.verdict else "false")
    return EXIT_OK if decision.verdict else EXIT_FALSE


def _cmd_check_po(args) -> int:
    from . import oracles

    inst = harness.parse_instance(_read(args.input))
    alloc = harness.parse_allocation(_read(args.alloc), inst)
    ok = oracles.is_pareto_optimal_bruteforce(inst, alloc, budget=args.budget)
    print("pareto-optimal" if ok else "dominated")
    return EXIT_OK if ok else EXIT_FALSE


def _cmd_perturb(args) -> int:
    from . import welfare

    inst = harness.parse_instance(_read(args.input))
    pert = welfare.perturb_nondegenerate(inst)
    _write(args.output, harness.serialize_perturbed(pert))
    return EXIT_OK


def _budget(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mannafair",
        description="Fair division of indivisible mixed manna with "
        "exact-rational certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen.add_argument(
        "--family",
        required=True,
        choices=["identical-chores", "paired-goods", "partition", "random"],
    )
    gen.add_argument("--n", type=int)
    gen.add_argument("--m", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--values", type=int, default=9)
    gen.add_argument("--chore-prob", default="1/2")
    gen.add_argument("--set", help="comma-separated integers, e.g. '1,1,2'")
    gen.add_argument("--alloc-out", help="also write the reduction allocation")
    gen.add_argument("-o", "--output", required=True)
    gen.set_defaults(func=_cmd_gen)

    solve = sub.add_parser("solve", help="run an allocation algorithm")
    solve.add_argument(
        "--algo", required=True, choices=["ef1", "efr", "goods", "fixed-n"]
    )
    solve.add_argument("--extend-round-robin", action="store_true")
    solve.add_argument(
        "--max-candidates",
        type=_budget,
        default=10**7,
        help="fixed-n search budget; one unit is one separator combination, "
        "one joined tuple of per-agent item sets or one screened "
        "(R, demand, tuple) candidate",
    )
    solve.add_argument("-i", "--input", required=True)
    solve.add_argument("-o", "--output", required=True)
    solve.set_defaults(func=_cmd_solve)

    verify = sub.add_parser("verify", help="validate an EFR certificate")
    verify.add_argument("--cert", required=True)
    verify.add_argument("-i", "--input", required=True)
    verify.set_defaults(func=_cmd_verify)

    decide = sub.add_parser("decide-efr", help="exhaustive EFR-k decision")
    decide.add_argument("-i", "--input", required=True)
    decide.add_argument("--alloc", required=True)
    decide.add_argument("--k", type=int, required=True)
    decide.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET,
        help="search budget; one unit is one candidate set R or one node "
        "of the chore placement search, which runs once per distinct "
        "(chore costs, gaps) pair",
    )
    decide.set_defaults(func=_cmd_decide_efr)

    po = sub.add_parser(
        "check-po", help="exhaustive, pruned search for a Pareto improvement"
    )
    po.add_argument("-i", "--input", required=True)
    po.add_argument("--alloc", required=True)
    po.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_BUDGET,
        help="search budget; one unit is one node of the depth-first "
        "search, an assignment of items 1..t",
    )
    po.set_defaults(func=_cmd_check_po)

    perturb = sub.add_parser(
        "perturb", help="emit a non-degenerate perturbed instance"
    )
    perturb.add_argument("-i", "--input", required=True)
    perturb.add_argument("-o", "--output", required=True)
    perturb.set_defaults(func=_cmd_perturb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; 2 means budget here
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (harness.ParseError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # exit 1 would read as "property false"
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
