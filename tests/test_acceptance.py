"""Acceptance suite: one test per headline guarantee, exact arithmetic.

Each test prints a single pass/fail line into the terminal summary and
asserts with zero tolerance.  Random suites are fully seeded.
"""

import contextlib
import io
import itertools
import time
from fractions import Fraction as F

from mannafair.core import (
    Allocation,
    Instance,
    build_envy_graph,
    bundle_value,
    is_ef1,
    validate_certificate,
)
from mannafair.oracles import (
    decide_efr_k,
    is_pareto_optimal_bruteforce,
    solve_partition,
)
from mannafair.algorithms import (
    conflict_aware_picking,
    efr_n_minus_1,
    run_picking_rounds,
)
from mannafair.welfare import (
    WeightVector,
    demand_sets,
    max_weighted_welfare,
    perturb_nondegenerate,
)
from mannafair.fixed_n import search_efr_po
from mannafair.cli import main
from mannafair.harness import (
    gen_identical_chores,
    gen_paired_goods,
    gen_partition_reduction,
    gen_random,
)

from conftest import (
    ACCEPTANCE_LINES,
    picking_invariant_violation,
    separators_recover,
)
from test_welfare import forest_by_counting


def report(num, title, ok, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    line = f"[{num:02d}] {title}: {'PASS' if ok else 'FAIL'}{timing}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def all_allocations(n, m):
    for assignment in itertools.product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for t, a in enumerate(assignment):
            bundles[a].add(t)
        yield Allocation(tuple(frozenset(b) for b in bundles))


def weight_suite(n, count):
    # deterministic spread of simplex points, uniform first
    points = [WeightVector(tuple(F(1, n) for _ in range(n)))]
    shift = 1
    while len(points) < count:
        raw = [F((i + shift) ** 2 + 1) for i in range(n)]
        total = sum(raw)
        points.append(WeightVector(tuple(r / total for r in raw)))
        shift += 1
    return points[:count]


def test_01_efr_certificate_and_ef1_on_mixed_instances():
    start = time.time()
    ok = True
    for seed in range(200):
        n = 2 + seed % 3
        m = 4 + seed % 5
        inst = gen_random(n, m, 9, F(1, 2), seed=seed)
        cert = efr_n_minus_1(inst)
        ok = ok and validate_certificate(inst, cert)
        ok = ok and len(cert.realloc_set) <= n - 1
        ok = ok and is_ef1(inst, cert.base)
        if not ok:
            break
    elapsed = time.time() - start
    report(
        1,
        "EFR-(n-1) certificate plus EF1 base on 200 mixed seeds",
        ok and elapsed < 10,
        elapsed,
    )


def test_02_identical_chores_bound_is_tight_everywhere():
    start = time.time()
    ok = True
    for n in (2, 3, 4):
        inst = gen_identical_chores(n)
        for alloc in all_allocations(n, n - 1):
            if n >= 3:
                ok = ok and not decide_efr_k(inst, alloc, n - 2).verdict
            ok = ok and decide_efr_k(inst, alloc, n - 1).verdict
            if not ok:
                break
    elapsed = time.time() - start
    report(
        2,
        "n-1 identical chores force exactly n-1 reallocated items",
        ok and elapsed < 5,
        elapsed,
    )


def test_03_picking_sequence_on_goods_with_loop_invariants():
    start = time.time()
    ok = True
    for seed in range(200):
        n = 2 + seed % 5
        m = 3 + seed % 8
        inst = gen_random(n, m, 9, F(0), seed=seed)
        cert = conflict_aware_picking(inst)
        ok = ok and validate_certificate(inst, cert)
        ok = ok and len(cert.realloc_set) <= n // 2
        _, _, trace = run_picking_rounds(inst)
        ok = ok and picking_invariant_violation(inst, trace) is None
        if not ok:
            break
    elapsed = time.time() - start
    report(
        3,
        "conflict-aware picking on 200 goods seeds with loop invariants",
        ok and elapsed < 10,
        elapsed,
    )


def test_04_paired_goods_bound_is_tight():
    start = time.time()
    inst = gen_paired_goods(4)
    ok = all(
        not decide_efr_k(inst, alloc, 1).verdict
        for alloc in all_allocations(4, 2)
    )
    ok = ok and any(
        decide_efr_k(inst, alloc, 2).verdict for alloc in all_allocations(4, 2)
    )
    elapsed = time.time() - start
    report(
        4,
        "paired-goods instance needs exactly 2 reallocated items",
        ok and elapsed < 1,
        elapsed,
    )


def test_05_two_agent_search_is_efr1_and_po():
    start = time.time()
    ok = True
    for seed in range(30):
        m = 3 + seed % 4
        inst = gen_random(2, m, 9, F(1, 2), seed=seed)
        alloc, cert, _ = search_efr_po(inst)
        ok = ok and validate_certificate(inst, cert)
        ok = ok and decide_efr_k(inst, alloc, 1).verdict
        ok = ok and is_pareto_optimal_bruteforce(inst, alloc)
        if not ok:
            break
    elapsed = time.time() - start
    report(
        5,
        "two-agent enumeration search yields EFR-1 and PO on 30 seeds",
        ok and elapsed < 60,
        elapsed,
    )


def _welfare_suite():
    for seed in range(50):
        n = 2 + seed % 2
        m = 4 + seed % 3
        inst = gen_random(n, m, 9, F(1, 2), seed=seed)
        yield n, inst, perturb_nondegenerate(inst)


def test_06_weighted_welfare_maximizers_are_pareto_optimal():
    start = time.time()
    ok = True
    for n, inst, pert in _welfare_suite():
        for w in weight_suite(n, 5):
            alloc = max_weighted_welfare(pert, w)
            ok = ok and is_pareto_optimal_bruteforce(inst, alloc)
        if not ok:
            break
    elapsed = time.time() - start
    report(
        6,
        "shifted welfare maximizers are PO under original values",
        ok and elapsed < 30,
        elapsed,
    )


def test_07_tie_graphs_acyclic_with_small_tie_sets():
    start = time.time()
    ok = True
    for n, _, pert in _welfare_suite():
        for w in weight_suite(n, 5):
            demand = demand_sets(pert, w)
            ok = ok and forest_by_counting(demand)
            ok = ok and sum(len(d) > 1 for d in demand) <= n - 1
        if not ok:
            break
    elapsed = time.time() - start
    report(
        7,
        "tie graphs acyclic and at most n-1 tied items per weight",
        ok,
        elapsed,
    )


def test_08_perturbation_preserves_strict_preferences():
    start = time.time()
    ok = True
    for seed in range(10):
        n = 2 + seed % 2
        m = 4 + seed % 3
        inst = gen_random(n, m, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        for i in range(n):
            # each item goes to S, to T, or to neither
            for split in itertools.product(range(3), repeat=m):
                s = frozenset(t for t in range(m) if split[t] == 0)
                t_set = frozenset(t for t in range(m) if split[t] == 1)
                if bundle_value(inst, i, s) > bundle_value(inst, i, t_set):
                    ok = ok and (
                        pert.pert_bundle_value(i, s)
                        >= pert.pert_bundle_value(i, t_set) + F(1, 2)
                    )
        if not ok:
            break
    elapsed = time.time() - start
    report(
        8,
        "strict bundle preferences survive perturbation by half a unit",
        ok and elapsed < 30,
        elapsed,
    )


def test_09_separator_reconstruction_identity():
    start = time.time()
    ok = True
    for seed in range(30):
        n = 2 + seed % 2
        m = 4 + seed % 3
        inst = gen_random(n, m, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        raw = [F((i + seed) % 5 + 1) for i in range(n)]
        w = WeightVector(tuple(r / sum(raw) for r in raw))
        alloc = max_weighted_welfare(pert, w)
        demand = demand_sets(pert, w)
        tie_set = frozenset(t for t, d in enumerate(demand) if len(d) > 1)
        true_i = [frozenset(alloc.bundles[i]) - tie_set for i in range(n)]
        ok = ok and separators_recover(pert, true_i)
        if not ok:
            break
    elapsed = time.time() - start
    report(
        9,
        "true separators reconstruct the uniquely-demanded sets",
        ok,
        elapsed,
    )


def test_10_partition_reduction_equivalence():
    start = time.time()
    ok = True
    for k in range(1, 5):
        for values in itertools.combinations_with_replacement(range(1, 7), k):
            if sum(values) % 2:
                # odd totals have no partition and no integer reduction
                ok = ok and solve_partition(list(values)) is None
                continue
            inst, alloc, kk = gen_partition_reduction(list(values))
            verdict = decide_efr_k(inst, alloc, kk).verdict
            ok = ok and verdict == (solve_partition(list(values)) is not None)
        if not ok:
            break
    elapsed = time.time() - start
    report(
        10,
        "partition reduction matches the subset-sum oracle exactly",
        ok and elapsed < 60,
        elapsed,
    )


def test_11_pareto_optimal_allocations_have_envy_sinks():
    start = time.time()
    ok = True
    for seed in range(10):
        n = 2 + seed % 2
        inst = gen_random(n, 4, 9, F(1, 2), seed=seed)
        for alloc in all_allocations(n, 4):
            if is_pareto_optimal_bruteforce(inst, alloc):
                graph = build_envy_graph(inst, alloc)
                ok = ok and graph.is_acyclic() and bool(graph.sinks())
        if not ok:
            break
    elapsed = time.time() - start
    report(
        11,
        "Pareto-optimal allocations have acyclic envy graphs with sinks",
        ok,
        elapsed,
    )


def test_12_cli_outputs_are_byte_deterministic(tmp_path):
    start = time.time()

    def run_all(base):
        base.mkdir()
        outputs = {}
        cmds = {
            "chores.json": [
                "gen", "--family", "identical-chores", "--n", "4",
            ],
            "paired.json": ["gen", "--family", "paired-goods", "--n", "4"],
            "partition.json": [
                "gen", "--family", "partition", "--set", "1,2,3,4",
            ],
            "rand.json": [
                "gen", "--family", "random", "--n", "3", "--m", "5",
                "--seed", "29",
            ],
        }
        for name, argv in cmds.items():
            assert main(argv + ["-o", str(base / name)]) == 0
        inst = str(base / "rand.json")
        for algo in ("ef1", "efr"):
            assert main(
                ["solve", "--algo", algo, "-i", inst,
                 "-o", str(base / f"{algo}.json")]
            ) == 0
        two = str(base / "two.json")
        assert main(
            ["gen", "--family", "random", "--n", "2", "--m", "4",
             "--seed", "29", "-o", two]
        ) == 0
        assert main(
            ["solve", "--algo", "fixed-n", "-i", two,
             "-o", str(base / "fixedn.json")]
        ) == 0
        goods = str(base / "goods.json")
        assert main(
            ["gen", "--family", "random", "--n", "4", "--m", "6",
             "--seed", "29", "--chore-prob", "0", "-o", goods]
        ) == 0
        assert main(
            ["solve", "--algo", "goods", "-i", goods,
             "-o", str(base / "goodscert.json")]
        ) == 0
        assert main(
            ["perturb", "-i", inst, "-o", str(base / "pert.json")]
        ) == 0
        for name in sorted(p.name for p in base.iterdir()):
            outputs[name] = (base / name).read_bytes()
        # stdout-producing commands must be deterministic too
        for argv in (
            ["verify", "--cert", str(base / "efr.json"), "-i", inst],
            ["decide-efr", "-i", inst, "--alloc", str(base / "ef1.json"),
             "--k", "2"],
            ["check-po", "-i", inst, "--alloc", str(base / "ef1.json")],
        ):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                main(argv)
            outputs["stdout:" + argv[0]] = buf.getvalue()
        return outputs

    first = run_all(tmp_path / "a")
    second = run_all(tmp_path / "b")
    ok = first == second
    elapsed = time.time() - start
    report(12, "every CLI command reruns byte-identically", ok, elapsed)
