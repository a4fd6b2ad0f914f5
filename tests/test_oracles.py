"""Brute-force ground-truth engines: EFR-k decision, PO scan, partition."""

import itertools
from fractions import Fraction as F

import pytest

from conftest import spend_of

from mannafair.core import (
    Allocation,
    BudgetExceededError,
    Instance,
    build_envy_graph,
    bundle_value,
    validate_certificate,
)
from mannafair.oracles import (
    decide_efr_k,
    is_pareto_optimal_bruteforce,
    min_efr_k,
    solve_partition,
)
from mannafair.harness import gen_identical_chores, gen_paired_goods, gen_random


def make_instance(rows):
    return Instance(tuple(tuple(F(v) for v in row) for row in rows))


def all_allocations(n, m):
    for assignment in itertools.product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for t, a in enumerate(assignment):
            bundles[a].add(t)
        yield Allocation(tuple(frozenset(b) for b in bundles))


CHORES4 = gen_identical_chores(4)
CHORES4_ALLOC = Allocation(
    (frozenset({0}), frozenset({1}), frozenset({2}), frozenset())
)
PAIRED4 = gen_paired_goods(4)
PAIRED4_ALLOC = Allocation(
    (frozenset({0}), frozenset(), frozenset({1}), frozenset())
)


class TestDecideEfrK:
    def test_envy_free_allocation_k0(self):
        inst = make_instance([[5, 0], [0, 5]])
        alloc = Allocation((frozenset({0}), frozenset({1})))
        decision = decide_efr_k(inst, alloc, 0)
        assert decision.verdict
        assert decision.certificate.realloc_set == frozenset()

    def test_identical_chores_needs_all_three_items(self):
        assert not decide_efr_k(CHORES4, CHORES4_ALLOC, 2).verdict
        decision = decide_efr_k(CHORES4, CHORES4_ALLOC, 3)
        assert decision.verdict
        assert validate_certificate(CHORES4, decision.certificate)

    def test_paired_goods_needs_two_items(self):
        assert not decide_efr_k(PAIRED4, PAIRED4_ALLOC, 1).verdict
        decision = decide_efr_k(PAIRED4, PAIRED4_ALLOC, 2)
        assert decision.verdict
        assert validate_certificate(PAIRED4, decision.certificate)

    def test_monotone_in_k(self):
        inst = gen_random(3, 5, 9, F(1, 2), seed=13)
        for alloc in itertools.islice(all_allocations(3, 5), 0, 243, 29):
            verdicts = [
                decide_efr_k(inst, alloc, k).verdict for k in range(6)
            ]
            # once true, stays true
            assert verdicts == sorted(verdicts)

    def test_emitted_certificates_validate(self):
        inst = gen_random(3, 5, 9, F(1, 2), seed=17)
        for alloc in itertools.islice(all_allocations(3, 5), 0, 243, 37):
            k, cert = min_efr_k(inst, alloc)
            assert validate_certificate(inst, cert)
            assert len(cert.realloc_set) <= k

    def test_k_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            decide_efr_k(CHORES4, CHORES4_ALLOC, 4)

    def test_budget_abort(self):
        with pytest.raises(BudgetExceededError):
            decide_efr_k(CHORES4, CHORES4_ALLOC, 3, budget=2)


class TestMinEfrK:
    def test_envy_free_allocation_is_zero(self):
        inst = make_instance([[5, 0], [0, 5]])
        alloc = Allocation((frozenset({0}), frozenset({1})))
        assert min_efr_k(inst, alloc)[0] == 0

    def test_identical_chores_any_allocation_is_three(self):
        for alloc in all_allocations(4, 3):
            assert min_efr_k(CHORES4, alloc)[0] == 3

    def test_paired_goods_any_allocation_is_two(self):
        for alloc in all_allocations(4, 2):
            assert min_efr_k(PAIRED4, alloc)[0] == 2

    def test_budget_is_shared_across_k(self):
        # CHORES4_ALLOC needs k = 3.  min_efr_k is one scan by increasing
        # |R|, so its budget is that of decide_efr_k at k = 3 alone, not
        # the sum that deciding each k in turn would spend
        spends = [
            spend_of(lambda b: decide_efr_k(CHORES4, CHORES4_ALLOC, k, b))[1]
            for k in range(4)
        ]
        # the three chores are twins, each alone with one of three agents
        # of equal rows, so one R of each size is scanned and no placement
        # search runs: the full scan spent 1, 4, 7 and 8
        assert spends == [1, 2, 3, 4]
        decision = decide_efr_k(CHORES4, CHORES4_ALLOC, 3)
        assert min_efr_k(CHORES4, CHORES4_ALLOC, budget=spends[3]) == (
            3, decision.certificate
        )
        with pytest.raises(BudgetExceededError):
            min_efr_k(CHORES4, CHORES4_ALLOC, budget=spends[3] - 1)
        assert spends[3] < sum(spends)


class TestParetoBruteforce:
    def test_single_agent_always_po(self):
        inst = make_instance([[-5, 3]])
        assert is_pareto_optimal_bruteforce(
            inst, Allocation((frozenset({0, 1}),))
        )

    def test_welfare_argmax_is_po(self):
        inst = gen_random(3, 5, 9, F(1, 2), seed=23)
        # independent welfare argmax: give each item to its top agent
        bundles = [set() for _ in range(3)]
        for t in range(5):
            best = max(range(3), key=lambda i: (inst.values[i][t], -i))
            bundles[best].add(t)
        alloc = Allocation(tuple(frozenset(b) for b in bundles))
        assert is_pareto_optimal_bruteforce(inst, alloc)

    def test_single_common_chore_both_placements_po(self):
        # moving the chore always hurts the receiver, so neither dominates
        inst = make_instance([[-1], [-2]])
        assert is_pareto_optimal_bruteforce(
            inst, Allocation((frozenset(), frozenset({0})))
        )
        assert is_pareto_optimal_bruteforce(
            inst, Allocation((frozenset({0}), frozenset()))
        )

    def test_misplaced_mixed_item_is_dominated(self):
        # good for agent 0, chore for agent 1: only one placement is PO
        inst = make_instance([[1], [-2]])
        assert not is_pareto_optimal_bruteforce(
            inst, Allocation((frozenset(), frozenset({0})))
        )
        assert is_pareto_optimal_bruteforce(
            inst, Allocation((frozenset({0}), frozenset()))
        )

    def test_budget_abort(self):
        inst = gen_random(3, 6, 9, F(1, 2), seed=2)
        alloc = next(all_allocations(3, 6))
        # dominated, so the search walks at least one branch of m + 1 nodes
        with pytest.raises(BudgetExceededError):
            is_pareto_optimal_bruteforce(inst, alloc, budget=6)


class TestSolvePartition:
    def test_pair_of_ones(self):
        assert solve_partition([1, 1]) == (0,)

    def test_one_two_three(self):
        combo = solve_partition([1, 2, 3])
        assert combo is not None
        assert sum([1, 2, 3][i] for i in combo) == 3

    def test_odd_total_is_none(self):
        assert solve_partition([1, 1, 1]) is None

    def test_even_total_without_partition(self):
        assert solve_partition([1, 3]) is None

    def test_matches_exhaustive_scan(self):
        for values in itertools.product(range(1, 5), repeat=4):
            total = sum(values)
            expected = total % 2 == 0 and any(
                sum(c) == total // 2
                for size in range(1, 5)
                for c in itertools.combinations(values, size)
            )
            assert (solve_partition(list(values)) is not None) == expected

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_partition([])
        with pytest.raises(ValueError):
            solve_partition([1, -2])


class TestParetoImpliesEnvySink:
    def test_po_allocations_have_acyclic_envy_graph_with_sink(self):
        # PO rules out envy cycles, so a topological sink must exist
        for seed in range(6):
            inst = gen_random(3, 4, 9, F(1, 2), seed=seed)
            for alloc in all_allocations(3, 4):
                if is_pareto_optimal_bruteforce(inst, alloc):
                    graph = build_envy_graph(inst, alloc)
                    assert graph.topological_order() is not None
                    assert graph.sinks()
