"""Domain model: values, envy graph, fairness predicates, certificates."""

import itertools
from fractions import Fraction as F

import pytest

from mannafair.core import (
    Allocation,
    Budget,
    BudgetExceededError,
    EfrCertificate,
    IncompleteCertificateError,
    Instance,
    as_rational,
    build_envy_graph,
    bundle_value,
    is_ef1,
    is_envy_free,
    is_envy_free_for,
    validate_allocation,
    validate_certificate,
)
from mannafair.harness import gen_identical_chores, gen_random


def make_instance(rows):
    return Instance(tuple(tuple(F(v) for v in row) for row in rows))


# 4 agents, 3 identical chores valued -1; spread over agents 0..2
CHORES4 = gen_identical_chores(4)
CHORES4_ALLOC = Allocation(
    (frozenset({0}), frozenset({1}), frozenset({2}), frozenset())
)


def all_allocations(n, m):
    for assignment in itertools.product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for t, a in enumerate(assignment):
            bundles[a].add(t)
        yield Allocation(tuple(frozenset(b) for b in bundles))


class TestRational:
    def test_exact_fraction_arithmetic(self):
        assert as_rational("3/7") + as_rational("4/7") == 1
        assert as_rational(2) / 3 == F(2, 3)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)

    @pytest.mark.parametrize(
        "text, value",
        [("7", F(7)), ("-3/6", F(-1, 2)), ("+0.25", F(1, 4)), (".5", F(1, 2))],
    )
    def test_integer_fraction_and_decimal_strings(self, text, value):
        assert as_rational(text) == value

    @pytest.mark.parametrize(
        "text", ["1e10000000", "2.5E-3", "1_000", "1/2/3", "1/-2", "", "x", "inf"]
    )
    def test_other_strings_rejected_by_form(self, text):
        with pytest.raises(ValueError, match="bad rational"):
            as_rational(text)

    def test_lowest_terms(self):
        r = as_rational("4/6")
        assert (r.numerator, r.denominator) == (2, 3)


class TestBudget:
    def test_spends_down_to_zero_then_raises_naming_what_and_limit(self):
        budget = Budget(5, "test units")
        budget.spend()
        budget.spend(4)
        assert budget.remaining == 0
        with pytest.raises(
            BudgetExceededError, match="^test units exceed the limit of 5$"
        ):
            budget.spend()

    def test_an_up_front_spend_raises_before_any_unit_is_used(self):
        budget = Budget(3, "test units")
        with pytest.raises(BudgetExceededError):
            budget.spend(4)
        Budget(3, "test units").spend(3)


class TestInstance:
    def test_dimensions(self):
        inst = make_instance([[1, -2], [3, 0]])
        assert inst.num_agents == 2
        assert inst.num_items == 2

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            make_instance([[1, 2], [3]])

    def test_empty_item_set_allowed(self):
        inst = Instance(values=((), ()))
        assert inst.num_items == 0


class TestAllocation:
    def test_partition_enforced(self):
        inst = make_instance([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            validate_allocation(
                inst, Allocation((frozenset({0}), frozenset({0, 1})))
            )
        with pytest.raises(ValueError):
            validate_allocation(inst, Allocation((frozenset({0}), frozenset())))

    def test_holder_and_reassign(self):
        alloc = Allocation((frozenset({0, 1}), frozenset({2})))
        assert alloc.holder(2) == 1
        moved = alloc.reassign({1: 1})
        assert moved.bundles == (frozenset({0}), frozenset({1, 2}))


class TestBundleValue:
    def test_empty_bundle_is_zero(self):
        inst = make_instance([[5, -3]])
        assert bundle_value(inst, 0, frozenset()) == 0

    def test_two_identical_chores(self):
        # 3 chores each valued -1: any two of them sum to -2
        assert bundle_value(CHORES4, 0, frozenset({0, 1})) == -2

    def test_matches_naive_summation(self):
        inst = gen_random(3, 7, 9, F(1, 2), seed=11)
        bundle = frozenset({0, 2, 5, 6})
        for i in range(3):
            naive = F(0)
            for t in bundle:
                naive += inst.values[i][t]
            assert bundle_value(inst, i, bundle) == naive

    def test_out_of_range_indices(self):
        inst = make_instance([[1]])
        with pytest.raises(IndexError):
            bundle_value(inst, 2, frozenset({0}))
        with pytest.raises(IndexError):
            bundle_value(inst, 0, frozenset({5}))


class TestEnvyGraph:
    def test_envy_free_allocation_has_no_edges(self):
        inst = make_instance([[5, 0], [0, 5]])
        alloc = Allocation((frozenset({0}), frozenset({1})))
        assert build_envy_graph(inst, alloc).edges == frozenset()

    def test_chore_holders_envy_only_the_empty_agent(self):
        graph = build_envy_graph(CHORES4, CHORES4_ALLOC)
        assert graph.edges == frozenset({(0, 3), (1, 3), (2, 3)})
        assert graph.out_neighbors(3) == []
        assert graph.sinks() == [3]

    def test_matches_pairwise_comparison(self):
        inst = gen_random(3, 6, 9, F(1, 2), seed=4)
        for alloc in itertools.islice(all_allocations(3, 6), 0, 729, 31):
            graph = build_envy_graph(inst, alloc)
            for i in range(3):
                for j in range(3):
                    if i == j:
                        continue
                    envies = bundle_value(
                        inst, i, alloc.bundles[i]
                    ) < bundle_value(inst, i, alloc.bundles[j])
                    assert ((i, j) in graph.edges) == envies

    def test_topological_order_respects_edges(self):
        graph = build_envy_graph(CHORES4, CHORES4_ALLOC)
        order = graph.topological_order()
        pos = {a: idx for idx, a in enumerate(order)}
        for (i, j) in graph.edges:
            assert pos[i] < pos[j]


class TestEnvyFreedom:
    def test_single_agent_always_envy_free(self):
        inst = make_instance([[-5, 3]])
        alloc = Allocation((frozenset({0, 1}),))
        assert is_envy_free_for(inst, alloc, 0)

    def test_empty_bundle_agent_in_chores_instance(self):
        assert is_envy_free_for(CHORES4, CHORES4_ALLOC, 3)
        assert not is_envy_free_for(CHORES4, CHORES4_ALLOC, 0)

    def test_agrees_with_envy_graph(self):
        inst = gen_random(3, 5, 9, F(1, 2), seed=9)
        for alloc in itertools.islice(all_allocations(3, 5), 0, 243, 17):
            graph = build_envy_graph(inst, alloc)
            for i in range(3):
                assert is_envy_free_for(inst, alloc, i) == (
                    graph.out_neighbors(i) == []
                )


def ef1_removal_oracle(inst, alloc):
    # independent: for every envying pair, try removing each item of either bundle
    n = inst.num_agents
    for i in range(n):
        own = bundle_value(inst, i, alloc.bundles[i])
        for j in range(n):
            if i == j:
                continue
            other = bundle_value(inst, i, alloc.bundles[j])
            if own >= other:
                continue
            cleared = False
            for t in alloc.bundles[i] | alloc.bundles[j]:
                oi = own - (inst.values[i][t] if t in alloc.bundles[i] else 0)
                oj = other - (inst.values[i][t] if t in alloc.bundles[j] else 0)
                if oi >= oj:
                    cleared = True
                    break
            if not cleared:
                return False
    return True


class TestEf1:
    def test_envy_free_implies_ef1(self):
        inst = make_instance([[5, 0], [0, 5]])
        alloc = Allocation((frozenset({0}), frozenset({1})))
        assert is_envy_free(inst, alloc)
        assert is_ef1(inst, alloc)

    def test_one_chore_each_is_ef1(self):
        assert is_ef1(CHORES4, CHORES4_ALLOC)

    def test_three_goods_hoarded_is_not_ef1(self):
        inst = make_instance([[1, 1, 1], [1, 1, 1]])
        alloc = Allocation((frozenset({0, 1, 2}), frozenset()))
        assert not is_ef1(inst, alloc)

    def test_matches_removal_oracle(self):
        inst = gen_random(2, 5, 9, F(1, 2), seed=21)
        for alloc in all_allocations(2, 5):
            assert is_ef1(inst, alloc) == ef1_removal_oracle(inst, alloc)


class TestValidateCertificate:
    def test_trivial_certificate(self):
        inst = make_instance([[5, 0], [0, 5]])
        base = Allocation((frozenset({0}), frozenset({1})))
        cert = EfrCertificate(base, frozenset(), ((), ()))
        assert validate_certificate(inst, cert)

    def test_chores_certificate_with_all_items_reallocated(self):
        # witness for agent i hands its chore to the empty agent
        witnesses = tuple(
            CHORES4_ALLOC.reassign({i: 3}) for i in range(3)
        ) + (CHORES4_ALLOC,)
        cert = EfrCertificate.of_witnesses(
            CHORES4_ALLOC, frozenset({0, 1, 2}), witnesses
        )
        assert cert.owners == ((3, 1, 2), (0, 3, 2), (0, 1, 3), (0, 1, 2))
        assert validate_certificate(CHORES4, cert)
        assert len(cert.realloc_set) == 3

    def test_witness_moving_item_outside_r_rejected(self):
        witnesses = tuple(
            CHORES4_ALLOC.reassign({i: 3}) for i in range(3)
        ) + (CHORES4_ALLOC,)
        cert = EfrCertificate.of_witnesses(CHORES4_ALLOC, frozenset({0, 1}), witnesses)
        assert cert.owners[2] is None
        assert not validate_certificate(CHORES4, cert)

    def test_missing_witness_raises(self):
        cert = EfrCertificate(CHORES4_ALLOC, frozenset(), ((),))
        with pytest.raises(IncompleteCertificateError):
            validate_certificate(CHORES4, cert)

    def test_accepted_certificates_have_envy_free_witnesses(self):
        witnesses = tuple(
            CHORES4_ALLOC.reassign({i: 3}) for i in range(3)
        ) + (CHORES4_ALLOC,)
        cert = EfrCertificate.of_witnesses(
            CHORES4_ALLOC, frozenset({0, 1, 2}), witnesses
        )
        assert validate_certificate(CHORES4, cert)
        assert cert.witnesses == witnesses
        for i in range(4):
            assert is_envy_free_for(CHORES4, cert.witnesses[i], i)
