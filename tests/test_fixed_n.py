"""Enumeration search for allocations that are both EFR-(n-1) and PO."""

import itertools
import random
from fractions import Fraction as F

import pytest

from mannafair.core import (
    Allocation,
    Budget,
    BudgetExceededError,
    Instance,
    validate_certificate,
)
from mannafair import fixed_n
from mannafair.fixed_n import reconstruct_I, search_efr_po
from mannafair.oracles import decide_efr_k, is_pareto_optimal_bruteforce
from mannafair.welfare import (
    WeightVector,
    demand_sets,
    max_weighted_welfare,
    perturb_nondegenerate,
    po_certificate_lp,
)
from mannafair.harness import gen_random

from conftest import (
    f_ij_sets,
    i_sets,
    intersection_charges,
    join_charges,
    product_join,
    separators_recover,
)
from test_welfare import forest_by_counting
from test_witness_kernel import ref_demand_options


def recording_budget(events):
    """A `Budget` class that logs each charge to `events` before it spends."""

    class Recording(Budget):
        def spend(self, amount=1):
            events.append(("spend", amount))
            super().spend(amount)

    return Recording


def logged_masks(events, tag, masks):
    """`masks` as ints that log ("and", tag) to `events` on each `&`."""

    class Mask(int):
        def __and__(self, other):
            events.append(("and", tag))
            return int(self) & other

        __rand__ = __and__

    return [Mask(s) for s in masks]


def assert_each_charge_precedes_its_work(run, events):
    """`run(limit)` logs its charges and work to `events`.  A limit one unit
    short of each charge raises at that charge with nothing logged after
    it, and the total passes.  Returns the full log."""
    events.clear()
    result = run(10**9)
    full, spent = list(events), 0
    for e, (kind, amount) in enumerate(full):
        if kind == "spend":
            spent += amount
            events.clear()
            with pytest.raises(BudgetExceededError, match=f"limit of {spent - 1}$"):
                run(spent - 1)
            assert events == full[: e + 1]
    assert run(spent) == result
    return full


def make_instance(rows):
    return Instance(tuple(tuple(F(v) for v in row) for row in rows))


class TestBuildFij:
    def test_no_common_signs_no_q_items_gives_empty(self):
        # both items are chores for agent 0 and goods for agent 1, so no
        # common goods, no common chores, and no good-for-0/chore-for-1 items
        inst = make_instance([[-1, -2], [1, 2]])
        pert = perturb_nondegenerate(inst)
        assert f_ij_sets(pert, 0, 1) == {(None, None): frozenset()}

    def test_q_items_always_included(self):
        # good for agent 0, chore for agent 1
        inst = make_instance([[3, 1], [-2, -5]])
        pert = perturb_nondegenerate(inst)
        assert f_ij_sets(pert, 0, 1) == {(None, None): frozenset({0, 1})}

    def test_max_ratio_good_admits_all_common_goods(self):
        inst = make_instance([[1, 2, 3], [5, 2, 1]])
        pert = perturb_nondegenerate(inst)
        ratios = {
            t: pert.pert_values[1][t] / pert.pert_values[0][t] for t in range(3)
        }
        gmax = max(range(3), key=lambda t: (ratios[t], -t))
        assert f_ij_sets(pert, 0, 1)[gmax, None] == frozenset({0, 1, 2})

    def test_good_filter_matches_direct_ratio_scan(self):
        inst = gen_random(2, 6, 9, F(0), seed=5)  # all goods
        pert = perturb_nondegenerate(inst)
        sets = f_ij_sets(pert, 0, 1)
        assert list(sets) == [(g, None) for g in [None, *range(6)]]
        for g in range(6):
            bound = pert.pert_values[1][g] / pert.pert_values[0][g]
            expected = frozenset(
                t
                for t in range(6)
                if pert.pert_values[1][t] / pert.pert_values[0][t] <= bound
            )
            assert sets[g, None] == expected

    def test_chore_filter_matches_direct_ratio_scan(self):
        inst = gen_random(2, 6, 9, F(1), seed=5)  # all chores
        pert = perturb_nondegenerate(inst)
        sets = f_ij_sets(pert, 0, 1)
        assert list(sets) == [(None, c) for c in [None, *range(6)]]
        for c in range(6):
            bound = abs(pert.pert_values[0][c]) / abs(pert.pert_values[1][c])
            expected = frozenset(
                t
                for t in range(6)
                if abs(pert.pert_values[0][t]) / abs(pert.pert_values[1][t])
                <= bound
            )
            assert sets[None, c] == expected

    def test_wrong_sign_separator_rejected(self):
        # item 0 is a common good and item 1 a common chore, so neither can
        # separate with the other's role
        inst = make_instance([[3, -1], [2, -5]])
        pert = perturb_nondegenerate(inst)
        sets = f_ij_sets(pert, 0, 1)
        assert list(sets) == [(None, None), (None, 1), (0, None), (0, 1)]
        assert (1, None) not in sets and (None, 0) not in sets


class TestReconstructI:
    def test_two_agents_single_term_intersections(self):
        inst = make_instance([[3, -1], [-2, -5]])
        pert = perturb_nondegenerate(inst)
        for i, j in ((0, 1), (1, 0)):
            options = f_ij_sets(pert, i, j).values()
            expected = list(dict.fromkeys([frozenset(), *options]))
            got = i_sets(pert, i, Budget(10**9, "combinations"))
            assert got == expected

    def test_empty_flags_give_empty_sets(self):
        inst = make_instance([[3, 1], [2, 5]])
        pert = perturb_nondegenerate(inst)
        for i in range(2):
            sets = i_sets(pert, i, Budget(10**9, "combinations"))
            assert sets[0] == frozenset()
            assert len(set(sets)) == len(sets)

    @pytest.mark.parametrize("seed", range(10))
    def test_true_separators_recover_unique_demand_sets(self, seed):
        # ground truth: A* from welfare maximization, ties removed; the
        # argmax-ratio separators inside each I*_i must reconstruct it
        n = 2 + seed % 2
        inst = gen_random(n, 5, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        raw = [F(i + 2) for i in range(n)]
        w = WeightVector(tuple(r / sum(raw) for r in raw))
        alloc = max_weighted_welfare(pert, w)
        demand = demand_sets(pert, w)
        tie_set = frozenset(t for t, d in enumerate(demand) if len(d) > 1)
        true_i = [frozenset(alloc.bundles[i]) - tie_set for i in range(n)]
        assert separators_recover(pert, true_i)


class TestSearchEfrPo:
    def test_single_agent_grand_bundle(self):
        # one agent takes the general path: its only joined tuple claims
        # every item, so R is empty and the base is the grand bundle
        insts = [make_instance([[2, -3]])]
        for m, chore_prob, seed in itertools.product(
            range(9), (F(0), F(1, 2), F(1)), range(4)
        ):
            insts.append(gen_random(1, m, 9, chore_prob, seed))
        insts += [make_instance([["1/2", "-2/3", 5]]), make_instance([[0, 0, 0]])]
        for inst in insts:
            alloc, cert, w = search_efr_po(inst)
            assert alloc.bundles == (frozenset(range(inst.num_items)),)
            assert cert.realloc_set == frozenset()
            assert cert.witnesses == (alloc,)
            assert w.weights == (F(1),)

    def test_two_items_mixed_signs(self):
        inst = make_instance([[3, -1], [5, -2]])
        alloc, cert, _ = search_efr_po(inst)
        assert validate_certificate(inst, cert)
        assert is_pareto_optimal_bruteforce(inst, alloc)
        assert decide_efr_k(inst, alloc, 1).verdict

    @pytest.mark.parametrize("seed", range(8))
    def test_random_two_agent_instances(self, seed):
        inst = gen_random(2, 3 + seed % 4, 9, F(1, 2), seed=seed)
        alloc, cert, _ = search_efr_po(inst)
        assert validate_certificate(inst, cert)
        assert len(cert.realloc_set) <= 1
        assert is_pareto_optimal_bruteforce(inst, alloc)
        assert decide_efr_k(inst, alloc, 1).verdict

    @pytest.mark.parametrize("m", [5, 6, 7])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_three_agent_instances(self, m, seed):
        inst = gen_random(3, m, 9, F(1, 2), seed=seed)
        alloc, cert, _ = search_efr_po(inst)
        assert validate_certificate(inst, cert)
        assert len(cert.realloc_set) <= 2
        assert is_pareto_optimal_bruteforce(inst, alloc)
        assert decide_efr_k(inst, alloc, 2).verdict

    # (n, m, chore_prob, seed) -> (realloc set, bundles) as returned by the
    # separator-product enumeration that the distinct-set join replaced;
    # the join must keep its first hit.  Rows (3, 2, 1, 0), (3, 3, 1, 3)
    # and (3, 5, 1, 9) are the first hits once the LP also makes each
    # item's demanders beat the other agents (the earlier rows gave an R
    # item a single demander under their own weights).  Rows (3, 3, 1, 3)
    # and (2, 5, 0, 3) are the first hits under the closed-form (prime)
    # perturbation, which moved them; each hit is also checked below
    FIRST_HITS = [
        ((3, 2, F(1), 0), {0, 1}, [{1}, {0}, set()]),
        ((3, 2, F(1), 1), {0, 1}, [{0, 1}, set(), set()]),
        ((3, 2, F(1), 2), {0, 1}, [{0, 1}, set(), set()]),
        ((3, 2, F(1), 3), {0, 1}, [{0, 1}, set(), set()]),
        ((3, 3, F(1), 3), {0, 1}, [{0, 2}, {1}, set()]),
        ((3, 3, F(1, 2), 2), {2}, [{2}, set(), {0, 1}]),
        ((3, 3, F(1, 2), 11), {1}, [{0, 2}, {1}, set()]),
        ((2, 2, F(1, 2), 3), {1}, [{1}, {0}]),
        ((2, 3, F(1), 4), {2}, [{2}, {0, 1}]),
        ((2, 4, F(0), 6), {3}, [{1, 3}, {0, 2}]),
        ((2, 4, F(1), 10), {1}, [{0, 1, 2}, {3}]),
        ((2, 5, F(0), 3), set(), [{3, 4}, {0, 1, 2}]),
        ((2, 6, F(0), 9), {5}, [{0, 3, 5}, {1, 2, 4}]),
        ((3, 5, F(1), 9), {1}, [{1, 2, 4}, {3}, {0}]),
        ((3, 5, F(0), 4), set(), [{2}, {0}, {1, 3, 4}]),
        ((3, 5, F(1, 2), 0), set(), [{0, 1, 3}, {2}, {4}]),
        ((3, 4, F(1), 7), set(), [{2}, {1, 3}, {0}]),
        ((2, 3, F(1, 2), 0), set(), [{2}, {0, 1}]),
        ((2, 4, F(0), 4), set(), [{0, 2}, {1, 3}]),
        ((2, 4, F(1, 2), 3), set(), [{0, 3}, {1, 2}]),
    ]

    @pytest.mark.parametrize("spec,realloc,bundles", FIRST_HITS)
    def test_first_hit_follows_enumeration_order(self, spec, realloc, bundles):
        n, m, chore_prob, seed = spec
        inst = gen_random(n, m, 9, chore_prob, seed)
        alloc, cert, _ = search_efr_po(inst)
        assert cert.realloc_set == realloc
        assert alloc.bundles == tuple(frozenset(b) for b in bundles)
        assert validate_certificate(inst, cert) and len(realloc) <= n - 1
        assert all(
            is_pareto_optimal_bruteforce(inst, a) for a in (alloc, *cert.witnesses)
        )

    def test_rational_values_match_integer_scaled_copy(self):
        base = gen_random(3, 5, 9, F(1, 2), seed=4)
        rational = Instance(
            tuple(
                tuple(v / (2 + (i + t) % 3) for t, v in enumerate(row))
                for i, row in enumerate(base.values)
            )
        )
        scaled = Instance(
            tuple(tuple(12 * v for v in row) for row in rational.values)
        )
        alloc, cert, w = search_efr_po(rational)
        assert (alloc, cert, w) == search_efr_po(scaled)
        assert validate_certificate(rational, cert)
        assert is_pareto_optimal_bruteforce(rational, alloc)

    def test_agent_cap_enforced(self):
        inst = gen_random(5, 3, 9, F(1, 2), seed=0)
        with pytest.raises(ValueError, match="at most 4 agents"):
            search_efr_po(inst)

    def test_each_pair_is_charged_before_its_intersections(self, monkeypatch):
        pert = perturb_nondegenerate(gen_random(3, 6, 9, F(1, 2), seed=2))
        events = []
        build = fixed_n.build_f_ij

        def logging_build(pert, i, j):
            events.append(("filters", j))
            masks = build(pert, i, j)
            return dict(zip(masks, logged_masks(events, j, masks.values())))

        monkeypatch.setattr(fixed_n, "build_f_ij", logging_build)
        budget = recording_budget(events)
        for i in range(3):
            run = lambda limit: reconstruct_I(pert, i, budget(limit, "c"))
            full = assert_each_charge_precedes_its_work(run, events)
            # per pair: its filters, one charge of the distinct sets so far
            # times its options, then exactly that many intersections
            want = []
            others = [j for j in range(3) if j != i]
            for j, charge in zip(others, intersection_charges(pert, i)):
                want += [("filters", j), ("spend", charge), *[("and", j)] * charge]
            assert full == want

    def test_search_charges_each_join_node_before_its_scan_then_candidates(
        self, monkeypatch
    ):
        # three agents and three chores: the first hit has |R| = 2, so the
        # search walks the join for |R| = 0, 1 and 2 and screens each size's
        # candidates before it walks the next
        inst = gen_random(3, 3, 9, F(1), seed=3)
        events = []
        join, screen = fixed_n._join, fixed_n._efr_witnesses

        def logging_join(per_agent, m, budget):
            events.append(("join", None))
            per_agent = [logged_masks(events, k, s) for k, s in enumerate(per_agent)]
            yield from join(per_agent, m, budget)

        def logging_screen(*args):
            events.append(("screen", None))
            return screen(*args)

        monkeypatch.setattr(fixed_n, "Budget", recording_budget(events))
        monkeypatch.setattr(fixed_n, "_join", logging_join)
        monkeypatch.setattr(fixed_n, "_efr_witnesses", logging_screen)
        run = lambda limit: search_efr_po(inst, max_candidates=limit)
        full = assert_each_charge_precedes_its_work(run, events)
        pert = perturb_nondegenerate(inst)
        per_agent = [i_sets(pert, i, Budget(10**9, "c")) for i in range(3)]
        # each agent's pairs are charged first
        charges = [c for i in range(3) for c in intersection_charges(pert, i)]
        start = full.index(("join", None))
        assert full[:start] == [("spend", c) for c in charges]
        # then per size k: one charge per node of a depth-first join, each
        # right before its scan of the agent's sets or, at the last agent,
        # its lookups, which test no set; then one unit right before each
        # screen of a forest candidate of size k
        groups, opts = product_join(per_agent, 3), ref_demand_options(3)
        want, nodes = [], []
        for k in range(3):
            walked = join_charges(per_agent, 3, k)
            nodes += walked
            want += [("spend", units) for _, units in walked]
            size = sum(len(ts) for r, ts in groups.items() if len(r) == k)
            combos = itertools.product(opts, repeat=k)
            screens = size * sum(map(forest_by_counting, combos))
            want += [("spend", 1), ("screen", None)] * screens
        tail = full[start + 1 :]
        charged = [e for e in tail if e[0] != "and"]
        hit = len(charged) - len(want)  # the last size stops at its first hit
        assert hit < 0 and charged == want[:hit]
        assert want[hit:] == [("spend", 1), ("screen", None)] * (-hit // 2)
        # a join charge is never right before a screen
        at = [
            e
            for e, (kind, _) in enumerate(tail)
            if kind == "spend" and tail[e + 1] != ("screen", None)
        ]
        assert len(at) == len(nodes)
        for e, (a, _) in zip(at, nodes):
            if a < 2:
                assert tail[e + 1] == ("and", a)
        tests = sum(len(per_agent[a]) for a, _ in nodes if a < 2)
        assert len(tail) - len(charged) == tests

    def test_join_is_charged_by_nodes_not_its_product(self):
        # the product of the per-agent set counts is 231,840 here; the
        # nodes the join visits cost about 80,000
        inst = gen_random(3, 12, 9, F(1, 2), 1)
        expected = search_efr_po(inst, max_candidates=10**9)
        assert search_efr_po(inst, max_candidates=100_000) == expected

    def test_candidate_budget_enforced(self):
        inst = gen_random(2, 6, 9, F(1, 2), seed=3)
        with pytest.raises(BudgetExceededError):
            search_efr_po(inst, max_candidates=1)


@pytest.mark.parametrize("chore_prob", [F(0), F(1, 2), F(1)], ids=str)
@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("seed", range(2))
def test_four_agent_search_passes_the_oracles(m, chore_prob, seed):
    """At the agent cap, the certificate, |R| <= 3 and PO hold by brute force."""
    inst = gen_random(4, m, 9, chore_prob, seed)
    alloc, cert, _ = search_efr_po(inst)
    assert validate_certificate(inst, cert)
    assert len(cert.realloc_set) <= 3
    for placed in (alloc, *cert.witnesses):
        assert is_pareto_optimal_bruteforce(inst, placed), placed
    assert decide_efr_k(inst, alloc, min(3, m)).verdict


# the sweep on which the search once returned non-PO bases and witnesses
SWEEP = [(2, m) for m in range(1, 9)] + [(3, m) for m in range(1, 8)]


@pytest.mark.parametrize("chore_prob", [F(0), F(1, 2), F(1)], ids=str)
@pytest.mark.parametrize("n,m", SWEEP)
def test_search_output_is_supported_by_its_weights(n, m, chore_prob):
    """The base and every witness are PO, placed as the weights demand.

    Under `demand_sets` for the returned w, each R item has at least two
    demanders, and the base and every witness give each item to one of its
    demanders, so each of them maximizes shifted weighted welfare.
    """
    for seed in range(10):
        inst = gen_random(n, m, 9, chore_prob, seed)
        alloc, cert, w = search_efr_po(inst)
        demand = demand_sets(perturb_nondegenerate(inst), w)
        assert all(len(demand[t]) >= 2 for t in cert.realloc_set)
        for placed in (alloc, *cert.witnesses):
            assert all(
                placed.holder(t) in demand[t] for t in range(m)
            ), (seed, placed)
            assert is_pareto_optimal_bruteforce(inst, placed), (seed, placed)


def cut_prefixes(n):
    """Every prefix that the forest walk cuts for |R| <= n - 1: demand
    options whose tie graph is a forest until the last item closes a
    cycle, by the edge count."""
    opts = ref_demand_options(n)
    return [
        prefix
        for size in range(1, n)
        for prefix in itertools.product(opts, repeat=size)
        if forest_by_counting(prefix[:-1]) and not forest_by_counting(prefix)
    ]


@pytest.mark.parametrize("chore_prob", [F(0), F(1, 2), F(1)], ids=str)
@pytest.mark.parametrize("n", [3, 4])
def test_the_lp_refutes_every_cut_prefix(n, chore_prob):
    """The cut drops only candidates that the LP refutes: under the
    perturbation every cyclic prefix, on any items and with any demand
    sets on the other items, leaves the weight system infeasible."""
    rng = random.Random(n)
    for seed, prefix in enumerate(cut_prefixes(n)):
        m = rng.randint(len(prefix), 6)
        pert = perturb_nondegenerate(gen_random(n, m, 9, chore_prob, seed % 7))
        demand = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(m)
        ]
        for t, d in zip(rng.sample(range(m), len(prefix)), prefix):
            demand[t] = d
        assert po_certificate_lp(pert, demand) is None, (prefix, demand)


def test_the_walk_keeps_the_spanning_trees_at_full_size():
    # n - 1 tied items on n agents form a forest only as a spanning tree
    # of pairs: n^(n-2) trees (Cayley) in (n-1)! item orders
    for n, trees in ((3, 3 * 2), (4, 16 * 6), (5, 125 * 24)):
        opts = ref_demand_options(n)
        kept = list(fixed_n._tie_forests(n, [opts] * (n - 1)))
        assert len(kept) == trees
        assert all(len(d) == 2 for combo in kept for d in combo)
