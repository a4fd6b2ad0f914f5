"""Perturbation parameters, non-degeneracy, demand sets, PO machinery."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mannafair.core import (
    Allocation,
    Instance,
    bundle_value,
    is_envy_free_for,
)
from mannafair.fixed_n import _tie_forests
from mannafair.oracles import is_pareto_optimal_bruteforce
from mannafair.welfare import (
    PerturbedInstance,
    PerturbParams,
    WeightVector,
    check_nondegenerate,
    compute_params,
    demand_sets,
    max_weighted_welfare,
    perturb_nondegenerate,
    po_certificate_lp,
    solve_leq_system,
)
from mannafair.harness import gen_identical_chores, gen_random


def make_instance(rows):
    return Instance(tuple(tuple(F(v) for v in row) for row in rows))


def weight_grid(n):
    # deterministic non-uniform weights plus the uniform point
    points = [WeightVector(tuple(F(1, n) for _ in range(n)))]
    for shift in range(1, 4):
        raw = [F(i + shift, 1) for i in range(n)]
        total = sum(raw)
        points.append(WeightVector(tuple(r / total for r in raw)))
    corner = [F(0)] * n
    corner[0] = F(1)
    points.append(WeightVector(tuple(corner)))
    return points


class TestComputeParams:
    def test_identical_chores_spread(self):
        # 4 agents, 3 chores at -1: spread = 0 - (-3) = 3, eta = 1/(2*3*4)
        params = compute_params(gen_identical_chores(4))
        assert params.Lambda == 3
        assert params.eta == F(1, 24)

    def test_single_agent_single_good(self):
        params = compute_params(make_instance([[1]]))
        assert params.Lambda == 1
        assert params.eta == F(1, 2)

    def test_all_zero_instance_floors_lambda(self):
        params = compute_params(make_instance([[0, 0], [0, 0]]))
        assert params.Lambda == 1

    def test_bounds_hold(self):
        for seed in range(10):
            inst = gen_random(3, 6, 9, F(1, 2), seed=seed)
            p = compute_params(inst)
            n, m = inst.num_agents, inst.num_items
            assert 0 < p.eta <= p.lambda_lb / (2 * p.Lambda * n)
            assert p.eta <= F(1, 2 * n)
            assert 0 < p.epsilon
            assert p.epsilon < p.eta / (4 * n * m) * min(
                p.lambda_lb, p.omega_lb, F(1)
            )

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            compute_params(make_instance([["1/2"]]))


class TestCheckNondegenerate:
    def test_zero_entry_fails(self):
        assert not check_nondegenerate([[F(0), F(1)], [F(2), F(3)]])

    def test_unit_ratio_cycle_fails(self):
        # cycle product (2/1) * (2/4) = 1
        assert not check_nondegenerate([[F(1), F(2)], [F(2), F(4)]])

    def test_generic_values_pass(self):
        assert check_nondegenerate([[F(1), F(2)], [F(3), F(5)]])

    @pytest.mark.parametrize("values", [[[1, 2], [3]], [[1], [2, 3]], [[0, 1], [2]]])
    def test_ragged_matrix_is_value_error(self, values):
        with pytest.raises(ValueError, match="^valuation matrix is ragged$"):
            check_nondegenerate(values)

    @pytest.mark.parametrize("seed", range(8))
    def test_perturbed_instances_pass(self, seed):
        inst = gen_random(3, 5, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        assert check_nondegenerate(pert.pert_values)


class TestPerturbNondegenerate:
    def test_single_agent(self):
        inst = make_instance([[1, -2, 3]])
        pert = perturb_nondegenerate(inst)
        assert check_nondegenerate(pert.pert_values)

    def test_two_by_two(self):
        pert = perturb_nondegenerate(make_instance([[1, 2], [2, 4]]))
        assert check_nondegenerate(pert.pert_values)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_three_by_five(self, seed):
        inst = gen_random(3, 5, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        assert check_nondegenerate(pert.pert_values)

    @pytest.mark.parametrize("seed", range(10))
    def test_eps_entries_strictly_inside_bound(self, seed):
        inst = gen_random(3, 5, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        for row in pert.eps_matrix:
            for e in row:
                assert 0 < e < pert.params.epsilon

    def test_rational_values_are_scaled_first(self):
        # the LCM of the denominators is 12; the base is the scaled instance
        rational = make_instance([["1/2", -3, "7/3"], [2, "-5/4", "1/6"]])
        scaled = make_instance([[6, -36, 28], [24, -15, 2]])
        pert = perturb_nondegenerate(rational)
        assert pert == perturb_nondegenerate(scaled)
        assert pert.base == scaled
        assert check_nondegenerate(pert.pert_values)

    def test_perturbed_values_shift_by_eps(self):
        inst = make_instance([[1, -2], [3, 4]])
        pert = perturb_nondegenerate(inst)
        for i in range(2):
            for t in range(2):
                assert (
                    pert.pert_value(i, t)
                    == inst.values[i][t] - pert.eps_matrix[i][t]
                )


def argmax_demand(pert, w):
    """The demand map by a brute-force argmax per item: every agent whose
    shifted score is at least every other agent's."""
    n, m, eta = pert.base.num_agents, pert.base.num_items, pert.params.eta
    score = [
        [(w.weights[i] + eta) * pert.pert_value(i, t) for t in range(m)]
        for i in range(n)
    ]
    return tuple(
        tuple(
            i for i in range(n) if all(score[i][t] >= score[j][t] for j in range(n))
        )
        for t in range(m)
    )


def forest_by_counting(demand):
    """Whether the tie graph of `demand` is a forest, by |E| = |V| - c.

    The vertices are the agents of the tied items plus those items, the
    edges join each tied item to its demanders, and c, the number of
    components, is found by breadth-first search.
    """
    adj = {}
    for t, agents in enumerate(demand):
        if len(agents) > 1:
            for i in agents:
                adj.setdefault(("agent", i), []).append(("item", t))
                adj.setdefault(("item", t), []).append(("agent", i))
    edges = sum(map(len, adj.values())) // 2
    seen, components = set(), 0
    for start in adj:
        if start not in seen:
            components += 1
            seen.add(start)
            queue = [start]
            while queue:
                queue = [v for u in queue for v in adj[u] if v not in seen]
                seen.update(queue)
    return edges == len(adj) - components


def walk_keeps(n, demand):
    """Whether the search's forest walk keeps `demand`, read as a product
    of one option per item."""
    return list(_tie_forests(n, [[d] for d in demand])) == [tuple(demand)]


class TestDemandSets:
    def test_single_agent_demands_everything(self):
        pert = perturb_nondegenerate(make_instance([[1, 2, 3]]))
        demand = demand_sets(pert, WeightVector((F(1),)))
        assert demand == ((0,), (0,), (0,))
        assert walk_keeps(1, demand)

    def test_identical_rows_tie_everywhere_without_perturbation(self):
        # hand-built perturbed instance with eps = 0 is degenerate on
        # purpose: uniform weights then tie every item among all agents,
        # and the two tied items close the cycle 0 - item 0 - 1 - item 1
        inst = make_instance([[1, 2], [1, 2]])
        params = compute_params(inst)
        pert = PerturbedInstance(
            inst, ((F(0), F(0)), (F(0), F(0))), params
        )
        demand = demand_sets(pert, WeightVector((F(1, 2), F(1, 2))))
        assert demand == ((0, 1), (0, 1))
        assert not walk_keeps(2, demand)
        assert not forest_by_counting(demand)

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_graph_acyclic_and_tie_set_small(self, seed):
        n = 2 + seed % 2
        inst = gen_random(n, 6, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        for w in weight_grid(n):
            demand = demand_sets(pert, w)
            assert walk_keeps(n, demand)
            assert sum(len(d) > 1 for d in demand) <= n - 1

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_argmax(self, seed):
        # the unperturbed copy (eps = 0) keeps the ties of integer values
        n = 2 + seed % 3
        inst = gen_random(n, 6, 3, F(1, 2), seed=seed)
        unperturbed = PerturbedInstance(
            inst, ((F(0),) * 6,) * n, compute_params(inst)
        )
        for pert in (perturb_nondegenerate(inst), unperturbed):
            for w in weight_grid(n):
                assert demand_sets(pert, w) == argmax_demand(pert, w)


SUBSETS = {
    n: [c for k in range(1, n + 1) for c in itertools.combinations(range(n), k)]
    for n in range(2, 7)
}


@st.composite
def option_lists(draw):
    """(n, options): n 2-6 agents and 1-4 items, each item's demand options
    in product order, with a product of at most 20,000.  Either every
    agent subset of size >= 2 per item, as the search walks them, or a
    drawn list of subsets, untied singletons included."""
    n, size = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    tied = [d for d in SUBSETS[n] if len(d) > 1]
    if len(tied) ** size <= 20_000 and draw(st.booleans()):
        return n, [tied] * size
    most = min(len(SUBSETS[n]), int(20_000 ** (1 / size)))
    options = st.lists(
        st.sampled_from(SUBSETS[n]), min_size=1, max_size=most, unique=True
    )
    return n, [draw(options) for _ in range(size)]


class TestTieGraphIsForest:
    """The search's forest walk keeps exactly the demand combinations whose
    tie graph is a forest by the edge count."""

    @settings(max_examples=300, deadline=None)
    @given(option_lists())
    @example((2, []))  # no item: the empty combination
    @example((2, [[(0, 1)]] * 2))  # a double edge is a cycle
    @example((3, [[(0,)], [(1,)], [(0, 1)]]))
    @example((4, [[(0, 1)], [(1, 2)], [(2, 3)]]))
    @example((3, [[(0, 1)], [(1, 2)], [(0, 2)]]))
    @example((3, [[(0, 1, 2)], [(0, 2)]]))
    def test_agrees_with_edge_counting(self, case):
        n, options = case
        kept = filter(forest_by_counting, itertools.product(*options))
        assert list(_tie_forests(n, options)) == list(kept)


class TestMaxWeightedWelfare:
    def test_single_agent_grand_bundle(self):
        pert = perturb_nondegenerate(make_instance([[2, -3]]))
        alloc = max_weighted_welfare(pert, WeightVector((F(1),)))
        assert alloc.bundles == (frozenset({0, 1}),)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_scan(self, seed):
        n = 2
        inst = gen_random(n, 5, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        eta = pert.params.eta
        for w in weight_grid(n):
            alloc = max_weighted_welfare(pert, w)
            achieved = sum(
                (w.weights[i] + eta) * pert.pert_bundle_value(i, alloc.bundles[i])
                for i in range(n)
            )
            best = max(
                sum(
                    (w.weights[a] + eta) * pert.pert_value(a, t)
                    for t, a in enumerate(assignment)
                )
                for assignment in itertools.product(range(n), repeat=5)
            )
            assert achieved == best

    @pytest.mark.parametrize("seed", range(6))
    def test_po_under_original_values(self, seed):
        n = 2 + seed % 2
        inst = gen_random(n, 6, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        for w in weight_grid(n):
            alloc = max_weighted_welfare(pert, w)
            assert is_pareto_optimal_bruteforce(inst, alloc)

    @pytest.mark.parametrize("seed", range(6))
    def test_some_supported_agent_is_envy_free(self, seed):
        n = 2 + seed % 2
        inst = gen_random(n, 6, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        for w in weight_grid(n):
            alloc = max_weighted_welfare(pert, w)
            assert any(
                is_envy_free_for(inst, alloc, i) for i in w.support()
            )


class TestEnvyPreservation:
    @pytest.mark.parametrize("seed", range(6))
    def test_strict_preference_keeps_half_unit_gap(self, seed):
        # disjoint S, T with v_i(S) > v_i(T) keep a gap of at least 1/2
        # after perturbation (integer values, so the original gap is >= 1)
        inst = gen_random(3, 6, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        items = range(6)
        for i in range(3):
            for s_mask in range(64):
                s = frozenset(t for t in items if s_mask >> t & 1)
                rest = [t for t in items if t not in s]
                for t_mask in range(2 ** len(rest)):
                    t_set = frozenset(
                        rest[idx]
                        for idx in range(len(rest))
                        if t_mask >> idx & 1
                    )
                    if bundle_value(inst, i, s) > bundle_value(inst, i, t_set):
                        assert (
                            pert.pert_bundle_value(i, s)
                            >= pert.pert_bundle_value(i, t_set) + F(1, 2)
                        )


class TestSolveLeqSystem:
    """Bounds x_b <= B[a][b] x_a on x = w + eta, as pairs (p, q) for p / q."""

    def test_simple_feasible_box(self):
        # 1/2 <= x_1 / x_0 <= 2: the least point (eta, eta) scales to the
        # uniform point
        bounds = [[None, (2, 1)], [(2, 1), None]]
        assert solve_leq_system(bounds, F(1, 10)) == [F(1, 2), F(1, 2)]

    def test_infeasible_system(self):
        # x_1 <= x_0 / 2 and x_0 <= x_1: a cycle of product 1/2
        assert solve_leq_system([[None, (1, 2)], [(1, 1), None]], F(1, 10)) is None

    def test_equality_encoded_as_two_inequalities(self):
        # x_1 = 2 x_0 as a cycle of product 1, x_2 unbounded: the least
        # point (eta, 2 eta, eta) scaled by 13/4 to sum 1 + 3 eta
        bounds = [[None, (2, 1), None], [(1, 2), None, None], [None] * 3]
        point = solve_leq_system(bounds, F(1, 10))
        assert point == [F(9, 40), F(22, 40), F(9, 40)]
        eta = F(1, 10)
        assert point[1] + eta == 2 * (point[0] + eta)


class TestPoCertificateLp:
    def test_single_agent_always_feasible(self):
        pert = perturb_nondegenerate(make_instance([[1, -2]]))
        w = po_certificate_lp(pert, [(0,), (0,)])
        assert w is not None
        assert w.weights == (F(1),)

    @pytest.mark.parametrize("seed", range(6))
    def test_welfare_maximizer_partition_is_feasible(self, seed):
        n = 2 + seed % 2
        inst = gen_random(n, 5, 9, F(1, 2), seed=seed)
        pert = perturb_nondegenerate(inst)
        for w0 in weight_grid(n):
            demand = demand_sets(pert, w0)
            w = po_certificate_lp(pert, demand)
            assert w is not None
            # the returned weights support the same demand map
            supported = demand_sets(pert, w)
            assert all(set(demand[t]) <= set(supported[t]) for t in range(5))

    def test_forced_contradiction_is_infeasible(self):
        # item 0 strictly better for agent 1 at every weight: demanding it
        # for agent 0 while agent 1 keeps a symmetric claim cannot work
        inst = make_instance([[1, 5], [9, 5]])
        pert = PerturbedInstance(
            inst,
            ((F(0), F(1, 100)), (F(1, 200), F(1, 300))),
            compute_params(inst),
        )
        w = po_certificate_lp(pert, [(0,), (1,)])
        # (w_0+eta) * vbar_0(0) >= (w_1+eta) * vbar_1(0) needs w_0 >= 9 w_1
        # roughly; the reverse item allows it, so check the hand oracle
        eta = pert.params.eta
        feasible_by_hand = False
        for num in range(0, 101):
            w0 = F(num, 100)
            w1 = 1 - w0
            if (w0 + eta) * pert.pert_value(0, 0) >= (w1 + eta) * pert.pert_value(1, 0) and (
                w1 + eta
            ) * pert.pert_value(1, 1) >= (w0 + eta) * pert.pert_value(0, 1):
                feasible_by_hand = True
        assert (w is not None) == feasible_by_hand

    def test_demanders_must_beat_the_other_agents(self):
        # values [[3, 5, 8], [8, 4, 8], [7, 1, 5]]: agents 0 and 2 tying on
        # item 0 while agent 0 takes item 1 and agent 1 item 2 satisfies
        # the equality between the demanders, but agent 1 values item 0
        # more than both; giving it to agent 1 and item 2 to agent 0
        # dominates the base (8, 8, 0) with (13, 8, 0)
        inst = gen_random(3, 3, 9, F(0), seed=1)
        assert inst == make_instance([[3, 5, 8], [8, 4, 8], [7, 1, 5]])
        pert = perturb_nondegenerate(inst)
        assert po_certificate_lp(pert, [(0, 2), (0,), (1,)]) is None

    def test_malformed_partition_rejected(self):
        pert = perturb_nondegenerate(make_instance([[1, 2], [3, 4]]))
        for demand in ([(0,)], [(0,), ()], [(0,), (2,)], [(0, 1), (-1,)]):
            with pytest.raises(ValueError):
                po_certificate_lp(pert, demand)

    def test_every_item_is_checked_before_a_verdict(self):
        # item 0 is a chore for its demander 0 and a good for agent 1, so
        # the system is infeasible; the last item's demander is no agent
        pert = perturb_nondegenerate(make_instance([[-1, 2, 2], [1, 3, 4]]))
        assert po_certificate_lp(pert, [(0,), (1,), (1,)]) is None
        with pytest.raises(ValueError, match="item 2 needs demanders"):
            po_certificate_lp(pert, [(0,), (1,), (2,)])


class TestParamValidation:
    def test_weight_vector_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WeightVector((F(1, 2), F(1, 3)))
        with pytest.raises(ValueError):
            WeightVector((F(3, 2), F(-1, 2)))

    def test_perturb_params_validation(self):
        with pytest.raises(ValueError):
            PerturbParams(F(1), F(1), F(1), F(0), F(1, 100))
        with pytest.raises(ValueError):
            PerturbParams(F(1), F(1), F(1), F(1, 2), F(0))

    def test_eta_bound_message_states_the_checked_bound(self):
        # the check is eta * 2 * Lambda <= lambda_lb, with no n in it
        PerturbParams(F(1), F(2), F(1), F(1, 4), F(1, 100))
        with pytest.raises(
            ValueError, match=r"eta \* 2 \* Lambda = 4/3 exceeds lambda_lb = 1$"
        ):
            PerturbParams(F(1), F(2), F(1), F(1, 3), F(1, 100))
