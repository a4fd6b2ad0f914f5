"""Constructive pipelines: EF1 picking, cycle trading, certificates."""

from fractions import Fraction as F

import pytest

from mannafair.core import (
    Allocation,
    Instance,
    build_envy_graph,
    bundle_value,
    is_ef1,
    is_envy_free_for,
    validate_certificate,
)
from mannafair.algorithms import (
    conflict_aware_picking,
    double_round_robin_ef1,
    efr_n_minus_1,
    extend_with_round_robin,
    resolve_top_trading_cycles,
    run_picking_rounds,
)
from mannafair.oracles import min_efr_k
from mannafair.harness import gen_identical_chores, gen_paired_goods, gen_random

from conftest import picking_invariant_violation, replay_picks


def make_instance(rows):
    return Instance(tuple(tuple(F(v) for v in row) for row in rows))


CHORES4 = gen_identical_chores(4)
PAIRED4 = gen_paired_goods(4)


class TestDoubleRoundRobin:
    def test_single_agent_takes_everything(self):
        inst = make_instance([[3, 1, 4]])
        alloc = double_round_robin_ef1(inst)
        assert alloc.bundles == (frozenset({0, 1, 2}),)

    def test_identical_chores_spread_one_each(self):
        alloc = double_round_robin_ef1(CHORES4)
        sizes = sorted(len(b) for b in alloc.bundles)
        assert sizes == [0, 1, 1, 1]
        assert is_ef1(CHORES4, alloc)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_mixed_instances_are_ef1(self, seed):
        inst = gen_random(1 + seed % 4, 4 + seed % 5, 9, F(1, 2), seed=seed)
        alloc = double_round_robin_ef1(inst)
        assert is_ef1(inst, alloc)


class TestTopTradingCycles:
    def test_allocation_with_sink_unchanged(self):
        inst = make_instance([[5, 0], [0, 5]])
        alloc = Allocation((frozenset({0}), frozenset({1})))
        assert resolve_top_trading_cycles(inst, alloc) == alloc

    def test_two_agent_swap(self):
        inst = make_instance([[0, 5], [5, 0]])
        alloc = Allocation((frozenset({0}), frozenset({1})))
        swapped = resolve_top_trading_cycles(inst, alloc)
        assert swapped.bundles == (frozenset({1}), frozenset({0}))
        assert build_envy_graph(inst, swapped).edges == frozenset()

    @pytest.mark.parametrize("seed", range(30))
    def test_preserves_ef1_and_creates_sink(self, seed):
        inst = gen_random(2 + seed % 3, 4 + seed % 5, 9, F(1, 2), seed=seed)
        alloc = double_round_robin_ef1(inst)
        resolved = resolve_top_trading_cycles(inst, alloc)
        assert is_ef1(inst, resolved)
        assert build_envy_graph(inst, resolved).sinks()

    def test_rotation_strictly_raises_total_utility(self):
        inst = make_instance([[0, 5], [5, 0]])
        alloc = Allocation((frozenset({0}), frozenset({1})))
        before = sum(
            bundle_value(inst, i, alloc.bundles[i]) for i in range(2)
        )
        resolved = resolve_top_trading_cycles(inst, alloc)
        after = sum(
            bundle_value(inst, i, resolved.bundles[i]) for i in range(2)
        )
        assert after > before


class TestEfrNMinusOne:
    def test_single_agent_trivial_certificate(self):
        inst = make_instance([[2, -1]])
        cert = efr_n_minus_1(inst)
        assert cert.realloc_set == frozenset()
        assert validate_certificate(inst, cert)

    def test_identical_chores_reallocates_every_chore(self):
        cert = efr_n_minus_1(CHORES4)
        assert cert.realloc_set == frozenset({0, 1, 2})
        assert validate_certificate(CHORES4, cert)
        assert is_ef1(CHORES4, cert.base)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_mixed_instances(self, seed):
        n = 2 + seed % 3
        inst = gen_random(n, 4 + seed % 5, 9, F(1, 2), seed=seed)
        cert = efr_n_minus_1(inst)
        assert validate_certificate(inst, cert)
        assert len(cert.realloc_set) <= n - 1
        assert is_ef1(inst, cert.base)


class TestConflictAwarePicking:
    def test_disjoint_favorites_reserve_nothing(self):
        inst = make_instance([[5, 0, 0], [0, 5, 0], [0, 0, 5]])
        cert = conflict_aware_picking(inst)
        assert cert.realloc_set == frozenset()
        for i in range(3):
            assert is_envy_free_for(inst, cert.base, i)

    def test_paired_goods_reserves_both(self):
        cert = conflict_aware_picking(PAIRED4)
        assert cert.realloc_set == frozenset({0, 1})
        assert len(cert.realloc_set) == 2  # floor(4 / 2)
        assert validate_certificate(PAIRED4, cert)

    def test_negative_value_rejected(self):
        # the message names the first negative entry, as the file reader does
        inst = make_instance([[1, 2, 3], [4, F(-1, 2), -3]])
        message = (
            r"^values\[1\]\[1\]: conflict-aware picking requires nonnegative "
            r"values, got -1/2$"
        )
        for picking in (conflict_aware_picking, run_picking_rounds):
            with pytest.raises(ValueError, match=message):
                picking(inst)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_goods_instances(self, seed):
        n = 2 + seed % 5
        inst = gen_random(n, 3 + seed % 8, 9, F(0), seed=seed)
        cert = conflict_aware_picking(inst)
        assert validate_certificate(inst, cert)
        assert len(cert.realloc_set) <= n // 2

    @pytest.mark.parametrize("seed", range(20))
    def test_loop_invariants_per_iteration(self, seed):
        n = 2 + seed % 5
        inst = gen_random(n, 3 + seed % 8, 9, F(0), seed=seed)
        _, _, trace = run_picking_rounds(inst)
        assert picking_invariant_violation(inst, trace) is None

    @pytest.mark.parametrize(
        "n, m, values, seed",
        [(2 + s % 5, 3 + s % 8, 9, s) for s in range(40)]
        + [(1, 5, 9, 0), (3, 0, 9, 0), (7, 40, 2, 1), (12, 90, 2, 2), (40, 700, 9, 1)],
    )
    def test_trace_replays_to_the_result(self, n, m, values, seed):
        inst = gen_random(n, m, values, F(0), seed=seed)
        partial, reserved, trace = run_picking_rounds(inst)
        held = [frozenset()] * n  # what an empty trace (m = 0) replays to
        for state, held in replay_picks(n, trace):
            assert state.active.isdisjoint(state.deferred)
            assert state.active | state.deferred == set(range(n))
            assert len(state.picks) == n
            assert len(state.reserved) <= n // 2
        assert tuple(held) == partial
        assert (trace[-1].reserved if trace else frozenset()) == reserved
        # each item is picked once or reserved, never both
        picked = [t for state in trace for t in state.picks if t is not None]
        assert sorted(picked + list(reserved)) == list(range(m))


class TestExtendWithRoundRobin:
    def test_no_reserved_items_is_identity(self):
        inst = make_instance([[5, 0], [0, 5]])
        partial = (frozenset({0}), frozenset({1}))
        extended = extend_with_round_robin(inst, partial, frozenset())
        assert extended.bundles == partial

    def test_paired_goods_extension_is_ef1(self):
        partial, reserved, _ = run_picking_rounds(PAIRED4)
        extended = extend_with_round_robin(PAIRED4, partial, reserved)
        assert is_ef1(PAIRED4, extended)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_goods_extension(self, seed):
        n = 2 + seed % 4
        inst = gen_random(n, 3 + seed % 6, 9, F(0), seed=seed)
        partial, reserved, _ = run_picking_rounds(inst)
        extended = extend_with_round_robin(inst, partial, reserved)
        assert is_ef1(inst, extended)
        k, _ = min_efr_k(inst, extended)
        assert k <= n // 2
