"""Witnesses as owner vectors of R, against their predecessors.

`fixed_n._efr_witnesses` scans owner vectors of R over the profile of the
I-tuple alone, taken once per tuple, and the search builds the base only
for the accepted candidate; the picking certificates give the whole
reserve R to agent i in agent i's vector.  The references below are the
earlier implementations: the fixed-n search built a fresh allocation and a
full n x n profile for every placement of every item, and the picking
witnesses were spliced from the partial bundles.  The kernel must agree
with them on the allocation, certificate (the references' witness
allocations read as owner vectors) and weights, and on the budget units
spent, each size of R's join counted by an independent depth-first walk
and only the demand combinations whose tie graph is a forest screened, so
`BudgetExceededError` fires at the same limits with the same message.  A
materialized witness also shares every bundle its moves leave untouched
with the base.
"""

import itertools
from fractions import Fraction as F
from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair import algorithms, fixed_n
from mannafair.cli import solve_instance
from mannafair.core import (
    Allocation,
    Budget,
    BudgetExceededError,
    EfrCertificate,
    Instance,
    profile,
)
from mannafair.fixed_n import search_efr_po
from mannafair.harness import gen_identical_chores, gen_paired_goods, gen_random
from mannafair.welfare import perturb_nondegenerate, po_certificate_lp

from conftest import assert_budget_is_own_spend, i_sets, join_charges
from test_welfare import forest_by_counting

WHAT = "fixed-n set intersections, join set tests and candidates"


def ref_placement(n, owners):
    bundles = [set() for _ in range(n)]
    for t, a in enumerate(owners):
        bundles[a].add(t)
    return Allocation(tuple(bundles))


def ref_efr_witnesses(inst, demand):
    n = inst.num_agents
    witnesses: List[Optional[Allocation]] = [None] * n
    for owners in itertools.product(*demand):
        alloc = ref_placement(n, owners)
        for i, row in enumerate(profile(inst, alloc)):
            if witnesses[i] is None and row[i] >= max(row):
                witnesses[i] = alloc
        if all(w is not None for w in witnesses):
            return witnesses
    return None


def ref_search_efr_po(inst, limit):
    """(allocation, certificate, weights) and the budget units spent.  Per
    size k of R, the join is charged by an independent depth-first walk,
    then each forest demand combination of size k is screened."""
    n, m = inst.num_agents, inst.num_items
    pert = perturb_nondegenerate(inst)
    budget = Budget(limit, WHAT)
    per_agent = [i_sets(pert, i, budget) for i in range(n)]
    by_realloc: Dict[frozenset, list] = {}
    all_items = frozenset(range(m))
    for item_sets in itertools.product(*per_agent):
        claimed = frozenset().union(*item_sets)
        if sum(map(len, item_sets)) == len(claimed) and m - len(claimed) < n:
            held: List[Optional[tuple]] = [None] * m
            for i, items in enumerate(item_sets):
                for t in items:
                    held[t] = (i,)
            by_realloc.setdefault(all_items - claimed, []).append(held)
    demand_opts = ref_demand_options(n)
    for k in range(n):
        budget.spend(sum(units for _, units in join_charges(per_agent, m, k)))
        for rset in sorted((r for r in by_realloc if len(r) == k), key=sorted):
            realloc = sorted(rset)
            combos = itertools.product(demand_opts, repeat=k)
            for demand_combo in filter(forest_by_counting, combos):
                for held in by_realloc[rset]:
                    budget.spend()
                    demand = list(held)
                    for t, d in zip(realloc, demand_combo):
                        demand[t] = d
                    witnesses = ref_efr_witnesses(inst, demand)
                    if witnesses is None:
                        continue
                    w = po_certificate_lp(pert, demand)
                    if w is None:
                        continue
                    alloc = ref_placement(n, [d[0] for d in demand])
                    cert = EfrCertificate.of_witnesses(alloc, rset, witnesses)
                    return (alloc, cert, w), limit - budget.remaining
    raise AssertionError("enumeration exhausted")


def ref_demand_options(n):
    """Agent subsets of size >= 2, by increasing size then lexicographic."""
    opts = []
    for size in range(2, n + 1):
        opts.extend(itertools.combinations(range(n), size))
    return opts


def ref_reserve_witnesses(partial, reserved):
    return tuple(
        Allocation(partial[:i] + (partial[i] | reserved,) + partial[i + 1 :])
        for i in range(len(partial))
    )


def assert_shares_untouched(cert, moves_of):
    """Each witness is the base with `moves_of(i, witness)` applied, and
    every bundle that no move enters or leaves is the base's own object."""
    base = cert.base
    for i, w in enumerate(cert.witnesses):
        moves = moves_of(i, w)
        assert w == base.reassign(moves)
        touched = {base.holder(t) for t in moves} | set(moves.values())
        for j, (b, wb) in enumerate(zip(base.bundles, w.bundles)):
            if j not in touched:
                assert wb is b


def fixed_n_moves(cert):
    base = cert.base
    return lambda i, w: {
        t: w.holder(t) for t in cert.realloc_set if w.holder(t) != base.holder(t)
    }


def assert_search_matches(inst, below):
    """Same result as the reference, and the reference's spend: the search
    raises at one unit less, with the message of a `Budget` named `WHAT`,
    and passes at that spend."""
    expected, ref_spent = ref_search_efr_po(inst, 10**9)
    search = lambda limit: search_efr_po(inst, max_candidates=limit)
    spent = assert_budget_is_own_spend(search, below, fixed_n)
    assert spent == ref_spent
    with pytest.raises(BudgetExceededError) as exc:
        search(spent - 1)
    assert str(exc.value) == f"{WHAT} exceed the limit of {spent - 1}"
    got = search(spent)
    assert got == expected
    alloc, cert, _ = got
    assert cert.base is alloc
    assert_shares_untouched(cert, fixed_n_moves(cert))


VALUE = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
)
ROWS = {  # zero, rational, all-chore and goods-only rows
    "mixed": VALUE,
    "zero": st.just(F(0)),
    "chores": st.builds(F, st.integers(-6, -1), st.sampled_from([1, 2, 3])),
    "goods": st.builds(F, st.integers(0, 6), st.sampled_from([1, 2, 3])),
}


@st.composite
def instances(draw, n_max, m_max, kinds=tuple(ROWS)):
    n, m = draw(st.integers(1, n_max)), draw(st.integers(0, m_max))
    rows = []
    for _ in range(n):
        value = ROWS[draw(st.sampled_from(kinds))]
        rows.append(tuple(draw(value) for _ in range(m)))
    # identical rows tie every agent, so R is rarely empty; at n = 4 they
    # take seconds per search
    if n < 4 and draw(st.booleans()):
        rows = rows[:1] * n
    return Instance(tuple(rows))


@settings(max_examples=150, deadline=None)
@given(instances(4, 6), st.data())
def test_search_matches_reference(inst, data):
    assert_search_matches(inst, lambda s: data.draw(st.integers(0, s - 1)))


@pytest.mark.parametrize(
    "n, m, value_range, chore_prob, seed",
    [
        (3, 6, 2, "1/2", 0),
        (4, 5, 9, "1", 2),  # the slowest screen of the fixed-n sweeps
        (4, 5, 3, "0", 1),
        (4, 4, 9, "1/2", 1),
    ],
)
def test_random_searches_match_reference(n, m, value_range, chore_prob, seed):
    inst = gen_random(n, m, value_range, F(chore_prob), seed)
    assert_search_matches(inst, lambda s: s // 2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_identical_chores_match_reference(n):
    assert_search_matches(gen_identical_chores(n), lambda s: s // 2)


def assert_goods_match(inst):
    partial, reserved, _ = algorithms.run_picking_rounds(inst)
    witnesses = ref_reserve_witnesses(partial, reserved)
    bundles = list(partial)
    bundles[0] = bundles[0] | reserved
    bases = {
        False: Allocation(tuple(bundles)),
        True: algorithms.extend_with_round_robin(inst, partial, reserved),
    }
    for extend, base in bases.items():
        cert = solve_instance(inst, "goods", extend)
        assert cert == EfrCertificate.of_witnesses(base, reserved, witnesses)
        assert cert.witnesses == witnesses
        assert_shares_untouched(cert, lambda i, w: dict.fromkeys(reserved, i))


@settings(max_examples=200, deadline=None)
@given(instances(8, 24, kinds=("zero", "goods")))
def test_goods_certificates_match_reference(inst):
    assert_goods_match(inst)


@pytest.mark.parametrize("n, m", [(20, 500), (40, 700)])
def test_large_goods_certificates_match_reference(n, m):
    assert_goods_match(gen_random(n, m, 9, F(0), 1))


def test_paired_goods_certificates_match_reference():
    for n in (2, 4, 6, 8):
        assert_goods_match(gen_paired_goods(n))
