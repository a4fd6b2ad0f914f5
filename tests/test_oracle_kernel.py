"""The two-pass EFR-k decision in `oracles` against its predecessors.

`decide_efr_k` first scans the candidate sets R with `_passes`, which asks
the placement search `_place` (through `_fit`) once per distinct (chore
costs, positive gaps) key whether the chores can close every gap, and then
builds witnesses with `_find_witness`, the same search, for the accepted R
alone.  Three references check it:

- `ref_find_witness` and `ref_decide_efr_k` re-sum every bundle and search
  placements first fit for every R and agent, independently of the module;
- `one_pass_decide_efr_k` is the one-pass kernel the two passes replaced: it
  runs `_find_witness` on every R and agent;
- `ref_place` is the placement search before it skipped gap values already
  tried at a node and cut nodes by counting open gaps; `_place` must return
  its verdicts and its positions.

The kernel must agree with them on verdicts, reallocation sets and
witnesses.  Its budget is its own: it raises `BudgetExceededError` below
its own spend and not at it, and it spends the same on every call.
"""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_budget_is_own_spend, spend_of

from mannafair.core import (
    Allocation,
    Budget,
    BudgetExceededError,
    EfrCertificate,
    Instance,
    profile,
    validate_allocation,
)
from mannafair.harness import gen_partition_reduction
from mannafair.oracles import (
    EfrDecision,
    _find_witness,
    _fit,
    _passes,
    decide_efr_k,
    min_efr_k,
    solve_partition,
)


def ref_find_witness(inst, alloc, agent, realloc, budget):
    n = inst.num_agents
    row = inst.scaled[agent]
    base = [
        sum(row[t] for t in alloc.bundles[j] if t not in realloc)
        for j in range(n)
    ]
    goods = [t for t in realloc if row[t] >= 0]
    chores = sorted((t for t in realloc if row[t] < 0), key=lambda t: row[t])
    own = base[agent] + sum(row[t] for t in goods)
    others = [j for j in range(n) if j != agent]
    if not others:
        return {t: agent for t in realloc}
    loads = base[:]

    placement = {}

    def feasible_suffix(idx):
        slack_needed = sum(loads[j] - own for j in others if loads[j] > own)
        available = -sum(row[t] for t in chores[idx:])
        return slack_needed <= available

    def dfs(idx):
        budget.spend()
        if idx == len(chores):
            return all(loads[j] <= own for j in others)
        if not feasible_suffix(idx):
            return False
        t = chores[idx]
        for j in others:
            loads[j] += row[t]
            placement[t] = j
            if dfs(idx + 1):
                return True
            loads[j] -= row[t]
            del placement[t]
        return False

    if not dfs(0):
        return None
    result = {t: agent for t in goods}
    result.update(placement)
    return result


def ref_decide_efr_k(inst, alloc, k, budget):
    validate_allocation(inst, alloc)
    if k < 0 or k > inst.num_items:
        raise ValueError(f"k={k} outside [0, m={inst.num_items}]")
    n = inst.num_agents
    for size in range(k + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            rset = frozenset(realloc)
            witnesses = []
            for i in range(n):
                moves = ref_find_witness(inst, alloc, i, rset, budget)
                if moves is None:
                    break
                witnesses.append(alloc.reassign(moves))
            else:
                cert = EfrCertificate(alloc, rset, tuple(witnesses))
                return EfrDecision(True, cert)
    return EfrDecision(False, None)


def one_pass_decide_efr_k(inst, alloc, k):
    """The one-pass scan: `_find_witness` for every R and agent."""
    n = inst.num_agents
    owner = [0] * inst.num_items
    for j, bundle in enumerate(alloc.bundles):
        for t in bundle:
            owner[t] = j
    rows, prof = inst.scaled, profile(inst, alloc)
    others = [[j for j in range(n) if j != i] for i in range(n)]
    budget = Budget(10**12, "nodes")
    for size in range(k + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            rset = frozenset(realloc)
            moves = []
            for i in range(n):
                found = _find_witness(
                    rows[i], prof[i], owner, i, others[i], rset, budget
                )
                if found is None:
                    break
                moves.append(found)
            else:
                witnesses = tuple(map(alloc.reassign, moves))
                return EfrDecision(True, EfrCertificate(alloc, rset, witnesses))
    return EfrDecision(False, None)


def run_reference(inst, alloc, k):
    return ref_decide_efr_k(inst, alloc, k, Budget(10**12, "nodes"))


VALUE = st.one_of(
    st.just(F(0)),
    st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2, 3])),
)


@st.composite
def cases(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 8))
    if draw(st.booleans()):  # identical rows tie chore values across agents
        rows = [[draw(VALUE) for _ in range(m)]] * n
    else:
        rows = [[draw(VALUE) for _ in range(m)] for _ in range(n)]
    owner = [draw(st.integers(0, n - 1)) for _ in range(m)]
    bundles = tuple(
        frozenset(t for t in range(m) if owner[t] == i) for i in range(n)
    )
    inst = Instance(tuple(map(tuple, rows)))
    return inst, Allocation(bundles), draw(st.integers(0, m))


@settings(max_examples=600, deadline=None)
@given(cases(), st.data())
def test_decide_matches_reference(case, data):
    inst, alloc, k = case
    expected = run_reference(inst, alloc, k)
    assert decide_efr_k(inst, alloc, k) == expected
    assert_budget_is_own_spend(
        lambda limit: decide_efr_k(inst, alloc, k, budget=limit),
        lambda s: data.draw(st.integers(0, s - 1)),
    )


@settings(max_examples=200, deadline=None)
@given(cases())
def test_min_efr_k_matches_reference(case):
    inst, alloc, _ = case
    # min_efr_k is one scan: the decision at k = m, which stops at the
    # least k, and its spend is that of the decision at k alone
    decision = run_reference(inst, alloc, inst.num_items)
    k = len(decision.certificate.realloc_set)
    assert run_reference(inst, alloc, k) == decision
    if k:  # deciding k = 0, 1, ... in turn stops at the same k
        assert not run_reference(inst, alloc, k - 1).verdict
    got, spent = spend_of(lambda limit: min_efr_k(inst, alloc, budget=limit))
    assert got == (k, decision.certificate)
    assert spend_of(
        lambda limit: decide_efr_k(inst, alloc, k, budget=limit)
    ) == (decision, spent)
    assert min_efr_k(inst, alloc, budget=spent) == got
    with pytest.raises(BudgetExceededError):
        min_efr_k(inst, alloc, budget=spent - 1)


def test_frozenset_order_breaks_chore_ties():
    """Equal chores are placed in set iteration order, which is not sorted.

    A frozenset of items below 8, as in the random cases, iterates sorted;
    R = {1, 8, 9}, built from its sorted tuple as `decide_efr_k` builds it,
    iterates as 8, 1, 9.  Agent 0 holds R and four more chores; agents 1 and
    2 hold three and two, so their bundles beat agent 0's by 1 and 2.  First
    fit sends the first equal R chore to agent 1 and the other two to 2.
    """
    rset = frozenset((1, 8, 9))
    assert list(rset) == [8, 1, 9]
    inst = Instance(((F(-1),) * 12,) * 3)
    alloc = Allocation(
        (frozenset({0, 1, 2, 3, 4, 8, 9}), frozenset({7, 10, 11}), frozenset({5, 6}))
    )
    owner = [0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 1, 1]
    row, budget = inst.scaled[0], Budget(10**6, "nodes")
    got = _find_witness(row, profile(inst, alloc)[0], owner, 0, [1, 2], rset, budget)
    assert got == ref_find_witness(inst, alloc, 0, rset, Budget(10**6, "nodes"))
    assert got == {8: 1, 1: 2, 9: 2}


# the benchmark's three decide ops, the one it leaves out for time, and
# some small reductions
PARTITIONS = [
    [2, 2, 2, 2, 2, 16],
    [1, 1, 1, 1, 10],
    [9, 7, 5, 3, 1, 2, 4, 6, 8, 10, 1],
    [2, 2, 2, 2, 2, 2, 16],
    [1, 1, 2, 2],
    [3, 1, 2],
    [1, 1],
]


@pytest.mark.parametrize("values", PARTITIONS, ids=lambda v: ",".join(map(str, v)))
def test_partition_reductions_match_reference(values):
    inst, alloc, k = gen_partition_reduction(values)
    expected = one_pass_decide_efr_k(inst, alloc, k)
    assert decide_efr_k(inst, alloc, k) == expected
    assert expected.verdict == (solve_partition(values) is not None)
    assert_budget_is_own_spend(
        lambda limit: decide_efr_k(inst, alloc, k, budget=limit),
        lambda s: s // 2,
    )


# --- the covering question, as the verdict pass asks it ------------------------


def brute_covers(costs, gaps):
    """Whether some placement of the chores on the bundles closes every gap.

    `gaps[p]` is bundle p's value less the agent's own, of any sign; every
    chore goes onto one of the bundles, as in a witness.
    """
    for placement in itertools.product(range(len(gaps)), repeat=len(costs)):
        left = list(gaps)
        for c, p in zip(costs, placement):
            left[p] -= c
        if max(left) <= 0:
            return True
    return False


def covers(costs, gaps):
    """`_passes` for agent 0, who holds the chores `costs`, all of them in R,
    and whose bundle without them is worth `gaps[p]` less than bundle p+1.

    It is the path of a verdict: no positive gap, more gaps than chores and
    more gap than cost are answered at once, and any other key goes to the
    placement search on the descending costs and positive gaps.
    """
    row = [-c for c in costs]
    prof_row = [sum(row), *gaps]  # agent 0's own bundle is worth 0 without R
    return _passes(
        row, prof_row, [0] * len(costs), 0, range(len(costs)), {},
        Budget(10**6, "nodes"),
    )


@pytest.mark.parametrize(
    "costs, gaps, verdict",
    [
        # equal costs and equal gaps
        ((2, 2, 2, 2), (4, 4), True),
        ((2, 2, 2), (4, 4), False),
        ((2, 2, 2, 2, 2), (4, 4, 2), True),
        ((3, 3, 3, 3), (5, 5, 2), False),
        # more gaps than chores, though the chores outsum them
        ((9,), (1, 1), False),
        ((9, 9), (1, 1, 1), False),
        # no positive gap: nothing to close, whatever the chores
        ((), (0, -3), True),
        ((5, 1), (-1, 0, -2), True),
        # a single chore larger than every gap
        ((10,), (3,), True),
        ((10,), (3, 2), False),
        ((10, 2), (3, 2, -4), True),
        ((10, 1), (3, 2, -4), False),
        # only the largest chore on the smallest gap leaves two chores for
        # each equal gap
        ((6, 5, 5, 5, 5), (10, 10, 6), True),
        ((6, 5, 5, 5), (10, 10, 6), False),
        # a gap that no split of the chores closes with the other
        ((3, 3, 2), (4, 4), False),
        ((4, 3, 2, 1), (5, 5), True),
    ],
)
def test_covers_small_cases(costs, gaps, verdict):
    assert brute_covers(costs, gaps) is verdict
    assert covers(costs, gaps) is verdict


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=6),
    st.lists(st.integers(-3, 8), min_size=1, max_size=4),
)
def test_covers_matches_every_placement(costs, gaps):
    assert covers(costs, gaps) is brute_covers(costs, gaps)


def ref_place(costs, suffix, gaps, over, idx, picks, budget):
    """The placement search that tried every position at every node."""
    budget.spend()
    if over > suffix[idx]:
        return False
    if idx == len(costs):
        return True
    c = costs[idx]
    for p, g in enumerate(gaps):
        gaps[p] = g - c
        if ref_place(
            costs, suffix, gaps, over - min(g, c) if g > 0 else over,
            idx + 1, picks, budget,
        ):
            picks[idx] = p
            return True
        gaps[p] = g
    return False


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=6),
    st.lists(st.integers(-3, 8), min_size=1, max_size=4),
)
def test_skipping_tried_gaps_keeps_the_first_fit(costs, gaps):
    """Equal gaps lead to permuted subproblems and a closed gap stays
    closed, so skipping a gap value already tried at a node (all closed
    gaps alike), cutting a node whose open gaps outnumber its chores and
    stopping once no gap is open change neither the verdict nor the
    positions."""
    suffix = [sum(costs[i:]) for i in range(len(costs) + 1)]
    picks = [0] * len(costs)
    over = sum(g for g in gaps if g > 0)
    budget = Budget(10**6, "nodes")
    found = ref_place(costs, suffix, list(gaps), over, 0, picks, budget)
    got = _fit(costs, list(gaps), Budget(10**6, "nodes"))
    assert got == (picks if found else None)


def brute_passes(inst, alloc, agent, realloc):
    """Whether some placement of `realloc` on all agents leaves `agent`
    envy-free; the agent's zero-valued items may go anywhere."""
    row = inst.scaled[agent]
    n = inst.num_agents
    for placement in itertools.product(range(n), repeat=len(realloc)):
        moved = dict(zip(realloc, placement))
        loads = [0] * n
        for j, bundle in enumerate(alloc.bundles):
            for t in bundle:
                loads[moved.get(t, j)] += row[t]
        if max(loads) <= loads[agent]:
            return True
    return False


@st.composite
def small_cases(draw):
    """At most 4 agents and 6 items, values -3..3 with zeros frequent, and
    one candidate set R of every item."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    value = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-2), F(-3), F(3)])
    rows = [[draw(value) for _ in range(m)] for _ in range(n)]
    owner = [draw(st.integers(0, n - 1)) for _ in range(m)]
    bundles = tuple(
        frozenset(t for t in range(m) if owner[t] == i) for i in range(n)
    )
    return Instance(tuple(map(tuple, rows))), Allocation(bundles), owner


@settings(max_examples=300, deadline=None)
@given(small_cases())
def test_passes_matches_every_placement(case):
    inst, alloc, owner = case
    prof = profile(inst, alloc)
    memo, budget = {}, Budget(10**6, "nodes")  # shared, as in one scan
    for size in range(inst.num_items + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            for i in range(inst.num_agents):
                got = _passes(
                    inst.scaled[i], prof[i], owner, i, realloc, memo, budget
                )
                assert got is brute_passes(inst, alloc, i, realloc)


@settings(max_examples=200, deadline=None)
@given(small_cases(), st.randoms(use_true_random=False))
def test_verdicts_do_not_depend_on_agent_order(case, rnd):
    """The memo key names no agent, so relabelling the agents, or the order
    in which a witness search tries the others, changes no verdict."""
    inst, alloc, owner = case
    n, m = inst.num_agents, inst.num_items
    perm = list(range(n))
    rnd.shuffle(perm)  # agent i becomes perm[i]
    inverse = [perm.index(j) for j in range(n)]
    moved_inst = Instance(tuple(inst.values[inverse[j]] for j in range(n)))
    moved_alloc = Allocation(tuple(alloc.bundles[inverse[j]] for j in range(n)))
    moved_owner = [perm[a] for a in owner]
    prof, moved_prof = profile(inst, alloc), profile(moved_inst, moved_alloc)
    memo, budget = {}, Budget(10**6, "nodes")
    for size in range(m + 1):
        for realloc in itertools.combinations(range(m), size):
            rset = frozenset(realloc)
            for i in range(n):
                got = _passes(
                    inst.scaled[i], prof[i], owner, i, realloc, {}, budget
                )
                p = perm[i]
                assert got is _passes(
                    moved_inst.scaled[p], moved_prof[p], moved_owner, p,
                    realloc, memo, budget,
                )
                others = [j for j in range(n) if j != i]
                rnd.shuffle(others)
                found = _find_witness(
                    inst.scaled[i], prof[i], owner, i, others, rset, budget
                )
                assert (found is not None) is got
    for k in range(m + 1):
        a = decide_efr_k(inst, alloc, k)
        b = decide_efr_k(moved_inst, moved_alloc, k)
        assert a.verdict == b.verdict
        if a.verdict:
            assert a.certificate.realloc_set == b.certificate.realloc_set
