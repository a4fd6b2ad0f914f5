"""The one-pass EFR-k decision in `oracles` against references.

`decide_efr_k` scans the candidate sets R with `_passes`, which asks the
placement search `_place` once per distinct (chore costs, positive gaps)
key whether the chores can close every gap, and keeps its positions; the
accepted R's positions become owner vectors through `_moves`.  Three references
check it:

- `ref_find_witness` and `ref_decide_efr_k` re-sum every bundle and search
  placements first fit for every R and agent, independently of the module;
- `two_pass_decide_efr_k` is the kernel the one pass replaced: a verdict
  pass that could put a chore on a closed gap, then a witness pass that
  searched again on the accepted R, over every other bundle;
- `brute_covers` tries every placement of the chores on the gaps;
- `full_scan_decide_efr_k` is the one pass over every set R, twin
  relabelings included, which the scan over `_candidate_sets` replaced.

The kernel must agree with them on verdicts and reallocation sets, its
witnesses must be valid, and it must never spend more than the two-pass
kernel or the full scan; on inputs with twin items its decision must equal
the full scan's, witnesses included.  Its budget is its own: it raises
`BudgetExceededError` below its own spend and not at it, and it spends the
same on every call.
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
    is_envy_free_for,
    profile,
    validate_allocation,
    validate_certificate,
)
from mannafair.harness import gen_partition_reduction
from mannafair.oracles import (
    EfrDecision,
    _candidate_sets,
    _moves,
    _passes,
    _place,
    _twin_prev,
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
                cert = EfrCertificate.of_witnesses(alloc, rset, witnesses)
                return EfrDecision(True, cert)
    return EfrDecision(False, None)


# --- the two-pass kernel that the one pass replaced ---------------------------


def two_pass_place(costs, suffix, gaps, over, idx, picks, budget):
    """First fit that also tried the first closed gap at each node."""
    budget.spend()
    if over > suffix[idx] or sum(g > 0 for g in gaps) > len(costs) - idx:
        return False
    if not over:
        return True
    c = costs[idx]
    tried = set()
    for p, g in enumerate(gaps):
        key = max(g, 0)
        if key in tried:
            continue
        tried.add(key)
        gaps[p] = g - c
        if two_pass_place(
            costs, suffix, gaps, over - min(g, c) if g > 0 else over,
            idx + 1, picks, budget,
        ):
            picks[idx] = p
            return True
        gaps[p] = g
    return False


def two_pass_fit(costs, gaps, budget):
    suffix = list(itertools.accumulate(reversed(costs), initial=0))[::-1]
    picks = [0] * len(costs)
    over = sum(g for g in gaps if g > 0)
    found = two_pass_place(costs, suffix, gaps, over, 0, picks, budget)
    return picks if found else None


def two_pass_find_witness(row, prof_row, owner, agent, others, realloc, budget):
    """The witness pass: first fit on every other bundle, chores costliest
    first and ties in the iteration order of the frozenset `realloc`."""
    loads = list(prof_row)
    for t in realloc:
        loads[owner[t]] -= row[t]
    goods = [t for t in realloc if row[t] >= 0]
    chores = sorted((t for t in realloc if row[t] < 0), key=row.__getitem__)
    if not others:
        return {t: agent for t in realloc}
    own = loads[agent] + sum(row[t] for t in goods)
    gaps = [loads[j] - own for j in others]
    picks = two_pass_fit([-row[t] for t in chores], gaps, budget)
    if picks is None:
        return None
    result = {t: agent for t in goods}
    result.update((t, others[p]) for t, p in zip(chores, picks))
    return result


def two_pass_passes(row, prof_row, owner, agent, realloc, memo, budget):
    loads = list(prof_row)
    costs = []
    gain = 0
    for t in realloc:
        v = row[t]
        loads[owner[t]] -= v
        if v < 0:
            costs.append(-v)
        else:
            gain += v
    own = loads[agent] + gain
    gaps = [load - own for load in loads if load > own]
    if not gaps:
        return True
    if len(gaps) > len(costs) or sum(gaps) > sum(costs):
        return False
    costs.sort(reverse=True)
    gaps.sort(reverse=True)
    key = (tuple(costs), tuple(gaps))
    found = memo.get(key)
    if found is None:
        found = memo[key] = two_pass_fit(costs, gaps, budget) is not None
    return found


def two_pass_decide_efr_k(inst, alloc, k):
    """The two-pass decision and the units it spends."""
    budget = Budget(10**12, "nodes")
    n = inst.num_agents
    owner = [0] * inst.num_items
    for j, bundle in enumerate(alloc.bundles):
        for t in bundle:
            owner[t] = j
    rows, prof = inst.scaled, profile(inst, alloc)
    memo = {}
    for size in range(k + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            budget.spend()
            if all(
                two_pass_passes(rows[i], prof[i], owner, i, realloc, memo, budget)
                for i in range(n)
            ):
                rset = frozenset(realloc)
                moves = [
                    two_pass_find_witness(
                        rows[i], prof[i], owner, i,
                        [j for j in range(n) if j != i], rset, budget,
                    )
                    for i in range(n)
                ]
                witnesses = tuple(map(alloc.reassign, moves))
                cert = EfrCertificate.of_witnesses(alloc, rset, witnesses)
                return EfrDecision(True, cert), budget.limit - budget.remaining
    return EfrDecision(False, None), budget.limit - budget.remaining


# --- the full scan that the twin-class scan replaced --------------------------


def holders(alloc, m):
    owner = [0] * m
    for j, bundle in enumerate(alloc.bundles):
        for t in bundle:
            owner[t] = j
    return owner


def full_scan_decide_efr_k(inst, alloc, k):
    """The decision over every set R by `itertools.combinations`, and the
    units it spends."""
    budget = Budget(10**12, "nodes")
    owner = holders(alloc, inst.num_items)
    rows, prof = inst.scaled, profile(inst, alloc)
    memo = {}
    for size in range(k + 1):
        for realloc in itertools.combinations(range(inst.num_items), size):
            budget.spend()
            placed = []
            for i in range(inst.num_agents):
                found = _passes(rows[i], prof[i], owner, i, realloc, memo, budget)
                if found is None:
                    break
                placed.append(found)
            else:
                owners = [_moves(rows[i], i, realloc, *p) for i, p in enumerate(placed)]
                cert = EfrCertificate(alloc, realloc, owners)
                return EfrDecision(True, cert), budget.limit - budget.remaining
    return EfrDecision(False, None), budget.limit - budget.remaining


def same_decision(got, expected):
    """Same verdict and, when true, the same R; `got`'s witnesses valid."""
    assert got.verdict == expected.verdict
    if got.verdict:
        assert got.certificate.realloc_set == expected.certificate.realloc_set


def assert_witnesses_hold(inst, alloc, decision):
    """Every witness is valid, moves only items of R and gives R's goods
    (items the agent values at 0 or more) to the agent."""
    if not decision.verdict:
        return
    cert = decision.certificate
    assert cert.base == alloc
    assert validate_certificate(inst, cert)
    for i, witness in enumerate(cert.witnesses):
        for before, after in zip(alloc.bundles, witness.bundles):
            assert before ^ after <= cert.realloc_set
        goods = {t for t in cert.realloc_set if inst.scaled[i][t] >= 0}
        assert goods <= witness.bundles[i]


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
    got = decide_efr_k(inst, alloc, k)
    same_decision(got, run_reference(inst, alloc, k))
    assert_witnesses_hold(inst, alloc, got)
    assert decide_efr_k(inst, alloc, k) == got
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
    assert got[0] == k
    same_decision(EfrDecision(True, got[1]), decision)
    assert_witnesses_hold(inst, alloc, EfrDecision(True, got[1]))
    assert spend_of(
        lambda limit: decide_efr_k(inst, alloc, k, budget=limit)
    ) == (EfrDecision(True, got[1]), spent)
    assert min_efr_k(inst, alloc, budget=spent) == got
    with pytest.raises(BudgetExceededError):
        min_efr_k(inst, alloc, budget=spent - 1)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_spend_never_exceeds_the_two_pass_kernel(case):
    """The one pass runs the placement search on the keys the verdict pass
    searched, trying no closed gap, and builds no witness by a search."""
    inst, alloc, k = case
    for kk in (k, inst.num_items):
        expected, two_pass_spent = two_pass_decide_efr_k(inst, alloc, kk)
        got, spent = spend_of(
            lambda limit: decide_efr_k(inst, alloc, kk, budget=limit)
        )
        same_decision(got, expected)
        assert spent <= two_pass_spent


# --- twin items ---------------------------------------------------------------


@st.composite
def twin_cases(draw):
    """An instance, an allocation and k in which items 0 and 1 are twins,
    or, for "near miss", look like twins but are not.

    - "bundle": items 0 and 1 have equal columns and one holder;
    - "alone": agents 0 and 1 have equal rows and hold items 0 and 1 alone,
      whose columns are equal;
    - "proportional": the same with agent 1's row agent 0's over 2 or 3,
      so the two rows are unequal fractions with equal scaled rows;
    - "near miss": "alone", but agent 1 also holds item 2.

    The other items repeat a few drawn columns, so more twins turn up.
    """
    kind = draw(st.sampled_from(["bundle", "alone", "proportional", "near miss"]))
    n = draw(st.integers(1 if kind == "bundle" else 2, 5))
    low_m = 3 if kind == "near miss" else 2
    # two agents holding items 0 and 1 alone leave no holder for the others
    m = draw(st.integers(low_m, 8 if n > 2 or kind == "bundle" else low_m))
    value = st.sampled_from([F(0), F(1), F(-1), F(2), F(-2), F(-3)])
    column = st.lists(value, min_size=n, max_size=n)
    pool = draw(st.lists(column, min_size=1, max_size=3))
    cols = [pool[0], pool[0]] + [draw(st.sampled_from(pool)) for _ in range(2, m)]
    if kind != "bundle":  # agents 0 and 1 value every item alike
        cols = [[c[0], c[0], *c[2:]] for c in cols]
    rows = [[cols[t][i] for t in range(m)] for i in range(n)]
    if kind == "proportional":
        # agent 0's row is of integers, one of them 1 or -1, so it is its
        # own scaled row and that of its row over d, agent 1's row
        rows[0][0] = rows[0][1] = draw(st.sampled_from([F(1), F(-1)]))
        d = draw(st.sampled_from([2, 3]))
        rows[1] = [v / d for v in rows[0]]
    owner = [draw(st.integers(0, n - 1)) for _ in range(m)]
    if kind == "bundle":
        owner[1] = owner[0]
    else:
        owner[:2] = [0, 1]
        for t in range(2, m):
            near_miss = kind == "near miss" and t == 2
            owner[t] = 1 if near_miss else draw(st.integers(2, n - 1))
    bundles = tuple(
        frozenset(t for t in range(m) if owner[t] == i) for i in range(n)
    )
    inst = Instance(tuple(map(tuple, rows)))
    return kind, inst, Allocation(bundles), draw(st.integers(0, m))


@settings(max_examples=600, deadline=None)
@given(twin_cases())
def test_twin_scan_matches_the_full_scan(case):
    """Skipping twin relabelings keeps the verdict, R and witnesses of the
    scan over every set, and never spends more."""
    kind, inst, alloc, k = case
    m = inst.num_items
    prev = _twin_prev(inst.scaled, alloc.bundles, holders(alloc, m))
    assert (prev[1] == 0) is (kind != "near miss")
    if kind == "proportional":
        assert inst.values[0] != inst.values[1]
        assert inst.scaled[0] == inst.scaled[1]
    got, spent = spend_of(lambda limit: decide_efr_k(inst, alloc, k, budget=limit))
    expected, full_spent = full_scan_decide_efr_k(inst, alloc, k)
    assert got == expected
    assert spent <= full_spent
    same_decision(got, run_reference(inst, alloc, k))
    assert_witnesses_hold(inst, alloc, got)


def prefix_per_class(realloc, prev):
    """Whether `realloc` holds each item's next lower twin with the item."""
    return all(prev[t] < 0 or prev[t] in realloc for t in realloc)


def twin_classes(m):
    """Every partition of range(m) into twin classes, as `prev` lists."""
    if not m:
        yield []
        return
    for prev in twin_classes(m - 1):
        # item m - 1 starts a class or follows the last item of one
        yield [*prev, -1]
        yield from ([*prev, t] for t in range(m - 1) if t not in prev)


@pytest.mark.parametrize("m", range(9))
def test_candidate_sets_are_the_prefix_sets_in_order(m):
    for prev in twin_classes(m):
        for size in range(m + 2):
            expected = [
                realloc
                for realloc in itertools.combinations(range(m), size)
                if prefix_per_class(realloc, prev)
            ]
            assert list(_candidate_sets(m, size, prev)) == expected
    # with no twins the scan is itertools.combinations itself
    assert isinstance(_candidate_sets(m, 2, [-1] * m), itertools.combinations)


# three agents, twelve chores of cost 1, and R = {1, 8, 9}: agent 0 holds R
# and four more chores, agents 1 and 2 hold three and two
TIES_INST = Instance(((F(-1),) * 12,) * 3)
TIES_ALLOC = Allocation(
    (frozenset({0, 1, 2, 3, 4, 8, 9}), frozenset({7, 10, 11}), frozenset({5, 6}))
)
TIES_OWNER = [0, 0, 0, 0, 0, 2, 2, 1, 0, 0, 1, 1]


def test_equal_chores_go_lower_item_first_to_the_largest_gap():
    """Without R, agent 0's bundle is worth 1 less than agent 1's and 2 less
    than agent 2's.  The search fills the larger gap (position 0, agent 2)
    first: two chores go there and the third to agent 1.  Equal chores are
    taken in item order, whatever the iteration order of R; a frozenset
    {1, 8, 9} iterates as 8, 1, 9."""
    assert list(frozenset((1, 8, 9))) == [8, 1, 9]
    row = TIES_INST.scaled[0]
    for realloc in (1, 8, 9), frozenset((1, 8, 9)):
        found = _passes(
            row, profile(TIES_INST, TIES_ALLOC)[0], TIES_OWNER, 0, realloc, {},
            Budget(10**6, "nodes"),
        )
        assert found == ([-4, -3, -2], -4, [0, 0, 1])
        owners = _moves(row, 0, realloc, *found)
        assert dict(zip(realloc, owners)) == {1: 2, 8: 2, 9: 1}


def test_without_an_open_gap_chores_go_to_the_lowest_other_agent():
    """Agent 2 without chore 5 envies no one, so chore 5 goes to agent 0;
    agent 0 with the same values would send it to agent 1, and an agent
    alone keeps its chores."""
    row = TIES_INST.scaled[2]
    found = _passes(
        row, profile(TIES_INST, TIES_ALLOC)[2], TIES_OWNER, 2, (5,), {},
        Budget(10**6, "nodes"),
    )
    assert found == ([-7, -3, -1], -1, ())
    assert _moves(row, 2, (5,), *found) == (0,)
    assert _moves(row, 0, (5,), *found) == (1,)
    assert _moves((-1, 2), 0, (0, 1), [0], 0, ()) == (0, 0)


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
    expected, two_pass_spent = two_pass_decide_efr_k(inst, alloc, k)
    got = decide_efr_k(inst, alloc, k)
    same_decision(got, expected)
    assert got.verdict == (solve_partition(values) is not None)
    assert_witnesses_hold(inst, alloc, got)
    spent = assert_budget_is_own_spend(
        lambda limit: decide_efr_k(inst, alloc, k, budget=limit),
        lambda s: s // 2,
    )
    assert spent <= two_pass_spent
    full, full_spent = full_scan_decide_efr_k(inst, alloc, k)
    assert full == got
    assert spent <= full_spent


# (units, units of the full scan) of the benchmark's decide ops and the one it
# leaves out.  In a reduction of k integers the k + 1 chores of cost T are
# twins, each alone with one of k + 1 agents of equal rows, and so are the
# first bundle's chores of equal cost
PARTITION_SPENDS = {
    "2,2,2,2,2,16": (167, 4_215),
    "1,1,1,1,10": (112, 1_101),
    "9,7,5,3,1,2,4,6,8,10,1": (321, 2_149),
    "2,2,2,2,2,2,16": (235, 16_556),
}


@pytest.mark.parametrize("values", PARTITION_SPENDS)
def test_partition_reduction_spends(values):
    inst, alloc, k = gen_partition_reduction(list(map(int, values.split(","))))
    spent = spend_of(lambda limit: decide_efr_k(inst, alloc, k, budget=limit))[1]
    full_spent = full_scan_decide_efr_k(inst, alloc, k)[1]
    assert (spent, full_spent) == PARTITION_SPENDS[values]


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
    ) is not None


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


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(1, 5), max_size=6),
    st.lists(st.integers(-3, 8), min_size=1, max_size=4),
)
def test_place_closes_every_gap(costs, gaps):
    """Trying open gaps only, one per gap value at a node, loses no
    placement; the positions found close every gap, and each chore placed
    while a gap is open goes onto an open gap."""
    suffix = [sum(costs[i:]) for i in range(len(costs) + 1)]
    picks = [0] * len(costs)
    over = sum(g for g in gaps if g > 0)
    found = _place(
        costs, suffix, list(gaps), over, 0, picks, Budget(10**6, "nodes")
    )
    assert found is brute_covers(costs, gaps)
    if found:
        left = list(gaps)
        for c, p in zip(costs, picks):
            assert left[p] > 0 or max(left) <= 0
            left[p] -= c
        assert max(left) <= 0


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
                found = _passes(
                    inst.scaled[i], prof[i], owner, i, realloc, memo, budget
                )
                assert (found is not None) is brute_passes(inst, alloc, i, realloc)
                if found is not None:
                    owners = _moves(inst.scaled[i], i, realloc, *found)
                    assert len(owners) == len(realloc)
                    moves = dict(zip(realloc, owners))
                    assert is_envy_free_for(inst, alloc.reassign(moves), i)


@settings(max_examples=200, deadline=None)
@given(small_cases(), st.randoms(use_true_random=False))
def test_verdicts_do_not_depend_on_agent_order(case, rnd):
    """The memo key names no agent, so relabelling the agents changes no
    verdict and no position: the relabelled agent reads the same positions
    from a memo shared with the other labels' keys."""
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
            for i in range(n):
                got = _passes(
                    inst.scaled[i], prof[i], owner, i, realloc, {}, budget
                )
                p = perm[i]
                moved = _passes(
                    moved_inst.scaled[p], moved_prof[p], moved_owner, p,
                    realloc, memo, budget,
                )
                assert (got is None) is (moved is None)
                if got is not None:
                    loads, own, picks = got
                    assert moved == (
                        [loads[inverse[j]] for j in range(n)], own, picks
                    )
    for k in range(m + 1):
        a = decide_efr_k(inst, alloc, k)
        b = decide_efr_k(moved_inst, moved_alloc, k)
        assert a.verdict == b.verdict
        if a.verdict:
            assert a.certificate.realloc_set == b.certificate.realloc_set
