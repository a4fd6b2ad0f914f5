"""The fixed-n search on integer rows and item bitmasks, against its
`Fraction` and `frozenset` predecessors.

`build_f_ij` orders a pair's common goods and chores by integer
cross-products of `PerturbedInstance.scaled` and returns each separator
option's F_ij as an item bitmask; `reconstruct_I` intersects the masks;
`fixed_n._join` walks the I_i depth first once per size of R, both
charged for the work they do.  The references below are the earlier
implementations: `Fraction` ratios sorted once and read through `bisect`,
the product of frozensets, the product join, the single walk that joined
every size of R at once, and `Fraction` constraint rows scaled by
`scale_row`.  The kernel must return the same sets in the same order, ties included, so
the search's first hit cannot move.  `po_certificate_lp` is checked
against the weight system's rows: the integer row builder of
`test_lp_kernel` must give exactly the `Fraction` rows, and the LP's
answer must satisfy them or be refuted by them.  A perturbation's integer
rows must give the same record, `scaled` rows, perturbed values and
weights as the public constructor and a file round trip do, and a fresh
perturbation must hold no `Fraction` view until one is read.
"""

import functools
import itertools
import math
from bisect import bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair import welfare
from mannafair.core import Budget, BudgetExceededError, Instance, scale_row
from mannafair.fixed_n import _join, build_f_ij, reconstruct_I
from mannafair.harness import gen_random, parse_perturbed, serialize_perturbed
from mannafair.welfare import (
    PerturbedInstance,
    WeightVector,
    compute_params,
    demand_sets,
    perturb_nondegenerate,
    po_certificate_lp,
)

from conftest import intersection_charges, items_of, join_charges, product_join
from test_lp_kernel import check_against_reference, lp_calls_of_search, lp_rows
from test_perturb_kernel import VALUE, degenerate_instances

# --- references: the earlier implementations ---------------------------------


def ref_prefixes(ratio):
    order = sorted(ratio, key=ratio.__getitem__)
    ratios = [ratio[t] for t in order]
    return {
        t: frozenset(order[: bisect_right(ratios, r)]) for t, r in ratio.items()
    }


def ref_build_f_ij(pert, i, j):
    vi, vj = pert.pert_values[i], pert.pert_values[j]
    goods, chores, q = [], [], []
    for t, (a, b) in enumerate(zip(vi, vj)):
        if a > 0 and b > 0:
            goods.append(t)
        elif a < 0 and b < 0:
            chores.append(t)
        elif a > 0 > b:
            q.append(t)
    good_sets = ref_prefixes({t: vj[t] / vi[t] for t in goods})
    chore_sets = ref_prefixes({t: vi[t] / vj[t] for t in chores})
    base = frozenset(q)
    return {
        (g, c): base.union(good_sets.get(g, ()), chore_sets.get(c, ()))
        for g in [None] + goods
        for c in [None] + chores
    }


def ref_reconstruct_I(pert, i):
    per_pair = [
        ref_build_f_ij(pert, i, j).values()
        for j in range(pert.base.num_agents)
        if j != i
    ]
    all_items = frozenset(range(pert.base.num_items))
    seen = dict.fromkeys([frozenset()])
    for filters in itertools.product(*per_pair):
        seen.setdefault(all_items.intersection(*filters))
    return list(seen)


def walk_join(per_agent, m):
    """The single depth-first join that the staged one replaced: every
    |R| < n in one walk over all n agents, each node scanning its agent's
    sets, grouped by R in first-seen order and tuples in product order."""
    n, full = len(per_agent), (1 << m) - 1
    reach = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        reach[k] = functools.reduce(int.__or__, per_agent[k], reach[k + 1])
    kept = {}

    def walk(k, claimed, picked):
        for s in per_agent[k]:
            c = claimed | s
            if not s & claimed and (full ^ (c | reach[k + 1])).bit_count() < n:
                if k + 1 < n:
                    walk(k + 1, c, (*picked, s))
                else:
                    kept.setdefault(full ^ c, []).append((*picked, s))

    walk(0, 0, ())
    return {
        items_of(r): [tuple(map(items_of, t)) for t in ts] for r, ts in kept.items()
    }


def ref_lp_rows(pert, demand):
    """The `Fraction` constraint rows, each scaled by `scale_row`."""
    n, m = pert.base.num_agents, pert.base.num_items
    eta = pert.params.eta
    constraints = [([1] * n, 1), ([-1] * n, -1)]
    for t in range(m):
        col = [pert.pert_values[a][t] for a in range(n)]
        for i in demand[t]:
            for j in range(n):
                if j != i:
                    coeffs = [0] * n
                    coeffs[j], coeffs[i] = col[j], -col[i]
                    constraints.append((coeffs, eta * (col[i] - col[j])))
    return [list(scale_row([rhs, *coeffs])[1]) for coeffs, rhs in constraints]


# --- checks -------------------------------------------------------------------


def assert_filters_match(pert, join_limit=20_000):
    n = pert.base.num_agents
    for i, j in itertools.permutations(range(n), 2):
        got, want = build_f_ij(pert, i, j), ref_build_f_ij(pert, i, j)
        assert list(got) == list(want)
        assert [items_of(mask) for mask in got.values()] == list(want.values())
    for i in range(n):
        product = math.prod(
            len(build_f_ij(pert, i, j)) for j in range(n) if j != i
        )
        if product <= join_limit:
            budget = Budget(sum(intersection_charges(pert, i)), "intersections")
            got = reconstruct_I(pert, i, budget)
            assert budget.remaining == 0
            assert [items_of(mask) for mask in got] == ref_reconstruct_I(pert, i)


def by_size(groups):
    """A join's groups (R -> tuples) as (R, tuples) pairs by |R|, then R
    in lexicographic order, the order the search screens them in."""
    return sorted(groups.items(), key=lambda group: (len(group[0]), sorted(group[0])))


def assert_join_matches(per_agent, m):
    """The product join's groups split by |R|, each size charged one unit
    per set at each node and one per last-agent lookup of an independent
    depth-first join, and refused one unit short."""
    sets = [[items_of(s) for s in masks] for masks in per_agent]
    charge = sum(u for k in range(len(sets)) for _, u in join_charges(sets, m, k))
    with pytest.raises(BudgetExceededError):
        list(_join(per_agent, m, Budget(charge - 1, "join set tests")))
    budget = Budget(charge, "join set tests")
    got = list(_join(per_agent, m, budget))
    assert budget.remaining == 0
    assert got == by_size(product_join(sets, m))


def assert_lp_matches(pert, demand):
    assert lp_rows(pert, demand) == ref_lp_rows(pert, demand)
    check_against_reference(pert, demand, po_certificate_lp(pert, demand))


def directly_built(rows, eps):
    inst = Instance(tuple(map(tuple, rows)))
    scale = math.lcm(*(v.denominator for row in inst.values for v in row))
    params = compute_params(Instance([[v * scale for v in row] for row in rows]))
    return PerturbedInstance(inst, eps, params)


@st.composite
def perturbed(draw):
    """Perturbed instances, n 1-4 and m 0-8, and degenerate ones built
    directly: zero or arbitrary eps, zeros, rationals, identical rows."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 8 if draw(st.booleans()) else 5))
    first = [draw(VALUE) for _ in range(m)]
    if draw(st.booleans()):
        rows = [first] * n
    else:
        rows = [first] + [[draw(VALUE) for _ in range(m)] for _ in range(n - 1)]
    kind = draw(st.sampled_from(["perturbed", "zero eps", "some eps"]))
    if kind == "perturbed":
        return perturb_nondegenerate(Instance(tuple(map(tuple, rows))))
    small = st.sampled_from([F(0), F(0), F(1, 100), F(1, 7), F(-1, 3)])
    eps = [
        [F(0) if kind == "zero eps" else draw(small) for _ in range(m)] for _ in rows
    ]
    return directly_built(rows, eps)


SWEEP = [
    (n, m, chore_prob, seed)
    for n, ms in ((2, range(0, 11)), (3, range(0, 8)), (4, range(1, 5)))
    for m in ms
    for chore_prob in (F(0), F(1, 2), F(1))
    for seed in range(2)
]


@pytest.mark.parametrize("n,m,chore_prob,seed", SWEEP)
def test_generated_instances_match_references(n, m, chore_prob, seed):
    pert = perturb_nondegenerate(gen_random(n, m, 9, chore_prob, seed))
    assert_filters_match(pert)
    budget = Budget(10**9, "combinations")
    per_agent = [reconstruct_I(pert, i, budget) for i in range(n)]
    if math.prod(map(len, per_agent)) <= 200_000:
        assert_join_matches(per_agent, m)


@settings(max_examples=150, deadline=None)
@given(perturbed())
def test_filters_match_on_degenerate_and_perturbed_records(pert):
    assert_filters_match(pert, join_limit=5_000)


def test_equal_ratios_share_one_prefix_mask():
    # goods 0-2 share vbar_1/vbar_0 = 3 and chores 4-5 share |vbar_0|/|vbar_1|
    # = 1/18, with row 0 scaled by 6 and row 1 by 1
    rows = [[F(1, 3), F(2, 3), 1, F(2, 3), F(-1, 6), F(-1, 3)], [1, 2, 3, 3, -3, -6]]
    pert = directly_built(rows, [[F(0)] * 6] * 2)
    assert pert.scaled == ((2, 4, 6, 4, -1, -2), (1, 2, 3, 3, -3, -6))
    masks = build_f_ij(pert, 0, 1)
    assert masks[0, None] == masks[2, None] == 0b111
    assert masks[3, None] == 0b1111
    assert masks[None, 4] == masks[None, 5] == 0b110000
    assert_filters_match(pert)


@st.composite
def mask_lists(draw):
    """Per-agent lists of distinct masks, the empty set first, as
    `reconstruct_I` returns them, with no ratio structure behind them."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 10))
    sets = st.integers(0, (1 << m) - 1)
    return [
        list(dict.fromkeys([0, *draw(st.lists(sets, max_size=6 if n < 4 else 4))]))
        for _ in range(n)
    ], m


@settings(max_examples=300, deadline=None)
@given(mask_lists())
def test_join_matches_product_join(case):
    assert_join_matches(*case)


@settings(max_examples=300, deadline=None)
@given(mask_lists())
def test_staged_join_splits_the_single_walk_by_size(case):
    per_agent, m = case
    got = list(_join(per_agent, m, Budget(10**9, "c")))
    assert got == by_size(walk_join(per_agent, m))


def test_join_on_a_shape_with_several_r_groups():
    pert = perturb_nondegenerate(gen_random(3, 6, 9, F(1, 2), 2))
    per_agent = [reconstruct_I(pert, i, Budget(10**9, "c")) for i in range(3)]
    groups = dict(_join(per_agent, 6, Budget(10**9, "c")))
    assert len(groups) > 3 and max(map(len, groups.values())) > 1
    assert len({len(r) for r in groups}) > 1
    assert_join_matches(per_agent, 6)


@pytest.mark.parametrize(
    "inst",
    [
        gen_random(3, 5, 9, F(1, 2), 1),
        gen_random(3, 4, 9, F(1), 7),
        gen_random(4, 4, 9, F(1, 2), 1),
        Instance([[F(1, 2), F(-2, 3), 5], [2, 1, F(-1, 4)], [1, 1, 1]]),
        Instance([[1] * 4] * 3),
    ],
    ids=["3x5", "3x4-chores", "4x4", "rational", "identical"],
)
def test_every_search_lp_call_matches_reference(inst):
    calls = lp_calls_of_search(inst)
    assert calls
    for pert, demand, _ in calls:
        assert_lp_matches(pert, demand)


@settings(max_examples=150, deadline=None)
@given(perturbed(), st.data())
def test_lp_matches_reference_on_random_demand_maps(pert, data):
    n, m = pert.base.num_agents, pert.base.num_items
    agents = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    demand = [tuple(sorted(data.draw(agents))) for _ in range(m)]
    assert_lp_matches(pert, demand)


# --- the record built from the parts the perturbation holds -----------------


def ref_compute_params(inst):
    n, m = inst.num_agents, inst.num_items
    spread = max(sum((abs(v) for v in row), F(0)) for row in inst.values)
    Lambda = spread if spread > 0 else F(1)
    eta = F(1) / (2 * Lambda * n)
    return welfare.PerturbParams(F(1), Lambda, F(1), eta, eta / (8 * n * max(m, 1)))


def assert_constructions_agree(pert):
    public = PerturbedInstance(pert.base, pert.eps_matrix, pert.params)
    assert public == pert and hash(public) == hash(pert)
    assert repr(public) == repr(pert)
    assert public.pert_values == pert.pert_values
    assert public.scaled == pert.scaled
    assert pert.scaled == tuple(scale_row(row)[1] for row in pert.pert_values)
    assert pert.params == ref_compute_params(pert.base)
    for row in (*pert.eps_matrix, *pert.pert_values):
        assert type(row) is tuple and all(type(v) is F for v in row)


@pytest.mark.parametrize("n,m,chore_prob,seed", SWEEP[::3])
def test_perturbation_record_equals_public_construction(n, m, chore_prob, seed):
    inst = gen_random(n, m, 9, chore_prob, seed)
    assert_constructions_agree(perturb_nondegenerate(inst))


@settings(max_examples=80, deadline=None)
@given(degenerate_instances())
def test_perturbation_record_equals_public_construction_on_degenerate_rows(inst):
    assert_constructions_agree(perturb_nondegenerate(inst))


# --- the integer rows against the two public construction paths --------------

ENTRY = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3]))
CHORE = st.builds(F, st.integers(-6, -1), st.sampled_from([1, 2, 3]))


@st.composite
def perturbations(draw):
    """`perturb_nondegenerate` of n x m values, n 1-4 and m 0-8, with zeros,
    halves and thirds, some rows all chores."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 8))
    rows = [
        draw(st.lists(draw(st.sampled_from([ENTRY, CHORE])), min_size=m, max_size=m))
        for _ in range(n)
    ]
    return perturb_nondegenerate(Instance(tuple(map(tuple, rows))))


@settings(max_examples=150, deadline=None)
@given(perturbations(), st.data())
def test_integer_rows_agree_with_both_construction_paths(pert, data):
    # a fresh record holds its integer rows alone; each view waits for a read
    assert not {"eps_matrix", "pert_values", "scaled"} & vars(pert).keys()
    eps = pert.eps_matrix
    assert "pert_values" not in vars(pert)
    public = PerturbedInstance(pert.base, eps, pert.params)
    parsed = parse_perturbed(serialize_perturbed(pert))
    for other in (public, parsed):
        assert other == pert and hash(other) == hash(pert)
        assert repr(other) == repr(pert)
        assert other.scaled == pert.scaled
        assert other.pert_values == pert.pert_values
    n, m = pert.base.num_agents, pert.base.num_items
    shares = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    w = WeightVector([F(k, sum(shares)) for k in shares])
    agents = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    maps = [demand_sets(pert, w)]  # feasible: w itself certifies it
    maps += [[tuple(sorted(data.draw(agents))) for _ in range(m)] for _ in range(3)]
    for demand in maps:
        found = po_certificate_lp(pert, demand)
        assert po_certificate_lp(public, demand) == found
        assert po_certificate_lp(parsed, demand) == found
    assert po_certificate_lp(pert, maps[0]) is not None
