"""The polynomial pipeline's shortcuts against the loops they replace.

- `core.profile` sums each bundle through one `itemgetter` per bundle; the
  reference adds the scaled row entry by entry.
- `efr_n_minus_1` reads each agent's best outside good from its round-2
  preference order; the reference is the O(m) scan over every item that
  the pipeline used before.
- `parse_certificate` reads each distinct bundle list of exact ints of a
  format-1 certificate once, so a witness bundle list equal to the base's
  shares the base's set, while a `true` or `1.0` that compares equal to an
  id is still rejected.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mannafair import algorithms
from mannafair.algorithms import (
    _best_outside_good,
    _double_round_robin,
    double_round_robin_ef1,
    efr_n_minus_1,
    resolve_top_trading_cycles,
)
from mannafair.core import (
    Allocation,
    EfrCertificate,
    Instance,
    _getters,
    is_envy_free_for,
    profile,
)
from mannafair.harness import ParseError, gen_random, parse_certificate

from conftest import format1_text


def allocation(owner, n):
    return Allocation(
        tuple(frozenset(t for t, a in enumerate(owner) if a == i) for i in range(n))
    )


@st.composite
def instances_and_allocations(draw, values=None):
    """Small instances with zero, tied, rational and all-chore rows, and an
    allocation with empty and one-item bundles whenever m < 2n."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 12))
    if values is None:
        values = st.builds(
            F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3])
        )
    rows = []
    for _ in range(n):
        if draw(st.booleans()) and draw(st.booleans()):  # an all-chore row
            rows.append([F(-draw(st.integers(1, 3))) for _ in range(m)])
        else:
            rows.append([draw(values) for _ in range(m)])
    owner = [draw(st.integers(0, n - 1)) for _ in range(m)]
    return Instance(tuple(map(tuple, rows))), allocation(owner, n)


# --- the bundle-sum kernel ---------------------------------------------------


def ref_profile(inst, alloc):
    out = []
    for row in inst.scaled:
        sums = []
        for bundle in alloc.bundles:
            total = 0
            for t in bundle:
                total += row[t]
            sums.append(total)
        out.append(sums)
    return out


EDGE_CASES = [
    (Instance(((),)), Allocation((frozenset(),))),  # n = 1, m = 0
    (Instance(((), ())), Allocation((frozenset(), frozenset()))),
    (Instance(((F(5, 2),),)), Allocation((frozenset({0}),))),  # n = 1
    (
        Instance(((1, -2, F(1, 3)), (0, 0, -1), (F(-1, 2), 4, 4))),
        Allocation((frozenset({2}), frozenset(), frozenset({0, 1}))),
    ),
]


@pytest.mark.parametrize("inst, alloc", EDGE_CASES)
def test_profile_edge_cases_match_the_per_entry_reference(inst, alloc):
    assert profile(inst, alloc) == ref_profile(inst, alloc)


@settings(max_examples=200, deadline=None)
@given(instances_and_allocations())
@example(EDGE_CASES[0])
@example(EDGE_CASES[3])
def test_profile_matches_the_per_entry_reference(case):
    inst, alloc = case
    prof = profile(inst, alloc)
    assert prof == ref_profile(inst, alloc)
    assert all(type(v) is int for row in prof for v in row)
    for i in range(inst.num_agents):
        vals = prof[i]
        assert is_envy_free_for(inst, alloc, i) == (vals[i] >= max(vals))


@pytest.mark.parametrize(
    "bundle", [frozenset(), frozenset({0}), frozenset({3}), frozenset({1, 3})]
)
def test_each_getter_yields_a_tuple_whatever_the_bundle_size(bundle):
    row = (7, -2, 0, 5)
    (get,) = _getters([bundle])
    got = get(row)
    assert type(got) is tuple
    assert sorted(got) == sorted(row[t] for t in bundle)


# --- EFR's outside-good pick --------------------------------------------------


def old_best_outside_good(inst, bundle, agent):
    """The O(m) scan the pipeline used before it read drr's order."""
    row = inst.scaled[agent]
    goods = [t for t in range(len(row)) if t not in bundle and row[t] >= 0]
    return max(goods, key=lambda t: (row[t], -t), default=None)


def old_efr_n_minus_1(inst):
    n = inst.num_agents
    base = resolve_top_trading_cycles(inst, double_round_robin_ef1(inst))
    vals = profile(inst, base)
    sink = next(i for i, row in enumerate(vals) if row[i] >= max(row))
    realloc, witnesses = set(), []
    for i in range(n):
        bundle, row = base.bundles[i], inst.scaled[i]
        chores = [t for t in bundle if row[t] < 0]
        options = (
            min(chores, key=lambda t: (row[t], t), default=None),
            old_best_outside_good(inst, bundle, i),
        )
        options = [t for t in options if t is not None]
        if i == sink or not options:
            witnesses.append(base)
            continue
        chosen = max(options, key=lambda t: (abs(row[t]), -t))
        realloc.add(chosen)
        target = sink if row[chosen] < 0 else i
        witnesses.append(base.reassign({chosen: target}))
    return EfrCertificate.of_witnesses(base, realloc, witnesses)


TIES = Instance(((3, 3, 0, 0, -1), (3, 3, 3, -2, -1), (0, 0, 0, 0, -1)))
ALL_CHORE_ROW = Instance(((-1, -2, -3, -1), (2, -1, 0, 2), (-5, -5, -5, -5)))


@pytest.mark.parametrize("inst", [TIES, ALL_CHORE_ROW])
def test_efr_matches_the_old_scan_on_ties_zeros_and_all_chore_rows(inst):
    assert efr_n_minus_1(inst) == old_efr_n_minus_1(inst)


@settings(max_examples=200, deadline=None)
@given(instances_and_allocations(values=st.integers(-2, 2).map(F)))
def test_efr_matches_the_old_scan(case):
    inst, alloc = case
    assert efr_n_minus_1(inst) == old_efr_n_minus_1(inst)
    # the order gives the old answer on any bundle, not only the base's
    _, orders = _double_round_robin(inst)
    for i, (row, order) in enumerate(zip(inst.scaled, orders)):
        for bundle in (*alloc.bundles, frozenset()):
            assert _best_outside_good(row, order, bundle) == (
                old_best_outside_good(inst, bundle, i)
            )


@pytest.mark.parametrize("chore_prob", [F(0), F(1, 2), F(1)])
@pytest.mark.parametrize("seed", range(4))
def test_efr_matches_the_old_scan_on_generated_instances(chore_prob, seed):
    inst = gen_random(6, 40, 3, chore_prob, seed)
    assert efr_n_minus_1(inst) == old_efr_n_minus_1(inst)


def test_drr_result_is_its_helpers_allocation():
    inst = gen_random(5, 30, 9, F(1, 2), 7)
    alloc, orders = _double_round_robin(inst)
    assert double_round_robin_ef1(inst) == alloc
    assert len(orders) == inst.num_agents


def test_efr_calls_drr_once_through_the_helper(monkeypatch):
    calls = []
    helper = algorithms._double_round_robin
    monkeypatch.setattr(
        algorithms, "_double_round_robin",
        lambda inst: calls.append(inst) or helper(inst),
    )
    inst = gen_random(4, 12, 9, F(1, 2), 1)
    efr_n_minus_1(inst)
    assert calls == [inst]


# --- reading format-1 witnesses -----------------------------------------------

INST = gen_random(3, 5, 9, F(1, 2), 3)


def cert_doc():
    return json.loads(format1_text(efr_n_minus_1(INST)))


def read(doc):
    return parse_certificate(json.dumps(doc), INST)


def test_witness_bundles_equal_to_the_base_share_its_sets():
    doc = cert_doc()
    cert = read(doc)
    shared = 0
    for raw_w, w in zip(doc["witnesses"], cert.witnesses):
        for raw_b, raw_base, b, base_b in zip(
            raw_w, doc["base"], w.bundles, cert.base.bundles
        ):
            if raw_b == raw_base:
                assert b is base_b
                shared += 1
    assert shared >= len(doc["base"])  # the sink's witness is the base


def test_a_reordered_bundle_is_read_item_by_item():
    doc = cert_doc()
    j = max(range(3), key=lambda j: len(doc["base"][j]))
    assert len(doc["base"][j]) >= 2
    doc["witnesses"][0][j] = doc["base"][j][::-1]
    cert = read(doc)
    assert cert.witnesses[0].bundles[j] == cert.base.bundles[j]


@pytest.mark.parametrize("fake, shown", [(True, "True"), (1.0, "1.0")])
def test_a_non_int_in_a_bundle_equal_to_the_base_is_rejected(fake, shown):
    doc = cert_doc()
    j = next(j for j, b in enumerate(doc["base"]) if 1 in b)
    bundle = [fake if t == 1 else t for t in doc["base"][j]]
    assert bundle == doc["base"][j]  # as JSON values, true == 1.0 == 1
    doc["witnesses"][1][j] = bundle
    with pytest.raises(ParseError) as err:
        read(doc)
    assert str(err.value) == f"witnesses[1][{j}]: bad item id {shown}"


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda w: w[:-1], "witnesses[2]: expected 3 bundles"),
        (lambda w: w + [[]], "witnesses[2]: expected 3 bundles"),
        (lambda w: {"bundles": w}, "witnesses[2]: expected 3 bundles"),
        (lambda w: 7, "witnesses[2]: expected 3 bundles"),
        (lambda w: [w[0], 2, w[2]], "witnesses[2][1]: expected a list of item ids"),
        (
            lambda w: [w[0], w[1], "1 2"],
            "witnesses[2][2]: expected a list of item ids",
        ),
        (lambda w: [w[0], [[1]], w[2]], "witnesses[2][1]: bad item id [1]"),
    ],
)
def test_ragged_and_non_list_witnesses_are_rejected(edit, message):
    doc = cert_doc()
    doc["witnesses"][2] = edit(doc["witnesses"][2])
    with pytest.raises(ParseError) as err:
        read(doc)
    assert str(err.value) == message
