"""The integer value kernel against plain `Fraction` reference predicates.

`Instance.scaled` multiplies each agent's row by a positive integer, and the
predicates in `core` compare those integers.  The references below are
written straight from the definitions with `Fraction` sums, so every
predicate must agree with them on every instance, including zeros, rational
values, all-goods and all-chore instances, n = 1 and m = 0.
"""

from fractions import Fraction as F
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair.algorithms import efr_n_minus_1
from mannafair.core import (
    Allocation,
    EfrCertificate,
    Instance,
    build_envy_graph,
    bundle_value,
    is_ef1,
    is_envy_free,
    is_envy_free_for,
    profile,
    validate_certificate,
)

SIGNS = {"goods": (0, 1), "chores": (-1, 0), "mixed": (-1, 1)}


@st.composite
def instances_and_allocations(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(0, 12))
    lo, hi = SIGNS[draw(st.sampled_from(sorted(SIGNS)))]
    value = st.builds(
        F, st.integers(3 * lo, 3 * hi), st.sampled_from([1, 1, 2, 3, 7])
    )
    rows = [[draw(value) for _ in range(m)] for _ in range(n)]
    owner = [draw(st.integers(0, n - 1)) for _ in range(m)]
    return Instance(tuple(map(tuple, rows))), allocation(owner, n)


def allocation(owner, n):
    return Allocation(
        tuple(frozenset(t for t, a in enumerate(owner) if a == i) for i in range(n))
    )


def value(inst, i, bundle):
    return sum((inst.values[i][t] for t in bundle), F(0))


def ref_envies(inst, alloc, i, j):
    b = alloc.bundles
    return value(inst, i, b[i]) < value(inst, i, b[j])


def ref_envy_free_for(inst, alloc, i):
    return not any(ref_envies(inst, alloc, i, j) for j in range(inst.num_agents))


def ref_ef1(inst, alloc):
    b = alloc.bundles
    for i in range(inst.num_agents):
        for j in range(inst.num_agents):
            if i == j or not ref_envies(inst, alloc, i, j):
                continue
            if not any(
                value(inst, i, b[i] - {t}) >= value(inst, i, b[j] - {t})
                for t in b[i] | b[j]
            ):
                return False
    return True


def ref_validate_certificate(inst, base, realloc, witnesses):
    """The certificate of witness allocations `witnesses` on `base`."""
    m = inst.num_items
    for i, w in enumerate(witnesses):
        items = [t for b in w.bundles for t in b]
        if len(w.bundles) != inst.num_agents or sorted(items) != list(range(m)):
            return False
        for t in set(range(m)) - realloc:
            if base.holder(t) != w.holder(t):
                return False
        if not ref_envy_free_for(inst, w, i):
            return False
    return True


@settings(max_examples=150, deadline=None)
@given(instances_and_allocations())
def test_profile_is_each_agents_bundle_values_times_a_positive_scale(case):
    inst, alloc = case
    for i, row in enumerate(profile(inst, alloc)):
        scale = lcm(*(v.denominator for v in inst.values[i]))
        for j, entry in enumerate(row):
            assert type(entry) is int
            assert entry == bundle_value(inst, i, alloc.bundles[j]) * scale


@settings(max_examples=150, deadline=None)
@given(instances_and_allocations())
def test_envy_predicates_match_the_fraction_references(case):
    inst, alloc = case
    n = inst.num_agents
    edges = {(i, j) for i in range(n) for j in range(n) if ref_envies(inst, alloc, i, j)}
    assert build_envy_graph(inst, alloc).edges == edges
    free = [ref_envy_free_for(inst, alloc, i) for i in range(n)]
    assert [is_envy_free_for(inst, alloc, i) for i in range(n)] == free
    assert is_envy_free(inst, alloc) == all(free)
    assert is_ef1(inst, alloc) == ref_ef1(inst, alloc)


@settings(max_examples=100, deadline=None)
@given(instances_and_allocations(), st.data())
def test_validate_certificate_matches_the_fraction_reference(case, data):
    inst, alloc = case
    n, m = inst.num_agents, inst.num_items
    cert = efr_n_minus_1(inst)
    assert validate_certificate(inst, cert)
    assert ref_validate_certificate(inst, cert.base, cert.realloc_set, cert.witnesses)
    # a drawn certificate over the drawn allocation: the verdicts must agree,
    # with drawn witness allocations and with drawn owner vectors of R
    realloc = frozenset(t for t in range(m) if data.draw(st.booleans()))
    witnesses = tuple(
        allocation([data.draw(st.integers(0, n - 1)) for _ in range(m)], n)
        for _ in range(n)
    )
    drawn = EfrCertificate.of_witnesses(alloc, realloc, witnesses)
    assert validate_certificate(inst, drawn) == ref_validate_certificate(
        inst, alloc, realloc, witnesses
    )
    owners = [[data.draw(st.integers(0, n - 1)) for _ in realloc] for _ in range(n)]
    drawn = EfrCertificate(alloc, realloc, owners)
    assert validate_certificate(inst, drawn) == ref_validate_certificate(
        inst, alloc, realloc, drawn.witnesses
    )
    # moving an item outside R in one witness must be rejected
    outside = sorted(set(range(m)) - cert.realloc_set)
    if n >= 2 and outside:
        t = data.draw(st.sampled_from(outside))
        k = data.draw(st.integers(0, n - 1))
        w = cert.witnesses[k]
        moved = w.reassign({t: (w.holder(t) + 1) % n})
        ws = cert.witnesses[:k] + (moved,) + cert.witnesses[k + 1 :]
        bad = EfrCertificate.of_witnesses(cert.base, cert.realloc_set, ws)
        assert not validate_certificate(inst, bad)
        assert not ref_validate_certificate(inst, cert.base, cert.realloc_set, ws)
