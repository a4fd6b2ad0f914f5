"""`validate_certificate` checks each witness as an owner vector of R.

Agent i's row is its base row with each item of R moved to its owner in
agent i's vector.  The full check it replaced, one `validate_allocation`
and one envy row per witness allocation, is kept here as the reference.
Both must give the same verdict or raise the same exception:

- on format-1 certificates, whose witness allocations (valid or corrupted)
  `EfrCertificate.of_witnesses` reads as owner vectors, and
- on owner-vector certificates with corrupted vectors, whose shape is
  checked first and whose materialized `witnesses` the reference reads.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair.algorithms import conflict_aware_picking, efr_n_minus_1
from mannafair.core import (
    Allocation,
    EfrCertificate,
    IncompleteCertificateError,
    Instance,
    is_envy_free_for,
    validate_allocation,
    validate_certificate,
)
from mannafair.harness import gen_random, parse_certificate, serialize_certificate
from mannafair.oracles import min_efr_k

from conftest import format1_text


def check_shape(inst, base, realloc, witnesses):
    """Raise unless `base` is an n-partition, there are n witnesses and R
    holds items of range(m)."""
    validate_allocation(inst, base)
    n, m = inst.num_agents, inst.num_items
    if len(witnesses) != n:
        raise IncompleteCertificateError(
            f"certificate has {len(witnesses)} witnesses for {n} agents"
        )
    for t in sorted(realloc):
        if not 0 <= t < m:
            raise ValueError(f"realloc_set item index {t} out of range")


def reference_validate_certificate(inst, base, realloc, witnesses):
    """Validate every witness as a full allocation."""
    check_shape(inst, base, realloc, witnesses)
    for i, witness in enumerate(witnesses):
        try:
            envy_free = is_envy_free_for(inst, witness, i)
        except ValueError:  # not an n-partition
            return False
        moved = (b ^ w for b, w in zip(base.bundles, witness.bundles))
        if not envy_free or not all(d <= realloc for d in moved):
            return False
    return True


def reference_validate_owners(inst, cert):
    """The vectors' shape, then the full check on the witnesses they give."""
    check_shape(inst, cert.base, cert.realloc_set, cert.owners)
    n, size = inst.num_agents, len(cert.realloc_set)
    for v in cert.owners:
        if v is None or len(v) != size or not all(0 <= a < n for a in v):
            return False
    return reference_validate_certificate(
        inst, cert.base, cert.realloc_set, cert.witnesses
    )


def outcome(check, *args):
    try:
        return "verdict", check(*args)
    except (ValueError, IncompleteCertificateError) as exc:
        return type(exc), str(exc)


def same_outcome(inst, base, realloc, witnesses):
    """The verdict on the format-1 witnesses, read as owner vectors."""
    cert = EfrCertificate.of_witnesses(base, realloc, witnesses)
    ours = outcome(validate_certificate, inst, cert)
    assert ours == outcome(
        reference_validate_certificate, inst, base, frozenset(realloc), witnesses
    )
    return ours


def same_owner_outcome(inst, cert):
    ours = outcome(validate_certificate, inst, cert)
    assert ours == outcome(reference_validate_owners, inst, cert)
    return ours


def copy_of(alloc):
    """An equal allocation that shares no bundle object with `alloc`."""
    return Allocation(tuple(frozenset(set(b)) for b in alloc.bundles))


def edit_bundles(alloc, edit):
    bundles = [set(b) for b in alloc.bundles]
    edit(bundles)
    return Allocation(tuple(bundles))


@st.composite
def least_k_certificates(draw):
    """An instance and a valid least-k certificate from the EFR-k oracle."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(0, 5))
    values = draw(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    inst = Instance(tuple(map(tuple, values)))
    owners = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    base = Allocation(
        tuple(frozenset(t for t in range(m) if owners[t] == i) for i in range(n))
    )
    return inst, min_efr_k(inst, base)[1]


def r_edit(draw, kind, realloc, m):
    """R gains or loses an item, maybe out of range, or takes every item."""
    if kind == "r-all":
        return realloc | set(range(m))
    t = draw(st.integers(-1, m + 1))  # out of range at both ends
    return realloc | {t} if kind == "r-add" else realloc - {t}


@st.composite
def certificates(draw):
    """A format-1 certificate, (inst, base, R, witness allocations), with up
    to three corruptions of its witnesses, its R or its witness count."""
    inst, cert = draw(least_k_certificates())
    n, m, base = inst.num_agents, inst.num_items, cert.base
    witnesses, realloc = list(cert.witnesses), set(cert.realloc_set)
    item = st.integers(-1, m + 1)  # out of range at both ends
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(
                ["count", "base", "copy", "move", "twice", "swap", "range",
                 "drop", "bundles", "r-add", "r-drop", "r-all"]
            )
        )
        i = draw(st.integers(0, n - 1))
        if kind == "count":  # a missing or an extra witness
            if draw(st.booleans()) and witnesses:
                witnesses.pop(draw(st.integers(0, len(witnesses) - 1)))
            else:
                witnesses.append(base)
            continue
        if kind.startswith("r-"):
            realloc = r_edit(draw, kind, realloc, m)
            continue
        if i >= len(witnesses) or not witnesses[i].bundles:
            continue
        w = witnesses[i]
        j, t = draw(st.integers(0, len(w.bundles) - 1)), draw(item)
        if kind == "base":
            w = base
        elif kind == "copy":  # equal to the witness but no bundle shared
            w = copy_of(w)
        elif kind == "move" and any(t in b for b in w.bundles):  # in or out of R
            w = w.reassign({t: j})
        elif kind == "twice" and 0 <= t < m:  # a second holder for item t
            w = edit_bundles(w, lambda bs: bs[j].add(t))
        elif kind == "swap" and w.bundles[j] and len(w.bundles) > 1:
            # bundle j trades an item for a copy of another bundle's item
            t = draw(st.sampled_from(sorted(w.bundles[j])))
            others = set().union(*w.bundles) - w.bundles[j]
            u = draw(st.sampled_from(sorted(others) or [t]))
            w = edit_bundles(w, lambda bs: (bs[j].discard(t), bs[j].add(u)))
        elif kind == "range":  # item t, which may be out of range, added
            w = edit_bundles(w, lambda bs: bs[j].add(t))
        elif kind == "drop":
            w = edit_bundles(w, lambda bs: bs[j].discard(t))
        elif kind == "bundles":  # one bundle too few or too many
            bundles = w.bundles[:-1] if draw(st.booleans()) else w.bundles + (frozenset(),)
            w = Allocation(bundles)
        witnesses[i] = w
    return inst, base, frozenset(realloc), tuple(witnesses)


@st.composite
def owner_certificates(draw):
    """A least-k certificate with up to three corruptions of its owner
    vectors, its R or its vector count."""
    inst, cert = draw(least_k_certificates())
    n, m = inst.num_agents, inst.num_items
    owners, realloc = [list(v) for v in cert.owners], set(cert.realloc_set)
    agent = st.integers(-1, n)  # out of range at both ends
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(
            st.sampled_from(
                ["count", "none", "agent", "short", "long", "r-add", "r-drop",
                 "r-all"]
            )
        )
        i = draw(st.integers(0, n - 1))
        if kind == "count":  # a missing or an extra vector
            if draw(st.booleans()) and owners:
                owners.pop(draw(st.integers(0, len(owners) - 1)))
            else:
                owners.append(owners[0] if owners else [])
        elif kind.startswith("r-"):
            realloc = r_edit(draw, kind, realloc, m)
        elif i >= len(owners) or owners[i] is None:
            continue
        elif kind == "none":
            owners[i] = None
        elif kind == "agent" and owners[i]:
            owners[i][draw(st.integers(0, len(owners[i]) - 1))] = draw(agent)
        elif kind == "short":
            owners[i] = owners[i][:-1]
        elif kind == "long":
            owners[i] = owners[i] + [draw(agent)]
    return inst, EfrCertificate(cert.base, realloc, owners)


@st.composite
def bad_bases(draw):
    """A certificate whose base is no n-partition: both checks must raise."""
    inst = Instance(((1, -2, 3), (2, 2, -1)))
    base = draw(
        st.sampled_from([
            Allocation((frozenset({0, 1}), frozenset({1, 2}))),
            Allocation((frozenset({0, 3}), frozenset({1, 2}))),
            Allocation((frozenset({0}), frozenset({1}))),
            Allocation((frozenset({0, 1, 2}),)),
        ])
    )
    return inst, base, frozenset(), (base,) * draw(st.integers(0, 3))


class TestMatchesTheFullCheck:
    @settings(max_examples=600, deadline=None)
    @given(certificates() | bad_bases())
    def test_same_verdict_or_same_exception(self, case):
        same_outcome(*case)

    @settings(max_examples=400, deadline=None)
    @given(owner_certificates())
    def test_owner_vectors_same_verdict_or_same_exception(self, case):
        same_owner_outcome(*case)

    @settings(max_examples=50, deadline=None)
    @given(bad_bases())
    def test_owner_vectors_on_a_bad_base_raise_alike(self, case):
        inst, base, realloc, witnesses = case
        cert = EfrCertificate(base, realloc, [()] * len(witnesses))
        assert same_owner_outcome(inst, cert)[0] is ValueError

    @pytest.mark.parametrize(
        "solve, chore_prob", [(efr_n_minus_1, F(1, 2)), (conflict_aware_picking, F(0))]
    )
    def test_pipeline_certificates_and_their_file_copies(self, solve, chore_prob):
        inst = gen_random(8, 60, 9, chore_prob, seed=5)
        cert = solve(inst)
        back = parse_certificate(serialize_certificate(cert), inst)
        old = parse_certificate(format1_text(cert), inst)
        assert back == old == cert
        for c in (cert, back, old):
            assert same_owner_outcome(inst, c) == ("verdict", True)
        copies = tuple(map(copy_of, cert.witnesses))
        assert same_outcome(inst, cert.base, cert.realloc_set, copies) == (
            "verdict", True
        )

    def test_each_listed_corruption_is_rejected_by_both(self):
        inst = Instance(((-1, -1, -1),) * 4)
        base = Allocation((frozenset({0}), frozenset({1}), frozenset({2}), frozenset()))
        good = tuple(base.reassign({i: 3}) for i in range(3)) + (base,)
        r = frozenset({0, 1, 2})
        assert same_outcome(inst, base, r, good) == ("verdict", True)
        two = Allocation((frozenset(), frozenset({1}), frozenset({2}), frozenset({0, 1})))
        # bundle 0 alone changes: item 0 is held by none, item 1 twice
        swap = Allocation((frozenset({1}), frozenset({1}), frozenset({2}), frozenset()))
        far = Allocation((frozenset(), frozenset({1}), frozenset({2}), frozenset({0, 7})))
        cases = [
            good[:1] + (Allocation(good[1].bundles[:3]),) + good[2:],  # 3 bundles
            (two,) + good[1:],  # item 1 held twice
            good[:3] + (swap,),
            (far,) + good[1:],  # item 7 out of range
        ]
        for witnesses in cases:
            assert same_outcome(inst, base, r, witnesses) == ("verdict", False)
        # a move outside R
        assert same_outcome(inst, base, {0, 1}, good) == ("verdict", False)
        with pytest.raises(IncompleteCertificateError):
            validate_certificate(inst, EfrCertificate.of_witnesses(base, r, good[:3]))


class TestOwnerVectorShapes:
    INST = Instance(((-1, -1, -1),) * 4)
    BASE = Allocation((frozenset({0}), frozenset({1}), frozenset({2}), frozenset()))
    R = frozenset({0, 1, 2})
    GOOD = ((3, 1, 2), (0, 3, 2), (0, 1, 3), (0, 1, 2))

    def check(self, realloc, owners):
        return validate_certificate(self.INST, EfrCertificate(self.BASE, realloc, owners))

    def test_the_good_vectors_are_the_good_witnesses(self):
        cert = EfrCertificate(self.BASE, self.R, self.GOOD)
        assert self.check(self.R, self.GOOD)
        assert cert.witnesses == tuple(
            self.BASE.reassign({i: 3}) for i in range(3)
        ) + (self.BASE,)

    @pytest.mark.parametrize(
        "vector",
        [None, (3, 1), (3, 1, 2, 0), (4, 1, 2), (-1, 1, 2)],
        ids=["none", "short", "long", "agent-n", "agent-negative"],
    )
    def test_a_bad_vector_is_rejected(self, vector):
        assert not self.check(self.R, (vector,) + self.GOOD[1:])

    @pytest.mark.parametrize("count", [0, 3, 5])
    def test_a_vector_count_other_than_n_raises(self, count):
        with pytest.raises(IncompleteCertificateError, match=f"has {count} witnesses"):
            self.check(self.R, (self.GOOD * 2)[:count])

    @pytest.mark.parametrize("t", [9, -1])
    def test_an_item_of_r_out_of_range_raises(self, t):
        # this case read True when witnesses were allocations: an R item
        # that no witness moves was never looked at
        owners = [v + (3,) if t > 0 else (3,) + v for v in self.GOOD]
        with pytest.raises(ValueError, match=f"realloc_set item index {t} out of range"):
            self.check(self.R | {t}, owners)


def test_reassign_rebuilds_only_the_bundles_it_touches():
    alloc = Allocation((frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset()))
    moved = alloc.reassign({1: 3})
    assert moved.bundles == (frozenset({0}), frozenset({2}), frozenset({3}), frozenset({1}))
    assert moved.bundles[1] is alloc.bundles[1]
    assert moved.bundles[2] is alloc.bundles[2]
    assert alloc.reassign({}).bundles == alloc.bundles


def test_witnesses_name_an_item_of_r_that_no_base_bundle_holds():
    cert = EfrCertificate(Allocation(({0}, {1})), {0, 5}, [(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="item index 5 is in no base bundle"):
        cert.witnesses


@pytest.mark.parametrize("agent", [5, -1])
def test_witnesses_name_an_owner_outside_the_agents(agent):
    # a bare IndexError from `reassign` for 5; for -1 item 0 went silently
    # to the last agent
    inst = Instance(((F(1), F(1)), (F(1), F(1))))
    cert = EfrCertificate(Allocation(({0}, {1})), {0}, [(agent,), (0,)])
    assert validate_certificate(inst, cert) is False
    with pytest.raises(ValueError, match=f"agent index {agent} out of range"):
        cert.witnesses
