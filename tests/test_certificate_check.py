"""`validate_certificate` checks each witness as a delta of the base.

The full check it replaced, one `validate_allocation` and one envy row per
witness, is kept here as the reference; on valid and corrupted
certificates both must give the same verdict or raise the same exception.
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


def reference_validate_certificate(inst, cert):
    """Validate every witness as a full allocation."""
    validate_allocation(inst, cert.base)
    n = inst.num_agents
    if len(cert.witnesses) != n:
        raise IncompleteCertificateError(
            f"certificate has {len(cert.witnesses)} witnesses for {n} agents"
        )
    for i, witness in enumerate(cert.witnesses):
        try:
            envy_free = is_envy_free_for(inst, witness, i)
        except ValueError:  # not an n-partition
            return False
        moved = (b ^ w for b, w in zip(cert.base.bundles, witness.bundles))
        if not envy_free or not all(d <= cert.realloc_set for d in moved):
            return False
    return True


def outcome(check, inst, cert):
    try:
        return "verdict", check(inst, cert)
    except (ValueError, IncompleteCertificateError) as exc:
        return type(exc), str(exc)


def same_outcome(inst, cert):
    ours = outcome(validate_certificate, inst, cert)
    assert ours == outcome(reference_validate_certificate, inst, cert)
    return ours


def copy_of(alloc):
    """An equal allocation that shares no bundle object with `alloc`."""
    return Allocation(tuple(frozenset(set(b)) for b in alloc.bundles))


def edit_bundles(alloc, edit):
    bundles = [set(b) for b in alloc.bundles]
    edit(bundles)
    return Allocation(tuple(bundles))


@st.composite
def certificates(draw):
    """A valid certificate (least-k, from the EFR-k oracle) with up to three
    corruptions of its witnesses, its R or its witness count."""
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
    _, cert = min_efr_k(inst, base)
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
        if kind == "r-all":
            realloc |= set(range(m))
            continue
        if kind.startswith("r-"):  # R gains or loses an item, maybe out of range
            (realloc.add if kind == "r-add" else realloc.discard)(draw(item))
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
    return inst, EfrCertificate(base, frozenset(realloc), tuple(witnesses))


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
    return inst, EfrCertificate(base, frozenset(), (base,) * draw(st.integers(0, 3)))


class TestMatchesTheFullCheck:
    @settings(max_examples=600, deadline=None)
    @given(certificates() | bad_bases())
    def test_same_verdict_or_same_exception(self, case):
        same_outcome(*case)

    @pytest.mark.parametrize(
        "solve, chore_prob", [(efr_n_minus_1, F(1, 2)), (conflict_aware_picking, F(0))]
    )
    def test_pipeline_certificates_and_their_file_copies(self, solve, chore_prob):
        inst = gen_random(8, 60, 9, chore_prob, seed=5)
        cert = solve(inst)
        back = parse_certificate(serialize_certificate(cert), inst)
        for c in (cert, back, EfrCertificate(cert.base, cert.realloc_set,
                                             tuple(map(copy_of, cert.witnesses)))):
            assert same_outcome(inst, c) == ("verdict", True)

    def test_each_listed_corruption_is_rejected_by_both(self):
        inst = Instance(((-1, -1, -1),) * 4)
        base = Allocation((frozenset({0}), frozenset({1}), frozenset({2}), frozenset()))
        good = tuple(base.reassign({i: 3}) for i in range(3)) + (base,)
        r = frozenset({0, 1, 2})
        assert same_outcome(inst, EfrCertificate(base, r, good)) == ("verdict", True)
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
            assert same_outcome(inst, EfrCertificate(base, r, witnesses)) == (
                "verdict", False
            )
        # a move outside R, and an R holding an out-of-range item
        assert same_outcome(inst, EfrCertificate(base, {0, 1}, good)) == ("verdict", False)
        assert same_outcome(inst, EfrCertificate(base, r | {9}, good)) == ("verdict", True)
        with pytest.raises(IncompleteCertificateError):
            validate_certificate(inst, EfrCertificate(base, r, good[:3]))


def test_reassign_rebuilds_only_the_bundles_it_touches():
    alloc = Allocation((frozenset({0, 1}), frozenset({2}), frozenset({3}), frozenset()))
    moved = alloc.reassign({1: 3})
    assert moved.bundles == (frozenset({0}), frozenset({2}), frozenset({3}), frozenset({1}))
    assert moved.bundles[1] is alloc.bundles[1]
    assert moved.bundles[2] is alloc.bundles[2]
    assert alloc.reassign({}).bundles == alloc.bundles
