"""The fixed-n screen's work: each I-tuple profiled once, no allocations.

`fixed_n._efr_witnesses` reads each agent's row under an owner vector of R
off the profile of the I-tuple alone, which `search_efr_po` takes at the
tuple's first screen; the base and the witnesses are built only for the
candidate the LP accepts.  The results must stay those of the
full-placement reference in `tests/test_witness_kernel.py`.  The pinned
counts follow the perturbation's eps, which decide the first accepted
candidate, and the forest cut, which screens only demand combinations
whose tie graph is a forest; they were recorded under the closed-form
(prime) perturbation with the cut in place (5,761 and 1,729 screens
without it).
"""

from fractions import Fraction as F

import pytest

from mannafair import fixed_n
from mannafair.core import Allocation
from mannafair.harness import gen_identical_chores, gen_random

from test_witness_kernel import ref_search_efr_po


def counted_search(monkeypatch, inst):
    """The search's result, the bundles of each `profile` call, the joined
    I-tuples and the number of screens; `profile` and `Allocation` fail
    the test when the screen calls them."""
    work = {"profiled": [], "tuples": set(), "screens": 0, "in_screen": False}
    real_profile, real_screen, real_join = (
        fixed_n.profile, fixed_n._efr_witnesses, fixed_n._join
    )

    def profile(inst, alloc):
        assert not work["in_screen"], "the screen profiled an allocation"
        work["profiled"].append(alloc.bundles)
        return real_profile(inst, alloc)

    def allocation(bundles):
        assert not work["in_screen"], "the screen built an Allocation"
        return Allocation(bundles)

    def screen(*args):
        work["screens"] += 1
        work["in_screen"] = True
        try:
            return real_screen(*args)
        finally:
            work["in_screen"] = False

    def join(*args):
        for rset, tuples in real_join(*args):
            work["tuples"].update(tuples)
            yield rset, tuples

    monkeypatch.setattr(fixed_n, "profile", profile)
    monkeypatch.setattr(fixed_n, "Allocation", allocation)
    monkeypatch.setattr(fixed_n, "_efr_witnesses", screen)
    monkeypatch.setattr(fixed_n, "_join", join)
    return fixed_n.search_efr_po(inst), work


@pytest.mark.parametrize(
    "inst, profiles, screens",
    [
        (gen_random(4, 5, 9, F(1), 2), 218, 3247),
        (gen_identical_chores(4), 50, 704),
        (gen_random(3, 6, 2, F(1, 2), 0), None, None),
        (gen_random(4, 5, 3, F(0), 1), None, None),
        (gen_random(4, 4, 9, F(1, 2), 1), None, None),
        (gen_identical_chores(3), None, None),
    ],
)
def test_each_i_tuple_is_profiled_once(monkeypatch, inst, profiles, screens):
    got, work = counted_search(monkeypatch, inst)
    monkeypatch.undo()
    assert got == ref_search_efr_po(inst, 10**9)[0]
    profiled = work["profiled"]
    assert len(set(profiled)) == len(profiled) <= work["screens"]
    assert set(profiled) <= work["tuples"]
    if profiles is not None:
        assert (len(profiled), work["screens"]) == (profiles, screens)
