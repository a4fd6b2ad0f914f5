"""The filter-set kernel in `fixed_n` against its predecessor.

`build_f_ij` sorts a pair's common goods and chores by value ratio once and
reads each separator option's F_ij from prefixes of those orders, keyed by
the (good, chore) option, as an item bitmask; the tests read the masks as
frozensets (`conftest.f_ij_sets`, `conftest.i_sets`).  The references below
are the earlier implementations: a `SeparatorGuess` per option and a
`Fraction` ratio scan with a `<= bound` filter per option.  The kernel must
return the same sets in the same option order, so `reconstruct_I` lists the
same distinct I_i in the same first-seen order, ties between equal ratios
included.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Dict, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair.core import Budget, Instance
from mannafair.harness import gen_random
from mannafair.welfare import (
    PerturbedInstance,
    compute_params,
    perturb_nondegenerate,
)

from conftest import f_ij_sets, i_sets


@dataclass(frozen=True)
class SeparatorGuess:
    goods: Dict[Tuple[int, int], Optional[int]]
    chores: Dict[Tuple[int, int], Optional[int]]
    empty: tuple


def ref_sign_sets(pert, i, j):
    plus, minus, q = [], [], []
    for t in range(pert.base.num_items):
        vi, vj = pert.pert_values[i][t], pert.pert_values[j][t]
        if vi > 0 and vj > 0:
            plus.append(t)
        elif vi < 0 and vj < 0:
            minus.append(t)
        elif vi > 0 and vj < 0:
            q.append(t)
    return plus, minus, q


def ref_build_f_ij(pert, i, j, guess):
    plus, minus, q = ref_sign_sets(pert, i, j)
    out = set(q)
    g = guess.goods.get((i, j))
    if g is not None:
        if g not in plus:
            raise ValueError(f"separating good {g} is not a common good")
        bound = F(pert.pert_values[j][g]) / pert.pert_values[i][g]
        for t in plus:
            if F(pert.pert_values[j][t]) / pert.pert_values[i][t] <= bound:
                out.add(t)
    c = guess.chores.get((i, j))
    if c is not None:
        if c not in minus:
            raise ValueError(f"separating chore {c} is not a common chore")
        bound = F(abs(pert.pert_values[i][c])) / abs(pert.pert_values[j][c])
        for t in minus:
            ratio = F(abs(pert.pert_values[i][t])) / abs(pert.pert_values[j][t])
            if ratio <= bound:
                out.add(t)
    return frozenset(out)


def ref_pair_guesses(pert, i, j):
    plus, minus, _ = ref_sign_sets(pert, i, j)
    no_empty = (False,) * pert.base.num_agents
    return [
        SeparatorGuess({(i, j): g}, {(i, j): c}, no_empty)
        for g in [None] + sorted(plus)
        for c in [None] + sorted(minus)
    ]


def ref_reconstruct_I(pert, guess):
    n = pert.base.num_agents
    all_items = frozenset(range(pert.base.num_items))
    result = []
    for i in range(n):
        if guess.empty[i]:
            result.append(frozenset())
            continue
        acc = all_items
        for j in range(n):
            if j != i:
                acc = acc & ref_build_f_ij(pert, i, j, guess)
        result.append(acc)
    return result


def ref_agent_item_sets(pert, i):
    """Distinct I_i of one agent over the product of per-pair guesses."""
    n = pert.base.num_agents
    others = [j for j in range(n) if j != i]
    seen = dict.fromkeys([frozenset()])
    for combo in itertools.product(*(ref_pair_guesses(pert, i, j) for j in others)):
        goods, chores = {}, {}
        for guess in combo:
            goods.update(guess.goods)
            chores.update(guess.chores)
        merged = SeparatorGuess(goods, chores, (False,) * n)
        seen.setdefault(ref_reconstruct_I(pert, merged)[i])
    return list(seen)


def assert_matches_reference(pert):
    n = pert.base.num_agents
    for i, j in itertools.permutations(range(n), 2):
        guesses = ref_pair_guesses(pert, i, j)
        sets = f_ij_sets(pert, i, j)
        assert list(sets) == [(g.goods[i, j], g.chores[i, j]) for g in guesses]
        assert list(sets.values()) == [
            ref_build_f_ij(pert, i, j, g) for g in guesses
        ]
    for i in range(n):
        got = i_sets(pert, i, Budget(10**9, "combinations"))
        assert got == ref_agent_item_sets(pert, i)


SHAPES = [(2, m) for m in range(13)] + [(3, m) for m in range(9)]


@pytest.mark.parametrize("n,m", SHAPES)
def test_option_sets_match_reference(n, m):
    for chore_prob, seed in itertools.product((F(0), F(1, 2), F(1)), range(6)):
        assert_matches_reference(
            perturb_nondegenerate(gen_random(n, m, 9, chore_prob, seed))
        )


def test_equal_ratios_fall_on_the_same_side():
    # goods 0-2 share the ratio vbar_1/vbar_0 = 1/2 and chores 4-5 share
    # |vbar_0|/|vbar_1| = 1/3; any separator among them admits them all
    inst = Instance(
        tuple(
            tuple(F(v) for v in row)
            for row in ([2, 4, 6, 4, -1, -2], [1, 2, 3, 3, -3, -6])
        )
    )
    pert = PerturbedInstance(inst, ((F(0),) * 6,) * 2, compute_params(inst))
    sets = f_ij_sets(pert, 0, 1)
    assert sets[0, None] == sets[2, None] == frozenset({0, 1, 2})
    assert sets[3, None] == frozenset({0, 1, 2, 3})
    assert sets[None, 4] == sets[None, 5] == frozenset({4, 5})
    assert_matches_reference(pert)


VALUE = st.integers(-3, 3).filter(bool)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 3).flatmap(
    lambda n: st.lists(
        st.lists(VALUE, min_size=6, max_size=6), min_size=n, max_size=n
    )
))
def test_small_values_with_ties_match_reference(rows):
    """Unperturbed values in -3..3 tie ratios often."""
    inst = Instance(tuple(tuple(F(v) for v in row) for row in rows))
    zeros = tuple((F(0),) * 6 for _ in rows)
    assert_matches_reference(PerturbedInstance(inst, zeros, compute_params(inst)))
