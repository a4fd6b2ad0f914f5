"""The integer cycle walk in `welfare` against its `Fraction` predecessor.

`check_nondegenerate`, `_forbidden_eps` and `perturb_nondegenerate` walk
agent-item cycles over integer rows.  The references below are the earlier
implementations, which enumerate item and agent permutations and multiply
`Fraction` ratios edge by edge; the walk must agree with them on every
matrix, including zeros, negatives, mixed denominators and planted
product-one cycles of length 2 and 3.

`perturb_nondegenerate` screens forbidden values by residues mod
`welfare._P` before it runs the exact walk.  A small modulus forced in its
place makes the screen fall back on most entries, and the eps matrix must
stay the reference's either way.
"""

import hashlib
import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair import welfare
from mannafair.cli import main
from mannafair.core import BudgetExceededError, Instance, as_rational, scale_row
from mannafair.harness import gen_random, serialize_instance, serialize_perturbed
from mannafair.welfare import (
    _forbidden_eps,
    check_nondegenerate,
    compute_params,
    perturb_nondegenerate,
)


def ref_check_nondegenerate(values):
    vals = [[as_rational(v) for v in row] for row in values]
    n = len(vals)
    m = len(vals[0]) if n else 0
    if any(v == 0 for row in vals for v in row):
        return False
    for k in range(2, min(n, m) + 1):
        for agents in itertools.combinations(range(n), k):
            first, rest = agents[0], agents[1:]
            for aperm in itertools.permutations(rest):
                aseq = (first,) + aperm
                for items in itertools.combinations(range(m), k):
                    for iseq in itertools.permutations(items):
                        prod = F(1)
                        for idx in range(k):
                            nxt = aseq[(idx + 1) % k]
                            num = vals[nxt][iseq[idx]]
                            prod *= F(num, 1) / vals[aseq[idx]][iseq[idx]]
                        if prod == 1:
                            return False
    return True


def ref_forbidden_eps(inst, pert, agent, item, is_set):
    n, m = inst.num_agents, inst.num_items
    forbidden = {inst.values[agent][item]}
    other_agents = list(range(agent))
    other_items = [b for b in range(m) if b != item]
    for k in range(2, min(n, m) + 1):
        if len(other_agents) < k - 1 or len(other_items) < k - 1:
            continue
        for aperm in itertools.permutations(other_agents, k - 1):
            aseq = (agent,) + aperm
            for iperm in itertools.permutations(other_items, k - 1):
                iseq = (item,) + iperm
                ok = True
                for idx in range(k):
                    nxt = aseq[(idx + 1) % k]
                    if (aseq[idx], iseq[idx]) != (agent, item) and not is_set(
                        aseq[idx], iseq[idx]
                    ):
                        ok = False
                        break
                    if not is_set(nxt, iseq[idx]) and (nxt, iseq[idx]) != (agent, item):
                        ok = False
                        break
                if not ok:
                    continue
                rest = F(1)
                degenerate = False
                for idx in range(1, k):
                    nxt = aseq[(idx + 1) % k]
                    num = pert[nxt][iseq[idx]]
                    den = pert[aseq[idx]][iseq[idx]]
                    if den == 0:
                        degenerate = True
                        break
                    rest *= F(num) / den
                if degenerate:
                    continue
                solved = pert[aseq[1]][iseq[0]] * rest
                forbidden.add(inst.values[agent][item] - solved)
    return forbidden


def ref_perturb_eps(inst):
    params = compute_params(inst)
    n, m = inst.num_agents, inst.num_items
    eps_matrix = [[None] * m for _ in range(n)]
    pert = [[None] * m for _ in range(n)]

    def is_set(a, b):
        return eps_matrix[a][b] is not None

    for i in range(n):
        for t in range(m):
            forbidden = ref_forbidden_eps(inst, pert, i, t, is_set)
            grid_size = len(forbidden) + 1
            for k in range(1, grid_size + 1):
                candidate = params.epsilon * k / (grid_size + 1)
                if candidate not in forbidden:
                    break
            eps_matrix[i][t] = candidate
            pert[i][t] = inst.values[i][t] - candidate
    return tuple(tuple(row) for row in eps_matrix)


VALUE = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))


def plant_cycle(draw, rows):
    """Overwrite one entry so a drawn cycle of length 2 or 3 has product 1."""
    n, m = len(rows), len(rows[0])
    k = draw(st.integers(2, min(3, n, m)))
    agents = draw(st.permutations(range(n)))[:k]
    items = draw(st.permutations(range(m)))[:k]
    # product over l of rows[a_{l+1}][i_l] / rows[a_l][i_l]; solve for the
    # last numerator rows[a_0][i_{k-1}]
    rest = F(1)
    for idx in range(k - 1):
        den = rows[agents[idx]][items[idx]]
        if den == 0:
            return
        rest *= rows[agents[idx + 1]][items[idx]] / den
    if rest == 0:
        return
    rows[agents[0]][items[-1]] = rows[agents[-1]][items[-1]] / rest


@st.composite
def matrices(draw, value=VALUE):
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    rows = [[draw(value) for _ in range(m)] for _ in range(n)]
    if n >= 2 and m >= 2 and draw(st.booleans()):
        plant_cycle(draw, rows)
    return rows


# most matrices of VALUE hold a zero, which decides the check at once
@settings(max_examples=400, deadline=None)
@given(st.one_of(matrices(), matrices(VALUE.filter(bool))))
def test_check_agrees_with_reference(rows):
    assert check_nondegenerate(rows) == ref_check_nondegenerate(rows)


def test_check_zero_entry_wins_over_budget():
    rows = [[F(1)] * 9 for _ in range(9)]
    rows[8][8] = F(0)
    assert check_nondegenerate(rows) is False
    rows[8][8] = F(1)
    with pytest.raises(BudgetExceededError):
        check_nondegenerate(rows)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_forbidden_eps_agrees_with_reference(data):
    """Arbitrary set entries, zeros included, at any row-major position."""
    rows = data.draw(matrices().filter(lambda r: r[0]))
    n, m = len(rows), len(rows[0])
    inst = Instance(tuple(tuple(data.draw(VALUE) for _ in range(m)) for _ in range(n)))
    agent, item = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, m - 1))

    def is_set(a, b):
        return a < agent or (a == agent and b < item)

    pert = [
        [v if is_set(a, b) else None for b, v in enumerate(row)]
        for a, row in enumerate(rows)
    ]
    scaled = [scale_row(row)[1] for row in pert[:agent]]
    got = _forbidden_eps(inst, scaled, pert[agent], agent, item)
    for p, q in got:
        assert q > 0 and F(p, q).numerator == p
    expected = ref_forbidden_eps(inst, pert, agent, item, is_set)
    assert {F(p, q) for p, q in got} == expected


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_perturbation_matches_reference(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 5))
    value = st.integers(-4, 4)
    rows = [[F(data.draw(value)) for _ in range(m)] for _ in range(n)]
    inst = Instance(tuple(map(tuple, rows)))
    pert = perturb_nondegenerate(inst)
    assert pert.eps_matrix == ref_perturb_eps(inst)
    assert check_nondegenerate(pert.pert_values)


# SHA-256 of serialize_perturbed(perturb_nondegenerate(gen_random(n, m, 9,
# 1/2, seed=1))), recorded from the Fraction implementation; (5, 7) and
# (6, 5) from the exact integer walk, before the residue screen
PINNED = {
    (4, 8): "2cf88a4e464c8eed0a374e723b16a8b92b448bcd1965d3636bda0ba0af1f0328",
    (5, 6): "27abfb63a0bb5e7c5810501ef6ab97ffe402ce47ab23cdc12f7b56335724cac8",
    (3, 8): "ee284bc6cc55685df864020bbfd7cc8fb35aa5b3066b24e29d744e1001e63ad0",
    (2, 12): "38a2e60de426fb1434fbbefc2c1fc7f7f7db2bb3767750be19807987ad0e270a",
    (5, 7): "44ab400c82177577039b69330f8287677d8991761485210780decd9452dd89c6",
    (6, 5): "bcf18a76ab5c9c8a8914e7eb90e78beb92cc2fe327eb2cc312d2c24be182effa",
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_pinned_perturbations(shape):
    pert = perturb_nondegenerate(gen_random(*shape, 9, F(1, 2), seed=1))
    digest = hashlib.sha256(serialize_perturbed(pert).encode()).hexdigest()
    assert digest == PINNED[shape]


@st.composite
def degenerate_instances(draw):
    """Zeros, rationals, and identical or proportional rows."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    first = [draw(VALUE) for _ in range(m)]
    shape = draw(st.sampled_from(["any", "identical", "proportional"]))
    if shape == "any":
        rows = [first] + [[draw(VALUE) for _ in range(m)] for _ in range(n - 1)]
    elif shape == "identical":
        rows = [first] * n
    else:
        rows = [[v * draw(VALUE.filter(bool)) for v in first] for _ in range(n)]
    return Instance(tuple(map(tuple, rows)))


@pytest.mark.parametrize("prime", [2, 3, 101])
@settings(max_examples=40, deadline=None)
@given(inst=degenerate_instances())
def test_fallback_matches_reference_at_small_primes(prime, inst):
    """A small modulus makes residues collide, vanish or lose their inverse,
    so entries take the exact fallback; the eps matrix must not change."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(welfare, "_P", prime)
        pert = perturb_nondegenerate(inst)
    assert pert.eps_matrix == ref_perturb_eps(pert.base)


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_residue_screen_decides_pinned_shapes(shape, monkeypatch):
    """At the real modulus no entry of these shapes needs the exact walk."""

    def exact_walk(*args):
        raise AssertionError("the residue screen fell back")

    monkeypatch.setattr(welfare, "_forbidden_eps", exact_walk)
    pert = perturb_nondegenerate(gen_random(*shape, 9, F(1, 2), seed=1))
    digest = hashlib.sha256(serialize_perturbed(pert).encode()).hexdigest()
    assert digest == PINNED[shape]


def test_residue_of_unreduced_fraction_and_undefined_residue():
    p = welfare._P
    assert welfare._residue(2 * 7, 4 * 7) == welfare._residue(1, 2)
    assert welfare._residue(1, 2) * 2 % p == 1
    assert welfare._residue(-3, 5) == (p - welfare._residue(3, 5)) % p
    assert welfare._residue(p, 3) == 0
    assert welfare._residue(3, p) is None
    assert welfare._residue(p, 2 * p) is None  # 1/2, but unreduced by p


def test_screen_refuses_repeated_residues_and_a_forbidden_grid_point():
    """Entry (1, 2) after one finished row: its two 2-cycles solve for
    res[0][2] * close[0][j], j = 0, 1, so xs = [0, 7 * c0, 7 * c1]."""
    res, step = [[1, 1, 7, 1]], [[None]]
    screen = welfare._residue_screen
    assert screen(res, step, [[5, 6]], 1, 2, 36, 10) == (5, 34)  # 36 - 10 / 5
    assert screen(res, step, [[5, 5]], 1, 2, 36, 10) is None  # 35 twice
    # v - eps / grid = 36 - 5 / 5 = 35 = 7 * 5 is a closing's value
    assert screen(res, step, [[5, 6]], 1, 2, 36, 5) is None


def test_batch_inverses():
    xs = [1, 2, 3, welfare._P - 1, 2**60 + 12345]
    assert [x * y % welfare._P for x, y in zip(xs, welfare._inverses(xs))] == [1] * 5
    assert welfare._inverses([]) == []


def test_perturb_budget_raises_before_work():
    # 8 x 8 has 5.1e8 cycle traversals, above CYCLE_BUDGET
    with pytest.raises(BudgetExceededError):
        perturb_nondegenerate(gen_random(8, 8, 9, F(1, 2), seed=1))


def test_cli_perturb_over_budget_exits_two(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(gen_random(8, 8, 9, F(1, 2), seed=1)))
    out = tmp_path / "pert.json"
    assert main(["perturb", "-i", str(inst), "-o", str(out)]) == 2
    assert "budget exceeded" in capsys.readouterr().err
    assert not out.exists()
