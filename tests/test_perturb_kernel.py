"""The closed-form perturbation in `welfare` and the cycle check.

`perturb_nondegenerate` gives entry (i, t) its own prime Q above M /
epsilon, M the largest max(|v|, 1), and eps = |v| / Q (1 / Q where v = 0),
and walks no cycle.  Its output must pass both the integer cycle walk of
`check_nondegenerate` and the `Fraction` reference below, which enumerates
item and agent permutations and multiplies ratios edge by edge; every eps
must lie in (0, epsilon), and the primes must be distinct, above the bound
and prime by trial division.  `check_nondegenerate` must agree with the
reference on every matrix, including zeros, negatives, mixed denominators,
planted product-one cycles of length 2, 3 and 4, duplicated rows and
columns (one residue of the closing index for several items), and entries
that are multiples of 2^61 - 1, which move the check's residue prime to
the next Proth prime.  A residue hit is only a candidate: the check
confirms it with an exact comparison, which `Counted` entries count.
"""

import hashlib
import itertools
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair.cli import main
from mannafair import welfare
from mannafair.core import BudgetExceededError, Instance, as_rational, scale_row
from mannafair.harness import (
    gen_random,
    parse_perturbed,
    serialize_instance,
    serialize_perturbed,
)
from mannafair.welfare import _proth_primes, check_nondegenerate, perturb_nondegenerate


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



VALUE = st.builds(F, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 7]))


def plant_cycle(draw, rows, through=None):
    """Overwrite one entry so a drawn cycle of length 2 to 4 has product 1;
    `through`, an (agent, item) entry, is made the cycle's first edge."""
    n, m = len(rows), len(rows[0])
    k = draw(st.integers(2, min(4, n, m)))
    agents = draw(st.permutations(range(n)))[:k]
    items = draw(st.permutations(range(m)))[:k]
    if through is not None:
        a, t = through
        agents = [a] + [b for b in agents if b != a][: k - 1]
        items = [t] + [i for i in items if i != t][: k - 1]
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
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 5))
    rows = [[draw(value) for _ in range(m)] for _ in range(n)]
    if n >= 2 and m >= 2 and draw(st.booleans()):
        plant_cycle(draw, rows)
    return rows


@st.composite
def duplicated(draw):
    """Nonzero matrices whose columns and rows repeat, scaled or not, so
    that one residue of the closing index maps to several items."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    rows = [[draw(VALUE.filter(bool)) for _ in range(m)] for _ in range(n)]
    scale = st.sampled_from([F(1), F(1), F(2), F(-1), F(1, 3)])
    for _ in range(draw(st.integers(1, 3))):
        j, t = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        c = draw(scale)
        for row in rows:
            row[t] = row[j] * c
    if draw(st.booleans()):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        c = draw(scale)
        rows[b] = [v * c for v in rows[a]]
    return rows


P61 = 2**61 - 1


@st.composite
def with_p61(draw):
    """Nonzero matrices with a multiple of 2^61 - 1, and sometimes a
    product-one cycle planted through that entry."""
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 5))
    rows = [[draw(VALUE.filter(bool)) for _ in range(m)] for _ in range(n)]
    a, t = draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))
    rows[a][t] *= P61 * draw(st.sampled_from([1, 2, -3]))
    if draw(st.booleans()):
        plant_cycle(draw, rows, through=(a, t))
    return rows


# most matrices of VALUE hold a zero, which decides the check at once
@settings(max_examples=400, deadline=None)
@given(st.one_of(matrices(), matrices(VALUE.filter(bool))))
def test_check_agrees_with_reference(rows):
    assert check_nondegenerate(rows) == ref_check_nondegenerate(rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(duplicated(), with_p61()))
def test_check_agrees_with_reference_on_repeats_and_multiples_of_p61(rows):
    assert check_nondegenerate(rows) == ref_check_nondegenerate(rows)


class Counted(int):
    """An integer entry whose products stay `Counted` and whose `==`, the
    check's exact confirmation of a residue hit, is counted."""

    eqs = 0

    def __mul__(self, other):
        return Counted(int(self) * int(other))

    __rmul__ = __mul__

    def __eq__(self, other):
        Counted.eqs += 1
        return int(self) == int(other)

    __hash__ = int.__hash__


@pytest.fixture
def counted(monkeypatch):
    """Make `check_nondegenerate` scale its rows to `Counted` entries."""
    def scale(row):
        s, ints = scale_row(row)
        return s, [Counted(v) for v in ints]

    monkeypatch.setattr(welfare, "scale_row", scale)
    Counted.eqs = 0
    return Counted


def test_a_false_residue_hit_is_refuted_exactly(counted):
    # 2 and 2 + 2^61 - 1 have one residue mod 2^61 - 1: the path through
    # item 0 hits item 1 in the closing index, and the product 2 / (2 + P61)
    # is not one
    rows = [[F(1), F(1)], [F(2), F(2 + P61)]]
    assert check_nondegenerate(rows) is True
    assert counted.eqs == 2  # each of the two paths from agent 0 hits
    assert ref_check_nondegenerate(rows)


def test_a_multiple_of_p61_moves_the_residue_prime(counted):
    # the entry P61 makes the check take the next Proth prime q, under which
    # 2 and 2 + q collide: a false hit there, none mod 2^61 - 1
    q = next(_proth_primes(1 << 61))
    rows = [[F(1), F(1), F(P61)], [F(2), F(2 + q), F(3)]]
    assert check_nondegenerate(rows) is True
    assert counted.eqs > 0
    assert ref_check_nondegenerate(rows)
    counted.eqs = 0
    rows[0][2] = F(5)
    assert check_nondegenerate(rows) is True
    assert counted.eqs == 0


@pytest.mark.parametrize("shape", [(4, 8), (5, 6)])
def test_perturbed_outputs_pass_with_no_exact_comparison(shape, counted):
    pert = perturb_nondegenerate(gen_random(*shape, 9, F(1, 2), seed=1))
    rows = [list(r) for r in pert.pert_values]
    assert check_nondegenerate(rows) is True
    assert counted.eqs == 0  # no residue hit
    assert ref_check_nondegenerate(rows)
    # an entry rewritten so that a 4-cycle has product one: the hit that
    # closes it is confirmed exactly
    a, i = (0, 1, 2, 3), (0, 1, 2, 3)
    rest = F(1)
    for k in range(3):
        rest *= rows[a[k + 1]][i[k]] / rows[a[k]][i[k]]
    rows[a[0]][i[3]] = rows[a[3]][i[3]] / rest
    assert check_nondegenerate(rows) is False
    assert counted.eqs >= 1
    assert ref_check_nondegenerate(rows) is False


def test_check_zero_entry_wins_over_budget():
    rows = [[F(1)] * 9 for _ in range(9)]
    rows[8][8] = F(0)
    assert check_nondegenerate(rows) is False
    rows[8][8] = F(1)
    with pytest.raises(BudgetExceededError):
        check_nondegenerate(rows)


def test_check_budget_boundary_at_n_3():
    # 3 x 171 has 9,912,870 cycle traversals, within CYCLE_BUDGET; 3 x 172
    # is refused before any cycle is walked
    welfare._spend_cycles(3, 171)
    with pytest.raises(BudgetExceededError):
        check_nondegenerate([[F(1)] * 172 for _ in range(3)])


def is_prime(q):
    """Trial division."""
    return q > 1 and all(q % d for d in range(2, int(q**0.5) + 1))


BASES = (3, 5, 7, 11, 13, 17, 19, 23)


def ref_primes(lo, count):
    """The first `count` numbers N = k * 2^j + 1 (k odd, k < 2^j) above
    max(lo, 127) with a^((N-1)/2) = -1 (mod N) for some a in BASES: j from
    ceil(b / 2) for b the bit length of lo, each N above every candidate of
    a smaller j."""
    out, floor, j = [], lo, (lo.bit_length() + 1) // 2
    while len(out) < count:
        for k in range(1, 1 << j, 2):
            n = k * 2**j + 1
            if n > max(floor, 127) and any(pow(a, n // 2, n) == n - 1 for a in BASES):
                out.append(n)
                if len(out) == count:
                    return out
        floor, j = max(floor, (2**j - 1) * 2**j + 1), j + 1
    return out


def ref_perturbation(inst):
    """(base, eps matrix) of the closed form, in `Fraction` arithmetic."""
    scale = lcm(*(v.denominator for row in inst.values for v in row))
    base = Instance(tuple(tuple(v * scale for v in row) for row in inst.values))
    n, m = base.num_agents, base.num_items
    lam = max([sum(map(abs, row)) for row in base.values] + [1])
    epsilon = F(1, 2 * lam * n) / (8 * n * max(m, 1))
    top = max([abs(v) for row in base.values for v in row] + [1])
    lo = top / epsilon
    qs = iter(ref_primes(int(lo), n * m))
    eps = tuple(tuple(F(abs(v) or 1, next(qs)) for v in row) for row in base.values)
    return base, eps


@st.composite
def degenerate_instances(draw):
    """Zeros, rationals, and identical, proportional or all-chore rows."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    first = [draw(VALUE) for _ in range(m)]
    shape = draw(st.sampled_from(["any", "identical", "proportional", "chores"]))
    if shape == "any":
        rows = [first] + [[draw(VALUE) for _ in range(m)] for _ in range(n - 1)]
    elif shape == "identical":
        rows = [first] * n
    elif shape == "proportional":
        rows = [[v * draw(VALUE.filter(bool)) for v in first] for _ in range(n)]
    else:
        rows = [[-abs(draw(VALUE.filter(bool))) for _ in range(m)] for _ in range(n)]
    return Instance(tuple(map(tuple, rows)))


def assert_closed_form(pert):
    """eps in (0, epsilon), no zero entry, and distinct primes in row-major
    increasing order above max(|v|, 1) / epsilon."""
    epsilon, base = pert.params.epsilon, pert.base
    eps = [e for row in pert.eps_matrix for e in row]
    assert all(0 < e < epsilon for e in eps)
    assert all(v for row in pert.pert_values for v in row)
    bound = max([abs(v) for row in base.values for v in row] + [1])
    qs = [e.denominator for e in eps]  # |v| / Q is in lowest terms: |v| < Q
    assert qs == sorted(set(qs))
    assert all(q > bound / epsilon for q in qs)
    for v, e in zip((v for row in base.values for v in row), eps):
        assert e == F(abs(v) or 1, e.denominator)


@settings(max_examples=100, deadline=None)
@given(degenerate_instances())
def test_perturbation_is_nondegenerate(inst):
    pert = perturb_nondegenerate(inst)
    assert check_nondegenerate(pert.pert_values)
    assert ref_check_nondegenerate(pert.pert_values)
    assert_closed_form(pert)
    assert all(is_prime(e.denominator) for row in pert.eps_matrix for e in row)


@settings(max_examples=150, deadline=None)
@given(degenerate_instances())
def test_perturbation_matches_reference(inst):
    pert = perturb_nondegenerate(inst)
    assert (pert.base, pert.eps_matrix) == ref_perturbation(inst)


# SHA-256 of serialize_perturbed(perturb_nondegenerate(gen_random(n, m, 9,
# 1/2, seed=1))), recorded from the closed form with Proth primes, which
# replaced the cycle walk and its residue screen
PINNED = {
    (4, 8): "e4fa8e4012a7ed39a6f79be5bc75eb6b269cd8b13f8ea9cb2167f1e0718cec81",
    (5, 6): "49b32e2b8b64f4728f4f8db664d5ce2935dac9897254b5ece3e37370d96e3d61",
    (3, 8): "54d764c32c02c0d489f4993758e9b7eae8106ee9b2548c2dc02751c339219801",
    (2, 12): "a0b92e251a6b5652fdd0f1b8363ea9945f703d35737968450220178eac281b09",
    (5, 7): "8ee00a3228f726259c1efad1344e5e0fd976a5c18ef69096b0ba565ee707fe15",
    (6, 5): "84ca83832e412baf2cc17c482d66dc4f89a80c8e555eb0d7d93dd1f090f3a70a",
}


@pytest.mark.parametrize("shape", sorted(PINNED))
def test_pinned_perturbations(shape):
    pert = perturb_nondegenerate(gen_random(*shape, 9, F(1, 2), seed=1))
    digest = hashlib.sha256(serialize_perturbed(pert).encode()).hexdigest()
    assert digest == PINNED[shape]


EIGHT = gen_random(8, 8, 9, F(1, 2), seed=1)


def test_perturbation_has_no_cycle_budget():
    # 8 x 8 has 5.1e8 cycle traversals, above CYCLE_BUDGET, which bounds
    # the check but not the perturbation
    pert = perturb_nondegenerate(EIGHT)
    assert_closed_form(pert)
    with pytest.raises(BudgetExceededError):
        check_nondegenerate(pert.pert_values)


def test_cli_perturb_without_cycle_budget(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(EIGHT))
    out = tmp_path / "pert.json"
    assert main(["perturb", "-i", str(inst), "-o", str(out)]) == 0
    pert = parse_perturbed(out.read_text())
    assert pert == perturb_nondegenerate(EIGHT)
    assert_closed_form(pert)


def test_cli_fixed_n_budget_binds_after_the_perturbation(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(gen_random(3, 60, 9, F(1, 2), seed=1)))
    out = tmp_path / "cert.json"
    argv = ["solve", "--algo", "fixed-n", "--max-candidates", "1"]
    assert main([*argv, "-i", str(inst), "-o", str(out)]) == 2
    assert "budget exceeded" in capsys.readouterr().err
    assert not out.exists()
