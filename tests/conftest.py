from unittest import mock

import pytest

from mannafair import oracles
from mannafair.core import Budget, BudgetExceededError
from mannafair.fixed_n import build_f_ij, reconstruct_I

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def true_separators(pert, true_i, i, j):
    """The (good, chore) option of i's argmax-ratio items against j."""
    common_goods = [
        t
        for t in true_i[i]
        if pert.pert_value(i, t) > 0 and pert.pert_value(j, t) > 0
    ]
    common_chores = [
        t
        for t in true_i[i]
        if pert.pert_value(i, t) < 0 and pert.pert_value(j, t) < 0
    ]
    good = max(
        common_goods,
        key=lambda t: (pert.pert_value(j, t) / pert.pert_value(i, t), -t),
        default=None,
    )
    chore = max(
        common_chores,
        key=lambda t: (
            abs(pert.pert_value(i, t)) / abs(pert.pert_value(j, t)), -t
        ),
        default=None,
    )
    return good, chore


def separators_recover(pert, true_i):
    """Whether each agent's true separators give back its I*_i.

    The entries of the true separator options intersect to I*_i, and I*_i
    is one of `reconstruct_I`'s sets; an agent with an empty I*_i claims
    nothing, which is `reconstruct_I`'s first set.
    """
    n = pert.base.num_agents
    for i in range(n):
        sets = reconstruct_I(pert, i, Budget(10**9, "combinations"))
        if not true_i[i]:
            if sets[0] != frozenset():
                return False
            continue
        got = frozenset(range(pert.base.num_items)).intersection(
            *(
                build_f_ij(pert, i, j)[true_separators(pert, true_i, i, j)]
                for j in range(n)
                if j != i
            )
        )
        if got != true_i[i] or true_i[i] not in sets:
            return False
    return True


def spend_of(call):
    """`call(limit)`'s result and the units it spent of the one Budget
    that it made in `oracles`."""
    made = []

    class Recording(Budget):
        def __init__(self, limit, what):
            super().__init__(limit, what)
            made.append(self)

    with mock.patch.object(oracles, "Budget", Recording):
        result = call(10**12)
    (budget,) = made
    return result, budget.limit - budget.remaining


def assert_budget_is_own_spend(call, below):
    """`call` spends the same on two calls, raises below that spend and not
    at it; `below(spent)` draws one more budget under a positive spend.
    Returns the spend."""
    result, spent = spend_of(call)
    assert spend_of(call) == (result, spent)
    for limit in {spent - 1, below(spent)} if spent else ():
        with pytest.raises(BudgetExceededError):
            call(limit)
    assert call(spent) == result
    return spent
