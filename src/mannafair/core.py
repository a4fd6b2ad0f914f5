"""Exact-rational domain model for fair division of indivisible mixed manna.

Values are exact rationals (`fractions.Fraction`), never floats; agents and
items are 0-based.  The value kernel is `Instance.scaled`, each agent's row
times the LCM of its denominators: every predicate compares values of one
agent only, which a positive per-agent scale leaves exact.  The envy
predicates read `profile`, the n x n matrix of scaled v_i(A_j).

Every matrix or vector of values enters through one intake kernel,
`rational_rows`, which converts each entry exactly once: `Instance`,
`welfare.PerturbedInstance`, `welfare.WeightVector`,
`welfare.check_nondegenerate` and the file readers of `harness` all call
it, and none converts entries itself.
"""

from __future__ import annotations

import re
from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

RationalLike = Union[int, str, Fraction]

# A signed integer, "p/q" or a plain decimal such as "0.5", so the cost of
# parsing is bounded by the length.  `Fraction(str)` alone also accepts
# exponents: "1e10000000" would build a ten-million-digit integer.  (`re`
# compiles the pattern on first use, which most commands never make.)
_RATIONAL_STR = r"\s*[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]+\.[0-9]*|\.[0-9]+)\s*"


class IncompleteCertificateError(ValueError):
    """A certificate is missing the witness allocation for some agent."""


class BudgetExceededError(RuntimeError):
    """An exhaustive search exceeded its configured evaluation budget."""


class Budget:
    """At most `limit` units of `what`; overspending raises, naming both."""

    __slots__ = ("limit", "what", "remaining")

    def __init__(self, limit: int, what: str):
        self.limit, self.what, self.remaining = limit, what, limit

    def spend(self, amount: int = 1) -> None:
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceededError(f"{self.what} exceed the limit of {self.limit}")


def as_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or integer, "p/q" or decimal string to an
    exact Fraction.

    Floats are rejected: the downstream ratio and LP tests are
    equality-sensitive.  A string must have one of those forms before
    `Fraction` reads it, so exponent and underscore forms are rejected.
    A `Fraction` is returned itself, not copied.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        if re.fullmatch(_RATIONAL_STR, x) is None:
            raise ValueError(f"bad rational {x!r}")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rational_rows(rows) -> tuple:
    """`rows` as a tuple of tuples of Fractions, each entry converted once.

    A `Fraction` is kept as it is.  A plain int maps to one `Fraction` per
    distinct value, shared within this call, so a matrix of small integers
    holds a few Fraction objects, not one per entry.  Anything else goes
    through `as_rational`, which reads strings and rejects floats and bools.
    """
    ints = {}  # keyed by exact ints only: True and 1.0 hash and compare as 1
    out = []
    for row in rows:
        new = []
        for v in row:
            kind = type(v)
            if kind is int:
                f = ints.get(v)
                if f is None:
                    f = ints[v] = Fraction(v)
            elif kind is Fraction:
                f = v
            else:
                f = as_rational(v)
            new.append(f)
        out.append(tuple(new))
    return tuple(out)


def scale_row(row) -> tuple:
    """`row` times the LCM of its denominators: (the LCM, the integer row)."""
    d = lcm(*(v.denominator for v in row))
    return d, tuple(v.numerator * (d // v.denominator) for v in row)


@dataclass(frozen=True)
class Instance:
    """A fair division instance: n agents, m items, exact valuation matrix.

    Entry ``values[i][t]`` is agent i's value for item t.  Values may be
    positive, negative, or zero (mixed manna).
    """

    values: tuple  # tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        rows = rational_rows(self.values)
        if not rows:
            raise ValueError("instance needs at least one agent")
        m = len(rows[0])
        if any(len(row) != m for row in rows):
            raise ValueError("valuation matrix is ragged")
        object.__setattr__(self, "values", rows)

    @property
    def num_agents(self) -> int:
        return len(self.values)

    @property
    def num_items(self) -> int:
        return len(self.values[0])

    def value(self, agent: int, item: int) -> Fraction:
        return self.values[agent][item]

    @cached_property
    def scaled(self) -> tuple:
        """Per-agent integer rows: agent i's values times its row's LCM."""
        return tuple(scale_row(row)[1] for row in self.values)

    def all_items(self) -> frozenset:
        return frozenset(range(self.num_items))


@dataclass(frozen=True)
class Allocation:
    """An n-partition of the item set into per-agent bundles."""

    bundles: tuple  # tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "bundles", tuple(frozenset(b) for b in self.bundles)
        )

    @property
    def num_agents(self) -> int:
        return len(self.bundles)

    def holder(self, item: int) -> int:
        for i, b in enumerate(self.bundles):
            if item in b:
                return i
        raise KeyError(f"item {item} is not allocated")

    def reassign(self, moves: Mapping[int, int]) -> "Allocation":
        """Return a copy with each item in `moves` handed to the given agent.

        Only the bundles a move touches are rebuilt; the copy shares every
        other bundle object with `self`.
        """
        new = list(self.bundles)
        for item, agent in moves.items():
            source = self.holder(item)
            for j in (source, agent):
                if new[j] is self.bundles[j]:
                    new[j] = set(new[j])
            new[source].discard(item)
            new[agent].add(item)
        return Allocation(tuple(new))


@dataclass(frozen=True)
class EnvyGraph:
    """Directed strict-envy relation: edge (i, j) iff i envies j."""

    num_agents: int
    edges: frozenset  # frozenset[tuple[int, int]]

    @classmethod
    def of_profile(cls, prof) -> "EnvyGraph":
        """Edge (i, j) iff prof[i][i] < prof[i][j]."""
        edges = frozenset(
            (i, j) for i, r in enumerate(prof) for j, v in enumerate(r) if r[i] < v
        )
        return cls(len(prof), edges)

    def out_neighbors(self, i: int):
        return sorted(j for (a, j) in self.edges if a == i)

    def sinks(self):
        """Agents with no outgoing envy edge (envy-free agents)."""
        enviers = {a for (a, _) in self.edges}
        return [i for i in range(self.num_agents) if i not in enviers]

    def is_acyclic(self) -> bool:
        order = self.topological_order()
        return order is not None

    def topological_order(self):
        """Kahn topological order (enviers first), lowest index breaking ties.

        Returns None when the graph has a cycle.
        """
        n = self.num_agents
        indeg = [0] * n
        for (_, j) in self.edges:
            indeg[j] += 1
        order = []
        ready = sorted(i for i in range(n) if indeg[i] == 0)
        while ready:
            i = ready.pop(0)
            order.append(i)
            for j in self.out_neighbors(i):
                indeg[j] -= 1
                if indeg[j] == 0:
                    insort(ready, j)  # keep `ready` sorted for determinism
        return order if len(order) == n else None


@dataclass(frozen=True)
class EfrCertificate:
    """Witness data showing an allocation is EFR-|realloc_set|.

    For every agent i, ``witnesses[i]`` must agree with ``base`` outside
    ``realloc_set`` and be envy-free for i.
    """

    base: Allocation
    realloc_set: frozenset
    witnesses: tuple  # tuple[Allocation, ...], indexed by agent

    def __post_init__(self):
        object.__setattr__(self, "realloc_set", frozenset(self.realloc_set))
        object.__setattr__(self, "witnesses", tuple(self.witnesses))


def validate_allocation(inst: Instance, alloc: Allocation) -> None:
    """Raise ValueError unless `alloc` is an n-partition of [m]."""
    if alloc.num_agents != inst.num_agents:
        raise ValueError(
            f"allocation has {alloc.num_agents} bundles for "
            f"{inst.num_agents} agents"
        )
    m = inst.num_items
    seen = set()
    for b in alloc.bundles:
        for t in b:
            if not (0 <= t < m):
                raise ValueError(f"item index {t} out of range")
            if t in seen:
                raise ValueError(f"item {t} allocated twice")
            seen.add(t)
    if len(seen) != m:
        missing = sorted(set(range(m)) - seen)
        raise ValueError(f"items {missing} unallocated")


def bundle_value(inst: Instance, agent: int, bundle: Iterable[int]) -> Fraction:
    """Exact additive value of `bundle` for `agent`."""
    if not (0 <= agent < inst.num_agents):
        raise IndexError(f"agent index {agent} out of range")
    total = Fraction(0)
    row = inst.values[agent]
    for t in bundle:
        if not (0 <= t < inst.num_items):
            raise IndexError(f"item index {t} out of range")
        total += row[t]
    return total


def _row_profile(row, alloc: Allocation) -> list:
    return [sum(map(row.__getitem__, b)) for b in alloc.bundles]


def profile(inst: Instance, alloc: Allocation) -> list:
    """n x n matrix of v_i(A_j) in agent i's scale (`Instance.scaled`)."""
    return [_row_profile(row, alloc) for row in inst.scaled]


def build_envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    """Strict-envy graph of `alloc`: edge (i, j) iff v_i(A_i) < v_i(A_j)."""
    validate_allocation(inst, alloc)
    return EnvyGraph.of_profile(profile(inst, alloc))


def is_envy_free_for(inst: Instance, alloc: Allocation, agent: int) -> bool:
    """True iff `agent` values its own bundle at least as much as every other."""
    validate_allocation(inst, alloc)
    vals = _row_profile(inst.scaled[agent], alloc)
    return vals[agent] >= max(vals)


def is_envy_free(inst: Instance, alloc: Allocation) -> bool:
    validate_allocation(inst, alloc)
    return all(row[i] >= max(row) for i, row in enumerate(profile(inst, alloc)))


def is_ef1(inst: Instance, alloc: Allocation) -> bool:
    """Envy-freeness up to one item, for mixed manna.

    For every envying pair (i, j) some item t in A_i or A_j must satisfy
    v_i(A_i \\ {t}) >= v_i(A_j \\ {t}).  Removing i's lowest item in A_i or
    i's highest item in A_j closes the most envy, so only those are tried.
    """
    validate_allocation(inst, alloc)
    bundles = alloc.bundles
    for i, (row, vals) in enumerate(zip(inst.scaled, profile(inst, alloc))):
        own = vals[i]
        # an empty bundle offers 0, which cannot close positive envy
        drop = -min(map(row.__getitem__, bundles[i]), default=0)
        for j, other in enumerate(vals):
            if own >= other:
                continue
            take = max(map(row.__getitem__, bundles[j]), default=0)
            if max(drop, take) < other - own:
                return False
    return True


def validate_certificate(inst: Instance, cert: EfrCertificate) -> bool:
    """Check both certificate invariants.

    True implies ``cert.base`` is EFR-|cert.realloc_set|.  Raises
    IncompleteCertificateError when a witness is missing.

    The base is validated and profiled once; each witness is checked as a
    delta of it.  Only the bundles that differ from the base's (tested by
    identity first) must hold exactly the items of the base's matching
    bundles, each item once, moving only items of R; agent i's row is the
    base row with those bundles summed again.
    """
    validate_allocation(inst, cert.base)
    n = inst.num_agents
    if len(cert.witnesses) != n:
        raise IncompleteCertificateError(
            f"certificate has {len(cert.witnesses)} witnesses for {n} agents"
        )
    base, realloc = cert.base.bundles, cert.realloc_set
    prof = profile(inst, cert.base)
    for i, witness in enumerate(cert.witnesses):
        if witness.num_agents != n:
            return False
        changed = [
            j for j, (b, w) in enumerate(zip(base, witness.bundles))
            if b is not w and b != w
        ]
        old = [base[j] for j in changed]
        new = [witness.bundles[j] for j in changed]
        held = frozenset().union(*old)
        # an n-partition iff the changed bundles hold the items of the
        # base's once each; it agrees with the base outside R iff every
        # changed bundle differs only in R
        if (
            frozenset().union(*new) != held
            or sum(map(len, new)) != len(held)  # an item held twice
            or not all(b ^ w <= realloc for b, w in zip(old, new))
        ):
            return False
        row, vals = inst.scaled[i], list(prof[i])
        for j, w in zip(changed, new):
            vals[j] = sum(map(row.__getitem__, w))
        if vals[i] < max(vals):
            return False
    return True
