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

The value classes (`Instance`, `Allocation`, `EnvyGraph`, `EfrCertificate`
and those of `welfare`, `oracles` and `algorithms`) are `FrozenRecord`s:
plain classes, each with its own `__init__`, so that no command imports
`dataclasses`.
"""

from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

RationalLike = Union[int, str, Fraction]

# A signed integer, "p/q" or a plain decimal such as "0.5", so the cost of
# parsing is bounded by the length.  `Fraction(str)` also accepts exponents:
# "1e10000000" would build a ten-million-digit integer.  The groups are the
# sign, p and q, or the decimal's whole and fractional digits; the lookahead
# asks for a digit before or after the point.  (`re` compiles the pattern on
# first use, which most commands never make.)
_RATIONAL_STR = (
    r"\s*([+-]?)(?:([0-9]+)(?:/([0-9]+))?|(?=\.?[0-9])([0-9]*)\.([0-9]*))\s*"
)


# the default budget of the exhaustive oracles, here so that `cli` can show it
# without importing `oracles`
DEFAULT_BUDGET = 10**8


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


class FrozenRecord:
    """A frozen value: it compares and hashes as the tuple of its fields,
    prints as `Name(field=value, ...)` and refuses attribute assignment.

    A subclass names its fields in `_fields`, sets them in its own
    `__init__` with `object.__setattr__` and returns their values, in that
    order, from `_key`; it may keep derived state outside them.  `_key` is
    written out per class, since reading `_fields` with `getattr` makes
    `==` several times slower, and `Instance`, `Allocation` and
    `EfrCertificate` write out `__eq__` and `__hash__` too: a certificate
    compares n + 1 allocations, and `_key` costs two calls on each.
    """

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def as_rational(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or integer, "p/q" or decimal string to an
    exact Fraction.

    Floats are rejected: the downstream ratio and LP tests are
    equality-sensitive.  A string is read from one match of one of those
    forms, so exponent and underscore forms are rejected.
    A `Fraction` is returned itself, not copied.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, bool):
        raise TypeError(f"cannot interpret {x!r} as an exact rational")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        match = re.fullmatch(_RATIONAL_STR, x)
        if match is None:
            raise ValueError(f"bad rational {x!r}")
        sign, p, q, whole, digits = match.groups()
        if p is None:  # a decimal, read as `Fraction(str)` reads it
            q = 10 ** len(digits)
            p = int(whole or "0") * q + int(digits or "0")
        else:
            p, q = int(p), int(q or "1")
        try:
            return Fraction(-p if sign == "-" else p, q)
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


class Instance(FrozenRecord):
    """A fair division instance: n agents, m items, exact valuation matrix.

    Entry ``values[i][t]`` is agent i's value for item t.  Values may be
    positive, negative, or zero (mixed manna).
    """

    _fields = ("values",)  # values: tuple[tuple[Fraction, ...], ...]

    def __init__(self, values):
        rows = rational_rows(values)
        if not rows:
            raise ValueError("instance needs at least one agent")
        m = len(rows[0])
        if any(len(row) != m for row in rows):
            raise ValueError("valuation matrix is ragged")
        object.__setattr__(self, "values", rows)

    def _key(self) -> tuple:
        return (self.values,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.values == other.values
        return NotImplemented

    def __hash__(self):
        return hash((self.values,))

    @property
    def num_agents(self) -> int:
        return len(self.values)

    @property
    def num_items(self) -> int:
        return len(self.values[0])

    @cached_property
    def scaled(self) -> tuple:
        """Per-agent integer rows: agent i's values times its row's LCM."""
        return tuple(scale_row(row)[1] for row in self.values)


class Allocation(FrozenRecord):
    """An n-partition of the item set into per-agent bundles."""

    _fields = ("bundles",)  # bundles: tuple[frozenset[int], ...]

    def __init__(self, bundles):
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in bundles))

    def _key(self) -> tuple:
        return (self.bundles,)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.bundles == other.bundles
        return NotImplemented

    def __hash__(self):
        return hash((self.bundles,))

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


class EnvyGraph(FrozenRecord):
    """Directed strict-envy relation: edge (i, j) iff i envies j."""

    _fields = ("num_agents", "edges")  # edges: frozenset[tuple[int, int]]

    def __init__(self, num_agents: int, edges: frozenset):
        object.__setattr__(self, "num_agents", num_agents)
        object.__setattr__(self, "edges", edges)

    def _key(self) -> tuple:
        return (self.num_agents, self.edges)

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


class EfrCertificate(FrozenRecord):
    """Witness data showing an allocation is EFR-|realloc_set|.

    For every agent i, ``witnesses[i]`` must agree with ``base`` outside
    ``realloc_set`` and be envy-free for i.
    """

    # witnesses: tuple[Allocation, ...], indexed by agent
    _fields = ("base", "realloc_set", "witnesses")

    def __init__(self, base: Allocation, realloc_set, witnesses):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "realloc_set", frozenset(realloc_set))
        object.__setattr__(self, "witnesses", tuple(witnesses))

    def _key(self) -> tuple:
        return (self.base, self.realloc_set, self.witnesses)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.base, self.realloc_set, self.witnesses) == (
                other.base, other.realloc_set, other.witnesses
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.base, self.realloc_set, self.witnesses))


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
