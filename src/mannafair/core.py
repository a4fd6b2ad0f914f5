"""Exact-rational domain model for fair division of indivisible mixed manna.

Values are exact rationals (`fractions.Fraction`), never floats; agents and
items are 0-based.  The value kernel is `Instance.scaled`, each agent's row
times the LCM of its denominators: every predicate compares values of one
agent only, which a positive per-agent scale leaves exact.  The envy
predicates read `profile`, the n x n matrix of scaled v_i(A_j).

Every bundle sum goes through one kernel, `_getters`: one
`operator.itemgetter` per bundle, built once per call and applied to each
agent's row, so v_i(A_j) is `sum(getter_j(row_i))` and the per-item loop
runs in C.  `profile`, `is_envy_free_for`, `is_ef1` and `validate_certificate`
(each witness an owner vector of R) read it; nothing is kept between calls.

Every matrix or vector of values enters through one intake kernel,
`rational_rows`, which converts each entry exactly once: `Instance`,
`welfare.PerturbedInstance`, `welfare.WeightVector`,
`welfare.check_nondegenerate` and the file readers of `harness` all call
it, and none converts entries itself.

The value classes (`Instance`, `Allocation`, `EnvyGraph`, `EfrCertificate`
and those of `welfare`, `oracles` and `algorithms`) are `FrozenRecord`s:
plain classes that name their fields once, in `_fields`, and set them in
their own `__init__`; `FrozenRecord` derives `==`, `hash` and `repr` from
that list, so no command imports `dataclasses`.
"""

from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import attrgetter, index, itemgetter

Rational = Fraction

RationalLike = int | str | Fraction

# A signed integer, "p/q" or a plain decimal such as "0.5", so the cost of
# parsing is bounded by the length.  `Fraction(str)` also accepts exponents:
# "1e10000000" would build a ten-million-digit integer.  The groups are the
# sign, p and q, or the decimal's whole and fractional digits; the lookahead
# asks for a digit before or after the point.  (`re` compiles the pattern on
# first use, which most commands never make.)
_RATIONAL_STR = (
    r"\s*([+-]?)(?:([0-9]+)(?:/([0-9]+))?|(?=\.?[0-9])([0-9]*)\.([0-9]*))\s*"
)


# the default budgets of the exhaustive oracles and of the fixed-n search,
# here so that `cli` can show them without importing `oracles` or `fixed_n`
DEFAULT_BUDGET = 10**8
DEFAULT_MAX_CANDIDATES = 10**7


class IncompleteCertificateError(ValueError):
    """A certificate does not have one owner vector per agent."""


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

    A subclass names its fields in `_fields` and sets them in its own
    `__init__` with `object.__setattr__`; it may keep derived state outside
    them.  `_key`, the tuple of the fields' values, is derived from
    `_fields` once per subclass.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        if len(cls._fields) == 1:  # one name gives the bare value
            cls._key = staticmethod(lambda obj: (get(obj),))
        else:
            cls._key = staticmethod(get)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def short_repr(value) -> str:
    """`repr(value)` cut to a few levels, a few entries per level and a
    few dozen characters per string or number, for error messages that
    echo input: a deeply nested or long JSON value stays a short line."""
    import reprlib  # only error messages need it

    return reprlib.repr(value)


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
        raise TypeError(f"cannot interpret {short_repr(x)} as an exact rational")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, str):
        match = re.fullmatch(_RATIONAL_STR, x)
        if match is None:
            raise ValueError(f"bad rational {short_repr(x)}")
        sign, p, q, whole, digits = match.groups()
        if p is None:  # a decimal, read as `Fraction(str)` reads it
            q = 10 ** len(digits)
            p = int(whole or "0") * q + int(digits or "0")
        else:
            p, q = int(p), int(q or "1")
        try:
            return Fraction(-p if sign == "-" else p, q)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {short_repr(x)}") from None
    raise TypeError(f"cannot interpret {short_repr(x)} as an exact rational")


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

    @property
    def num_agents(self) -> int:
        return len(self.bundles)

    def holder(self, item: int) -> int:
        for i, b in enumerate(self.bundles):
            if item in b:
                return i
        raise KeyError(f"item {item} is not allocated")

    def reassign(self, moves: dict[int, int]) -> "Allocation":
        """Return a copy with each item in `moves` handed to the given agent.

        Only the bundles a move touches are rebuilt (a move to the item's
        holder touches none); the copy shares every other bundle with `self`.
        """
        new = list(self.bundles)
        for item, agent in moves.items():
            source = self.holder(item)
            if source == agent:
                continue
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

    ``owners[i][k]`` holds the k-th item of ``sorted(realloc_set)`` in agent
    i's witness, the base elsewhere; None marks no reassignment of R.
    """

    # owners: tuple[tuple[int, ...] | None, ...], indexed by agent
    _fields = ("base", "realloc_set", "owners")

    def __init__(self, base: Allocation, realloc_set, owners):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "realloc_set", frozenset(realloc_set))
        owners = (v if v is None else tuple(map(index, v)) for v in owners)
        object.__setattr__(self, "owners", tuple(owners))

    @classmethod
    def of_witnesses(cls, base: Allocation, realloc_set, allocations):
        """The certificate of witness allocations, each read as its owner
        vector, or None if it moves an item outside R or is no n-partition."""
        realloc = frozenset(realloc_set)

        def owners(w):
            if w.num_agents != base.num_agents or any(
                b is not c and not b ^ c <= realloc
                for b, c in zip(base.bundles, w.bundles)
            ):
                return None
            held = [(t, j) for j, c in enumerate(w.bundles) for t in c & realloc]
            holder = dict(held)  # smaller than `held` if an item is held twice
            if len(holder) == len(held) == len(realloc):
                return tuple(map(holder.get, sorted(realloc)))

        return cls(base, realloc, map(owners, allocations))

    @cached_property
    def witnesses(self) -> tuple:  # the witness allocations, built on first use
        items = sorted(self.realloc_set)
        held = frozenset().union(*self.base.bundles)
        for t in (t for t in items if t not in held):  # the first not held
            raise ValueError(f"realloc_set item index {t} is in no base bundle")
        n = self.base.num_agents
        for a in (a for v in self.owners if v for a in v if not 0 <= a < n):
            raise ValueError(f"owner vector agent index {a} out of range")
        return tuple(
            None if v is None else self.base.reassign(dict(zip(items, v)))
            for v in self.owners
        )


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


def bundle_value(inst: Instance, agent: int, bundle: frozenset[int]) -> Fraction:
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


def _getters(bundles) -> list:
    """The bundle-sum kernel: for each bundle, a getter that maps any row
    to the tuple of its entries on the bundle, so `sum(getter(row))` is
    the row's value of the bundle.

    `itemgetter` of one index returns the bare entry and of none raises,
    so a bundle of at most one item reads a slice of the row instead.
    """
    return [itemgetter(*b) if len(b) > 1 else _slice_getter(b) for b in bundles]


def _slice_getter(bundle):
    for t in bundle:  # the one item
        return itemgetter(slice(t, t + 1))
    return itemgetter(slice(0))


def _profile(rows, getters) -> list:
    return [[sum(get(row)) for get in getters] for row in rows]


def profile(inst: Instance, alloc: Allocation) -> list:
    """n x n matrix of v_i(A_j) in agent i's scale (`Instance.scaled`)."""
    return _profile(inst.scaled, _getters(alloc.bundles))


def build_envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    """Strict-envy graph of `alloc`: edge (i, j) iff v_i(A_i) < v_i(A_j)."""
    validate_allocation(inst, alloc)
    return EnvyGraph.of_profile(profile(inst, alloc))


def is_envy_free_for(inst: Instance, alloc: Allocation, agent: int) -> bool:
    """True iff `agent` values its own bundle at least as much as every other."""
    validate_allocation(inst, alloc)
    (vals,) = _profile((inst.scaled[agent],), _getters(alloc.bundles))
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
    rows, getters = inst.scaled, _getters(alloc.bundles)
    for i, (row, vals) in enumerate(zip(rows, _profile(rows, getters))):
        own = vals[i]
        # an empty bundle offers 0, which cannot close positive envy
        drop = -min(getters[i](row), default=0)
        for j, other in enumerate(vals):
            if own >= other:
                continue
            take = max(getters[j](row), default=0)
            if max(drop, take) < other - own:
                return False
    return True


def validate_certificate(inst: Instance, cert: EfrCertificate) -> bool:
    """Check both certificate invariants.

    True implies ``cert.base`` is EFR-|cert.realloc_set|.  Raises
    IncompleteCertificateError unless there is one owner vector per agent,
    and ValueError for an item of R outside range(m).  Agent i's row is its
    base row with each item of R moved to its owner in vector i.
    """
    validate_allocation(inst, cert.base)
    n, m = inst.num_agents, inst.num_items
    if len(cert.owners) != n:
        raise IncompleteCertificateError(
            f"certificate has {len(cert.owners)} witnesses for {n} agents"
        )
    items = sorted(cert.realloc_set)
    for t in (t for t in items if not 0 <= t < m):  # the first out of range
        raise ValueError(f"realloc_set item index {t} out of range")
    home = [cert.base.holder(t) for t in items]
    prof = profile(inst, cert.base)
    for i, v in enumerate(cert.owners):
        if v is None or len(v) != len(items) or not all(0 <= a < n for a in v):
            return False
        row, vals = inst.scaled[i], list(prof[i])
        for t, h, a in zip(items, home, v):
            vals[h] -= row[t]
            vals[a] += row[t]
        if vals[i] < max(vals):
            return False
    return True
