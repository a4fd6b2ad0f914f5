"""Polynomial-time constructions for mixed manna and for goods.

Pipeline for mixed manna: a double round-robin EF1 allocation, top-trading
envy-cycle resolution to expose an envy-free agent, then a per-agent
single-item move that certifies EFR-(n-1).  For goods-only instances the
conflict-aware picking sequence yields an EFR-floor(n/2) certificate.

Every choice reads the integer value kernel of `core` (`Instance.scaled`
and `profile`).  Greedy picks walk each agent's preference order (highest
value first, lowest index among ties) with a pointer that skips taken
items, so a whole picking sequence costs O(nm) after an O(nm log m) sort.
"""

from __future__ import annotations

from typing import List

from .core import (
    Allocation,
    EfrCertificate,
    EnvyGraph,
    FrozenRecord,
    Instance,
    profile,
)


class _Preferences:
    """Each agent's `items` (given in increasing order), best first and the
    lowest index first among ties, with a pointer past items not in `free`.
    """

    def __init__(self, inst: Instance, items, free):
        self.rows = rows = inst.scaled
        self.orders = [sorted(items, key=r.__getitem__, reverse=True) for r in rows]
        self.pos = [0] * len(rows)
        self.free = free

    def best(self, agent: int) -> int:
        """The agent's most-valued free item; `free` must not be empty."""
        order, p, free = self.orders[agent], self.pos[agent], self.free
        while order[p] not in free:
            p += 1
        self.pos[agent] = p
        return order[p]

    def favorites(self, agent: int) -> set:
        """Every free item the agent values as much as its best one."""
        row, order = self.rows[agent], self.orders[agent]
        top = row[self.best(agent)]
        fav = set()
        for p in range(self.pos[agent], len(order)):
            t = order[p]
            if row[t] != top:
                break
            if t in self.free:
                fav.add(t)
        return fav


def double_round_robin_ef1(inst: Instance) -> Allocation:
    """EF1 allocation of mixed manna via double round robin.

    Round 1: shared chores (negative for every agent) are picked by agents
    0..n-1 in cyclic order, each taking its highest-valued remaining shared
    chore; implicit zero-valued dummies pad the round to a multiple of n.
    Round 2: agents n-1..0 in cyclic order pick their highest-valued
    remaining item, passing whenever every remaining item is negative for
    them.
    """
    n, m = inst.num_agents, inst.num_items
    rows = inst.scaled
    shared = [t for t in range(m) if all(row[t] < 0 for row in rows)]
    rest = [t for t in range(m) if not all(row[t] < 0 for row in rows)]
    bundles = [set() for _ in range(n)]

    remaining = set(shared)
    prefs = _Preferences(inst, shared, remaining)
    # the -|shared| mod n zero-valued dummies beat every shared chore, so
    # agents 0, 1, ... take them and the chores start at the turn after
    turn = -len(shared) % n
    while remaining:
        best = prefs.best(turn % n)
        bundles[turn % n].add(best)
        remaining.discard(best)
        turn += 1

    remaining = set(rest)
    prefs = _Preferences(inst, rest, remaining)
    while remaining:
        for i in reversed(range(n)):
            if not remaining:
                break
            best = prefs.best(i)
            if rows[i][best] < 0:
                continue  # pass: everything left is a chore for i
            bundles[i].add(best)
            remaining.discard(best)

    return Allocation(tuple(frozenset(b) for b in bundles))


def resolve_top_trading_cycles(inst: Instance, alloc: Allocation) -> Allocation:
    """Rotate top-trading envy cycles until some agent is envy-free.

    Each rotation hands every agent on the cycle its most-valued bundle, so
    total utility strictly increases and termination is guaranteed.  An
    input that already has an envy-free agent is returned unchanged.
    """
    return _trade_cycles(inst, alloc)[0]


def _trade_cycles(inst: Instance, alloc: Allocation):
    """`resolve_top_trading_cycles`, with the result's `profile`."""
    bundles = list(alloc.bundles)
    vals = profile(inst, alloc)
    while not any(row[i] >= max(row) for i, row in enumerate(vals)):
        # everyone is envious: each agent points at the min-index holder of
        # its most-valued bundle, so the pointer graph contains a cycle
        point = [row.index(max(row)) for row in vals]
        seen = {}  # agent -> step at which the walk from agent 0 met it
        cur = 0
        while cur not in seen:
            seen[cur] = len(seen)
            cur = point[cur]
        perm = list(range(len(bundles)))  # agent -> whose bundle it gets
        for a in list(seen)[seen[cur]:]:
            perm[a] = point[a]
        bundles = [bundles[p] for p in perm]
        vals = [[row[p] for p in perm] for row in vals]
    return Allocation(tuple(bundles)), vals


def _lowest_chore(inst, bundle, agent):
    row = inst.scaled[agent]
    chores = [t for t in bundle if row[t] < 0]
    return min(chores, key=lambda t: (row[t], t), default=None)


def _best_outside_good(inst, bundle, agent):
    row = inst.scaled[agent]
    goods = [t for t in range(len(row)) if t not in bundle and row[t] >= 0]
    return max(goods, key=lambda t: (row[t], -t), default=None)


def efr_n_minus_1(inst: Instance) -> EfrCertificate:
    """EFR-(n-1) certificate whose base allocation is also EF1.

    The base is the double-round-robin allocation after top-trading cycle
    resolution, so some agent i-hat is envy-free.  Every other agent i
    contributes at most one item t_i: its lowest-valued held chore or the
    highest-valued good outside its bundle, whichever is larger in absolute
    value.  The witness for i moves a chore t_i to i-hat, or a good t_i to
    i itself.
    """
    n = inst.num_agents
    base, vals = _trade_cycles(inst, double_round_robin_ef1(inst))
    sink = next(i for i, row in enumerate(vals) if row[i] >= max(row))
    realloc = set()
    witnesses: List[Allocation] = []
    for i in range(n):
        bundle, row = base.bundles[i], inst.scaled[i]
        options = (_lowest_chore(inst, bundle, i), _best_outside_good(inst, bundle, i))
        options = [t for t in options if t is not None]
        if i == sink or not options:
            # i is envy-free, or holds only goods and owns all its goods
            witnesses.append(base)
            continue
        # the larger in absolute value, the lower index on a tie
        chosen = max(options, key=lambda t: (abs(row[t]), -t))
        realloc.add(chosen)
        target = sink if row[chosen] < 0 else i  # a chore goes to the sink
        witnesses.append(base.reassign({chosen: target}))
    return EfrCertificate(base, frozenset(realloc), tuple(witnesses))


class PickingState(FrozenRecord):
    """Snapshot of the conflict-aware picking loop after one outer iteration."""

    # partial: tuple[frozenset[int], ...]
    _fields = ("active", "deferred", "reserved", "unallocated", "partial")

    def __init__(
        self,
        active: frozenset,
        deferred: frozenset,
        reserved: frozenset,
        unallocated: frozenset,
        partial: tuple,
    ):
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "deferred", deferred)
        object.__setattr__(self, "reserved", reserved)
        object.__setattr__(self, "unallocated", unallocated)
        object.__setattr__(self, "partial", partial)

    def _key(self) -> tuple:
        return (
            self.active, self.deferred, self.reserved, self.unallocated,
            self.partial,
        )


def run_picking_rounds(inst: Instance):
    """Run the conflict-aware picking loop, without dumping the reserve.

    Returns (partial_bundles, reserved, trace) where `trace` holds one
    PickingState per outer-loop iteration, recorded at iteration end.
    """
    n, m = inst.num_agents, inst.num_items
    if any(v < 0 for row in inst.scaled for v in row):
        raise ValueError("conflict-aware picking requires nonnegative values")

    active = set(range(n))
    deferred = set()
    reserved = set()
    unallocated = set(range(m))
    # sorting the set's own ints shares them instead of making n * m new ones
    prefs = _Preferences(inst, sorted(unallocated), unallocated)
    bundles = [set() for _ in range(n)]
    trace: List[PickingState] = []

    while unallocated:
        favorites = {i: prefs.favorites(i) for i in active}
        while True:
            conflicts = {}
            for i, fav in favorites.items():
                for g in fav:
                    conflicts.setdefault(g, set()).add(i)
            contested = [g for g, who in conflicts.items() if len(who) >= 2]
            if not contested:
                break
            hot = max(contested, key=lambda g: (len(conflicts[g]), -g))
            movers = conflicts[hot]
            unallocated.discard(hot)
            reserved.add(hot)
            deferred |= movers
            active -= movers
            # the other active agents did not favor `hot`, so their
            # favorites are unchanged
            for i in movers:
                del favorites[i]
        for group in (sorted(active), sorted(deferred)):
            for i in group:
                if not unallocated:
                    break
                pick = prefs.best(i)
                bundles[i].add(pick)
                unallocated.discard(pick)
        trace.append(
            PickingState(
                frozenset(active),
                frozenset(deferred),
                frozenset(reserved),
                frozenset(unallocated),
                tuple(frozenset(b) for b in bundles),
            )
        )
    return tuple(frozenset(b) for b in bundles), frozenset(reserved), trace


def reserve_certificate(base: Allocation, reserved) -> EfrCertificate:
    """Picking certificate on `base`: the witness for agent i moves all of
    the reserve R to i."""
    n = base.num_agents
    witnesses = tuple(base.reassign(dict.fromkeys(reserved, i)) for i in range(n))
    return EfrCertificate(base, reserved, witnesses)


def conflict_aware_picking(inst: Instance) -> EfrCertificate:
    """EFR-floor(n/2) certificate for goods-only instances.

    The reserve R ends up on agent 0; the witness for agent i moves all of
    R to i, which the loop invariants make envy-free for i.
    """
    partial, reserved, _ = run_picking_rounds(inst)
    base = Allocation((partial[0] | reserved,) + partial[1:])
    return reserve_certificate(base, reserved)


def extend_with_round_robin(inst: Instance, partial, reserved) -> Allocation:
    """Complete a picking-loop partial allocation by distributing R.

    Agents pick their favorite remaining reserved good one at a time, in a
    topological order of the partial allocation's envy graph, which keeps
    the result EF1 while the original reserve still certifies
    EFR-floor(n/2).
    """
    bundles = [set(b) for b in partial]
    remaining = set(reserved)
    if not remaining:
        return Allocation(tuple(bundles))
    # the partial allocation leaves R out, so it is no n-partition for
    # build_envy_graph to validate; its profile is all the graph needs
    order = EnvyGraph.of_profile(profile(inst, Allocation(partial))).topological_order()
    if order is None:
        raise RuntimeError("partial allocation envy graph has a cycle")
    prefs = _Preferences(inst, sorted(remaining), remaining)
    while remaining:
        for i in order:
            if not remaining:
                break
            pick = prefs.best(i)
            bundles[i].add(pick)
            remaining.discard(pick)
    return Allocation(tuple(bundles))
