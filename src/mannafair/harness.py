"""Instance generators and the on-disk JSON formats.

All files are JSON with a fixed key order so serialization is canonical
and diff-friendly, in the layout of `json.dumps(indent=2)`.  Values are
written as integers or "p/q" strings and read from integers or integer,
"p/q" or decimal strings; agent and item indices are 1-based on disk and
0-based in memory.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .core import Allocation, EfrCertificate, Instance, as_rational, rational_rows

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed input file; the message names the offending field."""


# --- generators ---------------------------------------------------------------


def gen_identical_chores(n: int) -> Instance:
    """n agents and n-1 identical chores, each valued -1 by everyone."""
    if n < 2:
        raise ValueError("need at least 2 agents")
    return Instance(tuple(tuple(-1 for _ in range(n - 1)) for _ in range(n)))


def gen_paired_goods(n: int) -> Instance:
    """n agents (n even) and n/2 goods; agents 2k, 2k+1 value good k at 1."""
    if n < 2 or n % 2:
        raise ValueError("need an even number of agents, at least 2")
    m = n // 2
    rows = []
    for i in range(n):
        rows.append(tuple(1 if t == i // 2 else 0 for t in range(m)))
    return Instance(tuple(rows))


def gen_partition_reduction(values: Sequence[int]):
    """Identical-valuation chores instance encoding a Partition input.

    For k positive integers summing to 2T this builds k+3 agents and 2k+1
    chores: the first k valued -s_i and the rest valued -T.  The returned
    allocation gives all s-chores to agent 1, nothing to agent 2, and one
    -T chore to each remaining agent.  The allocation is EFR-k exactly
    when the integers admit an exact half-sum partition.
    """
    if not values:
        raise ValueError("need at least one integer")
    if any(v <= 0 for v in values):
        raise ValueError("values must be positive")
    total = sum(values)
    if total % 2:
        raise ValueError("values must have an even sum")
    k = len(values)
    half = total // 2
    row = tuple(-v for v in values) + tuple(-half for _ in range(k + 1))
    inst = Instance(tuple(row for _ in range(k + 3)))
    bundles = [frozenset(range(k)), frozenset()]
    for idx in range(k + 1):
        bundles.append(frozenset({k + idx}))
    return inst, Allocation(tuple(bundles)), k


def gen_random(
    n: int, m: int, value_range: int, chore_prob: Fraction, seed: int
) -> Instance:
    """Seeded random instance with values in +/-[1, value_range].

    Each value is drawn uniformly and independently negated with
    probability `chore_prob`.  A range error's message starts with the
    parameter's name.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    if value_range < 1:
        raise ValueError(f"value_range must be at least 1, got {value_range}")
    chore_prob = as_rational(chore_prob)
    if not 0 <= chore_prob <= 1:
        raise ValueError(f"chore_prob must lie in [0, 1], got {chore_prob}")
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            v = rng.randint(1, value_range)
            # exact Bernoulli(chore_prob) from an integer draw
            if rng.randrange(chore_prob.denominator) < chore_prob.numerator:
                v = -v
            row.append(v)
        rows.append(tuple(row))
    return Instance(tuple(rows))


# --- serialization ------------------------------------------------------------


def _rational_out(v: Fraction):
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _rational_in(raw, where: str) -> Fraction:
    try:
        return as_rational(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad rational {raw!r}") from exc


def _dump(obj) -> str:
    """The text of `json.dumps(obj, indent=2)` plus a newline.

    `indent` makes `json.dumps` run its pure-Python encoder.  This writer
    renders a list of plain ints with one join, once per list object and
    depth, so a bundle list shared by a certificate's base and witnesses
    is rendered twice at most.  Scalars and dict keys go through
    `json.dumps`; a key that is not a string is refused.
    """
    out = []
    memo = {}  # (id of a list of ints, depth) -> its text

    def write(value, depth):
        if not value or not isinstance(value, (list, tuple, dict)):
            out.append(json.dumps(value))  # a scalar, [] or {}
            return
        outer = "\n" + "  " * depth
        inner = outer + "  "
        if isinstance(value, dict):
            brackets = "{}"
            entries = []
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                entries.append((f"{json.dumps(key)}: ", item))
        else:
            text = memo.get((id(value), depth))
            if text is None and {*map(type, value)} == {int}:
                body = ("," + inner).join(map(str, value))
                text = memo[id(value), depth] = f"[{inner}{body}{outer}]"
            if text is not None:
                out.append(text)
                return
            brackets = "[]"
            entries = [("", item) for item in value]
        sep = brackets[0] + inner
        for prefix, item in entries:
            out.append(sep + prefix)
            write(item, depth + 1)
            sep = "," + inner
        out.append(outer + brackets[1])

    write(obj, 0)
    out.append("\n")
    return "".join(out)


def _instance_out(inst: Instance, metadata: Optional[Dict] = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "agents": inst.num_agents,
        "items": inst.num_items,
        "values": [[_rational_out(v) for v in row] for row in inst.values],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def serialize_instance(inst: Instance, metadata: Optional[Dict] = None) -> str:
    return _dump(_instance_out(inst, metadata))


def _fields(doc, keys: Sequence[str], where: str, prefix: str = "") -> dict:
    """`doc` itself, once it is a JSON object holding every key in `keys`
    and stating no format_version other than `FORMAT_VERSION`."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"missing field {prefix + key!r}")
    version = doc.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version != FORMAT_VERSION:
        raise ParseError(f"{prefix}format_version: unsupported version {version!r}")
    return doc


def _load(text: str, keys: Sequence[str]) -> dict:
    """Decode a JSON object with `keys`; a stated format_version must match."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    return _fields(doc, keys, "top level")


_INSTANCE_KEYS = ("format_version", "agents", "items", "values")


def _instance_in(doc: dict, prefix: str = "") -> Instance:
    """The instance of a checked instance object; errors name prefix + field."""
    for key in ("agents", "items"):
        if type(doc[key]) is not int or doc[key] < 0:
            raise ParseError(f"{prefix}{key}: expected a non-negative integer")
    values = _matrix_in(doc["values"], doc["agents"], doc["items"], prefix + "values")
    return Instance(values)


def parse_instance(text: str) -> Instance:
    return _instance_in(_load(text, _INSTANCE_KEYS))


def _matrix_in(raw, n: int, m: int, where: str) -> tuple:
    """An agents x items matrix of rationals from a list of lists.

    Well-formed rows go to `rational_rows` as they are; only when a shape
    check fails or the kernel rejects an entry are the rows walked again,
    in order, to name the first bad row or entry.
    """
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"{where}: row count differs from agents")
    if all(isinstance(row, list) and len(row) == m for row in raw):
        try:
            return rational_rows(raw)
        except (TypeError, ValueError):
            pass
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"{where}[{i}]: length differs from items")
        for t, v in enumerate(row):
            _rational_in(v, f"{where}[{i}][{t}]")
    raise AssertionError("rational_rows rejected an entry that as_rational reads")


def _ids_out(items: frozenset, lists: dict) -> list:
    """The sorted 1-based ids of `items`; `lists` maps each set already
    written to its list, so equal sets share one list, which `_dump`
    joins once per depth."""
    ids = lists.get(items)
    if ids is None:
        ids = lists[items] = sorted(t + 1 for t in items)
    return ids


def _bundles_out(alloc: Allocation, lists: dict) -> list:
    return [_ids_out(b, lists) for b in alloc.bundles]


_INT = frozenset({int})


def _items_in(raw, num_items: int, where: str, sets: dict) -> frozenset:
    """0-based items from a list of distinct item ids in 1..num_items (bools
    are not ids); `sets` maps the ids of each list already read, against
    the same num_items, to its set."""
    if not isinstance(raw, list):
        raise ParseError(f"{where}: expected a list of item ids")
    # True == 1 and 1.0 == 1, so only a list of exact ints is a key: a
    # tuple of anything else would let [true] or [1.0] pass as [1].
    key = tuple(raw) if {*map(type, raw)} <= _INT else None
    items = sets.get(key)
    if items is None:
        for t in raw:  # raises whenever key is None
            if type(t) is not int or t < 1:
                raise ParseError(f"{where}: bad item id {t!r}")
            if t > num_items:
                raise ParseError(
                    f"{where}: item id {t} out of range 1..{num_items}"
                )
        items = frozenset(t - 1 for t in raw)
        if len(items) < len(raw):
            repeated = next(t for t in raw if raw.count(t) > 1)
            raise ParseError(f"{where}: repeated item id {repeated!r}")
        sets[key] = items
    return items


def _bundles_in(raw, inst: Instance, where: str, sets: dict) -> Allocation:
    n, m = inst.num_agents, inst.num_items
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"{where}: expected {n} bundles")
    return Allocation(
        tuple(_items_in(b, m, f"{where}[{i}]", sets) for i, b in enumerate(raw))
    )


def _partition_in(alloc: Allocation, m: int, where: str) -> Allocation:
    """`alloc` itself, once its bundles hold each of the m items exactly
    once; errors give the 1-based item id and the bundles in `where`."""
    bundles = alloc.bundles
    if sum(map(len, bundles)) == m == len(frozenset().union(*bundles)):
        return alloc
    holder = {}
    for j, bundle in enumerate(bundles):
        for t in sorted(bundle):
            if t in holder:
                raise ParseError(
                    f"{where}: item id {t + 1} is in {where}[{holder[t]}] "
                    f"and {where}[{j}]"
                )
            holder[t] = j
    missing = min(set(range(m)) - holder.keys())
    raise ParseError(f"{where}: item id {missing + 1} is in no bundle")


def serialize_allocation(alloc: Allocation) -> str:
    return _dump(
        {"format_version": FORMAT_VERSION, "bundles": _bundles_out(alloc, {})}
    )


def parse_allocation(text: str, inst: Instance) -> Allocation:
    doc = _load(text, ("bundles",))
    alloc = _bundles_in(doc["bundles"], inst, "bundles", {})
    return _partition_in(alloc, inst.num_items, "bundles")


def serialize_certificate(cert: EfrCertificate) -> str:
    """A witness differs from the base only on the realloc set, so the
    certificate's n(n+1) bundles hold few distinct sets; each is sorted
    once."""
    lists = {}
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "base": _bundles_out(cert.base, lists),
            "realloc_set": _ids_out(cert.realloc_set, lists),
            "witnesses": [_bundles_out(w, lists) for w in cert.witnesses],
        }
    )


def parse_certificate(text: str, inst: Instance) -> EfrCertificate:
    doc = _load(text, ("base", "realloc_set", "witnesses"))
    sets = {}  # each distinct bundle is checked and built once
    base = _bundles_in(doc["base"], inst, "base", sets)
    _partition_in(base, inst.num_items, "base")
    realloc = _items_in(
        doc["realloc_set"], inst.num_items, "realloc_set", sets
    )
    if not isinstance(doc["witnesses"], list):
        raise ParseError("witnesses: expected a list of allocations")
    witnesses = tuple(
        _bundles_in(w, inst, f"witnesses[{i}]", sets)
        for i, w in enumerate(doc["witnesses"])
    )
    return EfrCertificate(base, realloc, witnesses)


def serialize_perturbed(pert: PerturbedInstance) -> str:
    p = pert.params
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "base": _instance_out(pert.base),
            "eps": [
                [_rational_out(e) for e in row] for row in pert.eps_matrix
            ],
            "params": {
                "lambda_lb": _rational_out(p.lambda_lb),
                "Lambda": _rational_out(p.Lambda),
                "omega_lb": _rational_out(p.omega_lb),
                "eta": _rational_out(p.eta),
                "epsilon": _rational_out(p.epsilon),
            },
        }
    )


def parse_perturbed(text: str) -> PerturbedInstance:
    from .welfare import PerturbedInstance, PerturbParams

    doc = _load(text, ("base", "eps", "params"))
    raw_base = _fields(doc["base"], _INSTANCE_KEYS, "base", "base.")
    base = _instance_in(raw_base, "base.")
    eps = _matrix_in(doc["eps"], base.num_agents, base.num_items, "eps")
    names = ("lambda_lb", "Lambda", "omega_lb", "eta", "epsilon")
    raw = _fields(doc["params"], names, "params", "params.")
    params = PerturbParams(
        **{key: _rational_in(raw[key], f"params.{key}") for key in names}
    )
    return PerturbedInstance(base, eps, params)
