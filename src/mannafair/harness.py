"""Instance generators and the on-disk JSON formats.

All files are JSON with a fixed key order so serialization is canonical
and diff-friendly, in the layout of `json.dumps(indent=2)`.  Values are
written as integers or "p/q" strings and read from integers or integer,
"p/q" or decimal strings; agent and item indices are 1-based on disk and
0-based in memory.  An error message echoes at most a short, truncated
form of the offending value.  Certificates are format 2, each witness the
agent ids holding R's items in item order; format 1, which lists witness
allocations, is still read.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import (
    Allocation,
    EfrCertificate,
    Instance,
    as_rational,
    rational_rows,
    short_repr,
)

FORMAT_VERSION, CERTIFICATE_VERSION = 1, 2  # certificates read formats 1 and 2


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


def gen_partition_reduction(values: list[int]):
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

    The draws are `rng.randint(1, value_range)` and then
    `rng.randrange(chore_prob.denominator) < chore_prob.numerator`, made
    here as the rejection loops over `getrandbits` that those calls run
    (`Random._randbelow_with_getrandbits`), so each seed gives the
    instance they give, without their three Python frames per draw.
    """
    import random  # only this generator needs it

    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if m < 0:
        raise ValueError(f"m must be at least 0, got {m}")
    if value_range < 1:
        raise ValueError(f"value_range must be at least 1, got {value_range}")
    chore_prob = as_rational(chore_prob)
    if not 0 <= chore_prob <= 1:
        raise ValueError(f"chore_prob must lie in [0, 1], got {chore_prob}")
    # Random seeds from abs(seed), and from the OS for None
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be an integer at least 0, got {short_repr(seed)}")
    getrandbits = random.Random(seed).getrandbits
    num, den = chore_prob.numerator, chore_prob.denominator
    kv, kc = value_range.bit_length(), den.bit_length()
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            v = getrandbits(kv)
            while v >= value_range:
                v = getrandbits(kv)
            c = getrandbits(kc)  # exact Bernoulli(chore_prob): c < num
            while c >= den:
                c = getrandbits(kc)
            row.append(-1 - v if c < num else v + 1)
        rows.append(tuple(row))
    return Instance(tuple(rows))


# --- serialization ------------------------------------------------------------


def _rational_out(v: Fraction):
    return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _rational_in(raw, where: str) -> Fraction:
    try:
        return as_rational(raw)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: bad rational {short_repr(raw)}") from exc


def _dump(obj) -> str:
    """The text of `json.dumps(obj, indent=2)` plus a newline.

    `indent` makes `json.dumps` run its pure-Python encoder.  This writer
    renders a list of plain ints with one join.  Scalars and dict keys go
    through `json.dumps`; a key that is not a string is refused.
    """
    out = []

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
        elif {*map(type, value)} == {int}:
            out.append(f"[{inner}" + ("," + inner).join(map(str, value)) + f"{outer}]")
            return
        else:
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


def _instance_out(inst: Instance, metadata: dict | None = None) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "agents": inst.num_agents,
        "items": inst.num_items,
        "values": [[_rational_out(v) for v in row] for row in inst.values],
    }
    if metadata:
        doc["metadata"] = metadata
    return doc


def serialize_instance(inst: Instance, metadata: dict | None = None) -> str:
    return _dump(_instance_out(inst, metadata))


def _fields(doc, keys, where, prefix="", versions=(FORMAT_VERSION,)) -> dict:
    """`doc` itself, once it is a JSON object holding every key in `keys`
    and stating no format_version outside `versions` (absent means 1)."""
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected a JSON object")
    for key in keys:
        if key not in doc:
            raise ParseError(f"missing field {prefix + key!r}")
    version = doc.get("format_version", FORMAT_VERSION)
    if type(version) is not int or version not in versions:
        raise ParseError(
            f"{prefix}format_version: unsupported version {short_repr(version)}"
        )
    return doc


def _load(text: str, keys: tuple[str, ...], versions=(FORMAT_VERSION,)) -> dict:
    """Decode a JSON object with `keys`; a stated format_version in `versions`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    except RecursionError:
        raise ParseError("top level: arrays or objects nested too deeply") from None
    except ValueError as exc:  # an integer over the int-to-str digit limit
        raise ParseError(f"top level: {exc}") from None
    return _fields(doc, keys, "top level", "", versions)


_INSTANCE_KEYS = ("format_version", "agents", "items", "values")


def _instance_in(doc: dict, prefix: str = "") -> Instance:
    """The instance of a checked instance object; errors name prefix + field."""
    for key, least, what in (("agents", 1, "positive"), ("items", 0, "non-negative")):
        if type(doc[key]) is not int or doc[key] < least:
            raise ParseError(f"{prefix}{key}: expected a {what} integer")
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


def _ids_out(items: frozenset) -> list:
    return sorted(t + 1 for t in items)


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
                raise ParseError(f"{where}: bad item id {short_repr(t)}")
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
    bundles = list(map(_ids_out, alloc.bundles))
    return _dump({"format_version": FORMAT_VERSION, "bundles": bundles})


def parse_allocation(text: str, inst: Instance) -> Allocation:
    doc = _load(text, ("bundles",))
    alloc = _bundles_in(doc["bundles"], inst, "bundles", {})
    return _partition_in(alloc, inst.num_items, "bundles")


def serialize_certificate(cert: EfrCertificate) -> str:
    for i in (i for i, v in enumerate(cert.owners) if v is None):  # the first
        raise ValueError(f"agent index {i} has no owner vector of realloc_set")
    return _dump(
        {
            "format_version": CERTIFICATE_VERSION,
            "base": list(map(_ids_out, cert.base.bundles)),
            "realloc_set": _ids_out(cert.realloc_set),
            "witness_owners": [[a + 1 for a in v] for v in cert.owners],
        }
    )


def _owners_in(raw, n: int, size: int) -> list:
    """The 0-based owner vectors of n lists of `size` agent ids in 1..n."""
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"witness_owners: expected {n} owner vectors, one per agent")
    for i, v in enumerate(raw):
        at = f"witness_owners[{i}]: "
        if not isinstance(v, list) or len(v) != size:
            raise ParseError(f"{at}expected {size} agent ids, one per realloc_set item")
        for a in v:
            if type(a) is not int or not 1 <= a <= n:
                raise ParseError(f"{at}agent id {short_repr(a)} not in 1..{n}")
    return [[a - 1 for a in v] for v in raw]


def parse_certificate(text: str, inst: Instance) -> EfrCertificate:
    """A format-2 certificate, or a format-1 one, whose n witness
    allocations `EfrCertificate.of_witnesses` reads as owner vectors."""
    doc = _load(text, ("base", "realloc_set"), (1, CERTIFICATE_VERSION))
    version = doc.get("format_version", 1)
    key = "witnesses" if version == 1 else "witness_owners"
    _fields(doc, (key,), "top level", "", (version,))
    n, m, sets = inst.num_agents, inst.num_items, {}  # each distinct bundle built once
    base = _partition_in(_bundles_in(doc["base"], inst, "base", sets), m, "base")
    realloc = _items_in(doc["realloc_set"], m, "realloc_set", sets)
    if key == "witness_owners":
        return EfrCertificate(base, realloc, _owners_in(doc[key], n, len(realloc)))
    if not isinstance(doc[key], list):
        raise ParseError("witnesses: expected a list of allocations")
    witnesses = [
        _bundles_in(w, inst, f"witnesses[{i}]", sets) for i, w in enumerate(doc[key])
    ]
    # counted after the entries, so an error inside one is reported first
    if len(witnesses) != n:
        raise ParseError(f"witnesses: expected {n} allocations, one per agent")
    return EfrCertificate.of_witnesses(base, realloc, witnesses)


def serialize_perturbed(pert: PerturbedInstance) -> str:
    p = pert.params
    return _dump(
        {
            "format_version": FORMAT_VERSION,
            "base": _instance_out(pert.base),
            "eps": [
                [_rational_out(e) for e in row] for row in pert.eps_matrix
            ],
            "params": {key: _rational_out(getattr(p, key)) for key in p._fields},
        }
    )


def parse_perturbed(text: str) -> PerturbedInstance:
    from .welfare import PerturbedInstance, PerturbParams

    doc = _load(text, ("base", "eps", "params"))
    raw_base = _fields(doc["base"], _INSTANCE_KEYS, "base", "base.")
    base = _instance_in(raw_base, "base.")
    eps = _matrix_in(doc["eps"], base.num_agents, base.num_items, "eps")
    names = PerturbParams._fields
    raw = _fields(doc["params"], names, "params", "params.")
    params = PerturbParams(
        **{key: _rational_in(raw[key], f"params.{key}") for key in names}
    )
    return PerturbedInstance(base, eps, params)
