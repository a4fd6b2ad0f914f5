"""Pinned outputs of the polynomial pipeline.

Recorded once from the implementation that compared `Fraction` values and
rescanned the remaining items on every greedy pick, before the integer value
kernel replaced it.  The picking loop's per-iteration picks were read off
the differences between consecutive bundle snapshots of the trace that
copied every partial bundle on each iteration, before it recorded only the
picks.  Values in {1, 2} (or {-2, -1}) make most picks ties, so
the rows pin the lowest-index tie-breaking of every picker as well as the
picks themselves.

The fixed-n digests were recorded from the search under the closed-form
perturbation, where each entry's eps comes from its own prime.  They pin
the certificate in format 1 (`conftest.format1_text`, every witness
allocation in full) and the weights, so the first hit, every witness and
the certified weight vector stay byte-identical, and each pinned output is
checked as well: a valid certificate with |R| <= n - 1 whose base and
witnesses are Pareto optimal by brute force.  The weights are the least
point of the ratio closure scaled up to the simplex; `mixed-3x5` and
`mixed-4x4` were re-pinned when it replaced the simplex, whose vertex
differed there, with their format-1 certificates unchanged.
"""

import hashlib
from fractions import Fraction as F

import pytest

from mannafair import algorithms, fixed_n
from mannafair.core import Allocation, Instance, validate_certificate
from mannafair.harness import gen_identical_chores, gen_paired_goods, gen_random
from mannafair.oracles import is_pareto_optimal_bruteforce

from conftest import format1_text

# name -> (n, m, chore_prob, seed) for gen_random with value_range 2
RANDOM = {
    "mixed-3x8": (3, 8, "1/2", 0),
    "mixed-4x10": (4, 10, "1/2", 1),
    "mixed-5x12": (5, 12, "1/2", 2),
    "mixed-2x7": (2, 7, "1/2", 3),
    "mixed-6x14": (6, 14, "1/2", 4),
    "mixed-3x9": (3, 9, "1/2", 5),
    "chores-4x9": (4, 9, "1", 6),
    "chores-3x7": (3, 7, "1", 7),
    "goods-4x10": (4, 10, "0", 8),
    "goods-5x12": (5, 12, "0", 9),
    "goods-6x11": (6, 11, "0", 10),
    "goods-3x9": (3, 9, "0", 11),
    "goods-1x5": (1, 5, "0", 12),
    "mixed-3x0": (3, 0, "1/2", 13),
}

RATIONAL = Instance(
    (
        (F(1, 2), F(-1, 3), F(2, 7), F(0), F(1, 2)),
        (F(1, 3), F(1, 3), F(-1, 2), F(3, 10), F(0)),
        (F(-2, 3), F(1, 6), F(1, 6), F(1, 2), F(-1, 7)),
    )
)


def build(name):
    if name == "rational-3x5":
        return RATIONAL
    if name == "paired-6":
        return gen_paired_goods(6)
    n, m, chore_prob, seed = RANDOM[name]
    return gen_random(n, m, 2, F(chore_prob), seed)


# drr: double_round_robin_ef1; ttc: resolve_top_trading_cycles on the drr
# bundles shifted by one agent; efr_*: efr_n_minus_1; reserve/iterations/
# picks: run_picking_rounds, picks holding each trace state's picks;
# goods_rr: extend_with_round_robin (goods rows only)
PINNED = {
    'mixed-3x8': {
        'drr': [[0, 2], [3, 4, 5], [1, 6, 7]],
        'ttc': [[0, 2], [3, 4, 5], [1, 6, 7]],
        'efr_realloc': [2, 4],
        'efr_base': [[0, 2], [3, 4, 5], [1, 6, 7]],
    },
    'mixed-4x10': {
        'drr': [[2, 6], [4, 7], [0, 3, 5], [1, 8, 9]],
        'ttc': [[4, 7], [0, 3, 5], [1, 8, 9], [2, 6]],
        'efr_realloc': [4],
        'efr_base': [[2, 6], [4, 7], [0, 3, 5], [1, 8, 9]],
    },
    'mixed-5x12': {
        'drr': [[2, 9], [8, 10], [0, 4, 11], [3, 5], [1, 6, 7]],
        'ttc': [[8, 10], [0, 4, 11], [3, 5], [1, 6, 7], [2, 9]],
        'efr_realloc': [1, 5, 9],
        'efr_base': [[2, 9], [8, 10], [0, 4, 11], [3, 5], [1, 6, 7]],
    },
    'mixed-2x7': {
        'drr': [[0, 1, 3], [2, 4, 5, 6]],
        'ttc': [[0, 1, 3], [2, 4, 5, 6]],
        'efr_realloc': [2],
        'efr_base': [[0, 1, 3], [2, 4, 5, 6]],
    },
    'mixed-6x14': {
        'drr': [[10, 12], [5, 7], [3, 4], [0, 2, 9], [11, 13], [1, 6, 8]],
        'ttc': [[10, 12], [5, 7], [3, 4], [0, 2, 9], [11, 13], [1, 6, 8]],
        'efr_realloc': [0, 5, 7],
        'efr_base': [[10, 12], [5, 7], [3, 4], [0, 2, 9], [11, 13], [1, 6, 8]],
    },
    'mixed-3x9': {
        'drr': [[0, 4], [2, 3, 7], [1, 5, 6, 8]],
        'ttc': [[0, 4], [2, 3, 7], [1, 5, 6, 8]],
        'efr_realloc': [0, 6],
        'efr_base': [[0, 4], [2, 3, 7], [1, 5, 6, 8]],
    },
    'chores-4x9': {
        'drr': [[2, 6], [1, 5], [3, 7], [0, 4, 8]],
        'ttc': [[2, 6], [3, 7], [0, 4, 8], [1, 5]],
        'efr_realloc': [0, 1, 3],
        'efr_base': [[2, 6], [1, 5], [3, 7], [0, 4, 8]],
    },
    'chores-3x7': {
        'drr': [[2, 5], [1, 3], [0, 4, 6]],
        'ttc': [[1, 3], [0, 4, 6], [2, 5]],
        'efr_realloc': [1, 6],
        'efr_base': [[2, 5], [1, 3], [0, 4, 6]],
    },
    'goods-4x10': {
        'drr': [[1, 7], [2, 6], [3, 5, 9], [0, 4, 8]],
        'ttc': [[2, 6], [3, 5, 9], [0, 4, 8], [1, 7]],
        'efr_realloc': [0, 2, 5],
        'efr_base': [[1, 7], [2, 6], [3, 5, 9], [0, 4, 8]],
        'reserve': [9],
        'iterations': 3,
        'picks': [[1, 0, 3, 2], [5, 4, 7, 6], [8, None, None, None]],
        'goods_rr': [[1, 5, 8], [0, 4, 9], [3, 7], [2, 6]],
    },
    'goods-5x12': {
        'drr': [[3, 7], [8, 10], [4, 5], [0, 2, 11], [1, 6, 9]],
        'ttc': [[8, 10], [4, 5], [1, 6, 9], [0, 2, 11], [3, 7]],
        'efr_realloc': [0, 1, 3],
        'efr_base': [[3, 7], [8, 10], [4, 5], [0, 2, 11], [1, 6, 9]],
        'reserve': [4],
        'iterations': 3,
        'picks': [[0, 8, 1, 2, 3], [7, 10, 5, 11, 6], [9, None, None, None, None]],
        'goods_rr': [[0, 7, 9], [4, 8, 10], [1, 5], [2, 11], [3, 6]],
    },
    'goods-6x11': {
        'drr': [[5], [3, 10], [4, 9], [1, 8], [2, 6], [0, 7]],
        'ttc': [[3, 10], [4, 9], [1, 8], [2, 6], [0, 7], [5]],
        'efr_realloc': [0, 1, 2],
        'efr_base': [[5], [3, 10], [4, 9], [1, 8], [2, 6], [0, 7]],
        'reserve': [2],
        'iterations': 2,
        'picks': [[1, 0, 4, 5, 6, 7], [3, 8, 9, 10, None, None]],
        'goods_rr': [[1, 3], [0, 8], [4, 9], [5, 10], [2, 6], [7]],
    },
    'goods-3x9': {
        'drr': [[1, 4, 6], [3, 7, 8], [0, 2, 5]],
        'ttc': [[1, 4, 6], [3, 7, 8], [0, 2, 5]],
        'efr_realloc': [1, 5],
        'efr_base': [[1, 4, 6], [3, 7, 8], [0, 2, 5]],
        'reserve': [0],
        'iterations': 3,
        'picks': [[1, 3, 5], [4, 7, 2], [6, 8, None]],
        'goods_rr': [[0, 1, 4, 6], [3, 7, 8], [2, 5]],
    },
    'goods-1x5': {
        'drr': [[0, 1, 2, 3, 4]],
        'ttc': [[0, 1, 2, 3, 4]],
        'efr_realloc': [],
        'efr_base': [[0, 1, 2, 3, 4]],
        'reserve': [],
        'iterations': 5,
        'picks': [[0], [1], [2], [3], [4]],
        'goods_rr': [[0, 1, 2, 3, 4]],
    },
    'mixed-3x0': {
        'drr': [[], [], []],
        'ttc': [[], [], []],
        'efr_realloc': [],
        'efr_base': [[], [], []],
        'reserve': [],
        'iterations': 0,
        'picks': [],
        'goods_rr': [[], [], []],
    },
    'rational-3x5': {
        'drr': [[2, 4], [0], [1, 3]],
        'ttc': [[0], [1, 3], [2, 4]],
        'efr_realloc': [1, 2],
        'efr_base': [[2, 4], [0], [1, 3]],
    },
    'paired-6': {
        'drr': [[], [], [], [1], [0], [2]],
        'ttc': [[], [], [1], [0], [2], []],
        'efr_realloc': [0, 1, 2],
        'efr_base': [[], [], [], [1], [0], [2]],
        'reserve': [0, 1, 2],
        'iterations': 1,
        'picks': [[None, None, None, None, None, None]],
        'goods_rr': [[0], [1], [2], [], [], []],
    },
}


def bundles(alloc):
    return [sorted(b) for b in alloc.bundles]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pipeline_outputs_are_pinned(name):
    inst, want = build(name), PINNED[name]
    drr = algorithms.double_round_robin_ef1(inst)
    assert bundles(drr) == want["drr"]
    shifted = Allocation(drr.bundles[1:] + drr.bundles[:1])
    ttc = algorithms.resolve_top_trading_cycles(inst, shifted)
    assert bundles(ttc) == want["ttc"]
    cert = algorithms.efr_n_minus_1(inst)
    assert sorted(cert.realloc_set) == want["efr_realloc"]
    assert bundles(cert.base) == want["efr_base"]
    if "reserve" not in want:
        return
    partial, reserved, trace = algorithms.run_picking_rounds(inst)
    assert sorted(reserved) == want["reserve"]
    assert len(trace) == want["iterations"]
    assert [list(state.picks) for state in trace] == want["picks"]
    extended = algorithms.extend_with_round_robin(inst, partial, reserved)
    assert bundles(extended) == want["goods_rr"]


# name -> (n, m, value_range, chore_prob, seed) for gen_random
FIXED_N = {
    "goods-2x5": (2, 5, 2, "0", 0),
    "mixed-2x5": (2, 5, 9, "1/2", 0),
    "chores-2x5": (2, 5, 2, "1", 0),
    "goods-3x5": (3, 5, 2, "0", 0),
    "mixed-3x5": (3, 5, 9, "1/2", 0),
    "chores-3x5": (3, 5, 2, "1", 0),
    "goods-3x6": (3, 6, 2, "0", 3),
    "goods-4x4": (4, 4, 9, "0", 0),
    "goods-4x5": (4, 5, 3, "0", 1),
    "mixed-4x4": (4, 4, 9, "1/2", 1),
    "chores-4x5": (4, 5, 2, "1", 1),
}

# SHA-256 of search_efr_po's certificate in format 1 followed by its
# weights, joined by spaces; the comments give |R|
FIXED_N_PINNED = {
    'goods-2x5': (  # |R| = 1
        'cd4eab9f1f03eebd11e3ba80c2a3646c1c8d7b395191729d352b043de8542031'
    ),
    'mixed-2x5': (  # |R| = 0
        '57e922a3ea782c9cf081434af166e239d0592df076ff608ad6b5c023cd5fca22'
    ),
    'chores-2x5': (  # |R| = 0
        'f9502d9c8a25a15032b70bbcb7808740b6193ef30c6eed945f6dbe6b607d6124'
    ),
    'goods-3x5': (  # |R| = 1
        'e0096a3ce3865502b76e9760a95342dcd6cc147f796919d1f012f4a901379c8a'
    ),
    'mixed-3x5': (  # |R| = 0
        '01864df89bde067661291bc0f85f7b0e3c6edd241b4ae63b60bc4b777eb6858e'
    ),
    'chores-3x5': (  # |R| = 1
        'bf7e17964054ad262e25cf7efc94bfa47a7acc2f24179bf5b1302faca305a1c2'
    ),
    'goods-3x6': (  # |R| = 1
        'b369b3c53badbbfc3446eb3a5aef7b5c788a3c088b336546fe0ff12af22c2cb8'
    ),
    'goods-4x4': (  # |R| = 2
        'a7aab48ee742e4c2646d59753079f107eb3cd69e551b88dec1d860be949b5cb7'
    ),
    'goods-4x5': (  # |R| = 1
        '299bcdd5af61f8d828624ba1765ade22f8d5f6ce9fb317868bae6f8273e3efbc'
    ),
    'mixed-4x4': (  # |R| = 1
        'c41f28eec7417de4f48af741702c25ba2e9b9ac1787b2bd53cbf5fff7100601d'
    ),
    'chores-4x5': (  # |R| = 1
        'c354c76a34c03ec1833aaaf64143d4ab9802ac9cb7f271463d2445797a299511'
    ),
    'rational-3x5': (  # |R| = 0
        'b7ec650440a03fd8fc6517e6f190dfa23b10c78116e29017b787f0bd654035a1'
    ),
    'identical-chores-4': (  # |R| = 3
        'a303979aaf626a34506783a677f9a1c888668c24696ce40f8642a488d5f987fd'
    ),
}


def build_fixed_n(name):
    if name == "rational-3x5":
        return RATIONAL
    if name == "identical-chores-4":
        return gen_identical_chores(4)
    n, m, value_range, chore_prob, seed = FIXED_N[name]
    return gen_random(n, m, value_range, F(chore_prob), seed)


@pytest.mark.parametrize("name", sorted(FIXED_N_PINNED))
def test_fixed_n_outputs_are_pinned(name):
    inst = build_fixed_n(name)
    alloc, cert, w = fixed_n.search_efr_po(inst)
    assert cert.base == alloc
    text = format1_text(cert) + " ".join(map(str, w.weights))
    assert hashlib.sha256(text.encode()).hexdigest() == FIXED_N_PINNED[name]
    assert validate_certificate(inst, cert)
    assert len(cert.realloc_set) <= inst.num_agents - 1
    for placed in (alloc, *cert.witnesses):
        assert is_pareto_optimal_bruteforce(inst, placed)
