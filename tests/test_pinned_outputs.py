"""Pinned outputs of the polynomial pipeline.

Recorded once from the implementation that compared `Fraction` values and
rescanned the remaining items on every greedy pick, before the integer value
kernel replaced it.  Values in {1, 2} (or {-2, -1}) make most picks ties, so
the rows pin the lowest-index tie-breaking of every picker as well as the
picks themselves.
"""

from fractions import Fraction as F

import pytest

from mannafair import algorithms
from mannafair.core import Allocation, Instance
from mannafair.harness import gen_paired_goods, gen_random

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
# bundles shifted by one agent; efr_*: efr_n_minus_1; reserve/iterations:
# run_picking_rounds; goods_rr: extend_with_round_robin (goods rows only)
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
        'goods_rr': [[1, 5, 8], [0, 4, 9], [3, 7], [2, 6]],
    },
    'goods-5x12': {
        'drr': [[3, 7], [8, 10], [4, 5], [0, 2, 11], [1, 6, 9]],
        'ttc': [[8, 10], [4, 5], [1, 6, 9], [0, 2, 11], [3, 7]],
        'efr_realloc': [0, 1, 3],
        'efr_base': [[3, 7], [8, 10], [4, 5], [0, 2, 11], [1, 6, 9]],
        'reserve': [4],
        'iterations': 3,
        'goods_rr': [[0, 7, 9], [4, 8, 10], [1, 5], [2, 11], [3, 6]],
    },
    'goods-6x11': {
        'drr': [[5], [3, 10], [4, 9], [1, 8], [2, 6], [0, 7]],
        'ttc': [[3, 10], [4, 9], [1, 8], [2, 6], [0, 7], [5]],
        'efr_realloc': [0, 1, 2],
        'efr_base': [[5], [3, 10], [4, 9], [1, 8], [2, 6], [0, 7]],
        'reserve': [2],
        'iterations': 2,
        'goods_rr': [[1, 3], [0, 8], [4, 9], [5, 10], [2, 6], [7]],
    },
    'goods-3x9': {
        'drr': [[1, 4, 6], [3, 7, 8], [0, 2, 5]],
        'ttc': [[1, 4, 6], [3, 7, 8], [0, 2, 5]],
        'efr_realloc': [1, 5],
        'efr_base': [[1, 4, 6], [3, 7, 8], [0, 2, 5]],
        'reserve': [0],
        'iterations': 3,
        'goods_rr': [[0, 1, 4, 6], [3, 7, 8], [2, 5]],
    },
    'goods-1x5': {
        'drr': [[0, 1, 2, 3, 4]],
        'ttc': [[0, 1, 2, 3, 4]],
        'efr_realloc': [],
        'efr_base': [[0, 1, 2, 3, 4]],
        'reserve': [],
        'iterations': 5,
        'goods_rr': [[0, 1, 2, 3, 4]],
    },
    'mixed-3x0': {
        'drr': [[], [], []],
        'ttc': [[], [], []],
        'efr_realloc': [],
        'efr_base': [[], [], []],
        'reserve': [],
        'iterations': 0,
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
    extended = algorithms.extend_with_round_robin(inst, partial, reserved)
    assert bundles(extended) == want["goods_rr"]
