"""Pinned outputs of the polynomial pipeline.

Recorded once from the implementation that compared `Fraction` values and
rescanned the remaining items on every greedy pick, before the integer value
kernel replaced it.  The picking loop's per-iteration picks were read off
the differences between consecutive bundle snapshots of the trace that
copied every partial bundle on each iteration, before it recorded only the
picks.  Values in {1, 2} (or {-2, -1}) make most picks ties, so
the rows pin the lowest-index tie-breaking of every picker as well as the
picks themselves.

The fixed-n digests were recorded from the search that built a full
allocation and profile for every placement, before its witnesses became
moves on the base.  They pin the serialized certificate and the weights, so
the first hit, every witness and the LP vertex stay byte-identical.
"""

import hashlib
from fractions import Fraction as F

import pytest

from mannafair import algorithms, fixed_n
from mannafair.core import Allocation, Instance
from mannafair.harness import (
    gen_identical_chores,
    gen_paired_goods,
    gen_random,
    serialize_certificate,
)

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

# SHA-256 of search_efr_po's serialize_certificate(cert) followed by its
# weights, joined by spaces; the comments give |R|
FIXED_N_PINNED = {
    'goods-2x5': (  # |R| = 1
        'a936925b50887479ddc592c51d366874d26e5c645a6b786c98331f09a334014f'
    ),
    'mixed-2x5': (  # |R| = 0
        '24101272a3851852db6c61f0edb8076511ed1a579a5ea64aa5e5b7e815e42865'
    ),
    'chores-2x5': (  # |R| = 1
        'f040c0444df3485a1ed8ae7f61a50ff6587f75eb4d3781bb2bb81a7847f41184'
    ),
    'goods-3x5': (  # |R| = 1
        '36cd637481554c31ee8d7004252e8d3d552c9991bae4dc3a6bc0ff627ae1cd68'
    ),
    'mixed-3x5': (  # |R| = 0
        'af179d60cc0efec009b6d6726b95e62861cbec32841b7ad44fee916557004bae'
    ),
    'chores-3x5': (  # |R| = 1
        '00f05ab753d22d12d7236b72034ccefdb89f1caf7dfddd0c2f2c90c880cf77d2'
    ),
    'goods-3x6': (  # |R| = 1
        'bc22e67673fb692a6f13bd02afd0dfd1e1e1cc261842b77d04c81e24b7ca8fec'
    ),
    'goods-4x4': (  # |R| = 2
        'edb5dc12c53037c87398be9082743c7232e1b3dae7b0ae11cc966bb564296d20'
    ),
    'goods-4x5': (  # |R| = 2
        'ede62ee41ac6e4ba99847b674233fdd2a8abf3b12e386b98b16018dfa0329256'
    ),
    'mixed-4x4': (  # |R| = 1
        'f17053b33f102939a6693a5f9de398bb4325aded0e6a8af771c0e3a012c41be3'
    ),
    'chores-4x5': (  # |R| = 1
        '9628825ff3fc84dae84dfc6c71e612d83c756f3fdf1093506ce145cb3243d75f'
    ),
    'rational-3x5': (  # |R| = 0
        '542da1ac55ad6ace12bfdabd0278e5ccc20dd5d346f3ba3ad278958b6faf1c36'
    ),
    'identical-chores-4': (  # |R| = 3
        'be7d94d8ddfc9f3c33207b48334bd1d4cb321aa064f32538a2e76880e79cc0b5'
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
    alloc, cert, w = fixed_n.search_efr_po(build_fixed_n(name))
    assert cert.base == alloc
    text = serialize_certificate(cert) + " ".join(map(str, w.weights))
    assert hashlib.sha256(text.encode()).hexdigest() == FIXED_N_PINNED[name]
