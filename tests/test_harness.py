"""Instance generators and the canonical JSON file format."""

import itertools
import json
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mannafair.core import Allocation, Instance
from mannafair.oracles import decide_efr_k, min_efr_k, solve_partition
from mannafair.welfare import perturb_nondegenerate
from mannafair.harness import (
    ParseError,
    gen_identical_chores,
    gen_paired_goods,
    gen_partition_reduction,
    gen_random,
    parse_allocation,
    parse_certificate,
    parse_instance,
    parse_perturbed,
    serialize_allocation,
    serialize_certificate,
    serialize_instance,
    serialize_perturbed,
)

from conftest import format1_text


def all_allocations(n, m):
    for assignment in itertools.product(range(n), repeat=m):
        bundles = [set() for _ in range(n)]
        for t, a in enumerate(assignment):
            bundles[a].add(t)
        yield Allocation(tuple(frozenset(b) for b in bundles))


class TestGenIdenticalChores:
    def test_two_agents(self):
        inst = gen_identical_chores(2)
        assert inst.num_agents == 2
        assert inst.num_items == 1
        assert inst.values == ((F(-1),), (F(-1),))

    def test_four_agents(self):
        inst = gen_identical_chores(4)
        assert inst.num_items == 3
        assert all(v == -1 for row in inst.values for v in row)

    def test_three_agents_every_allocation_needs_two_items(self):
        inst = gen_identical_chores(3)
        for alloc in all_allocations(3, 2):
            assert min_efr_k(inst, alloc)[0] == 2

    def test_rejects_single_agent(self):
        with pytest.raises(ValueError):
            gen_identical_chores(1)


class TestGenPairedGoods:
    def test_two_agents(self):
        inst = gen_paired_goods(2)
        assert inst.values == ((F(1),), (F(1),))

    def test_four_agents(self):
        inst = gen_paired_goods(4)
        assert inst.num_items == 2
        assert inst.values == (
            (F(1), F(0)),
            (F(1), F(0)),
            (F(0), F(1)),
            (F(0), F(1)),
        )

    def test_four_agents_every_allocation_needs_two_items(self):
        inst = gen_paired_goods(4)
        for alloc in all_allocations(4, 2):
            assert min_efr_k(inst, alloc)[0] == 2

    def test_rejects_odd_n(self):
        with pytest.raises(ValueError):
            gen_paired_goods(3)


class TestGenPartitionReduction:
    def test_shape(self):
        inst, alloc, k = gen_partition_reduction([1, 1])
        assert k == 2
        assert inst.num_agents == 5
        assert inst.num_items == 5
        # identical valuations: -s_i then k+1 copies of -T
        assert inst.values[0] == (F(-1), F(-1), F(-1), F(-1), F(-1))
        assert alloc.bundles[0] == frozenset({0, 1})
        assert alloc.bundles[1] == frozenset()

    def test_partitionable_set_is_efr_k(self):
        inst, alloc, k = gen_partition_reduction([1, 1])
        assert decide_efr_k(inst, alloc, k).verdict

    def test_unpartitionable_set_is_not_efr_k(self):
        inst, alloc, k = gen_partition_reduction([1, 3])
        assert not decide_efr_k(inst, alloc, k).verdict

    def test_four_element_set_with_partition(self):
        inst, alloc, k = gen_partition_reduction([2, 2, 1, 3])
        assert k == 4
        assert decide_efr_k(inst, alloc, k).verdict

    def test_verdict_matches_partition_solver(self):
        for values in [[1, 1], [1, 3], [2, 2], [1, 2, 3], [1, 1, 4]]:
            if sum(values) % 2:
                continue
            inst, alloc, k = gen_partition_reduction(values)
            assert decide_efr_k(inst, alloc, k).verdict == (
                solve_partition(values) is not None
            )

    def test_odd_sum_rejected(self):
        with pytest.raises(ValueError):
            gen_partition_reduction([1, 2])


class TestGenRandom:
    def test_deterministic_given_seed(self):
        a = gen_random(3, 6, 9, F(1, 2), seed=42)
        b = gen_random(3, 6, 9, F(1, 2), seed=42)
        assert a == b
        assert a != gen_random(3, 6, 9, F(1, 2), seed=43)

    def test_chore_prob_zero_gives_all_goods(self):
        inst = gen_random(3, 8, 9, F(0), seed=1)
        assert all(v > 0 for row in inst.values for v in row)

    def test_chore_prob_one_gives_all_chores(self):
        inst = gen_random(3, 8, 9, F(1), seed=1)
        assert all(v < 0 for row in inst.values for v in row)

    def test_values_within_range(self):
        inst = gen_random(4, 10, 5, F(1, 3), seed=7)
        assert all(1 <= abs(v) <= 5 for row in inst.values for v in row)

    def test_rejects_negative_m_and_no_agents(self):
        with pytest.raises(ValueError, match="m must be at least 0"):
            gen_random(2, -1, 9, F(1, 2), seed=1)
        with pytest.raises(ValueError, match="n must be at least 1"):
            gen_random(0, 3, 9, F(1, 2), seed=1)
        assert gen_random(1, 0, 9, F(1, 2), seed=1).num_items == 0

    @pytest.mark.parametrize("seed", [-7, -1, None, True, "7"])
    def test_rejects_a_seed_that_is_no_integer_at_least_0(self, seed):
        # Random seeds from abs(seed), so -7 would draw the instance of 7
        with pytest.raises(ValueError, match="^seed must be an integer at least 0"):
            gen_random(3, 5, 9, F(1, 2), seed)
        assert gen_random(3, 5, 9, F(1, 2), 0).num_items == 5


def ref_gen_random(n, m, value_range, chore_prob, seed):
    """The values drawn by `rng.randint` and `rng.randrange`, the loop that
    `gen_random` ran before it called `getrandbits` itself."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            v = rng.randint(1, value_range)
            if rng.randrange(chore_prob.denominator) < chore_prob.numerator:
                v = -v
            row.append(v)
        rows.append(tuple(row))
    return tuple(rows)


# each side of a power of two, where the rejection loops draw most often
RANGES = [1, 2, 3, 9, 2**31, 2**32, 2**32 + 1, 2**40 + 3]
DENOMINATORS = [2, 3, 7, 2**33 + 1]


def assert_draws_match(n, m, value_range, chore_prob, seed):
    values = gen_random(n, m, value_range, chore_prob, seed).values
    assert all(v.denominator == 1 for row in values for v in row)
    ints = tuple(tuple(v.numerator for v in row) for row in values)
    assert ints == ref_gen_random(n, m, value_range, chore_prob, seed)


class TestGenRandomDraws:
    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 4),
        m=st.integers(0, 30),
        value_range=st.sampled_from(RANGES) | st.integers(1, 2**41),
        chore_prob=st.sampled_from([F(0), F(1)])
        | st.sampled_from(DENOMINATORS).flatmap(
            lambda d: st.integers(0, d).map(lambda k: F(k, d))
        ),
        seed=st.integers(0, 2**64),
    )
    @example(n=4, m=30, value_range=2**40 + 3, chore_prob=F(1, 2**33 + 1), seed=2**64)
    def test_same_values_as_randint_and_randrange(
        self, n, m, value_range, chore_prob, seed
    ):
        assert_draws_match(n, m, value_range, chore_prob, seed)

    @pytest.mark.parametrize("value_range", RANGES)
    @pytest.mark.parametrize(
        "chore_prob", [F(0), F(1), F(1, 2), F(2, 3), F(3, 7), F(2**32, 2**33 + 1)]
    )
    def test_same_values_on_every_pinned_range(self, value_range, chore_prob):
        for seed in (0, 1, 2**32, 2**64):
            assert_draws_match(3, 20, value_range, chore_prob, seed)


class TestInstanceFormat:
    def test_empty_items_round_trip(self):
        inst = Instance(values=((), ()))
        assert parse_instance(serialize_instance(inst)) == inst

    def test_canonical_serialization_is_byte_stable(self):
        inst = gen_identical_chores(4)
        text = serialize_instance(inst)
        assert serialize_instance(parse_instance(text)) == text

    def test_fraction_values_preserved_exactly(self):
        inst = Instance(values=((F(3, 7),), (F(-22, 7),)))
        parsed = parse_instance(serialize_instance(inst))
        assert parsed.values[0][0] == F(3, 7)
        assert parsed.values[1][0] == F(-22, 7)

    def test_parse_error_reports_location(self):
        with pytest.raises(ParseError):
            parse_instance("{not json")
        with pytest.raises(ParseError):
            parse_instance('{"agents": 1, "items": 1}')

    def test_zero_denominator_names_the_entry(self):
        with pytest.raises(ParseError, match=r"values\[0\]\[0\]: bad rational"):
            parse_instance(
                '{"format_version": 1, "agents": 1, "items": 1,'
                ' "values": [["1/0"]]}'
            )

    @pytest.mark.parametrize("value", ["1e10000000", "1E9999999", "1_000", "1/2e5"])
    def test_exponent_and_underscore_forms_rejected(self, value):
        # Fraction(str) would take seconds on the exponents; the check is
        # on the string's form, before any arithmetic
        with pytest.raises(ParseError, match=r"values\[0\]\[0\]: bad rational"):
            parse_instance(
                '{"format_version": 1, "agents": 1, "items": 1,'
                ' "values": [["%s"]]}' % value
            )

    def test_integer_fraction_and_decimal_strings_accepted(self):
        inst = parse_instance(
            '{"format_version": 1, "agents": 1, "items": 4,'
            ' "values": [["-3", "+4/6", "0.25", "7"]]}'
        )
        assert inst.values == ((F(-3), F(2, 3), F(1, 4), F(7)),)

    def test_float_values_rejected(self):
        with pytest.raises(ParseError):
            parse_instance(
                '{"format_version": 1, "agents": 1, "items": 1,'
                ' "values": [[0.5]]}'
            )


class TestAllocationAndCertificateFormat:
    def test_allocation_round_trip(self):
        inst = gen_random(3, 5, 9, F(1, 2), seed=8)
        for alloc in itertools.islice(all_allocations(3, 5), 0, 243, 61):
            text = serialize_allocation(alloc)
            assert parse_allocation(text, inst) == alloc

    def test_certificate_round_trip(self):
        inst = gen_identical_chores(3)
        alloc = Allocation((frozenset({0}), frozenset({1}), frozenset()))
        _, cert = min_efr_k(inst, alloc)
        text = serialize_certificate(cert)
        assert parse_certificate(text, inst) == cert
        assert parse_certificate(format1_text(cert), inst) == cert
        assert json.loads(text) == {
            "format_version": 2,
            "base": [[1], [2], []],
            "realloc_set": [1, 2],
            "witness_owners": [[2, 2], [1, 1], [1, 1]],
        }

    def test_item_ids_are_one_based_on_disk(self):
        alloc = Allocation((frozenset({0}), frozenset({1})))
        assert '"bundles": [\n    [\n      1\n    ],\n    [\n      2' in (
            serialize_allocation(alloc)
        )

    def test_wrong_bundle_count_rejected(self):
        inst = gen_random(3, 2, 9, F(1, 2), seed=1)
        with pytest.raises(ParseError):
            parse_allocation('{"bundles": [[1], [2]]}', inst)


class TestPerturbedFormat:
    def test_round_trip_preserves_eps_exactly(self):
        inst = gen_random(2, 4, 9, F(1, 2), seed=15)
        pert = perturb_nondegenerate(inst)
        parsed = parse_perturbed(serialize_perturbed(pert))
        assert parsed.base == pert.base
        assert parsed.eps_matrix == pert.eps_matrix
        assert parsed.params == pert.params


class TestStrictParsing:
    def test_top_level_must_be_an_object(self):
        inst = gen_identical_chores(2)
        for parse in (
            parse_instance,
            lambda text: parse_allocation(text, inst),
            lambda text: parse_certificate(text, inst),
            parse_perturbed,
        ):
            with pytest.raises(ParseError, match="top level"):
                parse("5")

    def test_realloc_set_entries_are_item_ids(self):
        inst = gen_identical_chores(2)
        doc = (
            '{"base": [[1], []], "realloc_set": [%s],'
            ' "witnesses": [[[1], []], [[], [1]]]}'
        )
        for bad in ('"x"', "true", "0"):
            with pytest.raises(ParseError, match="realloc_set"):
                parse_certificate(doc % bad, inst)
        assert parse_certificate(doc % "1", inst).realloc_set == {0}

    def test_format_2_realloc_set_entries_are_item_ids(self):
        inst = gen_identical_chores(2)
        doc = (
            '{"format_version": 2, "base": [[1], []], "realloc_set": [%s],'
            ' "witness_owners": [[2], [2]]}'
        )
        for bad in ('"x"', "true", "0", "2"):
            with pytest.raises(ParseError, match="realloc_set"):
                parse_certificate(doc % bad, inst)
        cert = parse_certificate(doc % "1", inst)
        assert cert.realloc_set == {0} and cert.owners == ((1,), (1,))

    def test_bool_item_id_rejected(self):
        inst = gen_identical_chores(2)
        with pytest.raises(ParseError, match=r"bundles\[0\]"):
            parse_allocation('{"bundles": [[true], []]}', inst)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"bundles": [[1, 1], [2]]}', r"bundles\[0\]: repeated item id 1"),
            ('{"bundles": [[1], [2, 3, 2]]}', r"bundles\[1\]: repeated item id 2"),
        ],
    )
    def test_repeated_item_id_in_an_allocation_rejected(self, text, field):
        inst = gen_random(2, 3, 9, F(1, 2), seed=1)
        with pytest.raises(ParseError, match=field):
            parse_allocation(text, inst)

    @pytest.mark.parametrize(
        "base, realloc, witness, field",
        [
            ("[1, 1], []", "1", "[1], []", r"base\[0\]"),
            ("[1], []", "1, 1", "[1], []", "realloc_set"),
            ("[1], []", "1", "[], [1, 1]", r"witnesses\[1\]\[1\]"),
        ],
    )
    def test_repeated_item_id_in_a_certificate_rejected(
        self, base, realloc, witness, field
    ):
        inst = gen_identical_chores(2)
        text = (
            '{"base": [%s], "realloc_set": [%s], "witnesses": [[[1], []], [%s]]}'
            % (base, realloc, witness)
        )
        with pytest.raises(ParseError, match=field + ": repeated item id 1"):
            parse_certificate(text, inst)

    def test_bool_counts_rejected(self):
        with pytest.raises(ParseError, match="agents"):
            parse_instance(
                '{"format_version": 1, "agents": true, "items": 1,'
                ' "values": [[1]]}'
            )

    def test_unknown_format_version_rejected(self):
        inst = gen_identical_chores(2)
        text = serialize_instance(inst).replace(
            '"format_version": 1', '"format_version": 99'
        )
        with pytest.raises(ParseError, match="format_version"):
            parse_instance(text)
        with pytest.raises(ParseError, match="format_version"):
            parse_allocation(
                '{"format_version": 99, "bundles": [[1], []]}', inst
            )
        for version in (0, 3, 99, "2", True):
            cert = (
                '{"format_version": %s, "base": [[1], []], "realloc_set": [],'
                ' "witness_owners": [[], []]}' % json.dumps(version)
            )
            with pytest.raises(ParseError, match="format_version"):
                parse_certificate(cert, inst)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc["params"].pop("lambda_lb"), "params.lambda_lb"),
            (lambda doc: doc.update(eps=5), "eps"),
            (lambda doc: doc.update(params=3), "params"),
            (lambda doc: doc["eps"].pop(), "eps"),
            (lambda doc: doc["eps"][1].append(0), r"eps\[1\]"),
            (lambda doc: doc.update(base=[1]), "base: expected a JSON object"),
            (lambda doc: doc["base"].pop("values"), "'base.values'"),
            (lambda doc: doc["base"].update(agents=True), "base.agents"),
            (lambda doc: doc["base"]["values"][0].pop(), r"base.values\[0\]"),
            (
                lambda doc: doc["base"]["values"][1].__setitem__(0, "x"),
                r"base.values\[1\]\[0\]",
            ),
            (
                lambda doc: doc["base"].update(format_version=99),
                "base.format_version",
            ),
        ],
        ids=["params-missing-key", "eps-number", "params-number", "eps-rows",
             "eps-row-length", "base-list", "base-missing-values",
             "base-bool-agents", "base-row-length", "base-bad-rational",
             "base-format-version"],
    )
    def test_perturbed_fields_are_checked(self, edit, field):
        pert = perturb_nondegenerate(gen_random(2, 3, 9, F(1, 2), seed=4))
        doc = json.loads(serialize_perturbed(pert))
        edit(doc)
        with pytest.raises(ParseError, match=field):
            parse_perturbed(json.dumps(doc))
