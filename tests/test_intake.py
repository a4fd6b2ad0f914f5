"""The intake kernel `core.rational_rows` and the paths that read through it.

Every path that builds values (`Instance`, `PerturbedInstance`,
`WeightVector`, `check_nondegenerate` and the file readers) converts each
entry exactly once; a plain int maps to one shared `Fraction` per distinct
value, and nothing the kernel accepts or rejects differs from `as_rational`.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mannafair import core, harness
from mannafair.core import Instance, as_rational, rational_rows
from mannafair.harness import (
    ParseError,
    _matrix_in,
    _rational_in,
    gen_random,
    parse_instance,
    parse_perturbed,
    serialize_instance,
    serialize_perturbed,
)
from mannafair.welfare import (
    PerturbedInstance,
    WeightVector,
    check_nondegenerate,
    perturb_nondegenerate,
)


class Half(F):
    """A Fraction subclass, which the kernel reads like any other value."""


def reference_matrix_in(raw, n, m, where):
    """The per-entry reader that `_matrix_in` replaced: the reference for
    its results and error messages."""
    if not isinstance(raw, list) or len(raw) != n:
        raise ParseError(f"{where}: row count differs from agents")
    rows = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"{where}[{i}]: length differs from items")
        rows.append(
            tuple(_rational_in(v, f"{where}[{i}][{t}]") for t, v in enumerate(row))
        )
    return tuple(rows)


def instance_text(values):
    n = len(values)
    m = len(values[0]) if values else 0
    return json.dumps(
        {"format_version": 1, "agents": n, "items": m, "values": values}
    )


class TestKernel:
    @pytest.mark.parametrize("row", [(1, True), (1, 1.0), (True,), (2, 1, 1.0)])
    def test_bools_and_floats_rejected_after_an_equal_int(self, row):
        with pytest.raises(TypeError):
            rational_rows([row])
        with pytest.raises(TypeError):
            Instance((row,))

    def test_a_fraction_is_kept_and_returned_itself(self):
        half = F(1, 2)
        assert rational_rows([(half,)])[0][0] is half
        assert as_rational(half) is half

    def test_a_fraction_subclass_is_read_as_a_plain_fraction(self):
        (row,) = rational_rows([(Half(1, 2), Half(3))])
        assert row == (F(1, 2), F(3))
        assert all(type(v) is F for v in row)

    def test_strings_and_mixed_rows_are_read_as_as_rational_reads_them(self):
        raw = [("1/2", 3, F(1, 3), "-0.25"), ("7", "+4/6", 3, Half(5, 1))]
        assert rational_rows(raw) == tuple(
            tuple(as_rational(v) for v in row) for row in raw
        )

    @pytest.mark.parametrize("bad", ["1e5", "1/0", "x", None, [1], 0.5])
    def test_a_bad_entry_raises_as_as_rational_does(self, bad):
        with pytest.raises((TypeError, ValueError)) as ours:
            rational_rows([(1, 2), (3, bad)])
        with pytest.raises((TypeError, ValueError)) as theirs:
            as_rational(bad)
        assert type(ours.value) is type(theirs.value)
        assert str(ours.value) == str(theirs.value)

    def test_equal_ints_share_one_fraction_within_a_call(self):
        rows = rational_rows([(5, -5, 10**30), (5, -5, 10**30)])
        assert rows[0][0] is rows[1][0]
        assert rows[0][2] is rows[1][2]
        again = rational_rows([(5,)])
        assert again[0][0] == rows[0][0]

    def test_instances_from_ints_fractions_and_strings_are_equal(self):
        ints = Instance(((1, -2, 3), (0, 4, -9)))
        fractions = Instance(((F(1), F(-2), F(3)), (F(0), F(4), F(-9))))
        strings = Instance((("1", "-2", "3"), ("0", "4/1", "-9")))
        assert ints == fractions == strings
        assert hash(ints) == hash(fractions) == hash(strings)
        assert ints.scaled == strings.scaled

    def test_weights_perturbations_and_the_nondegeneracy_check_read_alike(self):
        assert WeightVector((0, "1/4", F(3, 4))).weights == (F(0), F(1, 4), F(3, 4))
        with pytest.raises(TypeError):
            WeightVector((1, True))
        assert check_nondegenerate([(1, "2")]) == check_nondegenerate([(F(1), F(2))])
        with pytest.raises(TypeError):
            check_nondegenerate([(1, 0.5)])
        pert = perturb_nondegenerate(gen_random(2, 3, 9, F(1, 2), seed=4))
        strings = tuple(tuple(str(e) for e in row) for row in pert.eps_matrix)
        assert PerturbedInstance(pert.base, strings, pert.params) == pert


class TestFileIntake:
    @pytest.mark.parametrize(
        "values, where",
        [([[1, 2], [3, True]], r"values\[1\]\[1\]"),
         ([[1, 1.0], [3, 4]], r"values\[0\]\[1\]"),
         ([[1, 2], ["1/0", "x"]], r"values\[1\]\[0\]"),
         ([["1e5", 2], [3, 4]], r"values\[0\]\[0\]")],
    )
    def test_a_bad_entry_names_values_i_t(self, values, where):
        with pytest.raises(ParseError, match=where + ": bad rational"):
            parse_instance(instance_text(values))

    def test_a_bad_eps_entry_names_eps_i_t(self):
        pert = perturb_nondegenerate(gen_random(2, 3, 9, F(1, 2), seed=4))
        doc = json.loads(serialize_perturbed(pert))
        doc["eps"][1][2] = True
        with pytest.raises(ParseError, match=r"^eps\[1\]\[2\]: bad rational True$"):
            parse_perturbed(json.dumps(doc))

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(0, 3),
        st.integers(0, 3),
        st.lists(
            st.lists(
                st.integers(-3, 3)
                | st.sampled_from(["1/2", "-4", "1/0", "1e3", "x"])
                | st.booleans()
                | st.floats(-2, 2)
                | st.none(),
                max_size=4,
            )
            | st.integers(),
            max_size=4,
        )
        | st.integers(),
    )
    def test_same_matrix_or_same_error_as_the_per_entry_reader(self, n, m, raw):
        try:
            expected = reference_matrix_in(raw, n, m, "values")
        except ParseError as exc:
            with pytest.raises(ParseError) as ours:
                _matrix_in(raw, n, m, "values")
            assert str(ours.value) == str(exc)
        else:
            assert _matrix_in(raw, n, m, "values") == expected

    def test_large_integer_file_converts_no_entry_twice(self, monkeypatch):
        original = gen_random(40, 700, 9, F(1, 2), seed=1)
        text = serialize_instance(original)
        calls = []

        def counted(x):
            calls.append(x)
            return as_rational(x)

        # the kernel and the file reader look as_rational up at call time
        monkeypatch.setattr(core, "as_rational", counted)
        monkeypatch.setattr(harness, "as_rational", counted)
        inst = parse_instance(text)
        assert calls == []
        distinct = {id(v) for row in inst.values for v in row}
        assert len(distinct) <= 18  # values lie in +-[1, 9]
        assert inst == original
