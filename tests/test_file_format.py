"""The JSON writer and the strict parsers of `harness`.

`_dump` must give the bytes of `json.dumps(obj, indent=2)` plus a newline.
Every parser must turn any JSON document into its value or a `ParseError`
(or another `ValueError`); no input may raise anything else, which the CLI
would report as an internal error.
"""

import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mannafair.algorithms import conflict_aware_picking, efr_n_minus_1
from mannafair.core import Allocation, EfrCertificate
from mannafair.harness import (
    ParseError,
    _dump,
    gen_identical_chores,
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
from mannafair.oracles import min_efr_k
from mannafair.welfare import perturb_nondegenerate

from conftest import format1_text

DATA = Path(__file__).parent / "data"

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(10**80), 10**80)
    | st.floats()
    | st.text()
    | st.sampled_from(["1/2", "-3", "1/0", "0.5", "1e5", "1_0", 'q"\\\né\U0001f600'])
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=20,
)
DEEP = JSON.map(lambda v: {"a": [[{"b": [v, [], {}]}]]})  # depth >= 4


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(JSON | DEEP)
    @example({"kéy\n": [True, False, None, 1.5, -0.0, [], {}, "☃\t"]})
    @example([[1, 2], [True, 1], [1.0], [2**70, -1]])
    def test_matches_json_dumps_indent_2(self, doc):
        assert _dump(doc) == json.dumps(doc, indent=2) + "\n"

    def test_non_string_key_is_refused(self):
        with pytest.raises(TypeError):
            _dump({1: 2})


def _paths(doc, path=()):
    """The path of every node of `doc`, the root included."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, (*path, i))


def _node(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _edit(doc, path, how, value):
    """A copy of `doc` whose node at `path` is replaced by `value`, deleted,
    or grown by `value` (appended to a list, or added to an object)."""
    doc = json.loads(json.dumps(doc))
    if how == "replace" and not path:
        return value
    if how == "grow":
        node = _node(doc, path)
        if isinstance(node, list):
            node.append(value)
        else:
            node[f"extra{len(node)}"] = value
        return doc
    parent = _node(doc, path[:-1])
    if how == "replace":
        parent[path[-1]] = value
    else:
        del parent[path[-1]]
    return doc


def _documents():
    """Valid files of each kind, with the parser that reads them."""
    inst = gen_random(3, 4, 9, F(1, 2), seed=2)
    _, cert = min_efr_k(inst, efr_n_minus_1(inst).base)
    pert = perturb_nondegenerate(gen_random(2, 3, 9, F(1, 2), seed=4))
    return {
        "instance": (serialize_instance(inst), parse_instance),
        "allocation": (
            serialize_allocation(cert.base), lambda text: parse_allocation(text, inst)
        ),
        "certificate": (
            serialize_certificate(cert), lambda text: parse_certificate(text, inst)
        ),
        "certificate-1": (
            format1_text(cert), lambda text: parse_certificate(text, inst)
        ),
        "perturbed": (serialize_perturbed(pert), parse_perturbed),
    }


DOCUMENTS = _documents()


@st.composite
def edited_documents(draw):
    """A valid file with one to three of its fields replaced by arbitrary
    JSON, deleted, or grown by an extra entry."""
    kind = draw(st.sampled_from(sorted(DOCUMENTS)))
    text, parse = DOCUMENTS[kind]
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        how = draw(st.sampled_from(["replace", "delete", "grow"]))
        if how == "delete" and not path:
            how = "replace"
        if how == "grow" and not isinstance(_node(doc, path), (list, dict)):
            how = "replace"
        doc = _edit(doc, path, how, draw(JSON))
    return kind, parse, json.dumps(doc)


class TestParserFuzzing:
    @settings(max_examples=600, deadline=None)
    @given(edited_documents())
    def test_every_edit_parses_or_is_a_parse_error(self, case):
        _, parse, text = case
        try:
            parse(text)
        except ValueError:  # ParseError, or a check of the built value
            pass

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(DOCUMENTS)), JSON)
    def test_any_document_parses_or_is_a_parse_error(self, kind, doc):
        try:
            DOCUMENTS[kind][1](json.dumps(doc))
        except ValueError:
            pass


# the benchmark's poly-large instances, gen_random(n, m, 9, chore_prob, 1),
# with the solver it runs on each
POLY_LARGE = [
    ((20, 500, F(1, 2)), efr_n_minus_1),
    ((40, 700, F(1, 2)), efr_n_minus_1),
    ((20, 500, F(0)), conflict_aware_picking),
    ((40, 700, F(0)), conflict_aware_picking),
]


class TestCertificateFiles:
    @pytest.mark.parametrize("args, solve", POLY_LARGE)
    def test_large_certificates_round_trip_in_the_json_layout(self, args, solve):
        n, m, chore_prob = args
        inst = gen_random(n, m, 9, chore_prob, seed=1)
        cert = solve(inst)
        text = serialize_certificate(cert)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert parse_certificate(text, inst) == cert
        old = format1_text(cert)
        assert parse_certificate(old, inst) == cert
        # n owner vectors of R instead of n witness allocations of [m]
        assert len(text) * 10 < len(old)

    def test_a_format_1_file_is_the_test_writers_rendering(self):
        """The format-1 writer of the tests gives the bytes of a file that
        an earlier release wrote, and reading it back gives the vectors."""
        inst = parse_instance((DATA / "mixed-4x9.json").read_text())
        text = (DATA / "mixed-4x9-cert-v1.json").read_text()
        cert = parse_certificate(text, inst)
        assert format1_text(cert) == text
        assert parse_certificate(serialize_certificate(cert), inst) == cert

    def test_equal_bundles_share_one_set(self):
        inst = gen_random(8, 40, 9, F(1, 2), seed=3)
        back = parse_certificate(serialize_certificate(efr_n_minus_1(inst)), inst)
        pairs = [
            (mine, base)
            for witness in back.witnesses
            for mine, base in zip(witness.bundles, back.base.bundles)
        ]
        assert all(mine is base or mine != base for mine, base in pairs)
        assert any(mine is base for mine, base in pairs)

    @pytest.mark.parametrize(
        "entry, message",
        [("true", "bad item id True"), ("1.0", "bad item id 1.0"),
         ("[1]", r"bad item id \[1\]"), ('{"a": 1}', "bad item id {'a': 1}"),
         ("1, 1", "repeated item id 1")],
    )
    def test_a_bad_copy_of_a_read_bundle_is_rejected(self, entry, message):
        inst = gen_identical_chores(2)
        text = (
            '{"base": [[1], []], "realloc_set": [1],'
            ' "witnesses": [[[1], []], [[%s], []]]}' % entry
        )
        with pytest.raises(ParseError, match=r"witnesses\[1\]\[0\]: " + message):
            parse_certificate(text, inst)

    @pytest.mark.parametrize(
        "entry, message",
        [("true", "agent id True not in"), ("1.0", "agent id 1.0 not in"),
         ("[1]", r"agent id \[1\] not in"), ('{"a": 1}', "agent id {'a': 1} not in"),
         ("0", r"agent id 0 not in 1\.\.2"), ("3", r"agent id 3 not in 1\.\.2"),
         ("1, 1", "expected 1 agent ids, one per realloc_set item")],
    )
    def test_a_bad_owner_vector_is_rejected(self, entry, message):
        inst = gen_identical_chores(2)
        text = (
            '{"format_version": 2, "base": [[1], []], "realloc_set": [1],'
            ' "witness_owners": [[2], [%s]]}' % entry
        )
        with pytest.raises(ParseError, match=r"witness_owners\[1\]: " + message):
            parse_certificate(text, inst)

    def test_a_certificate_without_an_owner_vector_is_not_written(self):
        # of_witnesses reads a witness that moves two items into one bundle
        # as None, which format 2 cannot hold
        base = Allocation(({0}, {1}))
        two = Allocation(({0, 1}, set()))
        cert = EfrCertificate.of_witnesses(base, {0}, [base, two])
        assert cert.owners == ((0,), None)
        with pytest.raises(ValueError, match="agent index 1 has no owner vector"):
            serialize_certificate(cert)
