"""The contract of the nine frozen value classes.

Each class is built positionally and by keyword, compares and hashes by
its declared fields only, prints as `Name(field=value, ...)` and refuses
attribute assignment.  Derived state (`Instance.scaled`,
`PerturbedInstance._pert` and `scaled`, `EfrCertificate.witnesses`) stays
out of `==`, `hash` and `repr`.  A new
`FrozenRecord` that declares only `_fields` and `__init__` gets the same.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from mannafair.algorithms import PickingState
from mannafair.core import Allocation, EfrCertificate, EnvyGraph, FrozenRecord, Instance
from mannafair.oracles import EfrDecision
from mannafair.welfare import (
    PerturbedInstance,
    PerturbParams,
    WeightVector,
)

INST = Instance(((1, F(-1, 2)), (0, 2)))
ALLOC = Allocation(({0}, {1}))
OTHER_ALLOC = Allocation(({1}, {0}))
CERT = EfrCertificate(ALLOC, {1}, [[1], (0,)])
PARAMS = PerturbParams(F(1), F(2), F(1), F(1, 8), F(1, 100))
EPS = ((F(1, 100), F(1, 200)), (F(1, 300), F(1, 400)))
PERT = PerturbedInstance(INST, EPS, PARAMS)

# class -> (declared fields, positional arguments, a different value for
# each field, the exact repr of cls(*arguments))
CASES = {
    Instance: (
        ("values",),
        (((1, F(-1, 2)), (0, 2)),),
        (((1, F(-1, 2)), (0, 3)),),
        "Instance(values=((Fraction(1, 1), Fraction(-1, 2)), "
        "(Fraction(0, 1), Fraction(2, 1))))",
    ),
    Allocation: (
        ("bundles",),
        (({0}, {1}),),
        (({1}, {0}),),
        "Allocation(bundles=(frozenset({0}), frozenset({1})))",
    ),
    EnvyGraph: (
        ("num_agents", "edges"),
        (2, frozenset({(0, 1)})),
        (3, frozenset()),
        "EnvyGraph(num_agents=2, edges=frozenset({(0, 1)}))",
    ),
    EfrCertificate: (
        ("base", "realloc_set", "owners"),
        (ALLOC, {1}, [[1], (0,)]),
        (OTHER_ALLOC, {0}, [(0,), (0,)]),
        "EfrCertificate(base=Allocation(bundles=(frozenset({0}), "
        "frozenset({1}))), realloc_set=frozenset({1}), owners=((1,), (0,)))",
    ),
    PerturbParams: (
        ("lambda_lb", "Lambda", "omega_lb", "eta", "epsilon"),
        (F(1), F(2), F(1), F(1, 8), F(1, 100)),
        (F(2), F(4), F(2), F(1, 16), F(1, 1000)),
        "PerturbParams(lambda_lb=Fraction(1, 1), Lambda=Fraction(2, 1), "
        "omega_lb=Fraction(1, 1), eta=Fraction(1, 8), epsilon=Fraction(1, 100))",
    ),
    WeightVector: (
        ("weights",),
        ((F(1, 2), "1/2"),),
        ((1, 0),),
        "WeightVector(weights=(Fraction(1, 2), Fraction(1, 2)))",
    ),
    PerturbedInstance: (
        ("base", "eps_matrix", "params"),
        (INST, EPS, PARAMS),
        (
            Instance(((1, F(-1, 2)), (0, 3))),
            ((F(1, 100),) * 2,) * 2,
            PerturbParams(F(2), F(4), F(2), F(1, 16), F(1, 1000)),
        ),
        "PerturbedInstance(base=Instance(values=((Fraction(1, 1), "
        "Fraction(-1, 2)), (Fraction(0, 1), Fraction(2, 1)))), "
        "eps_matrix=((Fraction(1, 100), Fraction(1, 200)), "
        "(Fraction(1, 300), Fraction(1, 400))), "
        "params=PerturbParams(lambda_lb=Fraction(1, 1), Lambda=Fraction(2, 1), "
        "omega_lb=Fraction(1, 1), eta=Fraction(1, 8), epsilon=Fraction(1, 100)))",
    ),
    EfrDecision: (
        ("verdict", "certificate"),
        (True, CERT),
        (False, None),
        "EfrDecision(verdict=True, certificate=" + repr(CERT) + ")",
    ),
    PickingState: (
        ("active", "deferred", "reserved", "picks"),
        (frozenset({0}), frozenset({1}), frozenset({2}), (4, None)),
        (frozenset(), frozenset(), frozenset(), ()),
        "PickingState(active=frozenset({0}), deferred=frozenset({1}), "
        "reserved=frozenset({2}), picks=(4, None))",
    ),
}

CLASSES = list(CASES)
IDS = [cls.__name__ for cls in CLASSES]


def build(cls):
    return cls(*CASES[cls][1])


def field_values(obj):
    return tuple(getattr(obj, name) for name in CASES[type(obj)][0])


def test_every_record_class_has_a_case():
    # the four modules imported above define every record of the package
    records = {
        cls for cls in FrozenRecord.__subclasses__()
        if cls.__module__.startswith("mannafair.")
    }
    assert set(CASES) == records and len(CASES) == 9


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestValueClass:
    def test_positional_and_keyword_forms_agree(self, cls):
        fields, args, _, _ = CASES[cls]
        by_position = cls(*args)
        by_keyword = cls(**dict(zip(fields, args)))
        mixed = cls(args[0], **dict(zip(fields[1:], args[1:])))
        assert by_position == by_keyword == mixed
        assert field_values(by_position) == field_values(by_keyword)

    def test_missing_or_extra_arguments_are_refused(self, cls):
        fields, args, _, _ = CASES[cls]
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*args, args[-1])
        with pytest.raises(TypeError):
            cls(*args, unknown=1)
        with pytest.raises(TypeError):
            cls(*args, **{fields[0]: args[0]})

    def test_equal_fields_are_equal_and_hash_alike(self, cls):
        a, b = build(cls), build(cls)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b) == hash(field_values(a))
        assert len({a, b}) == 1

    def test_each_field_takes_part_in_equality(self, cls):
        fields, args, others, _ = CASES[cls]
        base = cls(*args)
        for k, other in enumerate(others):
            changed = list(args)
            changed[k] = other
            assert base != cls(*changed), fields[k]
            assert not base == cls(*changed), fields[k]

    def test_other_types_are_not_equal(self, cls):
        obj = build(cls)
        assert obj.__eq__(field_values(obj)) is NotImplemented
        assert obj != field_values(obj)
        assert obj != object()

    def test_repr(self, cls):
        assert repr(build(cls)) == CASES[cls][3]

    def test_frozen(self, cls):
        fields = CASES[cls][0]
        obj = build(cls)
        before = field_values(obj)
        for name in (*fields, "unknown"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert field_values(obj) == before
        assert not hasattr(obj, "unknown")

    def test_copy_and_pickle_round_trip(self, cls):
        obj = build(cls)
        for twin in (
            copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))
        ):
            assert type(twin) is cls
            assert twin == obj and hash(twin) == hash(obj)


def test_constructors_normalize_their_fields():
    assert INST.values == ((F(1), F(-1, 2)), (F(0), F(2)))
    assert all(type(v) is F for row in INST.values for v in row)
    assert ALLOC.bundles == (frozenset({0}), frozenset({1}))
    assert type(ALLOC.bundles) is tuple
    assert all(type(b) is frozenset for b in ALLOC.bundles)
    assert type(CERT.realloc_set) is frozenset
    assert CERT.owners == ((1,), (0,))
    assert type(CERT.owners) is tuple
    assert all(type(v) is tuple for v in CERT.owners)
    assert EfrCertificate(ALLOC, {1}, [[True], None]).owners == ((1,), None)
    with pytest.raises(TypeError):
        EfrCertificate(ALLOC, {1}, [[1.0], [0]])
    assert WeightVector(("1/4", 0, F(3, 4))).weights == (F(1, 4), F(0), F(3, 4))
    eps = PerturbedInstance(INST, [["1/100", 0], [0, 0]], PARAMS).eps_matrix
    assert eps == ((F(1, 100), F(0)), (F(0), F(0)))


def test_constructors_validate_their_fields():
    with pytest.raises(ValueError):
        Instance(())
    with pytest.raises(ValueError):
        Instance(((1, 2), (3,)))
    with pytest.raises(ValueError):
        WeightVector((F(1, 2), F(1, 4)))
    with pytest.raises(ValueError):
        WeightVector((F(3, 2), F(-1, 2)))
    with pytest.raises(ValueError):
        PerturbParams(F(1), F(2), F(1), F(0), F(1, 100))
    with pytest.raises(ValueError):
        PerturbParams(F(1), F(2), F(1), F(1), F(1, 100))
    with pytest.raises(ValueError):
        PerturbParams(F(1), F(2), F(1), F(1, 8), F(0))
    with pytest.raises(ValueError):
        PerturbedInstance(INST, ((F(1, 100),),), PARAMS)


def test_efr_decision_certificate_defaults_to_none():
    decision = EfrDecision(False)
    assert decision.certificate is None
    assert decision == EfrDecision(verdict=False, certificate=None)
    assert repr(decision) == "EfrDecision(verdict=False, certificate=None)"


def test_scaled_is_cached_and_outside_equality_hash_and_repr():
    fresh, used = Instance(INST.values), Instance(INST.values)
    text, digest = repr(used), hash(used)
    scaled = used.scaled
    assert scaled == ((2, -1), (0, 2))
    assert used.scaled is scaled  # computed once
    assert used == fresh and fresh == used
    assert hash(used) == digest == hash(fresh)
    assert repr(used) == text


def test_witnesses_are_cached_and_outside_equality_hash_and_repr():
    fresh, used = EfrCertificate(*CASES[EfrCertificate][1]), copy.copy(CERT)
    text, digest = repr(used), hash(used)
    witnesses = used.witnesses
    assert witnesses == (ALLOC, Allocation(({0, 1}, set())))
    assert used.witnesses is witnesses  # built once
    assert witnesses[0].bundles == ALLOC.bundles
    assert used == fresh and hash(used) == digest == hash(fresh)
    assert repr(used) == text
    assert EfrCertificate(ALLOC, {1}, [None, (1,)]).witnesses == (None, ALLOC)


def test_perturbed_scaled_is_built_on_first_use():
    twin = PerturbedInstance(INST, EPS, PARAMS)
    assert "scaled" not in vars(twin)
    scaled = twin.scaled
    assert scaled == ((198, -101), (-4, 2397))  # each row times its LCM
    assert twin.scaled is scaled
    assert twin == PERT and hash(twin) == hash(PERT) and repr(twin) == repr(PERT)


def test_pert_is_outside_equality_hash_and_repr():
    twin = PerturbedInstance(INST, EPS, PARAMS)
    assert twin.pert_values == PERT.pert_values
    assert twin.pert_value(1, 0) == F(-1, 300)
    object.__setattr__(twin, "_pert", ((F(0),) * 2,) * 2)
    assert twin.pert_values != PERT.pert_values
    assert twin == PERT and hash(twin) == hash(PERT)
    assert "_pert" not in repr(twin)


class One(FrozenRecord):
    _fields = ("a",)

    def __init__(self, a):
        object.__setattr__(self, "a", a)


class Three(FrozenRecord):
    _fields = ("a", "b", "c")

    def __init__(self, a, b, c):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


@pytest.mark.parametrize(
    "cls, args, text",
    [
        (One, ((1, 2),), "One(a=(1, 2))"),
        (Three, (1, "x", frozenset({2})), "Three(a=1, b='x', c=frozenset({2}))"),
    ],
    ids=["one-field", "three-fields"],
)
def test_a_new_record_derives_its_key_from_fields(cls, args, text):
    obj, twin = cls(*args), cls(*args)
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin) == hash(args)
    assert obj.__eq__(args) is NotImplemented and obj != args
    assert obj != cls(*args[:-1], None)
    assert repr(obj) == text
    with pytest.raises(AttributeError):
        obj.a = 0
    with pytest.raises(AttributeError):
        del obj.a
    assert obj.a == args[0]
