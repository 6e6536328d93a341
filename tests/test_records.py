"""The library's immutable value classes: construction by position and by
keyword, defaults, field-wise equality and hashing, immutability, repr,
and the validation and trimming done on construction."""

import copy
import pickle

import pytest

from delta_forge import (
    ClassifiedCocycle,
    CocycleReport,
    DecompositionWord,
    DeltaMapHandle,
    GaHomParams,
    GmHomParams,
    HBlockComponents,
    HomReport,
    JetPresentation,
    PermFactor,
    RingParams,
    SFactor,
    TwistedCocycleParams,
)
from delta_forge.errors import InputError, ShapeError
from delta_forge.matrices import SquareMatrix
from delta_forge.rings import make_ring
from delta_forge.selftest import CriterionResult

RING = make_ring(5, 3)
A, B = RING.from_int(2), RING.from_int(3)
WA, WB = "WittElement([2], p=5, prec=3)", "WittElement([3], p=5, prec=3)"
V = SquareMatrix.diagonal(RING, [A, B])
HANDLE = DeltaMapHandle(abs, 1)

# (class, field names, field values, the same values with one changed, repr)
CASES = [
    (RingParams, ("p", "prec", "m", "modulus"), (5, 3, 1, (0, 1)), (7, 3, 1, (0, 1)),
     "RingParams(p=5, prec=3, m=1, modulus=(0, 1))"),
    (GaHomParams, ("lam",), ((A, B),), ((A,),), f"GaHomParams(lam=({WA}, {WB}))"),
    (GmHomParams, ("lam",), ((A,),), ((B,),), f"GmHomParams(lam=({WA},))"),
    (TwistedCocycleParams, ("mu", "s"), (A, 2), (A, -2),
     f"TwistedCocycleParams(mu={WA}, s=2)"),
    (HomReport, ("passed", "samples", "law", "counterexample"), (True, 3, "additive", None),
     (True, 4, "additive", None),
     "HomReport(passed=True, samples=3, law='additive', counterexample=None)"),
    (ClassifiedCocycle, ("omega", "v"), (GmHomParams((A,)), V), (GmHomParams((B,)), V),
     f"ClassifiedCocycle(omega=GmHomParams(lam=({WA},)), v=SquareMatrix([['{WA}', "
     f"'WittElement([0], p=5, prec=3)'], ['WittElement([0], p=5, prec=3)', '{WB}']]))"),
    (DeltaMapHandle, ("evaluator", "order"), (abs, 1), (abs, 2),
     "DeltaMapHandle(evaluator=<built-in function abs>, order=1)"),
    (CocycleReport, ("passed", "samples", "precision", "counterexample"),
     (False, 2, 3, {"g": 1}), (False, 2, 3, {"g": 2}),
     "CocycleReport(passed=False, samples=2, precision=3, counterexample={'g': 1})"),
    (HBlockComponents, ("handle", "ring", "n"), (HANDLE, RING, 2), (HANDLE, RING, 3),
     "HBlockComponents(handle=DeltaMapHandle(evaluator=<built-in function abs>, order=1), "
     "ring=WittRing(p=5, prec=3, m=1), n=2)"),
    (PermFactor, ("sigma",), ((1, 0),), ((0, 1),), "PermFactor(sigma=(1, 0))"),
    (SFactor, ("a", "b"), (A, (B,)), (B, (B,)), f"SFactor(a={WA}, b=({WB},))"),
    (DecompositionWord, ("n", "factors"), (2, (PermFactor((1, 0)),)),
     (2, (PermFactor((0, 1)),)), "DecompositionWord(n=2, factors=(PermFactor(sigma=(1, 0)),))"),
    (JetPresentation, ("generators", "level", "base_count"), ((), 1, 0), ((), 2, 0),
     "JetPresentation(generators=(), level=1, base_count=0)"),
    (CriterionResult, ("name", "passed", "detail", "seconds"), ("c", True, "ok", 0.5),
     ("c", False, "ok", 0.5), "CriterionResult(name='c', passed=True, detail='ok', seconds=0.5)"),
]
IDS = [case[0].__name__ for case in CASES]

# values whose every field is hashable
HASHABLE = [
    (RingParams, (5, 3)),
    (RingParams, (7, 2, 2, (3, 1, 1))),
    (GaHomParams, ((),)),
    (TwistedCocycleParams, (7, 2)),
    (DeltaMapHandle, (abs, 1)),
    (HBlockComponents, (HANDLE, RING, 2)),
    (PermFactor, ((1, 0),)),
    (DecompositionWord, (2, (PermFactor((1, 0)),))),
    (JetPresentation, ((), 1, 0)),
]


def test_every_value_class_is_covered():
    assert len(CASES) == 14


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, names, values, other, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for obj in (by_position, by_keyword):
        assert [getattr(obj, name) for name in names] == list(values)
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*values, None)


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_equality_is_field_wise(cls, names, values, other, text):
    x = cls(*values)
    assert x == cls(*values) and not x != cls(*values)
    assert x != cls(*other) and not x == cls(*other)
    # another class with equal fields is not equal
    assert x != tuple(values) and x != object()


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_repr(cls, names, values, other, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, names, values, other, text", CASES, ids=IDS)
def test_assignment_raises(cls, names, values, other, text):
    x = cls(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert [getattr(x, name) for name in names] == list(values)


@pytest.mark.parametrize("cls, values", HASHABLE, ids=[c.__name__ for c, _ in HASHABLE])
def test_equal_values_hash_equal(cls, values):
    assert hash(cls(*values)) == hash(cls(*values))


def test_ring_params_as_dict_key():
    table = {RingParams(5, 3): "a", RingParams(p=7, prec=2, m=2, modulus=(3, 1, 1)): "b"}
    assert table[RingParams(p=5, prec=3, m=1, modulus=(0, 1))] == "a"
    assert table[RingParams(7, 2, 2, (10, 8, 1))] == "b"
    assert RingParams(5, 4) not in table


def test_defaults():
    assert RingParams(5, 3) == RingParams(5, 3, 1, (0, 1))
    assert RingParams(p=5, prec=3).m == 1
    assert RingParams(p=5, prec=3).modulus == (0, 1)
    assert HomReport(True, 3, "additive").counterexample is None
    assert CocycleReport(True, 2, 3).counterexample is None


def test_ring_params_validation():
    for kwargs in ({"p": 2, "prec": 3}, {"p": 9, "prec": 3}, {"p": 1, "prec": 3},
                   {"p": 5, "prec": 1}, {"p": 5, "prec": 3, "m": 0},
                   {"p": 5, "prec": 3, "modulus": (0, 2)},
                   {"p": 5, "prec": 3, "m": 2, "modulus": (4, 0, 1)},  # t^2 - 1, reducible
                   {"p": 5, "prec": 3, "m": 2, "modulus": (2, 0, 2)},  # not monic
                   {"p": 5, "prec": 3, "m": 2, "modulus": (2, 1)},     # wrong degree
                   {"p": 5, "prec": 3, "m": 2}):
        with pytest.raises(InputError):
            RingParams(**kwargs)


def test_ring_params_normalise_the_modulus():
    assert RingParams(5, 3, 1, [0, 1]).modulus == (0, 1)
    assert RingParams(5, 3, 2, [7, 5, 6]).modulus == (2, 0, 1)
    assert RingParams(5, 3, 2, (7, 5, 6)) == RingParams(5, 3, 2, (2, 0, 1))
    assert RingParams(5, 3, 2, (2, 0, 1)).q == 25


def test_hom_params_trim_zero_coefficients():
    zero = RING.zero
    assert GaHomParams((A, zero, zero)).lam == (A,)
    assert GaHomParams([zero, A, zero]).lam == (zero, A)
    assert GaHomParams((zero,)).lam == () and GaHomParams((zero,)).order == 0
    assert GaHomParams((A, B)).order == 1
    assert GmHomParams((A, B, zero)).lam == (A, B)
    assert GmHomParams((A, B, zero)).order == 2
    assert GmHomParams((zero, zero)) == GmHomParams(())


def test_twisted_params_reject_zero_exponent():
    with pytest.raises(InputError):
        TwistedCocycleParams(A, 0)
    with pytest.raises(InputError):
        TwistedCocycleParams(mu=A, s=0)


def test_decomposition_word_must_alternate():
    perm, s = PermFactor((0, 1)), SFactor(A, (B,))
    for n, factors in ((2, ()), (2, (perm, s)), (2, (s,)), (2, (perm, perm, perm)),
                       (2, (perm, s, s)), (3, (perm,)), (3, (PermFactor((0, 1, 2)), s, perm))):
        with pytest.raises(ShapeError):
            DecompositionWord(n, factors)
    assert DecompositionWord(2, (perm, s, perm)).length == 1


def test_block_memo_takes_no_part_in_equality_or_repr():
    calls = []

    def evaluator(g):
        calls.append(g)
        return g

    handle = DeltaMapHandle(evaluator, 0)
    warm, cold = HBlockComponents(handle, RING, 2), HBlockComponents(handle, RING, 2)
    assert warm.alpha(A, [B]) == A and len(calls) == 1
    assert warm.beta(A, [B])[0] == B and len(calls) == 1
    assert warm == cold and hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert "_memo=" not in repr(warm)


def test_copy_and_pickle_rebuild_equal_values():
    values = (RingParams(5, 3, 2, (2, 0, 1)), GmHomParams((A,)), PermFactor((1, 0)),
              DecompositionWord(2, (PermFactor((1, 0)),)), HomReport(True, 3, "additive"))
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)
