"""The three sampled law checks against the loops they replaced.

``check_hom``, ``cocycle_check`` and ``coherence_check`` share one seeded
search, ``homs.first_counterexample``.  The ``ref_*`` functions below are
the per-checker loops that each kept before that, with their own
``to_dict``.  For every ring, seed, law or subgroup and map, both sides
must give the same report (``to_dict`` and repr) and call the map on the
same arguments in the same order, which pins the draws.  The maps are
chosen so that some pass, some fail at the first sample and some fail
first at a later one.
"""

import random

import pytest

from delta_forge import (
    ClassifiedCocycle,
    CocycleReport,
    DeltaMapHandle,
    GaHomParams,
    GmHomParams,
    HomReport,
    SquareMatrix,
    TwistedCocycleParams,
    check_hom,
    classified_eval,
    cocycle_check,
    coherence_check,
    ga_hom,
    gm_hom,
    log_derivative_handle,
    random_gl,
    random_sl,
    twisted_cocycle,
)
from delta_forge.cocycles import (
    BOREL,
    CONJUGATED_TORUS,
    SL,
    TORUS,
    _is_diagonal,
    _is_upper,
    _random_borel_point,
    _random_torus_point,
)
from delta_forge.errors import InputError
from delta_forge.homs import ADDITIVE, MULTIPLICATIVE, TWISTED, first_counterexample
from delta_forge.rings import SeriesRing, make_ring
from delta_forge.serialize import elem_to_json

RINGS = {"witt-5^4": make_ring(5, 4), "witt-F9-3^4": make_ring(3, 4, 2),
         "series-t^6": SeriesRing(6)}
SEEDS = [0, 1, 2, 3, 4, "seven"]
SUBGROUPS = [TORUS, SL, BOREL, CONJUGATED_TORUS]
# (law, s) pairs; the twisted law with both signs of s
LAWS = [(ADDITIVE, None), (MULTIPLICATIVE, None), (TWISTED, 2), (TWISTED, -2)]
SAMPLES = 5
N = 2


# ---------------------------------------------------------------------------
# the loops as they were, each with its own to_dict


def ref_hom_dict(rep):
    out = {"pass": rep.passed, "samples": rep.samples, "law": rep.law}
    if rep.counterexample is not None:
        out["counterexample"] = rep.counterexample
    return out


def ref_cocycle_dict(rep):
    out = {"pass": rep.passed, "samples": rep.samples, "precision": rep.precision}
    if rep.counterexample is not None:
        out["counterexample"] = rep.counterexample
    return out


def ref_check_hom(f, law, ring, samples=1000, seed=0, s=None):
    if law == TWISTED and s is None:
        raise InputError("twisted law requires the exponent s")
    if law not in (ADDITIVE, MULTIPLICATIVE, TWISTED):
        raise InputError(f"unknown law {law!r}")
    for idx in range(samples):
        rng = random.Random(f"{seed}:{idx}")
        if law == ADDITIVE:
            a1 = ring.random_element(rng)
            a2 = ring.random_element(rng)
            combined = a1 + a2
        else:
            a1 = ring.random_unit(rng)
            a2 = ring.random_unit(rng)
            combined = a1 * a2
        lhs = f(combined)
        f1, f2 = f(a1), f(a2)
        if law == TWISTED:
            rhs = f1 + a1**s * f2
        else:
            rhs = f1 + f2
        if lhs != rhs:
            return HomReport(
                passed=False,
                samples=idx + 1,
                law=law,
                counterexample={
                    "a1": elem_to_json(a1),
                    "a2": elem_to_json(a2),
                    "lhs": elem_to_json(lhs),
                    "rhs": elem_to_json(rhs),
                },
            )
    return HomReport(passed=True, samples=samples, law=law)


def ref_cocycle_check(f, ring, n, samples=1000, seed=0):
    precision = None
    for idx in range(samples):
        rng = random.Random(f"{seed}:{idx}")
        g1 = random_gl(ring, n, rng)
        g2 = random_gl(ring, n, rng)
        lhs = f(g1 * g2)
        rhs = f(g1) + g1 * f(g2) * g1.invert()
        precision = min(lhs.prec, rhs.prec)
        if not lhs == rhs:
            return CocycleReport(
                passed=False,
                samples=idx + 1,
                precision=precision,
                counterexample={
                    "g1": g1.to_json(),
                    "g2": g2.to_json(),
                    "lhs": lhs.to_json(),
                    "rhs": rhs.to_json(),
                },
            )
    if precision is None:
        precision = 0
    return CocycleReport(passed=True, samples=samples, precision=precision)


def ref_coherence_check(f, ring, n, subgroup, samples=100, seed=0, u=None):
    if subgroup == CONJUGATED_TORUS:
        if u is None:
            raise InputError("conjugated-torus needs the conjugating matrix u")
        for r in u.rows:
            for e in r:
                if not e.is_constant():
                    raise InputError("conjugating matrix must have constant entries")
        uinv = u.invert()
    precision = None
    for idx in range(samples):
        rng = random.Random(f"{seed}:{idx}")
        if subgroup == TORUS:
            g = _random_torus_point(ring, n, rng)
            val = f(g)
            ok = _is_diagonal(val)
        elif subgroup == SL:
            g = random_sl(ring, n, rng)
            val = f(g)
            ok = val.trace().is_zero()
        elif subgroup == BOREL:
            g = _random_borel_point(ring, n, rng)
            val = f(g)
            ok = _is_upper(val)
        elif subgroup == CONJUGATED_TORUS:
            d = _random_torus_point(ring, n, rng)
            g = uinv * d * u
            val = f(g)
            ok = _is_diagonal(u * val * uinv)
        else:
            raise InputError(f"unknown subgroup {subgroup!r}")
        precision = val.prec
        if not ok:
            return CocycleReport(
                passed=False,
                samples=idx + 1,
                precision=precision,
                counterexample={
                    "subgroup": subgroup,
                    "g": g.to_json(),
                    "value": val.to_json(),
                },
            )
    return CocycleReport(passed=True, samples=samples, precision=precision or 0)


# ---------------------------------------------------------------------------
# maps


def rare(x):
    """True on the elements congruent to 1 mod the maximal ideal: about
    one in q of them, one in 7 of the series backend's random elements."""
    return not (x - x.ring.one).is_unit()


def hom_maps(ring, law, s):
    """name -> evaluator: one that obeys the law, one that breaks it at
    once, and the first one pushed off the law where ``rare`` holds."""
    one = ring.one
    if law == ADDITIVE:
        good = lambda a: ga_hom(GaHomParams((one, ring.from_int(2))), a)  # noqa: E731
    elif law == MULTIPLICATIVE:
        good = lambda a: gm_hom(GmHomParams((one,)), a)  # noqa: E731
    else:
        good = lambda a: twisted_cocycle(TwistedCocycleParams(ring.from_int(3), s), a)  # noqa: E731
    return {
        "lawful": good,
        "square": lambda a: a * a,
        "perturbed": lambda a: good(a) + one if rare(a) else good(a),
    }


def cocycle_maps(ring):
    c = ClassifiedCocycle(GmHomParams((ring.one,)), SquareMatrix(ring, [[2, 1], [3, 4]]))
    ident = SquareMatrix.identity(ring, N)

    def perturbed(g):
        val = classified_eval(c, g)
        return val + ident if rare(g[0, 0]) else val

    def lossy(g):
        # still a cocycle, with a precision that varies with g, so that
        # lhs and rhs of the law differ in precision
        val = classified_eval(c, g)
        return val.reduce_prec(1) if rare(g[0, 0]) else val

    return {
        "classified": DeltaMapHandle(lambda g: classified_eval(c, g), 1),
        "identity-map": DeltaMapHandle(lambda g: g, 0),
        "perturbed": DeltaMapHandle(perturbed, 1),
        "lossy": DeltaMapHandle(lossy, 1),
    }


def coherence_maps(ring):
    maps = cocycle_maps(ring)
    # a diagonal v keeps the torus diagonal and the Borel upper triangular
    diag = ClassifiedCocycle(GmHomParams((ring.one,)), SquareMatrix.diagonal(
        ring, [ring.from_int(2), ring.from_int(5)]))
    maps["diagonal-v"] = DeltaMapHandle(lambda g: classified_eval(diag, g), 1)
    if ring.kind == "kolchin":
        maps["logderiv"] = log_derivative_handle()
    ones = SquareMatrix(ring, [[1] * N for _ in range(N)])
    # all-ones breaks every subgroup's predicate
    maps["ones-where-rare"] = DeltaMapHandle(
        lambda g: ones if rare(g[0, 0] + g[1, 1]) else SquareMatrix.zero(ring, N), 0)
    return maps


U = [[1, 1], [0, 1]]


class Recorder:
    """Calls f and logs the JSON of each argument."""

    def __init__(self, f):
        self.f, self.log = f, []

    def __call__(self, x):
        self.log.append(x.to_json() if isinstance(x, SquareMatrix) else elem_to_json(x))
        return self.f(x)


def run_both(new, ref, f, *args, **kwargs):
    """(new report, ref report), after checking that both called f on the
    same arguments in the same order."""
    rec_new, rec_ref = Recorder(f), Recorder(f)
    got, want = new(rec_new, *args, **kwargs), ref(rec_ref, *args, **kwargs)
    assert rec_new.log == rec_ref.log
    return got, want


# ---------------------------------------------------------------------------
# differential tests


def hom_cases(name):
    ring = RINGS[name]
    for law, s in LAWS:
        for map_name, f in hom_maps(ring, law, s).items():
            for seed in SEEDS:
                got, want = run_both(check_hom, ref_check_hom, f, law, ring,
                                     samples=SAMPLES, seed=seed, s=s)
                yield (law, s, map_name, seed), got, want


def cocycle_cases(name):
    ring = RINGS[name]
    for map_name, f in cocycle_maps(ring).items():
        for seed in SEEDS:
            got, want = run_both(cocycle_check, ref_cocycle_check, f, ring, N,
                                 samples=SAMPLES, seed=seed)
            yield (map_name, seed), got, want


def coherence_cases(name):
    ring = RINGS[name]
    u = SquareMatrix(ring, U)
    for subgroup in SUBGROUPS:
        for map_name, f in coherence_maps(ring).items():
            for seed in SEEDS:
                got, want = run_both(coherence_check, ref_coherence_check, f, ring, N,
                                     subgroup, samples=SAMPLES, seed=seed, u=u)
                yield (subgroup, map_name, seed), got, want


CHECKS = {"check_hom": (hom_cases, ref_hom_dict),
          "cocycle_check": (cocycle_cases, ref_cocycle_dict),
          "coherence_check": (coherence_cases, ref_cocycle_dict)}


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("check", sorted(CHECKS))
def test_reports_match_the_loops_they_replaced(check, name):
    cases, ref_dict = CHECKS[check]
    outcomes = set()
    for key, got, want in cases(name):
        assert got.to_dict() == ref_dict(want), key
        assert repr(got) == repr(want), key
        assert got == want, key
        outcomes.add("pass" if want.passed else
                     "first" if want.samples == 1 else "later")
    # the maps reach each kind of outcome
    assert outcomes == {"pass", "first", "later"}


def late_hom():
    ring = RINGS["witt-5^4"]
    f = hom_maps(ring, ADDITIVE, None)["perturbed"]
    rep = check_hom(f, ADDITIVE, ring, samples=SAMPLES, seed=3)
    draw = lambda rng: {"a1": elem_to_json(ring.random_element(rng)),  # noqa: E731
                        "a2": elem_to_json(ring.random_element(rng))}
    return rep, ref_check_hom(f, ADDITIVE, ring, samples=SAMPLES, seed=3), 3, draw


def late_cocycle():
    ring = RINGS["witt-F9-3^4"]
    f = cocycle_maps(ring)["perturbed"]
    rep = cocycle_check(f, ring, N, samples=SAMPLES, seed=1)
    draw = lambda rng: {"g1": random_gl(ring, N, rng).to_json(),  # noqa: E731
                        "g2": random_gl(ring, N, rng).to_json()}
    return rep, ref_cocycle_check(f, ring, N, samples=SAMPLES, seed=1), 1, draw


def late_coherence():
    ring = RINGS["witt-5^4"]
    f = coherence_maps(ring)["ones-where-rare"]
    rep = coherence_check(f, ring, N, TORUS, samples=SAMPLES, seed=2)
    draw = lambda rng: {"g": _random_torus_point(ring, N, rng).to_json()}  # noqa: E731
    return rep, ref_coherence_check(f, ring, N, TORUS, samples=SAMPLES, seed=2), 2, draw


@pytest.mark.parametrize("case, samples", [(late_hom, 5), (late_cocycle, 4), (late_coherence, 4)],
                         ids=["check_hom", "cocycle_check", "coherence_check"])
def test_a_late_counterexample_is_pinned(case, samples):
    # the map survives the first samples, so the index of the failing one
    # and the points drawn from its stream both show in the report
    rep, ref, seed, draw = case()
    assert rep == ref
    assert (rep.passed, rep.samples) == (False, samples)
    points = draw(random.Random(f"{seed}:{samples - 1}"))
    assert {k: rep.counterexample[k] for k in points} == points


# ---------------------------------------------------------------------------
# the shared search


def test_first_counterexample_stops_at_the_first_and_returns_the_last_info():
    seen = []

    def trial(rng):
        seen.append(rng.random())
        idx = len(seen) - 1
        return idx * 10, ("bad", idx) if idx == 3 else None

    assert first_counterexample(8, "s", trial) == (4, 30, ("bad", 3))
    assert seen == [random.Random(f"s:{i}").random() for i in range(4)]
    assert first_counterexample(2, "s", lambda rng: ("info", None)) == (2, "info", None)


@pytest.mark.parametrize("samples", [0, -1])
def test_sample_counts_below_one_are_rejected(samples):
    ring = RINGS["witt-5^4"]
    handle = cocycle_maps(ring)["classified"]
    with pytest.raises(InputError, match="samples"):
        first_counterexample(samples, 0, lambda rng: (None, None))
    with pytest.raises(InputError, match="samples"):
        check_hom(lambda a: a, ADDITIVE, ring, samples=samples)
    with pytest.raises(InputError, match="samples"):
        cocycle_check(handle, ring, N, samples=samples)
    for subgroup in SUBGROUPS:
        with pytest.raises(InputError, match="samples"):
            coherence_check(handle, ring, N, subgroup, samples=samples,
                            u=SquareMatrix(ring, U))


@pytest.mark.parametrize("samples", [0, 1])
def test_an_unknown_subgroup_raises_before_any_sample(samples):
    ring = RINGS["witt-5^4"]
    calls = []
    handle = DeltaMapHandle(lambda g: calls.append(g) or g, 0)
    with pytest.raises(InputError, match="unknown subgroup 'bogus'"):
        coherence_check(handle, ring, N, "bogus", samples=samples)
    with pytest.raises(InputError, match="needs the conjugating matrix"):
        coherence_check(handle, ring, N, CONJUGATED_TORUS, samples=samples)
    assert calls == []
