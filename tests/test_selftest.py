"""Each self-test criterion reports a failure when the library it checks
is broken: one name in ``selftest``'s globals is replaced, the criterion
runs at the quick profile's scale, and its exact detail is pinned.

Criterion 10's precondition half cannot fail: it counts the calls that
raise ``ExhaustedSearchError``, which ``precondition`` no longer raises.
Only its round-trip half is broken here.
"""

import pytest

from delta_forge import selftest
from delta_forge.cocycles import DeltaMapHandle
from delta_forge.matrices import SquareMatrix
from delta_forge.selftest import DEFAULT_SEED


def unit_at_0_1(g):
    """The constant matrix with 1 at (0, 1), on g's ring and size."""
    return SquareMatrix(g.ring, [[int((i, j) == (0, 1)) for j in range(g.n)] for i in range(g.n)])


def bent_classified(c):
    # a classified cocycle plus a constant unit at (0, 1): no cocycle
    return DeltaMapHandle(lambda g: selftest.classified_eval(c, g) + unit_at_0_1(g), c.order)


def zero_handle(v):
    return DeltaMapHandle(lambda g: SquareMatrix.zero(g.ring, g.n), 0)


make_ring, eval_jet = selftest.make_ring, selftest.eval_jet
gm_hom, coboundary = selftest.gm_hom, selftest.coboundary
twisted_cocycle, reconstruct = selftest.twisted_cocycle, selftest.reconstruct

# criterion, the name replaced, its replacement, the detail
BREAKS = [
    (selftest.criterion_1_delta_ring_axioms, "make_ring",
     lambda p, prec, m=1: make_ring(5 if p == 3 else p, prec, m),
     "product rule failed at p=3, m=1"),
    (selftest.criterion_2_frobenius_contract, "make_ring",
     lambda p, prec, m=1: make_ring(p, prec, 2),
     "phi != id at m=1, p=3"),
    (selftest.criterion_3_constants, "make_ring",
     lambda p, prec, m=1: make_ring(p, prec),
     "expected 25 Teichmueller lifts"),
    (selftest.criterion_4_psi_additivity, "psi", lambda a: a,
     "psi additivity failed at p=3"),
    (selftest.criterion_5_jet_oracle, "eval_jet",
     lambda f, point: eval_jet(f, point) + point.level,
     "chain rule failed on arithmetic at k=1"),
    (selftest.criterion_6_valuation_bound, "make_ring",
     lambda p, prec, m=1: make_ring(5, prec, m),
     "valuation 0 < 1 at nu=1, r=1"),
    (selftest.criterion_7_classified_forward, "gm_hom",
     lambda omega, a: gm_hom(omega, a) + 1,
     "trace law failed at n=2, p=3"),
    (selftest.criterion_8_recovery_roundtrip, "coboundary",
     lambda v, g: coboundary(v, g).scale(2),
     "roundtrip evaluation failed at sample 0"),
    (selftest.criterion_9_twisted_cocycles, "twisted_cocycle",
     lambda params, a: twisted_cocycle(params, a) + 1,
     "twisted law failed at s=-3 on arithmetic"),
    (selftest.criterion_10_decomposition, "reconstruct",
     lambda word, ring: reconstruct(word, ring).scale(2),
     "roundtrip failed at n=2"),
    (selftest.criterion_11_kolchin_side, "coboundary_handle", zero_handle,
     "non-scalar coboundary passed all conj tori at n=2"),
    (selftest.criterion_12_block_relations, "classified_handle", bent_classified,
     "relation (2) failed at cocycle 0"),
]


@pytest.mark.parametrize("criterion, name, broken, detail", BREAKS,
                         ids=[c.__name__.split("_")[1] for c, *_ in BREAKS])
def test_a_broken_library_fails_its_criterion(monkeypatch, criterion, name, broken, detail):
    monkeypatch.setattr(selftest, name, broken)
    assert criterion(DEFAULT_SEED, 50) == (False, detail)
