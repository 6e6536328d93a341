import random

import pytest

from delta_forge import (
    ClassifiedCocycle,
    DeltaMapHandle,
    GmHomParams,
    SquareMatrix,
    classified_eval,
    classified_handle,
    coboundary,
    coboundary_handle,
    cocycle_check,
    coherence_check,
    gm_hom,
    h_block_components,
    log_derivative,
    log_derivative_handle,
    random_constant_gl,
    random_gl,
    random_sl,
    recover,
)
from delta_forge.cocycles import RECOVER_EXTRA_SAMPLES
from delta_forge.errors import (
    BackendError,
    InconsistentSystemError,
    InputError,
    NonUnitError,
    PrecisionExhausted,
)
from delta_forge.matrices import solve_linear
from delta_forge.rings import SeriesRing, make_ring


@pytest.fixture
def ring():
    return make_ring(5, 6)


def e12(ring, n=2):
    rows = [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)]
    return SquareMatrix(ring, rows)


class TestCoboundary:
    def test_zero_and_identity_v(self, ring):
        rng = random.Random(1)
        g = random_gl(ring, 3, rng)
        assert coboundary(SquareMatrix.zero(ring, 3), g) == SquareMatrix.zero(ring, 3)
        assert coboundary(SquareMatrix.identity(ring, 3), g) == SquareMatrix.zero(ring, 3)

    def test_diagonal_conjugation(self, ring):
        # diag(2,1) e12 diag(2,1)^{-1} = 2 e12, minus e12 leaves e12
        v = e12(ring)
        g = SquareMatrix(ring, [[2, 0], [0, 1]])
        assert coboundary(v, g) == v

    def test_trace_free(self, ring):
        rng = random.Random(2)
        for _ in range(20):
            v = SquareMatrix(ring, [[ring.random_element(rng) for _ in range(3)]
                                    for _ in range(3)])
            g = random_gl(ring, 3, rng)
            assert coboundary(v, g).trace().is_zero()


class TestClassifiedEval:
    def test_identity_input(self, ring):
        rng = random.Random(3)
        c = ClassifiedCocycle(
            GmHomParams((ring.random_element(rng),)),
            SquareMatrix(ring, [[ring.random_element(rng) for _ in range(2)]
                                for _ in range(2)]),
        )
        assert classified_eval(c, SquareMatrix.identity(ring, 2)) \
            == SquareMatrix.zero(ring, 2)

    def test_sl_reduces_to_coboundary(self, ring):
        rng = random.Random(4)
        c = ClassifiedCocycle(
            GmHomParams((ring.one, ring.from_int(3))),
            SquareMatrix(ring, [[ring.random_element(rng) for _ in range(3)]
                                for _ in range(3)]),
        )
        for _ in range(10):
            g = random_sl(ring, 3, rng)
            got = classified_eval(c, g)
            assert got == coboundary(c.v, g).reduce_prec(got.prec)

    def test_cocycle_law_holds(self, ring):
        rng = random.Random(5)
        c = ClassifiedCocycle(
            GmHomParams((ring.from_int(2),)),
            SquareMatrix(ring, [[ring.random_element(rng) for _ in range(2)]
                                for _ in range(2)]),
        )
        rep = cocycle_check(classified_handle(c), ring, 2, samples=50, seed=6)
        assert rep.passed

    def test_scalar_delta_det_fails(self, ring):
        def bad(g):
            w = g.det().delta()
            return SquareMatrix.diagonal(ring, [w] * 2)

        rep = cocycle_check(DeltaMapHandle(bad, 1), ring, 2, samples=200, seed=7)
        assert not rep.passed
        assert rep.counterexample is not None


    RINGS = {"witt-m1": make_ring(5, 6), "witt-m2": make_ring(3, 4, 2), "series": SeriesRing(6)}

    @staticmethod
    def reference(c, g):
        """omega(det g) 1_n + g v g^{-1} - v with omega(det g) on an
        element diagonal matrix."""
        cob = coboundary(c.v, g)
        w = gm_hom(c.omega, g.det())
        return SquareMatrix.diagonal(g.ring, [w] * g.n) + cob

    @pytest.mark.parametrize("name", sorted(RINGS))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_element_diagonal(self, name, n):
        ring = self.RINGS[name]
        top = ring.one.prec
        rng = random.Random(f"classified:{name}:{n}")

        def elem(prec):
            return ring.random_element(rng, prec)

        # omega(det g) and the coboundary each have the lower precision in turn
        for _ in range(8):
            lam = tuple(elem(rng.randint(1, top)) for _ in range(rng.randint(0, 2)))
            pv = rng.randint(1, top)
            c = ClassifiedCocycle(
                GmHomParams(lam), SquareMatrix(ring, [[elem(pv) for _ in range(n)] for _ in range(n)])
            )
            g = random_gl(ring, n, rng)
            got, want = classified_eval(c, g), self.reference(c, g)
            assert (got.prec, got.vals) == (want.prec, want.vals)

    @pytest.mark.parametrize("name", sorted(RINGS))
    def test_non_unit_message(self, name):
        ring = self.RINGS[name]
        pi = ring.t if ring.kind == "kolchin" else ring.from_int(ring.p)
        c = ClassifiedCocycle(GmHomParams((ring.one,)), e12(ring))
        rows = [[ring.one, ring.one], [ring.zero, pi]]
        with pytest.raises(NonUnitError) as got:
            classified_eval(c, SquareMatrix(ring, rows))
        with pytest.raises(NonUnitError) as want:
            self.reference(c, SquareMatrix(ring, rows))
        assert str(got.value) == str(want.value) == f"matrix determinant is not a unit: {pi!r}"


class TestHandlePrecision:
    def test_truncates_by_order(self, ring):
        c = ClassifiedCocycle(
            GmHomParams((ring.one,)), SquareMatrix.zero(ring, 2)
        )
        h = classified_handle(c)
        g = SquareMatrix.identity(ring, 2)
        assert h(g).prec == ring.prec - h.order

    def test_exhaustion(self, ring):
        h = DeltaMapHandle(lambda g: g, ring.prec)
        with pytest.raises(PrecisionExhausted):
            h(SquareMatrix.identity(ring, 2))


class TestLogDerivative:
    def test_arithmetic_rejected(self, ring):
        with pytest.raises(BackendError):
            log_derivative(SquareMatrix.identity(ring, 2))

    def test_truncation_one_is_exhausted(self):
        R = SeriesRing(8)
        with pytest.raises(PrecisionExhausted):
            log_derivative(SquareMatrix.identity(R, 2).reduce_prec(1))

    def test_matches_the_element_path(self):
        # entries at mixed truncations: delta g sits one below g's least
        R = SeriesRing(8)
        rng = random.Random(10)
        for n in (1, 2, 3):
            for _ in range(5):
                while True:
                    g = SquareMatrix(R, [[R.random_element(rng, rng.randint(2, 8)) for _ in range(n)]
                                         for _ in range(n)])
                    if g.is_unit():
                        break
                got = log_derivative(g)
                want = SquareMatrix(R, [[e.delta() for e in r] for r in g.rows]) * g.invert()
                assert (got.prec, got.vals) == (want.prec, want.vals) and got.prec == g.prec - 1

    def test_constant_matrix(self):
        R = SeriesRing(8)
        rng = random.Random(8)
        u = random_constant_gl(R, 3, rng)
        assert log_derivative(u) == SquareMatrix.zero(R, 3)

    def test_scalar_series(self):
        R = SeriesRing(8)
        g = SquareMatrix(R, [[R.one + R.t]])
        got = log_derivative(g)
        assert list(got[0, 0].coeffs) == [1, -1, 1, -1, 1, -1, 1]

    def test_cocycle_law(self):
        R = SeriesRing(8)
        rng = random.Random(9)
        for _ in range(10):
            g1, g2 = random_gl(R, 2, rng), random_gl(R, 2, rng)
            lhs = log_derivative(g1 * g2)
            rhs = log_derivative(g1) + g1 * log_derivative(g2) * g1.invert()
            assert lhs == rhs.reduce_prec(lhs.prec)


HANDLES = {
    "log-derivative": (SeriesRing(10), lambda ring, n: log_derivative_handle()),
    "log-derivative-t8": (SeriesRing(8), lambda ring, n: log_derivative_handle()),
    "classified": (make_ring(5, 6), lambda ring, n: classified_handle(ClassifiedCocycle(
        GmHomParams((ring.from_int(2),)), random_gl(ring, n, random.Random(n))))),
    "coboundary": (make_ring(3, 4, 2), lambda ring, n: coboundary_handle(
        random_gl(ring, n, random.Random(n)))),
}


def ref_tries(ring, n, rng):
    """The draws the GL_n sampler makes on rng, the accepted one included:
    entries by ``ring.random_element``, until the residue matrix is
    invertible."""
    tries = 1
    while not SquareMatrix(ring, [[ring.random_element(rng) for _ in range(n)]
                                  for _ in range(n)]).reduce_prec(1).is_unit():
        tries += 1
    return tries


def assert_one_full_pass_per_try(eliminations, ring, n, tries):
    """Exactly one augmented pass at the ring's full precision per try,
    and no other elimination."""
    full = ring.values().prec
    assert [(e, e.prec) for e in eliminations] == [((n, True), full)] * tries


@pytest.mark.parametrize("name", sorted(HANDLES))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_cocycle_sample_makes_two_augmented_passes(name, n, eliminations):
    # two when no draw is turned down: each try of g1 and of g2 is one pass.
    # Every library handle inverts its argument, so f(g1 g2) inverts g1 and
    # g2 through its factors, and f(g1), f(g2) and g1^-1 reuse their memos.
    ring, make = HANDLES[name]
    f = make(ring, n)
    draws = 0
    for seed in range(10):
        rng = random.Random(f"{seed}:0")  # the stream of the check's first sample
        tries = ref_tries(ring, n, rng) + ref_tries(ring, n, rng)
        eliminations.clear()
        assert cocycle_check(f, ring, n, samples=1, seed=seed).passed
        assert_one_full_pass_per_try(eliminations, ring, n, tries)
        draws += tries
    assert draws > 20  # some draw was turned down


@pytest.mark.parametrize("name", sorted(HANDLES))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_one_sl_n_coherence_sample_eliminates_its_point_once(name, n, eliminations):
    # random_sl hands its point's inverse over, so f(g) inverts nothing
    ring, make = HANDLES[name]
    f = make(ring, n)
    draws = 0
    for seed in range(50):
        tries = ref_tries(ring, n, random.Random(f"{seed}:0"))
        eliminations.clear()
        assert coherence_check(f, ring, n, "sl_n", samples=1, seed=seed).passed
        assert_one_full_pass_per_try(eliminations, ring, n, tries)
        draws += tries
    assert draws > 50  # some draw was turned down


class TestRecover:
    def test_pure_coboundary(self, ring):
        rng = random.Random(10)
        v0 = SquareMatrix(ring, [[ring.random_element(rng) for _ in range(3)]
                                 for _ in range(3)])
        v0 = v0 - SquareMatrix.diagonal(ring, [v0[0, 0]] * 3)
        v, omega_eval = recover(coboundary_handle(v0), ring, 3, seed=11)
        assert v == v0
        for k in (2, 3):
            assert omega_eval(ring.from_int(k)).is_zero()

    def test_zero_map(self, ring):
        h = DeltaMapHandle(lambda g: SquareMatrix.zero(ring, 2), 0)
        v, omega_eval = recover(h, ring, 2, seed=12)
        assert v == SquareMatrix.zero(ring, 2)
        assert omega_eval(ring.from_int(3)).is_zero()

    def test_classified_roundtrip(self, ring):
        rng = random.Random(13)
        c = ClassifiedCocycle(
            GmHomParams((ring.from_int(7),)),
            SquareMatrix(ring, [[ring.random_element(rng) for _ in range(2)]
                                for _ in range(2)]),
        )
        h = classified_handle(c)
        v, omega_eval = recover(h, ring, 2, seed=14)
        assert v == c.v - SquareMatrix.diagonal(ring, [c.v[0, 0]] * 2)
        for _ in range(20):
            g = random_gl(ring, 2, rng)
            w = omega_eval(g.det())
            rebuilt = SquareMatrix.diagonal(ring, [w] * 2) + coboundary(v, g)
            assert rebuilt == h(g)

    def test_n1_rejected(self, ring):
        with pytest.raises(InputError):
            recover(coboundary_handle(SquareMatrix.zero(ring, 1)), ring, 1)


def ref_recover_v(f, ring, n, seed=0):
    """v as ``recover`` found it by linear solving: g v - v g = f(g) g on
    the elementary matrices 1 + e_kl and the seeded SL_n points, one
    equation per entry, and v[0][0] = 0."""
    ident = SquareMatrix.identity(ring, n)
    points = []
    for k in range(n):
        for l in range(n):
            if k != l:
                rows = [list(r) for r in ident.rows]
                rows[k][l] = ring.one
                points.append(SquareMatrix(ring, rows))
    rng = random.Random(f"{seed}:recover")
    points += [random_sl(ring, n, rng) for _ in range(RECOVER_EXTRA_SAMPLES)]
    rows, rhs, zero = [], [], ring.zero
    for g in points:
        target = f(g) * g
        for i in range(n):
            for l in range(n):
                coeffs = [zero] * (n * n)
                for k in range(n):
                    coeffs[k * n + l] = coeffs[k * n + l] + g[i, k]
                    coeffs[i * n + k] = coeffs[i * n + k] - g[k, l]
                rows.append(coeffs)
                rhs.append(target[i, l])
    rows.append([ring.one] + [zero] * (n * n - 1))
    rhs.append(zero)
    sol = solve_linear(ring, rows, rhs)
    return SquareMatrix(ring, [[sol[i * n + j] for j in range(n)] for i in range(n)])


RECOVER_RINGS = {"witt-m1": make_ring(5, 4), "witt-m2": make_ring(3, 3, 2), "series": SeriesRing(6)}


def random_v(ring, n, rng):
    return SquareMatrix(ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(n)])


def recover_handles(ring, n, rng):
    """A classified, a coboundary and (on Q[[t]]) the log-derivative handle."""
    omega = GmHomParams((ring.random_element(rng), ring.random_element(rng)))
    handles = {
        "classified": classified_handle(ClassifiedCocycle(omega, random_v(ring, n, rng))),
        "coboundary": coboundary_handle(random_v(ring, n, rng)),
    }
    if ring.kind == "kolchin":
        handles["logderiv"] = log_derivative_handle()
    return handles


def assert_same_v(got, want):
    assert (got.prec, got.vals) == (want.prec, want.vals)


class TestRecoverAgainstSolve:
    @pytest.mark.parametrize("name", sorted(RECOVER_RINGS))
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_read_off_is_the_solution(self, name, n):
        ring = RECOVER_RINGS[name]
        rng = random.Random(f"recover:{name}:{n}")
        for kind, h in recover_handles(ring, n, rng).items():
            seed = rng.randrange(100)
            if kind == "logderiv":
                # delta g g^-1 vanishes on the constant elementary matrices only
                for fn in (recover, ref_recover_v):
                    with pytest.raises(InconsistentSystemError):
                        fn(h, ring, n, seed=seed)
                continue
            v, _ = recover(h, ring, n, seed=seed)
            assert_same_v(v, ref_recover_v(h, ring, n, seed=seed))
            assert v[0, 0].is_zero()

    @pytest.mark.parametrize("name", sorted(RECOVER_RINGS))
    def test_maps_the_solve_rejects_are_rejected(self, name):
        ring = RECOVER_RINGS[name]
        n = 3
        rng = random.Random(f"reject:{name}")
        c = ClassifiedCocycle(GmHomParams((ring.random_element(rng),)), random_v(ring, n, rng))
        bump = SquareMatrix(ring, [[1 if (i, j) == (0, 1) else 0 for j in range(n)] for i in range(n)])
        ident = SquareMatrix.identity(ring, n)
        maps = {
            "constant": lambda g: ident,
            # zero on every elementary matrix: only the SL_n points catch it
            "g00 - 1": lambda g: ident.scale(g[0, 0] - ring.one),
            "perturbed": lambda g: classified_eval(c, g) + bump,
        }
        for label, fn in maps.items():
            h = DeltaMapHandle(fn, c.order if label == "perturbed" else 0)
            for rec in (recover, ref_recover_v):
                with pytest.raises(InconsistentSystemError):
                    rec(h, ring, n, seed=5)

    @pytest.mark.parametrize("name", sorted(RECOVER_RINGS))
    def test_v_has_the_least_precision_of_every_point(self, name):
        ring = RECOVER_RINGS[name]
        n = 3
        rng = random.Random(f"low:{name}")
        c = ClassifiedCocycle(GmHomParams((ring.random_element(rng),)), random_v(ring, n, rng))
        elementary = [SquareMatrix(ring, [[int(i == j or (i, j) == (k, l)) for j in range(n)]
                                          for i in range(n)])
                      for k in range(n) for l in range(n) if k != l]

        def lower_off_elementary(g):
            out = classified_eval(c, g)
            return out if any(g == e for e in elementary) else out.reduce_prec(2)

        h = DeltaMapHandle(lower_off_elementary, c.order)
        v, _ = recover(h, ring, n, seed=3)
        assert v.prec == 2
        assert_same_v(v, ref_recover_v(h, ring, n, seed=3))


class TestBlocks:
    def test_zero_map(self, ring):
        h = DeltaMapHandle(lambda g: SquareMatrix.zero(ring, 3), 0)
        blocks = h_block_components(h, ring, 3)
        a = ring.from_int(2)
        b = [ring.from_int(1), ring.from_int(4)]
        assert blocks.alpha(a, b).is_zero()
        assert all(x.is_zero() for x in blocks.beta(a, b))
        assert all(x.is_zero() for x in blocks.gamma(a, b))
        assert blocks.epsilon(a, b) == SquareMatrix.zero(ring, 2)

    def test_gamma_independent_of_b(self, ring):
        rng = random.Random(15)
        c = ClassifiedCocycle(
            GmHomParams((ring.one,)),
            SquareMatrix(ring, [[ring.random_element(rng) for _ in range(3)]
                                for _ in range(3)]),
        )
        blocks = h_block_components(classified_handle(c), ring, 3)
        a = ring.random_unit(rng)
        b1 = [ring.random_element(rng) for _ in range(2)]
        b2 = [ring.random_element(rng) for _ in range(2)]
        g1 = blocks.gamma(a, b1)
        g2 = blocks.gamma(a, b2)
        assert all(x == y for x, y in zip(g1, g2))

    def test_one_handle_evaluation_per_point(self, ring):
        rng = random.Random(16)
        c = ClassifiedCocycle(
            GmHomParams((ring.one,)),
            SquareMatrix(ring, [[ring.random_element(rng) for _ in range(3)]
                                for _ in range(3)]),
        )
        plain = classified_handle(c)
        calls = []

        def counted(g):
            calls.append(g)
            return plain.evaluator(g)

        counting = DeltaMapHandle(counted, plain.order)
        blocks = h_block_components(counting, ring, 3)

        def read(bl, a, b):
            return (bl.alpha(a, b), bl.beta(a, b), bl.gamma(a, b), bl.epsilon(a, b))

        def fresh(a, b):
            f = plain(SquareMatrix.h_block(ring, a, b))
            return (f[0, 0], [f[0, 1], f[0, 2]], [f[1, 0], f[2, 0]], f.block(1, 3, 1, 3))

        a1, a2 = ring.random_unit(rng), ring.random_unit(rng)
        b1 = [ring.random_element(rng) for _ in range(2)]
        b2 = [ring.random_element(rng) for _ in range(2)]
        assert read(blocks, a1, b1) == fresh(a1, b1) and len(calls) == 1

        # criterion 12's reads: each block at (a1,b1) and (a2,b2), then at (a12,b12)
        calls.clear()
        blocks = h_block_components(counting, ring, 3)
        a12, b12 = a1 * a2, [x + a1 * y for x, y in zip(b1, b2)]
        for block in (blocks.alpha, blocks.beta, blocks.gamma, blocks.epsilon):
            block(a1, b1), block(a2, b2)
        read(blocks, a12, b12)
        assert len(calls) == 3

        # b mutated in place, or equal values in new objects: evaluated again
        calls.clear()
        b1[0] = ring.random_element(rng)
        assert read(blocks, a1, b1) == fresh(a1, b1) and len(calls) == 1
        a_copy = ring.element(a2.coeffs, a2.prec)
        b_copy = [ring.element(x.coeffs, x.prec) for x in b2]
        assert read(blocks, a_copy, b_copy) == fresh(a2, b2) and len(calls) == 2

        from delta_forge.cocycles import _BLOCK_MEMO_SIZE

        for _ in range(10):
            read(blocks, ring.random_unit(rng), [ring.random_element(rng) for _ in range(2)])
            assert len(blocks._memo) <= _BLOCK_MEMO_SIZE
        assert len(calls) == 12


# W(Z/5^6), W(F_9)/3^4 and Q[[t]]/t^8: int residues, elements and series
H_RINGS = {"witt-m1": make_ring(5, 6), "witt-m2": make_ring(3, 4, 2), "series-t8": SeriesRing(8)}


@pytest.mark.parametrize("name", sorted(H_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_h_block_point_is_read_without_an_elimination(name, n, eliminations):
    # the point knows its inverse and det, which every library handle uses
    ring = H_RINGS[name]
    rng = random.Random(f"blocks:{name}:{n}")
    top = ring.one.prec
    c = ClassifiedCocycle(GmHomParams((ring.from_int(2),)), random_gl(ring, n, rng))
    handles = [classified_handle(c), coboundary_handle(c.v)]
    if ring.kind == "kolchin":
        handles.append(log_derivative_handle())
    for f in handles:
        for low in (top, top - 1, 2):
            a = ring.random_unit(rng, low)  # at or below b's precision
            b = [ring.random_element(rng, rng.randint(low, top)) for _ in range(n - 1)]
            blocks = h_block_components(f, ring, n)
            eliminations.clear()
            got = (blocks.alpha(a, b), blocks.beta(a, b), blocks.gamma(a, b), blocks.epsilon(a, b))
            assert eliminations == []
            rows = [[a, *b], *([ring.zero] * i + [ring.one] + [ring.zero] * (n - 1 - i)
                                for i in range(1, n))]
            want = f(SquareMatrix(ring, rows))
            assert got == (want[0, 0], [want[0, j] for j in range(1, n)],
                           [want[j, 0] for j in range(1, n)], want.block(1, n, 1, n))
            assert got[0].prec == got[3].prec == want.prec


BLOCK_PAIRS = 5


def block_pairs(ring, n, rng):
    """(a1, b1, a2, b2) for ``failing_relation``: units a, free b."""
    for _ in range(BLOCK_PAIRS):
        yield (ring.random_unit(rng), [ring.random_element(rng) for _ in range(n - 1)],
               ring.random_unit(rng), [ring.random_element(rng) for _ in range(n - 1)])


def block_handles(ring, n, rng):
    """A classified cocycle, and on the series backend the log derivative."""
    v = SquareMatrix(ring, [[ring.random_element(rng) for _ in range(n)] for _ in range(n)])
    c = ClassifiedCocycle(GmHomParams((ring.random_element(rng), ring.random_element(rng))), v)
    handles = [classified_handle(c)]
    if ring.kind == "kolchin":
        handles.append(log_derivative_handle())
    return handles


@pytest.mark.parametrize("name", sorted(H_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycles_satisfy_the_block_relations(name, n):
    ring = H_RINGS[name]
    rng = random.Random(f"relations:{name}:{n}")
    for f in block_handles(ring, n, rng):
        calls = []
        counted = DeltaMapHandle(lambda g, f=f: calls.append(g) or f.evaluator(g), f.order)
        blocks = h_block_components(counted, ring, n)
        for a1, b1, a2, b2 in block_pairs(ring, n, rng):
            assert blocks.failing_relation(a1, b1, a2, b2) is None
        # one handle evaluation per point: (a1, b1), (a2, b2) and their product
        assert len(calls) == 3 * BLOCK_PAIRS


@pytest.mark.parametrize("name", sorted(H_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("entry, relation", [((0, 0), 1), ((0, 1), 2)])
def test_a_constant_unit_breaks_its_block_relation(name, n, entry, relation):
    # a constant C added to a cocycle adds C to alpha12 (or beta12) on the
    # left, and C + C (or C + a1 C) on the right
    ring = H_RINGS[name]
    rng = random.Random(f"relations:{name}:{n}:{entry}")
    unit = SquareMatrix(ring, [[ring.random_unit(rng) if (i, j) == entry else 0
                                for j in range(n)] for i in range(n)])
    for f in block_handles(ring, n, rng):
        bent = DeltaMapHandle(lambda g, f=f: f.evaluator(g) + unit, f.order)
        blocks = h_block_components(bent, ring, n)
        for a1, b1, a2, b2 in block_pairs(ring, n, rng):
            assert blocks.failing_relation(a1, b1, a2, b2) == relation


@pytest.mark.parametrize("name", sorted(H_RINGS))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_a_conjugated_torus_check_eliminates_only_u(name, n, eliminations):
    # each point knows its det and inverse from its shape, so the one
    # elimination is u's inversion, however many points are drawn
    ring = H_RINGS[name]
    rng = random.Random(f"conj:{name}:{n}")
    u = random_constant_gl(ring, n, rng)
    # f(g) = omega(det g) 1_n on the conjugated torus, as v commutes with it
    v = SquareMatrix.conjugated_diagonal(u, [ring.random_element(rng) for _ in range(n)])
    handles = [classified_handle(ClassifiedCocycle(GmHomParams((ring.from_int(2),)), v))]
    if ring.kind == "kolchin":
        handles.append(log_derivative_handle())
    for f in handles:
        for k in (1, 4):
            fresh_u = SquareMatrix(ring, u.rows)
            eliminations.clear()
            rep = coherence_check(f, ring, n, "conjugated-torus", samples=k, seed=k, u=fresh_u)
            assert rep.passed and rep.samples == k
            assert eliminations == [(n, True)] and eliminations[0].prec == u.prec


class TestCoherence:
    def test_log_derivative_torus(self):
        R = SeriesRing(8)
        rep = coherence_check(log_derivative_handle(), R, 2, "torus",
                              samples=20, seed=16)
        assert rep.passed

    def test_scaled_log_derivative_all_subgroups(self):
        R = SeriesRing(8)
        nu = R.from_rational(3)
        h = DeltaMapHandle(lambda g: log_derivative(g).scale(nu), 1)
        for sub in ("torus", "sl_n", "borel"):
            assert coherence_check(h, R, 2, sub, samples=15, seed=17).passed

    def test_nonscalar_coboundary_fails_conjugated_torus(self):
        R = SeriesRing(8)
        rng = random.Random(18)
        cb = coboundary_handle(e12(R, 2))
        failed = False
        for k in range(10):
            u = random_constant_gl(R, 2, rng)
            rep = coherence_check(cb, R, 2, "conjugated-torus",
                                  samples=10, seed=f"19:{k}", u=u)
            if not rep.passed:
                failed = True
                break
        assert failed

    def test_conjugated_torus_needs_constant_u(self):
        R = SeriesRing(8)
        u = SquareMatrix(R, [[R.one + R.t, R.zero], [R.zero, R.one]])
        with pytest.raises(InputError):
            coherence_check(log_derivative_handle(), R, 2, "conjugated-torus",
                            samples=5, seed=20, u=u)


class TestSolveLinear:
    def test_simple_system(self, ring):
        rows = [[ring.from_int(2), ring.from_int(1)],
                [ring.from_int(1), ring.from_int(1)]]
        rhs = [ring.from_int(5), ring.from_int(3)]
        x = solve_linear(ring, rows, rhs)
        assert x[0] == 2 and x[1] == 1

    def test_singular_pivot(self, ring):
        from delta_forge.errors import SingularPivotError

        rows = [[ring.from_int(5)]]
        with pytest.raises(SingularPivotError):
            solve_linear(ring, rows, [ring.from_int(5)])

    def test_singular_pivot_names_column_and_valuation(self, ring):
        from delta_forge.errors import SingularPivotError

        # after the unit pivot of column 0, column 1 holds 0 and 75 = 3 * 5^2
        rows = [[ring.from_int(c) for c in r] for r in ([1, 25, 3], [2, 50, 1], [0, 75, 4])]
        with pytest.raises(SingularPivotError) as info:
            solve_linear(ring, rows, [ring.one, ring.one, ring.one])
        assert (info.value.column, info.value.valuation) == (1, 2)

    def test_zero_column_has_no_valuation(self, ring):
        from delta_forge.errors import SingularPivotError

        # a consistent system whose column 1 is zero: no pivot there at all
        rows = [[ring.from_int(c) for c in r] for r in ([1, 0], [2, 0])]
        with pytest.raises(SingularPivotError) as info:
            solve_linear(ring, rows, [ring.one, ring.from_int(2)])
        assert (info.value.column, info.value.valuation) == (1, None)

    def test_inconsistent(self, ring):
        from delta_forge.errors import InconsistentSystemError

        rows = [[ring.one], [ring.one]]
        with pytest.raises(InconsistentSystemError):
            solve_linear(ring, rows, [ring.one, ring.from_int(2)])


def test_block_components_need_two_rows():
    with pytest.raises(InputError, match="^block components need n >= 2$"):
        h_block_components(log_derivative_handle(), make_ring(5, 3), 1)
