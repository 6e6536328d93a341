"""The coefficient domains: one per (ring, precision), kept by the ring,
of one class per backend, and built nowhere but in ``rings``."""

import ast
import glob
import os

import pytest

import delta_forge
from delta_forge import (
    ClassifiedCocycle,
    GmHomParams,
    SquareMatrix,
    classified_handle,
    cocycle_check,
)
from delta_forge import jets, rings
from delta_forge.errors import PrecisionExhausted
from delta_forge.rings import SeriesRing, make_ring

BACKENDS = {
    "W(Z/5^4)": (lambda: make_ring(5, 4), rings._Residues),
    "W(F_9)/3^4": (lambda: make_ring(3, 4, 2), rings.Values),
    "Q[[t]]/t^6": (lambda: SeriesRing(6), rings._Series),
}
DOMAIN_CLASSES = {"Values", "_Residues", "_Series"}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_one_domain_per_precision(name):
    build, _ = BACKENDS[name]
    ring = build()
    full = ring.one.prec
    for k in range(1, full + 3):
        assert ring.values(k) is ring.values(k)
        assert ring.values(k).prec == k
    assert ring.values() is ring.values(full)
    # the same object whichever of None and the ring's precision comes first
    ring = build()
    assert ring.values(full) is ring.values() is ring.values(full)
    assert ring.values(full - 1) is not ring.values(full)


@pytest.mark.parametrize("name", sorted(BACKENDS))
@pytest.mark.parametrize("prec", [0, -1])
def test_no_domain_below_one_digit(name, prec):
    ring = BACKENDS[name][0]()
    with pytest.raises(PrecisionExhausted, match="precision dropped below 1"):
        ring.values(prec)


def test_each_backend_has_its_own_class():
    classes = {name: type(build().values()) for name, (build, _) in BACKENDS.items()}
    assert classes == {name: cls for name, (_, cls) in BACKENDS.items()}
    assert len(set(classes.values())) == len(BACKENDS)


def test_series_matrix_above_its_rings_truncation():
    # a matrix takes the precision of its entries, with no upper bound
    m = SquareMatrix(SeriesRing(8), [[SeriesRing(10).one]])
    assert m.prec == m.dom.prec == 10
    assert m.det() == 1 and m.det().prec == 10


def test_cocycle_check_builds_no_domain_after_its_first_sample(monkeypatch):
    built = []
    real = rings.Values.__init__

    def counted(self, ring, prec):
        built.append((ring, prec))
        real(self, ring, prec)

    monkeypatch.setattr(rings.Values, "__init__", counted)

    def domains_built(samples):
        ring = make_ring(5, 8)
        v = SquareMatrix(ring, [[1, 2, 0], [3, 5, 7], [0, 1, 4]])
        handle = classified_handle(ClassifiedCocycle(GmHomParams((ring.one,)), v))
        built.clear()
        assert cocycle_check(handle, ring, 3, samples=samples, seed=7).passed
        return len(built)

    first = domains_built(1)
    assert first > 0
    assert domains_built(6) == first


def domain_calls(source):
    """(line, name) of every call of a domain class in the source text."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in DOMAIN_CLASSES:
                out.append((node.lineno, name))
    return out


def test_the_scan_sees_domain_calls():
    assert domain_calls("d = Values(ring, 3)\ne = rings._Series(r, k)\nring.values(3)") == [
        (1, "Values"), (2, "_Series")]


def test_only_rings_builds_domains():
    # every other layer takes its domain from ``ring.values(prec)``
    package = os.path.dirname(delta_forge.__file__)
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(paths) > 5
    found = {}
    for path in paths:
        with open(path) as f:
            if calls := domain_calls(f.read()):
                found[os.path.basename(path)] = calls
    assert set(found) <= {"rings.py"}, found


def test_domains_do_not_branch_on_the_backend():
    # the backend is chosen once, by the class a ring builds its domains of
    with open(rings.__file__) as f:
        tree = ast.parse(f.read())
    classes = [c for c in tree.body if isinstance(c, ast.ClassDef) and c.name in DOMAIN_CLASSES]
    assert {c.name for c in classes} == DOMAIN_CLASSES
    for cls in classes:
        read = {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute)}
        assert not read & {"kind", "m", "native"}, cls.name


def test_jets_do_not_branch_on_the_witt_degree():
    # one prolongation path for every W(F_q): jets reads no degree or native
    # flag, and takes what differs between the backends from the domains
    with open(jets.__file__) as f:
        read = {n.attr for n in ast.walk(ast.parse(f.read())) if isinstance(n, ast.Attribute)}
    assert not read & {"m", "native"}
