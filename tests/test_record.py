"""The value records keep the semantics of the frozen dataclasses they replaced."""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from adictrop._record import record
from adictrop.complexes import Rank1Family
from adictrop.errors import FamilyNotSupported
from adictrop.lp import LPResult
from adictrop.polyhedra import Cone, Fan, Polyhedron
from adictrop.toric import stratum_lattice

F = Fraction
SRC = Path(__file__).resolve().parents[1] / "src" / "adictrop"


def _fields(obj):
    return tuple(getattr(obj, a) for a in type(obj).__match_args__)


def _quadrant_fan():
    return Fan.from_cones([Cone.from_rays([(1, 0), (0, 1)], 2)])


def test_equal_records_hash_as_their_field_tuple():
    square = [((1, 0), 0), ((-1, 0), -1), ((0, 1), 0), ((0, -1), -1)]
    pairs = [(Polyhedron.from_halfspaces(square, 2), Polyhedron.from_halfspaces(square[::-1], 2)),
             (_quadrant_fan(), _quadrant_fan()),
             (Rank1Family.from_rule("1/n"), Rank1Family.from_rule("1/n")),
             (LPResult("optimal", F(1), (F(1, 2),)), LPResult("optimal", F(1), (F(1, 2),)))]
    for a, b in pairs:
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(_fields(a))
    assert Polyhedron.__match_args__ == ("ambient", "is_empty", "equalities", "facets")
    assert Fan.__match_args__ == ("ambient", "cones")


def test_one_field_record_hashes_as_a_one_tuple():
    @record
    class One:
        a: int

    assert hash(One(3)) == hash((3,)) and One(3) == One(a=3) != One(4)


def test_equality_needs_the_same_class():
    cone = Cone.from_rays([(1, 0), (0, 1)], 2)
    plain = Polyhedron(*_fields(cone))
    assert _fields(plain) == _fields(cone)
    assert cone != plain and plain != cone
    assert cone.as_polyhedron() == plain
    assert LPResult("optimal", F(0), ()) != ("optimal", F(0), ())


def test_records_are_frozen():
    cone = Cone.from_rays([(1, 0)], 2)
    result = LPResult("optimal", F(0), ())
    for obj, name in [(cone, "ambient"), (cone, "anything"), (result, "status"),
                      (_quadrant_fan(), "_index")]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 1)
        with pytest.raises(AttributeError):
            delattr(obj, name)


def test_arguments_bind_as_in_a_call():
    assert LPResult(status="infeasible", value=None, point=None) \
        == LPResult("infeasible", point=None, value=None) \
        == LPResult("infeasible", None, None)
    for args, kwargs in [(("optimal", F(0)), {}), (("optimal", F(0), (), ()), {}),
                         (("optimal", F(0)), {"point": (), "bogus": 1}),
                         (("optimal", F(0), ()), {"status": "optimal"})]:
        with pytest.raises(TypeError):
            LPResult(*args, **kwargs)


def test_defaults_and_post_init():
    family = Rank1Family("harmonic", F(1), F(0), F(0), F(0), 1)
    assert family.n_max is None and family.isolated == ()
    assert family == Rank1Family("harmonic", F(1), F(0), F(0), F(0), n_min=1, n_max=None)
    with pytest.raises(FamilyNotSupported):
        Rank1Family("geometric", F(1), F(0), F(2), F(0), 1)
    fan = _quadrant_fan()
    assert fan.index_of(fan.cones[0]) == 0 and fan.face_indices(len(fan) - 1)


def test_repr_lists_the_fields():
    assert repr(LPResult("optimal", F(1, 2), (F(1),))) \
        == "LPResult(status='optimal', value=Fraction(1, 2), point=(Fraction(1, 1),))"
    assert repr(_quadrant_fan()).startswith("Fan(ambient=2, cones=(")
    lattice = stratum_lattice(_quadrant_fan(), 1)
    assert lattice.rank == 1 and lattice.quotient_rank == 1
    assert repr(lattice).startswith("StratumLattice(fan=Fan(ambient=2, ")
    assert repr(lattice).endswith(", cone_index=1)")


def test_cached_properties_still_cache():
    p = Polyhedron.from_halfspaces([((1, 0), 0), ((0, 1), 0), ((-1, -1), -1)], 2)
    assert p.halfspace_pairs is p.halfspace_pairs
    assert "halfspace_pairs" in p.__dict__


def test_library_compiles_no_code():
    """No module of the library generates source, or imports the module that does."""
    call = re.compile(r"(?<![\w.])(exec|eval|compile)\(")
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        assert "dataclasses" not in text, path.name
        assert not call.search(text), path.name
