"""The package root exports only what the README documents."""

import re
import types
from pathlib import Path

import pytest

import spherical_models

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_is_documented_in_the_readme():
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    quoted = set(re.findall(r"`([^`]+)`", prose))
    public = {
        name
        for name, value in vars(spherical_models).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - quoted) == []


def _records():
    """One value of every record class: name -> zero-argument builder."""
    from spherical_models import (
        Color,
        ColoredCone,
        HorosphericalDatum,
        LocalSite,
        TitsClassSpec,
        Verdict,
        based_root_datum,
        catalog_lookup,
        diagram_automorphism_group,
        galois_from_permutations,
        orbit_action,
    )
    from spherical_models.decision import FieldDescriptor, resolve_local_character
    from spherical_models.galoismodule import BrCharacter
    from spherical_models.lattice import FgAbelianGroup, read_rational
    from spherical_models.rootdata import SimpleType
    from spherical_models.spherical import ColorLift

    rd = based_root_datum("A2")
    trivial = galois_from_permutations(rd, [])
    return {
        "SimpleType": lambda: SimpleType("A", 2),
        "BasedRootDatum": lambda: rd,
        "DiagramAutomorphism": lambda: diagram_automorphism_group(rd.type)[1],
        "Color": lambda: Color("D1", ["1", "0"], [1]),
        "ColorLift": lambda: ColorLift(((("D1", "D1"),),)),
        "ColoredCone": lambda: ColoredCone([["1", "0"]], ["D1"]),
        "BrCharacter": lambda: BrCharacter.zero(FgAbelianGroup(1, [[2]])),
        "Rational": lambda: read_rational("1/2"),
        "TitsClassSpec": TitsClassSpec.zero,
        "Verdict": lambda: Verdict(({"condition": "cohomology", "ok": True},)),
        "LocalSite": lambda: LocalSite("v0", "real", trivial, None),
        "FieldDescriptor": lambda: FieldDescriptor("padic"),
        "LocalCharacter": lambda: resolve_local_character(rd, trivial, TitsClassSpec.zero(), "padic"),
        "CatalogEntry": lambda: catalog_lookup("SU(2,1)"),
        "OrbitAction": lambda: orbit_action(HorosphericalDatum(rd, [], [[1, 0], [0, 1]]).to_spherical(), trivial),
        "HorosphericalDatum": lambda: HorosphericalDatum(rd, [1], [[0, 1]]),
    }


def test_every_record_class_is_checked_below():
    records = {
        name
        for module in vars(spherical_models).values()
        if isinstance(module, types.ModuleType)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__
    }
    assert records == set(_records())


@pytest.mark.parametrize("name", sorted(_records()))
def test_a_record_refuses_attribute_assignment(name):
    """README: the records are values; assigning an attribute raises."""
    value = _records()[name]()
    field = value._fields[0]
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        value.extra = 1


def test_a_horospherical_datum_compares_and_hashes_by_value():
    from spherical_models import HorosphericalDatum, based_root_datum

    rd = based_root_datum("A3")
    one = HorosphericalDatum(rd, [2], [[1, 0, 0], [0, 0, 1]])
    # the same pair, its lattice given by another basis
    other = HorosphericalDatum(rd, (2,), [[1, 0, 1], [0, 0, 1]])
    assert one == other and hash(one) == hash(other) and len({one, other}) == 1
    assert one != HorosphericalDatum(rd, [], [[1, 0, 0], [0, 0, 1]])
