"""Exact-arithmetic decision engine for equivariant models of spherical varieties.

Decides, from combinatorial input data (root data, Galois images through
diagram automorphisms, and Tits characters), whether a spherical or
horospherical homogeneous space or a spherical embedding admits an
equivariant form over the reals, a p-adic field, or a number field.
"""

from .rootdata import based_root_datum, diagram_automorphism_group
from .galoismodule import (
    PADIC,
    REAL,
    GaloisAction,
    all_characters,
    galois_from_permutations,
)
from .spherical import Color, SphericalDatum, orbit_action
from .horospherical import HorosphericalDatum
from .embeddings import ColoredCone, ColoredFan, fan_stable, stabilizing_lift
from .decision import (
    LocalSite,
    TitsClassSpec,
    Verdict,
    catalog_lookup,
    decide_diagonal,
    decide_embedding,
    decide_gu,
    decide_horospherical,
    decide_local_general,
    decide_number_field,
    delta_markers_from_catalog,
)

__version__ = "0.1.0"
