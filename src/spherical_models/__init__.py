"""Exact-arithmetic decision engine for equivariant models of spherical varieties.

Decides, from combinatorial input data (root data, Galois images through
diagram automorphisms, and Tits characters), whether a spherical or
horospherical homogeneous space or a spherical embedding admits an
equivariant form over the reals, a p-adic field, or a number field.
"""

from .lattice import (
    FgAbelianGroup,
    GroupHom,
    IntMatrix,
    Lattice,
    fixed_sublattice,
    group_invariants,
    hnf,
    quotient_group,
    snf,
)
from .rootdata import (
    BasedRootDatum,
    DiagramAutomorphism,
    SimpleType,
    based_root_datum,
    cartan_matrix,
    center_character_group,
    diagram_automorphism_group,
    epsilon_coordinates,
    star_action_matrix,
)
from .galoismodule import (
    PADIC,
    REAL,
    BrCharacter,
    GaloisAction,
    all_characters,
    br_vanishing_test,
    galois_from_permutations,
    h2_cyclic,
    module_with_action,
    norm_subgroup,
    validate_br_character,
)
from .spherical import (
    Color,
    ColorLift,
    OmegaElement,
    SphericalDatum,
    aut_character_lattices,
    omega_sets,
    orbit_action,
)
from .horospherical import HorosphericalDatum
from .embeddings import (
    ColoredCone,
    ColoredFan,
    cone_canonicalize,
    fan_stable,
    stabilizing_lift,
)
from .decision import (
    NUMBER_FIELD,
    CatalogEntry,
    FieldDescriptor,
    LocalSite,
    TitsClassSpec,
    UnsupportedBaseField,
    Verdict,
    catalog_lookup,
    catalog_names,
    decide_diagonal,
    decide_embedding,
    decide_gu,
    decide_horospherical,
    decide_local_general,
    decide_number_field,
    delta_markers_from_catalog,
    theta_lattice,
)

__version__ = "0.1.0"
