import random
from fractions import Fraction as F

import pytest

from oracles import (
    ActedGroup,
    FiniteModule,
    GroupHom,
    br_vanishing_test,
    brute_force_h2_orders,
    build_cyclic_module as cyclic_module,
    center_invariants_by_group,
    group_elements,
    group_invariants,
    group_order_multiset,
    h2_cyclic,
    hom_apply,
    norm_subgroup,
    scale,
)
from spherical_models import (
    GaloisAction,
    PADIC,
    REAL,
    all_characters,
    based_root_datum,
    diagram_automorphism_group,
    galois_from_permutations,
)
from spherical_models.galoismodule import BrCharacter, validate_br_character
from spherical_models.lattice import (
    FgAbelianGroup,
    IntMatrix,
    apply_row,
    fixed_sublattice,
    quotient_group,
)
from spherical_models.decision import LocalCharacter, center_invariants
from spherical_models.rootdata import diagram_flip, star_action_matrix


# -- GaloisAction construction ------------------------------------------------


def test_action_verifies_relations():
    with pytest.raises(ValueError):
        GaloisAction("cyclic2", [IntMatrix([[2]])])  # 2^2 != 1


def test_action_non_faithful_ok():
    g = GaloisAction("cyclic3", [IntMatrix.identity(2)])
    assert len(g.matrices) == 3 and g.is_trivial_action()


def test_s3_action_from_d4_automorphisms():
    from spherical_models import based_root_datum, diagram_automorphism_group

    rd = based_root_datum("D4")
    autos = diagram_automorphism_group(rd.type)
    three = [a for a in autos if a.order() == 3][0]
    two = [a for a in autos if a.order() == 2][0]
    g = galois_from_permutations(rd, [three, two])
    assert g.group_name == "s3" and len(g.matrices) == 6


def _images(label):
    """(group name, given generator matrices, action) for every image that
    galois_from_permutations builds from the diagram automorphisms of a type."""
    rd = based_root_datum(label)
    autos = diagram_automorphism_group(rd.type)
    gen_sets = [[a] for a in autos] + [
        [r, s] for r in autos if r.order() == 3 for s in autos if s.order() == 2
    ]
    out = []
    for gens in gen_sets:
        g = galois_from_permutations(rd, gens)
        given = [] if g.group_name == "trivial" else [star_action_matrix(rd, a) for a in gens]
        out.append((g.group_name, given, g))
    return out


def _check_image(name, given, g):
    assert g.group_name == name
    assert g.matrices[0] == IntMatrix.identity(g.n)
    assert list(g.generator_matrices()) == list(given)
    elements = set(g.matrices)
    assert all(a * b in elements for a in g.matrices for b in g.matrices)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "E6"])
def test_presentations_build_every_diagram_image(label):
    images = _images(label)
    for name, given, g in images:
        _check_image(name, given, g)
    if label == "D4":
        assert {name for name, _, _ in images} == {"trivial", "cyclic2", "cyclic3", "s3"}


def test_presentations_build_non_faithful_images():
    rd = based_root_datum("D4")
    two = [a for a in diagram_automorphism_group(rd.type) if a.order() == 2][0]
    ident = IntMatrix.identity(4)
    cases = [("cyclic2", [ident]), ("cyclic3", [ident]), ("s3", [ident, star_action_matrix(rd, two)])]
    images = [(name, given, GaloisAction(name, given)) for name, given in cases]
    for name, given, g in images:
        _check_image(name, given, g)
    assert [len(g.matrices) for _, _, g in images] == [2, 3, 6]
    assert [len(set(g.matrices)) for _, _, g in images] == [1, 1, 2]


def test_presentations_refuse_matrices_breaking_a_relator(rd_a5):
    flip = star_action_matrix(rd_a5, diagram_automorphism_group(rd_a5.type)[1])
    d4 = based_root_datum("D4")
    threes = [star_action_matrix(d4, a) for a in diagram_automorphism_group(d4.type) if a.order() == 3]
    for name, given in [
        ("cyclic3", [flip]),
        ("s3", threes),
        ("s3", [threes[0], IntMatrix.identity(4)]),
    ]:
        with pytest.raises(ValueError, match="matrices do not satisfy the group relations"):
            GaloisAction(name, given)


def test_action_value_equality_and_hash(rd_a5):
    from spherical_models import diagram_automorphism_group
    from spherical_models.rootdata import star_action_matrix

    flip = [a for a in diagram_automorphism_group(rd_a5.type) if a.order() == 2][0]
    built = GaloisAction("cyclic2", [star_action_matrix(rd_a5, flip)])
    derived = galois_from_permutations(rd_a5, [flip])
    assert built == derived and hash(built) == hash(derived)
    assert GaloisAction.trivial(5) == GaloisAction("trivial", [], n=5)
    # the trivial group and the order-2 group acting trivially stay distinct
    assert GaloisAction.trivial(5) != GaloisAction("cyclic2", [IntMatrix.identity(5)])
    # different generator matrices give different actions
    assert built != GaloisAction("cyclic2", [IntMatrix.identity(5)])


def test_subaction_check(rd_a5, galois_a5_flip):
    triv = GaloisAction.trivial(5)
    assert triv.is_subaction_of(galois_a5_flip)
    assert not galois_a5_flip.is_subaction_of(triv)


# -- norms and H^2: the oracle of validate_br_character's norm check ------------


def test_norm_trivial_group_is_identity():
    mod, galois = cyclic_module((6,), [(1,)], 1)
    sub, incl = norm_subgroup(mod, galois)
    assert sub.order() == 6


def test_norm_of_negation_on_z():
    mod, galois = cyclic_module((0,), [(-1,)], 2)
    sub, _ = norm_subgroup(mod, galois)
    assert sub.order() == 1


def test_norm_doubling_on_z6():
    mod, galois = cyclic_module((6,), [(1,)], 2)
    sub, incl = norm_subgroup(mod, galois)
    assert sub.invariant_factors == (3,)
    assert sorted(hom_apply(incl, e) for e in group_elements(sub)) == [(0,), (2,), (4,)]
    h2, _ = h2_cyclic(mod, galois)
    assert h2.invariant_factors == (2,)


def test_norm_rejects_s3():
    mats = [IntMatrix.identity(1)] * 6
    mod = ActedGroup(1, [[2]], mats)
    table_galois = GaloisAction("s3", [IntMatrix.identity(1), IntMatrix.identity(1)])
    with pytest.raises(ValueError):
        norm_subgroup(mod, table_galois)
    with pytest.raises(ValueError):
        h2_cyclic(mod, table_galois)


def test_h2_trivial_group_vanishes():
    mod, galois = cyclic_module((2,), [(1,)], 1)
    h2, _ = h2_cyclic(mod, galois)
    assert h2.order() == 1


def test_h2_order2_trivial_action_on_z2():
    mod, galois = cyclic_module((2,), [(1,)], 2)
    h2, _ = h2_cyclic(mod, galois)
    assert h2.invariant_factors == (2,)


def test_h2_negation_on_z_vanishes():
    mod, galois = cyclic_module((0,), [(-1,)], 2)
    h2, _ = h2_cyclic(mod, galois)
    assert h2.order() == 1
    # truncation pattern: on Z/N the invariants are the 2-torsion, norms vanish
    for n in (2, 3, 4, 5, 6):
        modn, g2 = cyclic_module((n,), [(-1,)], 2)
        h2n, _ = h2_cyclic(modn, g2)
        oracle = brute_force_h2_orders(FiniteModule((n,)), [(-x) % n for x in range(n)], 2)
        assert group_order_multiset(h2n) == oracle


def test_h2_matches_cocycle_oracle_sampled():
    rng = random.Random(0)
    cases = [((d,), o) for d in (2, 3, 4, 6) for o in (2, 3)] + [((2, 4), 2), ((3, 3), 3)]
    for moduli, order in cases:
        fm = FiniteModule(moduli)
        tables = fm.all_endomorphism_tables(order)
        rng.shuffle(tables)
        for images, table in tables[:4]:
            mod, galois = cyclic_module(moduli, images, order)
            h2, _ = h2_cyclic(mod, galois)
            assert group_order_multiset(h2) == brute_force_h2_orders(fm, table, order), (
                moduli,
                order,
                images,
            )


def test_cohomology_class_representatives():
    # the class of a fixed point is its image under the class map
    mod, galois = cyclic_module((6,), [(1,)], 2)
    h2, cmap = h2_cyclic(mod, galois)
    _, incl = group_invariants(mod)
    cls3 = hom_apply(cmap, incl.preimage((3,)))
    cls2 = hom_apply(cmap, incl.preimage((2,)))  # a norm: 2 = 1 + g(1)
    assert any(cls3) and not any(cls2)
    assert not any(scale(h2, cls3, 2))
    assert scale(h2, cls3, -1) == cls3  # order two
    mod_neg, _ = cyclic_module((0,), [(-1,)], 2)
    assert group_invariants(mod_neg)[1].preimage((1,)) is None  # not a fixed point


def test_h2_class_map_is_surjective_onto_classes():
    mod, galois = cyclic_module((4,), [(1,)], 2)
    h2, cmap = h2_cyclic(mod, galois)
    assert h2.invariant_factors == (2,)
    images = {hom_apply(cmap, e) for e in group_elements(cmap.source)}
    assert images == set(group_elements(h2))


# -- Brauer characters --------------------------------------------------------


def test_character_needs_killed_values():
    g = FgAbelianGroup(1, [[2]])
    with pytest.raises(ValueError):
        BrCharacter(g, [F(1, 3)])


def test_character_zero_and_evaluation():
    g = FgAbelianGroup(2, [[2, 0], [0, 4]])
    t = BrCharacter(g, [F(1, 2), F(1, 4)])
    assert t.evaluate((1, 1)) == F(3, 4)
    assert t.evaluate((0, 0)) == 0
    assert BrCharacter.zero(g).is_zero()
    assert [str(v) for v in t.values] == ["1/2", "1/4"]


def test_validate_real_half_integer_rule():
    g = FgAbelianGroup(1, [[6]])
    assert validate_br_character(BrCharacter(g, [F(1, 2)]), REAL) == []
    problems = validate_br_character(BrCharacter(g, [F(1, 3)]), REAL)
    assert any("1/2" in p for p in problems)
    assert validate_br_character(BrCharacter(g, [F(1, 6)]), PADIC) == []


def test_validate_real_norm_vanishing(rd_a5):
    # trivial order-2 action on Z/6: norms are the doubles, 1/2 kills them
    g2 = GaloisAction("cyclic2", [IntMatrix.identity(5)])
    mod, inv, fixed = center_invariants(rd_a5, g2)
    ok = BrCharacter(inv, [F(1, 2)])
    assert validate_br_character(ok, REAL, g2, LocalCharacter(mod, inv, fixed, ok)) == []
    # a character not constant on norm cosets is rejected: 1/6 has order 6
    bad = BrCharacter(inv, [F(1, 6)])
    problems = validate_br_character(bad, REAL, g2, LocalCharacter(mod, inv, fixed, bad))
    assert any("norm" in p for p in problems)


def test_validate_real_has_no_norm_check_for_the_trivial_group(rd_a5):
    # over the order-1 group the norm map is the identity, which 1/2 does
    # not kill: the norm check runs for a group of order 2 or more only
    trivial = GaloisAction.trivial(5)
    mod, inv, fixed = center_invariants(rd_a5, trivial)
    t0 = BrCharacter(inv, [F(1, 2)])
    assert validate_br_character(t0, REAL, trivial, LocalCharacter(mod, inv, fixed, t0)) == []


def test_validate_real_character_constant_on_norm_cosets(rd_a5, galois_a5_flip):
    rng = random.Random(9)
    mod, inv, fixed = center_invariants(rd_a5, galois_a5_flip)
    norm = galois_a5_flip.matrices[0] + galois_a5_flip.matrices[1]
    for t0 in all_characters(inv):
        local = LocalCharacter(mod, inv, fixed, t0)
        if validate_br_character(t0, REAL, galois_a5_flip, local):
            continue
        # valid characters vanish on the class of every norm a + g(a)
        for _ in range(20):
            a = tuple(rng.randrange(-6, 7) for _ in range(5))
            assert t0.evaluate(local.class_of(apply_row(a, norm))) == 0


def _order_two_images():
    """The flip of A2-A7, D4-D6 and E6, and the order-2 group acting
    trivially on each of A1-A7, D4-D6 and E6."""
    out = []
    for label in ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "E6"]:
        rd = based_root_datum(label)
        flip = diagram_flip(rd.type)
        if flip is not None:
            out.append((rd, galois_from_permutations(rd, [flip])))
        identity = diagram_automorphism_group(rd.type)[0]
        out.append((rd, galois_from_permutations(rd, [identity], group_name="cyclic2")))
    return out


def test_validate_real_agrees_with_the_h2_oracle():
    # over the reals a character is valid exactly when it is half-integral
    # and kills the fixed classes that are norms, the kernel of the class map
    # onto fixed points modulo norms
    norm_refused = valid = 0
    for rd, galois in _order_two_images():
        mod, inv, fixed = center_invariants(rd, galois)
        _, class_map = h2_cyclic(center_invariants_by_group(rd, galois)[0], galois)
        assert class_map.source.invariant_factors == inv.invariant_factors
        norms = [e for e in group_elements(inv) if not any(hom_apply(class_map, e))]
        for t0 in all_characters(inv):
            half = all((2 * v) % 1 == 0 for v in t0.values)
            kills_norms = all(t0.evaluate(e) == 0 for e in norms)
            problems = validate_br_character(t0, REAL, galois, LocalCharacter(mod, inv, fixed, t0))
            assert (not problems) == (half and kills_norms), (rd.type, galois, t0.values)
            valid += not problems
            norm_refused += half and not kills_norms
    # both directions are exercised: valid characters, and half-integral
    # ones that only the norm check refuses (the D4 and D6 flips)
    assert valid and norm_refused


def test_vanishing_with_identity_hom_is_zero_test():
    g = FgAbelianGroup(1, [[6]])
    ident = GroupHom(g, g, [(1,)])
    assert br_vanishing_test(BrCharacter.zero(g), ident)
    assert not br_vanishing_test(BrCharacter(g, [F(1, 6)]), ident)


def test_vanishing_on_projection_witness(rd_a5):
    # trivial action: the generator weight maps onto a generator of Z/6
    galois = GaloisAction.trivial(5)
    mod, inv, fixed = center_invariants(rd_a5, galois)
    t0 = BrCharacter(inv, [F(1, 6)])
    local = LocalCharacter(mod, inv, fixed, t0)
    p_fix = fixed_sublattice(5, list(galois.matrices))
    images = [local.class_of(r) for r in p_fix.basis.data]
    proj = GroupHom(
        quotient_group(p_fix, p_fix), inv, []
    )  # placeholder for empty-source sanity
    hom = GroupHom(_free_group(len(images)), inv, images)
    assert not br_vanishing_test(t0, hom)


def test_example_index_two_fixed_part_vanishes(rd_a5, galois_a5_flip, m_2p_plus_q):
    # fixed part of the index-2 lattice lies in the root lattice, so any
    # character kills its image
    mats = list(galois_a5_flip.matrices)
    mod, inv, fixed = center_invariants(rd_a5, galois_a5_flip)
    local = LocalCharacter(mod, inv, fixed, BrCharacter.zero(inv))
    m_fix = fixed_sublattice(m_2p_plus_q, mats)
    images = [local.class_of(r) for r in m_fix.basis.data]
    hom = GroupHom(_free_group(len(images)), inv, images)
    for t0 in all_characters(inv):
        assert br_vanishing_test(t0, hom)


def _free_group(rank):
    return FgAbelianGroup(rank, [])


# -- refusals ------------------------------------------------------------------

_Z = FgAbelianGroup(1, [])  # infinite cyclic


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: GaloisAction("klein4", []), "unsupported group 'klein4'"),
        (lambda: GaloisAction("s3", [[[1]]]), "group s3 needs 2 generator matrices"),
        (lambda: GaloisAction("trivial", []), "ambient rank required for the trivial group"),
        (lambda: GaloisAction("cyclic2", [[[1, 0]]]), "must be square of equal size"),
        (lambda: BrCharacter(_Z, [0]), "Brauer characters live on finite groups"),
        (lambda: all_characters(_Z), "infinite group"),
    ],
    ids=["group", "generator-count", "trivial-without-n", "non-square", "br-infinite", "all-infinite"],
)
def test_galois_and_character_refusals(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_an_unsupported_mode_is_the_only_diagnostic():
    t0 = BrCharacter.zero(FgAbelianGroup(1, [[2]]))
    assert validate_br_character(t0, "complex") == ["unsupported base field: 'complex'"]
