import random
from fractions import Fraction as F

import pytest

from oracles import (
    FiniteModule,
    brute_force_h2_orders,
    build_cyclic_module as cyclic_module,
    group_order_multiset,
)
from spherical_models import (
    BrCharacter,
    FgAbelianGroup,
    GaloisAction,
    IntMatrix,
    PADIC,
    REAL,
    all_characters,
    br_vanishing_test,
    galois_from_permutations,
    h2_cyclic,
    module_with_action,
    norm_subgroup,
    validate_br_character,
)
from spherical_models.lattice import GroupHom, fixed_sublattice, group_invariants, quotient_group


# -- GaloisAction construction ------------------------------------------------


def test_action_verifies_relations():
    with pytest.raises(ValueError):
        GaloisAction("cyclic2", [IntMatrix([[2]])])  # 2^2 != 1


def test_action_non_faithful_ok():
    g = GaloisAction("cyclic3", [IntMatrix.identity(2)])
    assert g.order == 3 and g.is_trivial_action() and not g.is_trivial_group()


def test_s3_action_from_d4_automorphisms():
    from spherical_models import based_root_datum, diagram_automorphism_group

    rd = based_root_datum("D4")
    autos = diagram_automorphism_group(rd.type)
    three = [a for a in autos if a.order() == 3][0]
    two = [a for a in autos if a.order() == 2][0]
    g = galois_from_permutations(rd, [three, two])
    assert g.group_name == "s3" and g.order == 6


def test_action_value_equality_and_hash(rd_a5):
    from spherical_models import diagram_automorphism_group, star_action_matrix

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


# -- norms --------------------------------------------------------------------


def test_norm_trivial_group_is_identity():
    mod, galois = cyclic_module((6,), [(1,)], 1)
    sub, incl = norm_subgroup(mod, galois)
    assert sub.order() == 6


def test_norm_of_negation_on_z():
    mod, galois = cyclic_module((0,), [(-1,)], 2)
    sub, _ = norm_subgroup(mod, galois)
    assert sub.is_trivial()


def test_norm_doubling_on_z6():
    mod, galois = cyclic_module((6,), [(1,)], 2)
    sub, incl = norm_subgroup(mod, galois)
    assert sub.invariant_factors == (3,)
    assert sorted(incl.apply(e) for e in sub.elements()) == [(0,), (2,), (4,)]
    h2, _ = h2_cyclic(mod, galois)
    assert h2.invariant_factors == (2,)


def test_norm_rejects_s3():
    mats = [IntMatrix.identity(1)] * 6
    mod = FgAbelianGroup(1, [[2]], action=mats)
    table_galois = GaloisAction("s3", [IntMatrix.identity(1), IntMatrix.identity(1)])
    with pytest.raises(ValueError):
        norm_subgroup(mod, table_galois)
    with pytest.raises(ValueError):
        h2_cyclic(mod, table_galois)


# -- H^2 ----------------------------------------------------------------------


def test_h2_trivial_group_vanishes():
    mod, galois = cyclic_module((2,), [(1,)], 1)
    h2, _ = h2_cyclic(mod, galois)
    assert h2.is_trivial()


def test_h2_order2_trivial_action_on_z2():
    mod, galois = cyclic_module((2,), [(1,)], 2)
    h2, _ = h2_cyclic(mod, galois)
    assert h2.invariant_factors == (2,)


def test_h2_negation_on_z_vanishes():
    mod, galois = cyclic_module((0,), [(-1,)], 2)
    h2, _ = h2_cyclic(mod, galois)
    assert h2.is_trivial()
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
    from spherical_models import cohomology_class

    mod, galois = cyclic_module((6,), [(1,)], 2)
    cls3 = cohomology_class(mod, galois, (3,))
    cls2 = cohomology_class(mod, galois, (2,))  # a norm: 2 = 1 + g(1)
    assert not cls3.is_zero() and cls2.is_zero()
    assert cls3.add(cls3).is_zero()
    assert cls3.neg().element == cls3.element  # order two
    with pytest.raises(ValueError):
        mod_neg, g_neg = cyclic_module((0,), [(-1,)], 2)
        cohomology_class(mod_neg, g_neg, (1,))  # not a fixed point


def test_h2_class_map_is_surjective_onto_classes():
    mod, galois = cyclic_module((4,), [(1,)], 2)
    h2, cmap = h2_cyclic(mod, galois)
    assert h2.invariant_factors == (2,)
    images = {cmap.apply(e) for e in cmap.source.elements()}
    assert images == set(h2.elements())


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
    assert t.serialize() == ["1/2", "1/4"]


def test_validate_real_half_integer_rule():
    g = FgAbelianGroup(1, [[6]])
    assert validate_br_character(BrCharacter(g, [F(1, 2)]), REAL) == []
    problems = validate_br_character(BrCharacter(g, [F(1, 3)]), REAL)
    assert any("1/2" in p for p in problems)
    assert validate_br_character(BrCharacter(g, [F(1, 6)]), PADIC) == []


def test_validate_real_norm_vanishing(rd_a5):
    # trivial order-2 action on Z/6: norms are the doubles, 1/2 kills them
    g2 = GaloisAction("cyclic2", [IntMatrix.identity(5)])
    mod = module_with_action(rd_a5.weight_lattice, rd_a5.root_lattice, g2)
    inv, incl = group_invariants(mod)
    ok = BrCharacter(inv, [F(1, 2)])
    assert validate_br_character(ok, REAL, ambient=mod, galois=g2, embedding=incl) == []
    # a character not constant on norm cosets is rejected: 1/6 has order 6
    bad = BrCharacter(inv, [F(1, 6)])
    problems = validate_br_character(bad, REAL, ambient=mod, galois=g2, embedding=incl)
    assert problems


def test_validate_real_character_constant_on_norm_cosets(rd_a5, galois_a5_flip):
    rng = random.Random(9)
    mod = module_with_action(
        rd_a5.weight_lattice, rd_a5.root_lattice, galois_a5_flip
    )
    inv, incl = group_invariants(mod)
    for t0 in all_characters(inv):
        if validate_br_character(
            t0, REAL, ambient=mod, galois=galois_a5_flip, embedding=incl
        ):
            continue
        # valid characters take one value on each norm coset
        for _ in range(20):
            a = tuple(rng.randrange(6) for _ in range(mod.rank))
            a = mod.reduce_reduced(a)
            norm = mod.add(a, mod.apply_action(1, a))
            pre = incl.preimage(norm)
            assert pre is not None and t0.evaluate(pre) == 0


def test_vanishing_with_identity_hom_is_zero_test():
    g = FgAbelianGroup(1, [[6]])
    ident = GroupHom(g, g, [(1,)])
    assert br_vanishing_test(BrCharacter.zero(g), ident)
    assert not br_vanishing_test(BrCharacter(g, [F(1, 6)]), ident)


def test_vanishing_on_projection_witness(rd_a5):
    # trivial action: the generator weight maps onto a generator of Z/6
    galois = GaloisAction.trivial(5)
    mod = module_with_action(rd_a5.weight_lattice, rd_a5.root_lattice, galois)
    inv, incl = group_invariants(mod)
    t0 = BrCharacter(inv, [F(1, 6)])
    p_fix = fixed_sublattice(5, list(galois.matrices))
    images = [incl.preimage(mod.from_ambient(r)) for r in p_fix.basis.data]
    proj = GroupHom(
        quotient_group(p_fix, p_fix), inv, []
    )  # placeholder for empty-source sanity
    hom = GroupHom(_free_group(len(images)), inv, images)
    assert not br_vanishing_test(t0, hom)


def test_example_index_two_fixed_part_vanishes(rd_a5, galois_a5_flip, m_2p_plus_q):
    # fixed part of the index-2 lattice lies in the root lattice, so any
    # character kills its image
    mats = list(galois_a5_flip.matrices)
    mod = module_with_action(rd_a5.weight_lattice, rd_a5.root_lattice, galois_a5_flip)
    inv, incl = group_invariants(mod)
    m_fix = fixed_sublattice(m_2p_plus_q, mats)
    images = [incl.preimage(mod.from_ambient(r)) for r in m_fix.basis.data]
    hom = GroupHom(_free_group(len(images)), inv, images)
    for t0 in all_characters(inv):
        assert br_vanishing_test(t0, hom)


def _free_group(rank):
    return FgAbelianGroup(rank, [])
