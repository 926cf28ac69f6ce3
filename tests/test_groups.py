import pytest

import orbigw.groups
from orbigw.groups import (MAX_TABLE_BYTES, NotAGroup, OrderExceedsLimit,
                           UnsupportedName, _compose, build_from_cayley,
                           build_from_generators, check_table_size,
                           conjugacy_data, cycle_notation, direct_product,
                           group_from_spec, joint_centralizer_order,
                           named_group, parse_cycles, table_bytes)

NAMED = [named_group("Z", n) for n in range(1, 9)] + [
    named_group("S", 3), named_group("S", 4), named_group("D", 4),
    named_group("D", 5), named_group("Q8"),
    direct_product(named_group("Z", 2), named_group("Z", 2)),
    direct_product(named_group("Z", 2), named_group("Z", 3)),
]


def test_cayley_trivial():
    g = build_from_cayley([[0]])
    assert g.order == 1 and g.identity == 0 and g.inv == (0,)


def test_cayley_z2():
    g = build_from_cayley([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.inv == (0, 1)


def test_cayley_rejects_non_latin_square():
    with pytest.raises(NotAGroup) as exc:
        build_from_cayley([[0, 1], [1, 1]])
    assert "permutation" in str(exc.value)


LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def loop_times_cyclic(n):
    """Cayley table of LOOP5 x Z_n, element (l, z) at index l*n + z."""
    return [[LOOP5[l1][l2] * n + (z1 + z2) % n
             for l2 in range(5) for z2 in range(n)]
            for l1 in range(5) for z1 in range(n)]


def test_cayley_rejects_nonassociative():
    # order-5 loop: Latin square with two-sided identity and inverses,
    # but (1*2)*2 = 3*2 = 4 while 1*(2*2) = 1*0 = 1; its products with
    # Z_3 and Z_103 (515 elements) must be rejected at every order too
    for table in (LOOP5, loop_times_cyclic(3), loop_times_cyclic(103)):
        with pytest.raises(NotAGroup) as exc:
            build_from_cayley(table)
        assert "associativity" in str(exc.value)


def test_generators_s3():
    g = build_from_generators([parse_cycles("(0 1)", 3),
                               parse_cycles("(0 1 2)", 3)])
    assert g.order == 6
    assert g.identity == 0
    assert g.element_names[0] == "()"


def _table_by_composition(perms):
    """Reference construction: BFS closure, then one composition per entry."""
    degree = max((len(p) for p in perms), default=0)
    gens = [tuple(p) + tuple(range(len(p), degree)) for p in perms]
    ident = tuple(range(degree))
    elems, index, queue = [ident], {ident: 0}, [ident]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = _compose(x, g)
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    n = len(elems)
    mult = tuple(tuple(index[_compose(elems[i], elems[j])] for j in range(n))
                 for i in range(n))
    inv = tuple(index[tuple(sorted(range(degree), key=p.__getitem__))]
                for p in elems)
    return mult, inv, 0, tuple(cycle_notation(p) for p in elems)


@pytest.mark.parametrize("generators", [
    None,  # S5 by name
    ["(0 1 2 3 4)", "(0 1 2)"],
    ["(0 1)", "(0 1 2 3 4 5)"],
    ["(0 1)(2 3)", "(0 2)(1 3)", "(4 5 6)"],
    ["()", "(0 1 2)", "(0 1 2)"],
    [],
])
def test_generator_table_matches_composition(generators):
    if generators is None:
        g = named_group("S", 5)
        perms = [parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)]
    else:
        g = group_from_spec({"generators": generators})
        perms = [parse_cycles(text) for text in generators]
    mult, inv, identity, names = _table_by_composition(perms)
    assert g.order == len(mult)
    assert g.mult == mult
    assert g.inv == inv
    assert g.identity == identity
    assert g.element_names == names


def test_generators_empty_gives_trivial():
    g = build_from_generators([])
    assert g.order == 1


def test_generators_four_cycle():
    g = build_from_generators([parse_cycles("(0 1 2 3)")])
    assert g.order == 4
    cd = conjugacy_data(g)
    assert cd.r == 4  # cyclic, all classes singletons


def test_table_size_guard_by_estimate(monkeypatch):
    # decided from the order alone: S8 and order 100,000 are rejected
    assert table_bytes(40320) > MAX_TABLE_BYTES > table_bytes(5040)
    for order in (40320, 100_000):
        with pytest.raises(OrderExceedsLimit):
            check_table_size(order)
    check_table_size(5040)
    # every builder asks before it allocates: with the ceiling between
    # the order-23 and order-24 estimates, order 24 fails and 23 builds
    monkeypatch.setattr(orbigw.groups, "MAX_TABLE_BYTES", table_bytes(23))
    z24 = [[(i + j) % 24 for j in range(24)] for i in range(24)]
    for build in (lambda: named_group("S", 4), lambda: named_group("Z", 24),
                  lambda: named_group("D", 12), lambda: build_from_cayley(z24),
                  lambda: direct_product(named_group("Z", 4),
                                         named_group("Z", 6))):
        with pytest.raises(OrderExceedsLimit):
            build()
    assert named_group("Z", 23).order == 23


def test_cycle_notation_roundtrip():
    perm = parse_cycles("(0 2)(1 3 4)")
    assert parse_cycles(cycle_notation(perm), len(perm)) == perm
    assert cycle_notation((0, 1, 2)) == "()"


def test_named_groups():
    assert named_group("S", 3).order == 6
    assert named_group("Z", 1).order == 1
    assert named_group("S", 1) == named_group("Z", 1)
    assert named_group("D", 4).order == 8
    assert named_group("D", 1).order == 2
    q8 = named_group("Q8")
    assert q8.order == 8
    # exactly one element of order 2
    order2 = [x for x in range(8)
              if x != q8.identity and q8.mul(x, x) == q8.identity]
    assert len(order2) == 1
    with pytest.raises(UnsupportedName):
        named_group("A", 5)
    with pytest.raises(UnsupportedName):
        named_group("Z", 0)


def test_direct_product_orders_and_commutativity():
    z2, z3 = named_group("Z", 2), named_group("Z", 3)
    p = direct_product(z2, z3)
    assert p.order == 6
    for x in range(6):
        for y in range(6):
            assert p.mul(x, y) == p.mul(y, x)


def test_direct_product_with_trivial():
    g = named_group("S", 3)
    p = direct_product(named_group("Z", 1), g)
    assert p.order == g.order
    assert [list(row) for row in p.mult] == [list(row) for row in g.mult]


def test_direct_product_classes_multiply():
    s3, z2 = named_group("S", 3), named_group("Z", 2)
    p = direct_product(s3, z2)
    cd_p = conjugacy_data(p)
    cd_s3, cd_z2 = conjugacy_data(s3), conjugacy_data(z2)
    assert cd_p.r == cd_s3.r * cd_z2.r == 6
    expected = sorted(a * b for a in cd_s3.class_size for b in cd_z2.class_size)
    assert sorted(cd_p.class_size) == expected


def test_conjugacy_s3():
    cd = conjugacy_data(named_group("S", 3))
    assert sorted(cd.class_size) == [1, 2, 3]
    by_size = {cd.class_size[k]: k for k in range(cd.r)}
    assert cd.centralizer_of_class(by_size[1]) == 6
    assert cd.centralizer_of_class(by_size[3]) == 2
    assert cd.centralizer_of_class(by_size[2]) == 3


def test_conjugacy_z4_abelian():
    cd = conjugacy_data(named_group("Z", 4))
    assert cd.class_size == (1, 1, 1, 1)
    assert all(z == 4 for z in cd.centralizer_order)


def test_conjugacy_q8():
    cd = conjugacy_data(named_group("Q8"))
    assert sorted(cd.class_size) == [1, 1, 2, 2, 2]


@pytest.mark.parametrize("group", NAMED, ids=lambda g: f"order{g.order}")
def test_class_equation_and_orbit_stabilizer(group):
    cd = conjugacy_data(group)
    assert sum(cd.class_size) == group.order
    for x in range(group.order):
        k = cd.class_of[x]
        assert cd.class_size[k] * cd.centralizer_order[x] == group.order
        # counted directly, not through the orbit size
        assert cd.centralizer_order[x] == joint_centralizer_order(group, [x])
    # centralizer order constant on classes
    for k, members in enumerate(cd.classes):
        assert len({cd.centralizer_order[x] for x in members}) == 1
    # inverse pairing is an involution fixing the identity class
    assert cd.inverse_class[0] == 0
    for k in range(cd.r):
        assert cd.inverse_class[cd.inverse_class[k]] == k
    assert cd.classes[0] == (group.identity,)


def test_joint_centralizer():
    s3 = named_group("S", 3)
    names = s3.element_names
    transposition = names.index("(0 1)")
    three_cycle = names.index("(0 1 2)")
    assert joint_centralizer_order(s3, [transposition, three_cycle]) == 1
    assert joint_centralizer_order(s3, [s3.identity]) == 6
    q8 = named_group("Q8")
    minus_one = q8.element_names.index("-1")
    assert joint_centralizer_order(q8, [minus_one]) == 8
    with pytest.raises(ValueError):
        joint_centralizer_order(s3, [])


def test_generator_build_matches_cayley_rebuild():
    g = build_from_generators([parse_cycles("(0 1)", 4),
                               parse_cycles("(0 1 2 3)", 4)])
    rebuilt = build_from_cayley([list(row) for row in g.mult])
    cd1, cd2 = conjugacy_data(g), conjugacy_data(rebuilt)
    assert sorted(cd1.class_size) == sorted(cd2.class_size)
    assert sorted(cd1.centralizer_order) == sorted(cd2.centralizer_order)


def test_group_from_spec_forms():
    assert group_from_spec({"name": "S", "param": 3}).order == 6
    assert group_from_spec('{"name": "Q8"}').order == 8
    g = group_from_spec({"generators": ["(0 1)", "(0 1 2)"]})
    assert g.order == 6
    assert group_from_spec({"cayley": [[0, 1], [1, 0]]}).order == 2
    p = group_from_spec({"product": [{"name": "Z", "param": 2},
                                     {"name": "Z", "param": 3}]})
    assert p.order == 6
    nested = group_from_spec(
        {"product": [{"name": "Z", "param": 2},
                     {"product": [{"name": "Z", "param": 2},
                                  {"name": "Z", "param": 2}]}]})
    assert nested.order == 8
    with pytest.raises(ValueError):
        group_from_spec({"nonsense": 1})
