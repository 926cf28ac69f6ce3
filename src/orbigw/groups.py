"""Finite groups as dense index tables, plus conjugacy-class data.

Elements are integers 0..n-1.  Groups built from generators or by name
always place the identity at index 0; Cayley-table input is accepted
as-is and only the conjugacy-class ordering (identity class first) is
normalized, which is what the descendant theory downstream relies on.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Optional, Sequence

# Largest dense multiplication table built: 1 GiB admits order ~5,400
# (S7 at 5,040) and rejects S8.
MAX_TABLE_BYTES = 2 ** 30


class NotAGroup(Exception):
    """Cayley-table input violates a group axiom; carries a witness."""

    def __init__(self, reason: str, witness=None):
        self.reason = reason
        self.witness = witness
        msg = reason if witness is None else f"{reason} (witness {witness})"
        super().__init__(msg)


class OrderExceedsLimit(Exception):
    pass


def table_bytes(order: int) -> int:
    """Estimated size of a dense table: ``order`` row tuples, each entry a
    pointer and, unless shared, its own 28-byte int."""
    return order * (56 + 36 * order)


def check_table_size(order: int) -> None:
    """Raise OrderExceedsLimit before building a table above MAX_TABLE_BYTES."""
    if table_bytes(order) > MAX_TABLE_BYTES:
        raise OrderExceedsLimit(
            f"order {order} needs a ~{table_bytes(order) / 2 ** 30:.1f} GiB "
            f"multiplication table, above {MAX_TABLE_BYTES / 2 ** 30:g} GiB")


class UnsupportedName(Exception):
    pass


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by full multiplication and inverse tables."""

    order: int
    mult: tuple
    inv: tuple
    identity: int
    element_names: Optional[tuple] = None

    def mul(self, x: int, y: int) -> int:
        return self.mult[x][y]

    def conjugate(self, a: int, x: int) -> int:
        """a x a^-1"""
        return self.mult[self.mult[a][x]][self.inv[a]]

    def name_of(self, x: int) -> str:
        if self.element_names is not None:
            return self.element_names[x]
        return str(x)

    def __repr__(self):
        return f"GroupTable(order={self.order})"


@dataclass(frozen=True)
class ConjugacyData:
    """Conjugacy classes of a GroupTable, identity class first."""

    classes: tuple          # tuple of tuples of element indices
    class_of: tuple         # element index -> class index
    representative: tuple   # class index -> element index
    class_size: tuple
    centralizer_order: tuple  # element index -> |C(x)|
    inverse_class: tuple    # class index -> class index

    @property
    def r(self) -> int:
        return len(self.classes)

    def centralizer_of_class(self, k: int) -> int:
        return self.centralizer_order[self.representative[k]]


def build_from_cayley(table: Sequence[Sequence[int]], *,
                      element_names=None) -> GroupTable:
    """Validate a raw multiplication table and locate identity/inverses.

    Associativity is checked at every order by Light's test over a
    generating set (see ``_check_associative``).
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    check_table_size(n)
    rows = []
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup("table is not square", (i, len(row)))
        for x in row:
            if type(x) is not int:
                raise ValueError(f"cayley entry in row {i} must be an "
                                 f"integer, got {x!r}")
            if not 0 <= x < n:
                raise NotAGroup("entry out of range", (i, x))
        rows.append(tuple(row))
    mult = tuple(rows)

    full = frozenset(range(n))
    for i in range(n):
        if frozenset(mult[i]) != full:
            raise NotAGroup("row is not a permutation", i)
    for j in range(n):
        if {mult[i][j] for i in range(n)} != full:
            raise NotAGroup("column is not a permutation", j)

    identity = None
    for e in range(n):
        if all(mult[e][x] == x for x in range(n)) and \
           all(mult[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        raise NotAGroup("no two-sided identity")

    inv = [None] * n
    for x in range(n):
        for y in range(n):
            if mult[x][y] == identity:
                if mult[y][x] != identity:
                    raise NotAGroup("one-sided inverse", (x, y))
                inv[x] = y
                break

    _check_associative(mult)

    names = tuple(element_names) if element_names is not None else None
    return GroupTable(order=n, mult=mult, inv=tuple(inv),
                      identity=identity, element_names=names)


def _check_associative(mult: tuple) -> None:
    """Light's associativity test on a Latin square with identity.

    The elements a with (x*a)*y = x*(a*y) for all x, y are closed under
    the product, so checking every a in a generating set proves the whole
    table associative: O(n^2) per generator instead of O(n^3).  Each
    generator added outside the current closure at least doubles it (a
    proper subquasigroup has at most half the elements), so there are at
    most log2(n) + 1 of them.
    """
    n = len(mult)
    closure = set()
    generators = []
    for g in range(n):
        if g in closure:
            continue
        generators.append(g)
        members = list(closure)
        pending = [g]
        while pending:
            x = pending.pop()
            if x in closure:
                continue
            closure.add(x)
            members.append(x)
            row = mult[x]
            for y in members:
                for z in (row[y], mult[y][x]):
                    if z not in closure:
                        pending.append(z)
    for a in generators:
        row_a = mult[a]
        for x in range(n):
            mx = mult[x]
            mxa = mult[mx[a]]
            for y in range(n):
                if mxa[y] != mx[row_a[y]]:
                    raise NotAGroup("associativity fails", (x, a, y))


# -- permutation helpers ----------------------------------------------------

def parse_cycles(text: str, degree: Optional[int] = None) -> tuple:
    """Parse cycle notation like "(0 1)(2 4 3)" into a permutation tuple.

    Points are space-separated; disjoint cycles are concatenated; "()" is
    the identity.  The permutation acts on 0..degree-1 (degree inferred
    from the largest point if not given).  A cycle holds non-negative
    integer points and whitespace, and only whitespace lies between
    cycles; any other text is a ValueError.
    """
    if not re.fullmatch(r"\s*(\([0-9\s]*\)\s*)*", text):
        raise ValueError(f"malformed cycle string {text!r}")
    cycles = []
    maxpt = -1
    for grp in re.findall(r"\(([^()]*)\)", text):
        pts = [int(p) for p in grp.split()]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle {grp!r}")
        if pts:
            cycles.append(pts)
            maxpt = max(maxpt, max(pts))
    d = degree if degree is not None else maxpt + 1
    if maxpt >= d:
        raise ValueError("cycle point exceeds degree")
    perm = list(range(max(d, 0)))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            perm[p] = cyc[(i + 1) % len(cyc)]
    return tuple(perm)


def cycle_notation(perm: Sequence[int]) -> str:
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        p = perm[start]
        while p != start:
            cyc.append(p)
            seen[p] = True
            p = perm[p]
        parts.append("(" + " ".join(str(x) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def _compose(p: tuple, q: tuple) -> tuple:
    """(p*q)[i] = p[q[i]]: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def build_from_generators(perms: Sequence[Sequence[int]]) -> GroupTable:
    """BFS closure of permutation generators.

    Elements are ordered by discovery with the identity first, so index 0
    is always the identity.  Element names are cycle notations.  The
    closure raises OrderExceedsLimit as soon as it grows past the order
    whose table ``check_table_size`` admits.

    The table is read off the BFS (Schreier) tree: every element j > 0 was
    found as parent(j) * g_j, and right[k][g] records the index of
    elems[k] * g.  That is n * |gens| permutation compositions in all.
    Each generator row follows the tree, g * elems[j] =
    right[g * elems[parent(j)]][g_j], and every other row is a composition
    of two rows already built, since (x * g) * y = x * (g * y).
    """
    degree = 0
    gens = []
    for p in perms:
        t = tuple(int(x) for x in p)
        if sorted(t) != list(range(len(t))):
            raise ValueError(f"not a permutation: {p}")
        degree = max(degree, len(t))
        gens.append(t)
    gens = [t + tuple(range(len(t), degree)) for t in gens]

    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    parent, via = [0], [0]
    right = []
    # elems doubles as the BFS queue: element k is expanded k-th
    for k, x in enumerate(elems):
        images = []
        for gi, g in enumerate(gens):
            y = _compose(x, g)
            j = index.get(y)
            if j is None:
                check_table_size(len(elems) + 1)
                j = index[y] = len(elems)
                elems.append(y)
                parent.append(k)
                via.append(gi)
            images.append(j)
        right.append(images)

    n = len(elems)
    gen_index = right[0]
    rows = [None] * n
    rows[0] = tuple(range(n))
    for row_index in gen_index:
        if rows[row_index] is None:
            row = [row_index]
            for j in range(1, n):
                row.append(right[row[parent[j]]][via[j]])
            rows[row_index] = tuple(row)
    for i in range(1, n):
        if rows[i] is None:
            rows[i] = tuple(map(rows[parent[i]].__getitem__,
                                rows[gen_index[via[i]]]))
    mult = tuple(rows)
    inv = []
    for i in range(n):
        p = elems[i]
        q = [0] * degree
        for a in range(degree):
            q[p[a]] = a
        inv.append(index[tuple(q)])
    names = tuple(cycle_notation(p) for p in elems)
    return GroupTable(order=n, mult=mult, inv=tuple(inv), identity=0,
                      element_names=names)


# -- named groups -----------------------------------------------------------

def named_group(name: str, param: int = 0) -> GroupTable:
    """S n (symmetric), Z n (cyclic), D n (dihedral of order 2n), Q8."""
    name = name.upper()
    if name == "Z":
        if param < 1:
            raise UnsupportedName(f"Z requires param >= 1, got {param}")
        return _cyclic(param)
    if name == "S":
        if param < 1:
            raise UnsupportedName(f"S requires param >= 1, got {param}")
        if param == 1:
            return _cyclic(1)
        cycle = "(" + " ".join(str(i) for i in range(param)) + ")"
        return build_from_generators(
            [parse_cycles("(0 1)", param), parse_cycles(cycle, param)])
    if name == "D":
        if param < 1:
            raise UnsupportedName(f"D requires param >= 1, got {param}")
        return _dihedral(param)
    if name == "Q8":
        return _quaternion8()
    raise UnsupportedName(f"unknown group name {name!r}")


def _cyclic(n: int) -> GroupTable:
    check_table_size(n)
    row = tuple(range(n))
    mult = tuple(row[i:] + row[:i] for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    names = tuple("1" if i == 0 else ("g" if i == 1 else f"g^{i}")
                  for i in range(n))
    return GroupTable(order=n, mult=mult, inv=inv, identity=0,
                      element_names=names)


def _dihedral(n: int) -> GroupTable:
    # element (b, a) = s^b r^a with s r s = r^-1, encoded as b*n + a
    def mul(x, y):
        b1, a1 = divmod(x, n)
        b2, a2 = divmod(y, n)
        a = (a2 + a1) % n if b2 == 0 else (a2 - a1) % n
        return ((b1 + b2) % 2) * n + a

    order = 2 * n
    check_table_size(order)
    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    names = []
    for x in range(order):
        b, a = divmod(x, n)
        core = "1" if a == 0 else ("r" if a == 1 else f"r^{a}")
        names.append(core if b == 0 else ("s" if a == 0 else f"s{core}"))
    return build_from_cayley(table, element_names=names)


def _quaternion8() -> GroupTable:
    # 0..7 = 1, -1, i, -i, j, -j, k, -k
    axes = "1ijk"
    sign_name = ["", "-"]

    def decode(x):
        return x % 2, x // 2  # (sign bit, axis)

    mul_axis = {  # (axis1, axis2) -> (sign, axis)
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 1): (1, 3),
        (2, 3): (0, 1), (3, 2): (1, 1),
        (3, 1): (0, 2), (1, 3): (1, 2),
    }

    def mul(x, y):
        s1, a1 = decode(x)
        s2, a2 = decode(y)
        s3, a3 = mul_axis[(a1, a2)]
        return 2 * a3 + (s1 + s2 + s3) % 2

    table = [[mul(x, y) for y in range(8)] for x in range(8)]
    names = tuple(sign_name[x % 2] + axes[x // 2] for x in range(8))
    return build_from_cayley(table, element_names=names)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; element (x, y) has index x*|H| + y."""
    n = g.order * h.order
    check_table_size(n)
    nh = h.order
    gm, hm = g.mult, h.mult
    mult = tuple(
        tuple(gm[x1][x2] * nh + hm[y1][y2] for x2 in range(g.order)
              for y2 in range(h.order))
        for x1 in range(g.order) for y1 in range(h.order)
    )
    inv = tuple(g.inv[x] * nh + h.inv[y]
                for x in range(g.order) for y in range(h.order))
    names = None
    if g.element_names is not None and h.element_names is not None:
        names = tuple(f"({g.element_names[x]},{h.element_names[y]})"
                      for x in range(g.order) for y in range(h.order))
    identity = g.identity * nh + h.identity
    return GroupTable(order=n, mult=mult, inv=inv, identity=identity,
                      element_names=names)


def conjugacy_data(g: GroupTable) -> ConjugacyData:
    """Conjugation orbits by direct enumeration; each centralizer order is
    |G| divided by the size of the orbit."""
    n = g.order
    mult, inv = g.mult, g.inv
    class_of = [-1] * n
    classes = []

    # identity class first, remaining classes ordered by least element
    order_seed = [g.identity] + [x for x in range(n) if x != g.identity]
    for x in order_seed:
        if class_of[x] >= 0:
            continue
        orbit = set()
        for a in range(n):
            orbit.add(mult[mult[a][x]][inv[a]])
        k = len(classes)
        members = tuple(sorted(orbit))
        classes.append(members)
        for y in members:
            class_of[y] = k

    representative = tuple(min(c) if k > 0 else g.identity
                           for k, c in enumerate(classes))
    inverse_class = tuple(class_of[inv[representative[k]]]
                          for k in range(len(classes)))
    return ConjugacyData(
        classes=tuple(classes),
        class_of=tuple(class_of),
        representative=representative,
        class_size=tuple(len(c) for c in classes),
        centralizer_order=tuple(n // len(classes[k]) for k in class_of),
        inverse_class=inverse_class,
    )


def joint_centralizer_order(g: GroupTable, elems: Sequence[int]) -> int:
    """|{x : x commutes with every listed element}|"""
    if not elems:
        raise ValueError("elems must be nonempty")
    mult = g.mult
    count = 0
    for x in range(g.order):
        if all(mult[x][y] == mult[y][x] for y in elems):
            count += 1
    return count


# -- external interface -----------------------------------------------------

# The keys each form of group spec reads; a spec is one form.
_SPEC_FORMS = {"name": {"name", "param"}, "generators": {"generators"},
               "cayley": {"cayley"}, "product": {"product"}}


def group_from_spec(spec) -> GroupTable:
    """Build a group from the JSON input format.

    Accepts {"name": "S", "param": 3}, {"generators": ["(0 1)", "(0 1 2)"]},
    {"cayley": [[...]]}, or {"product": [spec, spec]}; nested products are
    allowed.  A string argument is parsed as JSON first.  A spec naming
    more than one of these forms, or carrying a key its form does not
    read, is a ValueError.  Every builder raises OrderExceedsLimit before
    it allocates a table that ``check_table_size`` refuses.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"group spec must be an object, got {type(spec)}")
    forms = [form for form in _SPEC_FORMS if form in spec]
    if len(forms) > 1:
        raise ValueError(f"group spec names more than one form: {forms}")
    unread = sorted(set(spec) - _SPEC_FORMS[forms[0]]) if forms else []
    if unread:
        raise ValueError(f"group spec {forms[0]!r} does not read {unread}")
    if "name" in spec:
        name, param = spec["name"], spec.get("param", 0)
        if type(name) is not str:
            raise ValueError(f"group name must be a string, got {name!r}")
        if type(param) is not int:
            raise ValueError(f"group param must be an integer, got {param!r}")
        return named_group(name, param)
    if "generators" in spec:
        texts = _spec_list(spec, "generators", str, "cycle strings")
        return build_from_generators([parse_cycles(text) for text in texts])
    if "cayley" in spec:
        return build_from_cayley(_spec_list(spec, "cayley", list, "rows"))
    if "product" in spec:
        parts = _spec_list(spec, "product", (dict, str), "group specs")
        if len(parts) < 2:
            raise ValueError("product needs at least two factors")
        acc = group_from_spec(parts[0])
        for part in parts[1:]:
            acc = direct_product(acc, group_from_spec(part))
        return acc
    raise ValueError(f"unrecognized group spec keys: {sorted(spec)}")


def _spec_list(spec, key, kinds, what):
    """spec[key] when it is a JSON list of ``kinds`` items, else ValueError."""
    value = spec[key]
    if isinstance(value, list) and all(isinstance(x, kinds) for x in value):
        return value
    raise ValueError(f"group {key} must be a list of {what}")
