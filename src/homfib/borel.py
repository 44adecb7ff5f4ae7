"""Simplicial categories, Borel constructions and thick realization.

A simplicial category has a fixed finite object set and a simplicial set
of morphisms for each ordered pair, with composition given by simplicial
maps out of the product hom(j,k) x hom(i,j).  A contravariant diagram
attaches a space F(i) to each object and action maps hom(i,j) x F(j) ->
F(i) compatible with composition.

The level-n piece of the Borel construction is the disjoint union over
object tuples (i_0..i_n) of hom(i_n,i_{n-1}) x ... x hom(i_1,i_0) x F(i_0);
the outer face forgets the first factor, the inner faces compose, and d_0
acts on the diagram value.  Realization is the thick (fat) one: stage n is
the pushout of stage n-1 under Delta[n] x X_n along boundary-times-level,
attached through face maps only.  Everything is a strict colimit;
cofibrancy is guaranteed because attachments are generator-injective.

When every level is discrete (a monoid with a discrete diagram), each
level is the set of its tuples and the realization is Segal's fat
realization of that semi-simplicial set: one n-cell per vertex of X_n,
glued by the level face maps.  Both are then built straight from the
vertices and the face tables, with no Eilenberg-Zilber enumerator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from typing import Any, Callable

from .fibration import (
    KnownFiberSpec,
    last_vertex_homotopy,
    preimage_calculator,
    record_last_vertex_lemma,
    retraction_lemma_holds,
    strong_check_via_known_fiber,
    weak_fibration_check,
)
from .homology import Z, is_homology_iso
from .sset import (
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    apply_degeneracies,
    canonical_key,
    face_ids,
    factor_common,
    full_subcomplex,
    full_word,
    is_discrete,
    is_isomorphism,
    members,
    product,
    product_many,
    rank_by,
    standard_simplex,
    top_cells,
    tuple_into,
    validate,
    validate_map,
)


# ---------------------------------------------------------------------------
# simplicial categories
# ---------------------------------------------------------------------------

class SimplicialCategory:
    """Finite object set, hom simplicial sets, identities and composition."""

    def __init__(self, objects, homs: dict, identities: dict,
                 compositions: dict[tuple, SimplicialMap],
                 comp_products: dict[tuple, SimplicialSet]):
        self.objects = tuple(sorted(objects, key=canonical_key))
        self.homs = homs
        self.identities = identities
        self.compositions = compositions
        self.comp_products = comp_products

    def hom(self, i, j) -> SimplicialSet:
        return self.homs[(i, j)]

    def identity_ref(self, i, dim: int = 0) -> SimplexRef:
        return SimplexRef(self.identities[i], full_word(dim), dim)

    def compose(self, i, j, k, g: SimplexRef, f: SimplexRef) -> SimplexRef:
        """g o f for g: j -> k and f: i -> j, as equal-dimension refs."""
        pair = tuple_into(self.comp_products[(i, j, k)], (g, f))
        return self.compositions[(i, j, k)](pair)


def build_category(objects, homs: dict, identities: dict,
                   compose_gen: Callable[[Any, Any, Any, SimplexRef, SimplexRef], SimplexRef]
                   ) -> SimplicialCategory:
    """Assemble a category from a generator-level composition rule."""
    compositions = {}
    comp_products = {}
    for i in objects:
        for j in objects:
            for k in objects:
                pr = product(homs[(j, k)], homs[(i, j)])
                assignment = {}
                for gen in pr.space.all_gens():
                    g, f = gen
                    assignment[gen] = compose_gen(i, j, k, g, f)
                comp_products[(i, j, k)] = pr.space
                compositions[(i, j, k)] = SimplicialMap(
                    pr.space, homs[(i, k)], assignment)
    return SimplicialCategory(objects, homs, identities, compositions, comp_products)


def discrete_space(elements) -> SimplicialSet:
    return SimplicialSet(0, {0: list(elements)}, {})


def from_monoid(table: dict[tuple, Any], unit: Any) -> SimplicialCategory:
    """One-object simplicial category with a discrete morphism space.

    table maps (a, b) to the product ab; associativity and the unit laws
    are validated before building.
    """
    elements = sorted({a for a, _ in table} | {b for _, b in table}
                      | set(table.values()), key=canonical_key)
    for a in elements:
        for b in elements:
            if (a, b) not in table:
                raise ValueError(f"incomplete multiplication table at ({a!r}, {b!r})")
    for a in elements:
        if table.get((a, unit)) != a or table.get((unit, a)) != a:
            raise ValueError(f"unit law fails at {a!r}")
    for a in elements:
        for b in elements:
            for c in elements:
                if table[(table[(a, b)], c)] != table[(a, table[(b, c)])]:
                    raise ValueError(f"associativity fails at ({a!r}, {b!r}, {c!r})")
    hom = discrete_space(elements)
    obj = "1"

    def compose_gen(i, j, k, g, f):
        # refs over a discrete space always reduce to vertices
        return SimplexRef(table[(g.gen, f.gen)], full_word(g.dim), g.dim)

    return build_category([obj], {(obj, obj): hom}, {obj: unit}, compose_gen)


def validate_category(cat: SimplicialCategory) -> list[str]:
    """Generator-wise unit and associativity laws, within truncation."""
    problems = []
    for (i, j, k), comp in cat.compositions.items():
        report = validate_map(comp)
        if not report.ok:
            problems.append(f"composition {(i, j, k)}: {report.problems[0]}")
    for i in cat.objects:
        for j in cat.objects:
            hom = cat.hom(i, j)
            for g in hom.all_gens():
                d = hom.dim_of[g]
                r = hom.ref(g)
                left = cat.compose(i, j, j, cat.identity_ref(j, d), r)
                right = cat.compose(i, i, j, r, cat.identity_ref(i, d))
                if left != r:
                    problems.append(f"left unit fails at {g!r} in hom{(i, j)}")
                if right != r:
                    problems.append(f"right unit fails at {g!r} in hom{(i, j)}")
    for i in cat.objects:
        for j in cat.objects:
            for k in cat.objects:
                for l in cat.objects:
                    triple = product(cat.hom(k, l),
                                     product(cat.hom(j, k), cat.hom(i, j)).space)
                    for gen in triple.space.all_gens():
                        a, bc = gen
                        b, c = bc.gen
                        b = apply_degeneracies(b, bc.word)
                        c = apply_degeneracies(c, bc.word)
                        left = cat.compose(i, j, l, cat.compose(j, k, l, a, b), c)
                        right = cat.compose(i, k, l, a, cat.compose(i, j, k, b, c))
                        if left != right:
                            problems.append(
                                f"associativity fails at {(a, b, c)} over {(i, j, k, l)}")
    return problems


# ---------------------------------------------------------------------------
# diagrams
# ---------------------------------------------------------------------------

class Diagram:
    """Contravariant space-valued diagram with action maps."""

    def __init__(self, category: SimplicialCategory, values: dict,
                 actions: dict[tuple, SimplicialMap],
                 action_products: dict[tuple, SimplicialSet]):
        self.category = category
        self.values = values
        self.actions = actions
        self.action_products = action_products

    def value(self, i) -> SimplicialSet:
        return self.values[i]

    def act(self, i, j, f: SimplexRef, x: SimplexRef) -> SimplexRef:
        """mu_{i,j}(f, x) in F(i) for f in hom(i,j) and x in F(j)."""
        pair = tuple_into(self.action_products[(i, j)], (f, x))
        return self.actions[(i, j)](pair)

    def morphism_map(self, i, j, f_gen) -> SimplicialMap:
        """F(f): F(j) -> F(i) for a morphism vertex f."""
        src, dst = self.value(j), self.value(i)
        assignment = {}
        for x in src.all_gens():
            d = src.dim_of[x]
            f_ref = SimplexRef(f_gen, full_word(d), d)
            assignment[x] = self.act(i, j, f_ref, src.ref(x))
        return SimplicialMap(src, dst, assignment)


def build_diagram(cat: SimplicialCategory, values: dict,
                  act_gen: Callable[[Any, Any, SimplexRef, SimplexRef], SimplexRef]) -> Diagram:
    actions = {}
    action_products = {}
    for i in cat.objects:
        for j in cat.objects:
            pr = product(cat.hom(i, j), values[j])
            assignment = {}
            for gen in pr.space.all_gens():
                f, x = gen
                assignment[gen] = act_gen(i, j, f, x)
            action_products[(i, j)] = pr.space
            actions[(i, j)] = SimplicialMap(pr.space, values[i], assignment)
    return Diagram(cat, values, actions, action_products)


def _action_problem(diag: Diagram, i, j, act: SimplicialMap) -> str | None:
    """Where the action map of (i, j) leaves hom(i, j) x F(j) -> F(i), if it does."""
    hom, src, dst = diag.category.hom(i, j), diag.value(j), diag.value(i)
    if act.target != dst:
        return f"action {(i, j)} does not land in F({i!r})"
    for gen in act.source.all_gens():
        f, x = gen
        if not (hom.has_ref(f) and src.has_ref(x)):
            return f"action {(i, j)}: {gen!r} is not in hom({i!r}, {j!r}) x F({j!r})"
        image = act.assignment.get(gen)
        if image is None or not dst.has_ref(image):
            return f"action {(i, j)}: image {image!r} of {gen!r} is not in F({i!r})"
    return None


def validate_diagram(diag: Diagram) -> list[str]:
    """The diagram's problems, first problem first.

    Each value F(i) must be a simplicial set and each action map must run
    hom(i, j) x F(j) -> F(i); the laws are checked only once both hold,
    since they read the values through the actions.  Then the actions must
    be simplicial, the unit must act as the identity, and the actions must
    compose.
    """
    cat = diag.category
    problems = []
    for i in cat.objects:
        report = validate(diag.value(i))
        if not report.ok:
            problems.append(f"F({i!r}) is not a simplicial set: {report.problems[0]}")
    for (i, j), act in diag.actions.items():
        problem = _action_problem(diag, i, j, act)
        if problem:
            problems.append(problem)
    if problems:
        return problems
    for key, act in diag.actions.items():
        report = validate_map(act)
        if not report.ok:
            problems.append(f"action {key}: {report.problems[0]}")
    for i in cat.objects:
        F = diag.value(i)
        for x in F.all_gens():
            d = F.dim_of[x]
            if diag.act(i, i, cat.identity_ref(i, d), F.ref(x)) != F.ref(x):
                problems.append(f"unit action fails at {x!r} in F({i!r})")
    for i in cat.objects:
        for j in cat.objects:
            for k in cat.objects:
                triple = product(cat.hom(i, j),
                                 product(cat.hom(j, k), diag.value(k)).space)
                for gen in triple.space.all_gens():
                    f, gx = gen
                    g, x = gx.gen
                    g = apply_degeneracies(g, gx.word)
                    x = apply_degeneracies(x, gx.word)
                    left = diag.act(i, j, f, diag.act(j, k, g, x))
                    right = diag.act(i, k, cat.compose(i, j, k, g, f), x)
                    if left != right:
                        problems.append(
                            f"action compatibility fails at {(f, g, x)} over {(i, j, k)}")
    return problems


def trivial_diagram(cat: SimplicialCategory) -> Diagram:
    """T(i) = the one-point space named after the object."""
    values = {i: discrete_space([i]) for i in cat.objects}

    def act_gen(i, j, f, x):
        return SimplexRef(i, full_word(f.dim), f.dim)

    return build_diagram(cat, values, act_gen)


def restriction_diagram(cat: SimplicialCategory, j) -> Diagram:
    """M_j(i) = hom(i, j) with action by precomposition."""
    if j not in cat.objects:
        raise ValueError(f"unknown object {j!r}")
    values = {i: cat.hom(i, j) for i in cat.objects}

    def act_gen(i, i2, f, g):
        return cat.compose(i, i2, j, g, f)

    return build_diagram(cat, values, act_gen)


def constant_diagram(cat: SimplicialCategory, X: SimplicialSet) -> Diagram:
    """The same space at every object, all morphisms acting by the identity."""
    values = {i: X for i in cat.objects}

    def act_gen(i, j, f, x):
        return x

    return build_diagram(cat, values, act_gen)


# ---------------------------------------------------------------------------
# Borel levels
# ---------------------------------------------------------------------------

def _component_space(components: dict[Any, list[SimplicialSet]], N: int) -> SimplicialSet:
    """Disjoint union over tags of products of factor lists, truncated at N.

    Generators are (tag, g) for each generator g of product_many(factors, N),
    and faces are the product's faces tagged the same way.  Tags are taken in
    canonical_key order and each product is in that order already, so the
    level needs no sort, and it ranks its generators by (tag, rank in the
    product).
    """
    tags = sorted(components, key=canonical_key)
    products = [product_many(components[tag], N).space for tag in tags]
    S = SimplicialSet._in_canonical_order(
        N, {d: tuple((tag, g) for tag, P in zip(tags, products) for g in P.gens(d))
            for d in range(N + 1)}, {})
    for tag, P in zip(tags, products):
        for g, entries in P.faces.items():
            S.faces[(tag, g)] = tuple(S.ref((tag, r.gen), r.word) for r in entries)
    ranks = [members(P) for P in products]
    rank_by(S, [(t, ranks[t][g][0]) for d in range(N + 1)
                for t, P in enumerate(products) for g in P.gens(d)])
    return S


def borel_level(cat: SimplicialCategory, diag: Diagram, n: int, N: int) -> SimplicialSet:
    """Level n of the bisimplicial Borel construction, truncated at N."""
    components = {}
    for comp in itertools.product(cat.objects, repeat=n + 1):
        spaces = [cat.hom(comp[n - t], comp[n - t - 1]) for t in range(n)]
        spaces.append(diag.value(comp[0]))
        components[comp] = spaces
    return _component_space(components, N)


def _borel_face(cat, diag, n, k, src: SimplicialSet, dst: SimplicialSet) -> list:
    """The face d_k : X_n -> X_{n-1} of the Borel levels src = X_n and dst =
    X_{n-1}, as a SimplicialSpace face table: the outer face forgets a
    factor, the inner faces compose and d_0 acts."""
    own = dst._own
    table = []
    for comp, refs in src.all_gens():
        if k == n:
            new_comp = comp[:n]
            pieces = refs[1:]
        elif k == 0:
            new_comp = comp[1:]
            acted = diag.act(comp[1], comp[0], refs[n - 1], refs[n])
            pieces = refs[: n - 1] + (acted,)
        else:
            t = n - k  # refs[t-1] in hom(i_{k+1}, i_k), refs[t] in hom(i_k, i_{k-1})
            new_comp = comp[:k] + comp[k + 1:]
            composed = cat.compose(comp[k + 1], comp[k], comp[k - 1],
                                   refs[t], refs[t - 1])
            pieces = refs[: t - 1] + (composed,) + refs[t + 1:]
        image = tuple_into(dst, pieces, component=new_comp)
        table.append(image if image.word else own[image.gen][2])
    return table


_gen_of = attrgetter("gen")


def _vertex_keys(X: SimplicialSet) -> list[tuple]:
    """(component, element names) of each vertex of a Borel level, in order.
    Vertices come first in X.all_gens(), so a vertex's place here is its id."""
    return [(comp, tuple(map(_gen_of, refs))) for comp, refs in X.gens(0)]


def _on_vertices(m: SimplicialMap) -> dict[tuple, Any]:
    """A map out of a product of two spaces on its vertices, by generator:
    (x, y) -> the image vertex."""
    return {(x.gen, y.gen): r.gen for (x, y), r in m.assignment.items() if not r.dim}


def _vertex_faces(n, keys: list[tuple], below: dict, mul: dict, act: dict) -> list[list[int]]:
    """d_0..d_n of a Borel level whose generators are all vertices, as id
    tables, worked out by element names as _borel_face works them out by
    simplices.  keys are the level's _vertex_keys; below maps those of level
    n - 1 to their ids; mul and act are the compositions and the actions
    _on_vertices, by the keys of cat.compositions and diag.actions."""
    tables = []
    for k in range(n + 1):
        if k == n:
            images = ((comp[:n], e[1:]) for comp, e in keys)
        elif k == 0:
            images = ((comp[1:], e[:n - 1] + (act[comp[1], comp[0]][e[n - 1], e[n]],))
                      for comp, e in keys)
        else:
            t = n - k
            images = ((comp[:k] + comp[k + 1:],
                       e[:t - 1] + (mul[comp[k + 1], comp[k], comp[k - 1]][e[t], e[t - 1]],)
                       + e[t + 1:])
                      for comp, e in keys)
        tables.append(list(map(below.__getitem__, images)))
    return tables


class SimplicialSpace:
    """Levels X_0..X_N and their faces d_i : X_n -> X_{n-1}, nothing else.

    The thick realization attaches its stages through face maps only, so a
    simplicial space here holds no degeneracy maps; the unit and
    composition laws they would come from are checked on the category and
    the diagram, by validate_category and validate_diagram.

    face_tables[n][i] is d_i on X_n, one entry per generator of X_n in
    all_gens() order (a generator's id is its place there): the id of the
    image's generator in X_{n-1} where the image is nondegenerate, and the
    image itself, a SimplexRef of X_{n-1}, where it is degenerate.  So the
    table is the whole face map, and face(n, i, x) reads it for any simplex
    x of X_n.
    """

    def __init__(self, levels: list[SimplicialSet], face_tables: list[list[list]]):
        self.levels = levels
        self.face_tables = face_tables

    @property
    def top(self) -> int:
        return len(self.levels) - 1

    @cached_property
    def _gens(self) -> list[tuple]:
        """Each level's generators by id."""
        return [tuple(X.all_gens()) for X in self.levels]

    def face(self, n: int, i: int, x: SimplexRef) -> SimplexRef:
        """d_i x in X_{n-1} for any simplex x of X_n, degenerate ones included."""
        image = self.face_tables[n][i][self.levels[n]._own[x.gen][2]]
        if image.__class__ is int:
            image = self.levels[n - 1].ref(self._gens[n - 1][image])
        return apply_degeneracies(image, x.word)


def _entry_problem(space: SimplicialSpace, n: int, i: int) -> str | None:
    """Where d_i's table on X_n does not send each generator of X_n to a
    simplex of X_{n-1} of its dimension, if it does not."""
    src, dst = space.levels[n], space.levels[n - 1]
    below = space._gens[n - 1]
    table = space.face_tables[n][i]
    if len(table) != len(src.dim_of):
        return f"d_{i} table at level {n} has {len(table)} entries for {len(src.dim_of)} generators"
    for g, entry in zip(src.all_gens(), table):
        if entry.__class__ is int:
            ok = 0 <= entry < len(below) and dst.dim_of[below[entry]] == src.dim_of[g]
        else:
            ok = (entry.__class__ is SimplexRef and bool(entry.word) and dst.has_ref(entry)
                  and entry.dim == src.dim_of[g])
        if not ok:
            return f"d_{i} at level {n} sends {g!r} to {entry!r}, not a simplex of its dimension"
    return None


def validate_simplicial_space(space: SimplicialSpace) -> list[str]:
    """The problems of a simplicial space's faces, first problem first.

    Each table must send every generator of X_n to a simplex of X_{n-1} of
    the same dimension (an id, or a degenerate SimplexRef); the identities
    are checked only once every table does, since they read the tables.
    Then each d_i must commute with the faces of X_n, and d_i d_j = d_{j-1}
    d_i for i < j on every generator.
    """
    problems = [problem for n in range(1, space.top + 1) for i in range(n + 1)
                if (problem := _entry_problem(space, n, i))]
    if problems:
        return problems
    face = space.face
    for n in range(1, space.top + 1):
        X, below = space.levels[n], space.levels[n - 1]
        for i in range(n + 1):
            if not all(below.face(face(n, i, X.ref(g)), k) == face(n, i, X.face(X.ref(g), k))
                       for g, d in X.dim_of.items() if d for k in range(d + 1)):
                problems.append(f"d_{i} is not simplicial at level {n}")
    for n in range(2, space.top + 1):
        refs = list(map(space.levels[n].ref, space.levels[n].all_gens()))
        for j in range(1, n + 1):
            for i in range(j):
                if any(face(n - 1, i, face(n, j, x)) != face(n - 1, j - 1, face(n, i, x))
                       for x in refs):
                    problems.append(f"d_{i} d_{j} mismatch at level {n}")
    return problems


def borel_space(cat: SimplicialCategory, diag: Diagram, N: int) -> SimplicialSpace:
    """The Borel construction as a simplicial space with levels 0..N.

    The face tables of a level whose generators are all vertices (every
    level of a monoid's hom-set with a discrete diagram) are worked out by
    element names; those of any other level by _borel_face, simplex by
    simplex.  No simplicial map is built.
    """
    levels = [borel_level(cat, diag, n, N) for n in range(N + 1)]
    mul = {key: _on_vertices(comp) for key, comp in cat.compositions.items()}
    act = {key: _on_vertices(action) for key, action in diag.actions.items()}
    tables = [[]]
    below = {key: i for i, key in enumerate(_vertex_keys(levels[0]))}
    for n in range(1, N + 1):
        keys = _vertex_keys(levels[n])
        if is_discrete(levels[n]):
            tables.append(_vertex_faces(n, keys, below, mul, act))
        else:
            tables.append([_borel_face(cat, diag, n, k, levels[n], levels[n - 1])
                           for k in range(n + 1)])
        below = {key: i for i, key in enumerate(keys)}
    return SimplicialSpace(levels, tables)


# ---------------------------------------------------------------------------
# thick realization
# ---------------------------------------------------------------------------

class ThickRealization:
    """The thick (fat) realization through stage N, with its filtration data.

    A generator is ("c", n, (a, b)): a nondegenerate d-simplex of
    Delta[n] x X_n whose Delta[n] part a is a degeneracy of the top simplex.
    Only these cells are enumerated, by sset.top_cells, in the order
    product_many would give them.  A face that keeps a on the top simplex
    and b's core is read from the cell's row.  Any other exposes a face of
    a core: one that drops vertex v of Delta[n] goes down to stage n - 1
    through the level face d_v, which is exactly the attaching rule of the
    stage pushouts.  Cores are followed by id, through X_n's face table
    and the source's face tables.  When the face of b's core and its image
    under d_v are nondegenerate, the face is the cell over that image with
    the words of the shorter path, read from the rows of its stage, which
    are keyed by core id; otherwise it is assembled through the source's
    face.  A generator's stage is its gen[1].

    When every level X_0..X_N is discrete (sset.is_discrete), the only cell
    over a vertex x of X_n is (iota_n, s_{n-1}...s_0 x), and
    _vertex_realization builds these cells and their faces from the
    vertices and the face tables, with no enumerator.
    """

    def __init__(self, source: SimplicialSpace, N: int):
        self.source = source
        self.N = N
        if all(map(is_discrete, source.levels[:N + 1])):
            self.space = _vertex_realization(source, N)
            return
        paths: dict = {}
        stages, rows = zip(*(top_cells(source.levels[n], n, N, paths) for n in range(N + 1)))
        # in order of n, then of (a, b) by rank: this is canonical_key order
        # already, and the ranks come from (n, key of the cell)
        space = SimplicialSet._in_canonical_order(
            N, {d: tuple(("c", n, cell[1]) for n, cells in enumerate(stages) for cell in cells[d])
                for d in range(N + 1)}, {})
        rank_by(space, [(n, cell[0]) for d in range(N + 1)
                        for n, cells in enumerate(stages) for cell in cells[d]])
        self.space = space
        for n, cells in enumerate(stages):
            X = source.levels[n]
            for d in range(1, N + 1):
                for _, pair, _, row, faces, ids, _ in cells[d]:
                    space.faces[("c", n, pair)] = tuple(
                        _row_ref(row, n, face) if face.__class__ is int
                        else self._exposed_face(rows, n, X, pair[1], ids[1], i, face)
                        for i, face in enumerate(faces))

    def _exposed_face(self, rows: tuple[dict, ...], n: int, X: SimplicialSet, b: SimplexRef,
                      core: int, i: int, face: tuple) -> SimplexRef:
        """d_i of a cell (a, b) of stage n, core the id of b's core in X,
        whose entry in the face table of sset.top_cells is face = (drops,
        words); rows are the stages' rows."""
        drops, words = face
        dropped = dict(drops)  # factor -> the vertex of its core that d_i drops
        if 1 in dropped:
            core = face_ids(X)[core][dropped[1]]
        m = n
        if 0 in dropped:
            m = n - 1
            if core is not None:
                core = self.source.face_tables[n][dropped[0]][core]
        if core.__class__ is int:
            by_words, row = rows[m][core]
            return _row_ref(row, m, by_words[words])
        # a degenerate face of a core or image of one
        vertices = tuple(v for v in range(n + 1) if v != dropped.get(0))
        return self.assemble(n, SimplexRef(vertices, words[0], b.dim - 1), X.face(b, i))

    def assemble(self, n: int, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        """The class of a simplex (a, b) of Delta[n] x X_n in the realization."""
        spanned = set(a.gen)
        m = n
        for v in range(n, -1, -1):
            if v not in spanned:
                b = self.source.face(m, v, b)
                m -= 1
        a = SimplexRef(tuple(range(m + 1)), a.word, a.dim)
        word, core = factor_common((a, b))
        return self.space.ref(("c", m, core), word)

    def stage_zero_inclusion(self) -> SimplicialMap:
        X = self.source.levels[0]
        assignment = {}
        for g in X.all_gens():
            d = X.dim_of[g]
            a = SimplexRef((0,), full_word(d), d)
            assignment[g] = self.assemble(0, a, X.ref(g))
        return SimplicialMap(X, self.space, assignment)

    def subspace_at_stage(self, m: int) -> SimplicialSet:
        keep = [g for g in self.space.all_gens() if g[1] <= m]
        return full_subcomplex(self.space, keep)


def _vertex_realization(source: SimplicialSpace, N: int) -> SimplicialSet:
    """The thick realization of a source whose levels X_0..X_N are discrete.

    Stage n has one cell ("c", n, (iota_n, s_{n-1}...s_0 x)) per vertex x
    of X_n, in the order of x's rank, ranked by (n, that rank).  Its face
    d_i is the cell of stage n - 1 over d_i x, read off
    source.face_tables[n], one SimplexRef per cell of stage n - 1.
    """
    generators, faces, keys, below = {}, {}, [], []
    for n in range(N + 1):
        X, iota, word = source.levels[n], SimplexRef(tuple(range(n + 1)), (), n), full_word(n)
        ranked = sorted(map(members(X).__getitem__, X.gens(0)))
        gens = generators[n] = tuple(("c", n, (iota, SimplexRef(x, word, n)))
                                     for _, _, x in ranked)
        keys.extend((n, rank) for rank, _, _ in ranked)
        if n:
            tables = source.face_tables[n]
            faces.update((g, tuple(below[table[i]] for table in tables))
                         for (_, i, _), g in zip(ranked, gens))
        if n < N:
            below = [None] * len(gens)
            for (_, i, _), g in zip(ranked, gens):
                below[i] = SimplexRef(g, (), n)
    space = SimplicialSet._in_canonical_order(N, generators, faces)
    rank_by(space, keys)
    return space


def _row_ref(row: list, n: int, j: int) -> SimplexRef:
    """row[j] of a row of stage n as a SimplexRef on its generator
    ("c", n, (a, b)); a row entry (a, b) becomes one when first read."""
    if row[j].__class__ is not SimplexRef:
        row[j] = SimplexRef(("c", n, row[j]), (), row[j][0].dim)
    return row[j]


def thick_realize(source: SimplicialSpace, N: int | None = None) -> ThickRealization:
    if N is None:
        N = source.top
    if N > source.top:
        raise ValueError("not enough levels for the requested stage")
    return ThickRealization(source, N)


def realize_map(src: ThickRealization, dst: ThickRealization,
                level_maps: list[SimplicialMap]) -> SimplicialMap:
    """Realize a levelwise map of simplicial spaces."""
    assignment = {}
    for gen in src.space.all_gens():
        _, n, pg = gen
        a, b = pg
        assignment[gen] = dst.assemble(n, a, level_maps[n](b))
    return SimplicialMap(src.space, dst.space, assignment)


def constant_space(X: SimplicialSet, N: int) -> SimplicialSpace:
    """The constant simplicial space on X."""
    ids = list(range(len(X.dim_of)))
    levels = [X for _ in range(N + 1)]
    tables = [[]] + [[ids] * (n + 1) for n in range(1, N + 1)]
    return SimplicialSpace(levels, tables)


# ---------------------------------------------------------------------------
# the total construction and the projection
# ---------------------------------------------------------------------------

@dataclass
class BorelConstruction:
    category: SimplicialCategory
    diagram: Diagram
    total_space: SimplicialSpace
    base_space: SimplicialSpace
    total: ThickRealization
    base: ThickRealization
    pi_levels: list[SimplicialMap]
    pi: SimplicialMap

    def base_vertex_ref(self, i) -> SimplexRef:
        """The realization vertex of the base corresponding to object i."""
        B0 = self.base_space.levels[0]
        level_gen = ((i,), (SimplexRef(i, (), 0),))
        gen = ("c", 0, (SimplexRef((0,), (), 0), B0.ref(level_gen)))
        return self.base.space.ref(gen)

    def fiber_inclusion(self, i) -> SimplicialMap:
        """F(i)'s N-skeleton -> total realization through level zero, N the
        bound the construction is truncated at."""
        F = _skeleton(self.diagram.value(i), self.total.N)
        E0 = self.total_space.levels[0]
        assignment = {}
        for g in F.all_gens():
            d = F.dim_of[g]
            level_ref = E0.ref(((i,), (F.ref(g),)))
            a = SimplexRef((0,), full_word(d), d)
            assignment[g] = self.total.assemble(0, a, level_ref)
        return SimplicialMap(F, self.total.space, assignment)


def borel_total(cat: SimplicialCategory, diag: Diagram, N: int) -> BorelConstruction:
    """Realize the Borel construction and the projection to B M = E_M T."""
    total_space = borel_space(cat, diag, N)
    base_space = borel_space(cat, trivial_diagram(cat), N)
    total = thick_realize(total_space, N)
    base = thick_realize(base_space, N)
    pi_levels = []
    for n in range(N + 1):
        src, dst = total_space.levels[n], base_space.levels[n]
        assignment = {}
        for gen in src.all_gens():
            comp, refs = gen
            d = src.dim_of[gen]
            point = SimplexRef(comp[0], full_word(d), d)
            assignment[gen] = tuple_into(dst, refs[:n] + (point,), component=comp)
        pi_levels.append(SimplicialMap(src, dst, assignment))
    pi = realize_map(total, base, pi_levels)
    construction = BorelConstruction(cat, diag, total_space, base_space,
                                     total, base, pi_levels, pi)
    if last_vertex_lemma_holds(construction):
        record_last_vertex_lemma(pi, N)
    return construction


def last_vertex_lemma_holds(construction: BorelConstruction) -> bool:
    """Whether the last-vertex lemma (fibration module docstring) holds
    for the projection: (a) last_vertex_homotopy(n) passes
    retraction_lemma_holds for each n through the top level; (b) every
    base level is discrete; (c) each level projection keeps a generator's
    component and morphism slots; (d) each face d_i of the total space
    with i >= 1 keeps the fibre slot, the last, of every generator, read
    off its face table.  No preimage is built."""
    total = construction.total_space
    if not all(retraction_lemma_holds(n, last_vertex_homotopy(n))
               for n in range(total.top + 1)):
        return False
    if not all(map(is_discrete, construction.base_space.levels)):
        return False
    for n, pi_n in enumerate(construction.pi_levels):
        for (comp, refs), image in pi_n.assignment.items():
            kept = image.gen
            if kept[0] != comp or any(a.gen != b.gen for a, b in zip(kept[1][:n], refs)):
                return False
    for n in range(1, total.top + 1):
        below = total._gens[n - 1]
        for table in total.face_tables[n][1:]:
            for (_, refs), entry in zip(total._gens[n], table):
                if entry.__class__ is int:
                    fibre = below[entry][1][-1]
                else:
                    fibre = apply_degeneracies(entry.gen[1][-1], entry.word)
                if fibre != refs[-1]:
                    return False
    return True


def classifying_space(cat: SimplicialCategory, N: int) -> ThickRealization:
    """The realization of B M = E_M T."""
    return thick_realize(borel_space(cat, trivial_diagram(cat), N), N)


# ---------------------------------------------------------------------------
# mapping telescopes
# ---------------------------------------------------------------------------

class Telescope:
    """Strict mapping telescope of k copies of X along a self-map.

    Pieces 0..k-2 are cylinders X x Delta[1]; the end at 1 of each cylinder
    is glued into the next piece through the step map, and piece k-1 is a
    bare copy of X capping the telescope.
    """

    def __init__(self, X: SimplicialSet, step: SimplicialMap, stages: int):
        if stages < 1:
            raise ValueError("need at least one stage")
        self.X = X
        self.step = step
        self.stages = stages
        self.cylinder = product(X, standard_simplex(1), X.max_dim + 1)
        P = self.cylinder.space
        N = P.max_dim
        generators: dict[int, list] = {d: [] for d in range(N + 1)}
        for t in range(stages - 1):
            for pg in P.all_gens():
                if pg[1].gen != (1,):
                    generators[P.dim_of[pg]].append((t, pg))
        for g in X.all_gens():
            generators[X.dim_of[g]].append((stages - 1, g))
        S = SimplicialSet(N, generators, {})
        faces = {}
        for t in range(stages - 1):
            for pg in P.all_gens():
                if pg[1].gen == (1,) or P.dim_of[pg] == 0:
                    continue
                faces[(t, pg)] = tuple(self._route(t, r) for r in P.faces[pg])
        for g in X.all_gens():
            if X.dim_of[g] >= 1:
                faces[(stages - 1, g)] = tuple(
                    SimplexRef((stages - 1, r.gen), r.word, r.dim) for r in X.faces[g])
        S.faces.update(faces)
        self.space = S

    def _route(self, t: int, ref: SimplexRef) -> SimplexRef:
        a, b = ref.gen
        if b.gen != (1,):
            return SimplexRef((t, ref.gen), ref.word, ref.dim)
        stepped = self.step(a)
        if t == self.stages - 2:
            out = SimplexRef((self.stages - 1, stepped.gen), stepped.word, stepped.dim)
            return apply_degeneracies(out, ref.word)
        zero = SimplexRef((0,), full_word(stepped.dim), stepped.dim)
        return apply_degeneracies(self.piece_ref(t + 1, stepped, zero), ref.word)

    def piece_ref(self, t: int, a: SimplexRef, b: SimplexRef) -> SimplexRef:
        """Normalize a cylinder simplex of piece t into the telescope."""
        word, core = factor_common((a, b))
        inner = SimplexRef(core, (), a.dim - len(word))
        return apply_degeneracies(self._route(t, inner), word)

    def cap_ref(self, x: SimplexRef) -> SimplexRef:
        return SimplexRef((self.stages - 1, x.gen), x.word, x.dim)

    def stage_inclusion(self, t: int) -> SimplicialMap:
        assignment = {}
        for g in self.X.all_gens():
            d = self.X.dim_of[g]
            if t == self.stages - 1:
                assignment[g] = self.cap_ref(self.X.ref(g))
            else:
                zero = SimplexRef((0,), full_word(d), d)
                assignment[g] = self.piece_ref(t, self.X.ref(g), zero)
        return SimplicialMap(self.X, self.space, assignment)


def telescope_diagram(cat: SimplicialCategory, alpha, stages: int) -> tuple[Diagram, dict]:
    """The stage-truncated telescope diagram along an endomorphism vertex.

    alpha must be a vertex of hom(1,1) for the base object 1, the first of
    cat.objects; values are telescopes of hom(i,1) along postcomposition
    with alpha, with actions extended cylinder-wise.
    """
    one = cat.objects[0]
    if alpha not in cat.hom(one, one).gens(0):
        raise ValueError(f"{alpha!r} is not an endomorphism vertex of {one!r}")
    telescopes = {}
    for i in cat.objects:
        hom = cat.hom(i, one)
        assignment = {}
        for g in hom.all_gens():
            d = hom.dim_of[g]
            a_ref = SimplexRef(alpha, full_word(d), d)
            assignment[g] = cat.compose(i, one, one, a_ref, hom.ref(g))
        step = SimplicialMap(hom, hom, assignment)
        telescopes[i] = Telescope(hom, step, stages)
    values = {i: telescopes[i].space for i in cat.objects}

    def act_gen(i, j, h, x):
        tele_j, tele_i = telescopes[j], telescopes[i]
        t = x.gen[0]
        if t == stages - 1:
            inner = SimplexRef(x.gen[1], x.word, x.dim)
            composed = cat.compose(i, j, one, inner, h)
            return tele_i.cap_ref(composed)
        pg = x.gen[1]
        f_part = apply_degeneracies(pg[0], x.word)
        tau_part = apply_degeneracies(pg[1], x.word)
        composed = cat.compose(i, j, one, f_part, h)
        return tele_i.piece_ref(t, composed, tau_part)

    diag = build_diagram(cat, values, act_gen)
    return diag, telescopes


# ---------------------------------------------------------------------------
# the group completion pipeline
# ---------------------------------------------------------------------------

@dataclass
class Gate:
    name: str
    ok: bool
    witnesses: list = field(default_factory=list)


@dataclass
class GroupCompletionReport:
    gates: list[Gate]
    construction: BorelConstruction
    valid_up_to: int

    @property
    def verdict(self) -> bool:
        return all(g.ok for g in self.gates)


def group_completion_check(cat: SimplicialCategory, diag: Diagram, N: int,
                           deep_ops: bool = False,
                           coefficients: int = Z) -> GroupCompletionReport:
    """The four-gate desk rendering of the generalized group completion.

    1. every morphism vertex acts by homology equivalences on the diagram;
    2. each Borel level projects with constant fiber F(i_0), componentwise;
    3. the d_0-induced fiber maps are homology equivalences;
    4. the realized projection is a weak homology fibration whose vertex
       preimages match the registered fibers F(i).

    Gates 2 and 4 compare F(i)'s N-skeleton, as the construction is
    truncated at N, with each vertex preimage at N; for pi that preimage is
    the weak and strong checks' record.  deep_ops hands gate 4's weak check
    every operator word, as in weak_fibration_check.  Gates 1 and 4
    compare homology over the coefficients, Z or Z/p.
    """
    up_to = N - 1
    gates = []

    hypothesis_ok = True
    witnesses = []
    morphism_cache: dict[tuple, bool] = {}
    for i in cat.objects:
        for j in cat.objects:
            for f in cat.hom(i, j).gens(0):
                ok, _ = is_homology_iso(diag.morphism_map(i, j, f), up_to, coefficients)
                morphism_cache[(i, j, f)] = ok
                if not ok:
                    hypothesis_ok = False
                    witnesses.append((i, j, f))
    gates.append(Gate("morphism-actions", hypothesis_ok, witnesses))

    construction = borel_total(cat, diag, N)
    levelwise_ok = True
    witnesses = []
    for n in range(N + 1):
        src = construction.total_space.levels[n]
        dst = construction.base_space.levels[n]
        pi_n = construction.pi_levels[n]
        for comp in itertools.product(cat.objects, repeat=n + 1):
            structural = all(
                pi_n.assignment[g].gen[0] == comp
                for g in src.all_gens() if g[0] == comp)
            fiber_ok = _level_fiber_isomorphic(cat, diag, construction, n, comp)
            if not (structural and fiber_ok):
                levelwise_ok = False
                witnesses.append((n, comp))
    gates.append(Gate("levelwise-projections", levelwise_ok, witnesses))

    # d_0 on the component (i_0, i_1, ...) acts on the fibre through a
    # vertex of hom(i_1, i_0); levels n >= 1 reach every such morphism,
    # and gate 1 has already certified each one.
    witnesses = [] if N < 1 else [
        (i, j, f) for j in cat.objects for i in cat.objects
        for f in cat.hom(i, j).gens(0) if not morphism_cache[(i, j, f)]]
    gates.append(Gate("d0-fiber-maps", not witnesses, witnesses))

    weak = weak_fibration_check(construction.pi, up_to, deep_ops=deep_ops,
                                coefficients=coefficients)
    realization_ok = weak.verdict
    witnesses = [(c.sigma, c.op) for c in weak.failures()]
    if weak.verdict:
        for i in cat.objects:
            spec = KnownFiberSpec(construction.base_vertex_ref(i).gen, diag.value(i),
                                  f"F({i!r})")
            strong = strong_check_via_known_fiber(construction.pi, spec, up_to, coefficients)
            if not strong.verdict:
                realization_ok = False
                witnesses.append(("known-fiber", spec.vertex))
    for i in cat.objects:
        if not vertex_fiber_isomorphic(construction, i):
            realization_ok = False
            witnesses.append(("vertex-fiber-iso", i))
    gates.append(Gate("realized-fibration", realization_ok, witnesses))
    return GroupCompletionReport(gates, construction, up_to)


def _level_fiber_isomorphic(cat, diag, construction, n, comp) -> bool:
    """dp of the level projection over one base vertex of the component.

    The vertex takes, in each factor hom(i_{t+1}, i_t), the identity when
    i_{t+1} = i_t and the first morphism vertex otherwise; an empty hom-set
    leaves the component empty, with no fibre to compare.
    """
    src = construction.total_space.levels[n]
    F = _skeleton(diag.value(comp[0]), src.max_dim)
    vertex_refs = []
    for t in range(n):
        if comp[t + 1] == comp[t]:
            vertex_refs.append(cat.identity_ref(comp[t]))
        else:
            hom = cat.hom(comp[t + 1], comp[t])
            if not hom.gens(0):
                return True
            vertex_refs.append(hom.ref(hom.gens(0)[0]))
    vertex_refs = tuple(vertex_refs[::-1])
    vertex = construction.base_space.levels[n].ref((comp, vertex_refs + (SimplexRef(comp[0]),)))
    lifts = {}
    for x, d in F.dim_of.items():
        homs = tuple(SimplexRef(r.gen, full_word(d), d) for r in vertex_refs)
        lifts[x] = src.ref((comp, homs + (F.ref(x),)))
    return _fiber_onto_preimage(F, construction.pi_levels[n], vertex, lifts)


def vertex_fiber_isomorphic(construction: BorelConstruction, i) -> bool:
    """dp(pi, vertex i) is isomorphic to F(i)'s N-skeleton, not merely
    equivalent."""
    inclusion = construction.fiber_inclusion(i)
    return _fiber_onto_preimage(inclusion.source, construction.pi,
                                construction.base_vertex_ref(i), inclusion.assignment)


def _skeleton(X: SimplicialSet, n: int) -> SimplicialSet:
    """X's n-skeleton, its generators of dimension <= n: X itself when it
    is built through n at most."""
    if X.max_dim <= n:
        return X
    return full_subcomplex(X, [g for g, d in X.dim_of.items() if d <= n])


def _fiber_onto_preimage(F: SimplicialSet, p: SimplicialMap, vertex: SimplexRef,
                         lifts: dict) -> bool:
    """Whether x -> (0, lifts[x]) is an isomorphism of F onto dp(p, vertex).

    The preimage is read on p's calculator at the bound p's base is
    truncated at, N for pi and for every level projection, so pi keeps one
    calculator.  F is a diagram value's N-skeleton, the part of it that dp
    at N can hold; is_isomorphism pads the degrees past either truncation.
    """
    rec = preimage_calculator(p, p.target.max_dim).record(vertex)
    assignment = {x: tuple_into(rec.space, (SimplexRef((0,), full_word(d), d), lifts[x]))
                  for x, d in F.dim_of.items()}
    return is_isomorphism(SimplicialMap(F, rec.space, assignment))
