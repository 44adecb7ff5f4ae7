"""Plain-text declarations of spaces, maps, monoids and diagrams.

Grammar (whitespace-insensitive, comments run from '#' to end of line):

    sset NAME { SIMPLEX : dim N faces [F0, ..., FN] ; ... }
    map NAME : SRC -> DST { SIMPLEX -> F ; ... }
    monoid NAME { elements a, b, ...; unit a; mul { a.b = c; ... } }
    diagram NAME over CAT { F(OBJ) = SSET; act(OBJ,OBJ): ELEM -> MAP; ... }

A face expression is a simplex name optionally prefixed by degeneracies,
e.g. `s1 s0 v`.  Monoid products for the unit are filled in automatically,
and the unit acts as the identity, so it takes no act.  A simplex, image,
product, value or action declared twice is refused.  A monoid is used as
the one-object category with object name `1`.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass, field
from .borel import Diagram, SimplicialCategory, build_diagram, from_monoid
from .sset import SimplexRef, SimplicialMap, SimplicialSet, apply_degeneracies


class DslError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str  # ident | int | punct
    text: str
    line: int
    col: int


_PUNCT = ["->", "{", "}", "[", "]", "(", ")", ":", ";", ",", ".", "="]
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT = re.compile(r"\d+")


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        matched = False
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                matched = True
                break
        if matched:
            continue
        m = _IDENT.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _INT.match(text, i)
        if m:
            tokens.append(Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        raise DslError(f"unexpected character {ch!r}", line, col)
    return tokens


@dataclass
class Document:
    """Resolved declarations with their source spans."""

    ssets: dict[str, SimplicialSet] = field(default_factory=dict)
    maps: dict[str, SimplicialMap] = field(default_factory=dict)
    monoids: dict[str, dict] = field(default_factory=dict)       # name -> table info
    categories: dict[str, SimplicialCategory] = field(default_factory=dict)
    diagrams: dict[str, Diagram] = field(default_factory=dict)
    spans: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.doc = Document()

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else Token("punct", "", 1, 1)
            raise DslError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise DslError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def ident(self, what: str = "name") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise DslError(f"expected {what}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def name_token(self) -> Token:
        tok = self.next()
        if tok.kind not in ("ident", "int"):
            raise DslError(f"expected a name, found {tok.text!r}", tok.line, tok.col)
        return tok

    def error(self, tok: Token, message: str):
        raise DslError(message, tok.line, tok.col)

    def unresolved(self, tok: Token, kind: str, pool) -> DslError:
        hint = difflib.get_close_matches(tok.text, list(pool), n=3)
        suffix = f" (did you mean {', '.join(hint)}?)" if hint else ""
        return DslError(f"unknown {kind} {tok.text!r}{suffix}", tok.line, tok.col)

    def declare(self, kind: str, tok: Token):
        key = (kind, tok.text)
        table = getattr(self.doc, kind + "s")
        if tok.text in table:
            line, col = self.doc.spans[key]
            raise DslError(
                f"duplicate {kind} name {tok.text!r} (first declared at {line}:{col})",
                tok.line, tok.col)
        self.doc.spans[key] = (tok.line, tok.col)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Document:
        while self.peek() is not None:
            tok = self.ident("declaration keyword")
            if tok.text == "sset":
                self.parse_sset()
            elif tok.text == "map":
                self.parse_map()
            elif tok.text == "monoid":
                self.parse_monoid()
            elif tok.text == "diagram":
                self.parse_diagram()
            else:
                self.error(tok, f"unknown declaration {tok.text!r}")
        return self.doc

    def parse_face_expr(self, names: dict[str, int], owner: str):
        """NAME or sK ... NAME, returning an unnormalized (word, name) pair."""
        word = []
        while True:
            tok = self.name_token()
            m = re.fullmatch(r"s(\d+)", tok.text)
            if m and self.peek() is not None and self.peek().text not in (",", "]", ";"):
                word.append(int(m.group(1)))
                continue
            if tok.text not in names:
                raise self.unresolved(tok, f"simplex in {owner!r}", names)
            return word, tok.text, tok

    def resolve_face_expr(self, face, names: dict[str, int], expected: int,
                          what: str) -> SimplexRef:
        """The simplex a parsed face expression names, checked to have
        dimension expected; errors point at the expression."""
        word, target, tok = face
        try:
            ref = apply_degeneracies(SimplexRef(target, (), names[target]), word)
        except IndexError as exc:
            self.error(tok, str(exc))
        if ref.dim != expected:
            self.error(tok, f"{what} has dimension {ref.dim}, expected {expected}")
        return ref

    def parse_sset(self):
        name = self.ident("sset name")
        self.declare("sset", name)
        self.expect("{")
        entries = []  # (simplex, dim, faces=[(word, target, token)], token)
        dims: dict[str, int] = {}
        while self.peek() and self.peek().text != "}":
            simplex = self.ident("simplex name")
            if simplex.text in dims:
                self.error(simplex, f"duplicate simplex {simplex.text!r}")
            self.expect(":")
            kw = self.ident()
            if kw.text != "dim":
                self.error(kw, "expected 'dim'")
            dim_tok = self.next()
            if dim_tok.kind != "int":
                self.error(dim_tok, "expected a dimension")
            dim = int(dim_tok.text)
            kw = self.ident()
            if kw.text != "faces":
                self.error(kw, "expected 'faces'")
            self.expect("[")
            faces = []
            if self.peek() and self.peek().text != "]":
                while True:
                    faces.append(self.parse_face_expr(dims, simplex.text))
                    if self.peek() and self.peek().text == ",":
                        self.next()
                        continue
                    break
            self.expect("]")
            self.expect(";")
            if dim == 0 and faces:
                self.error(simplex, "a vertex takes no faces")
            if dim >= 1 and len(faces) != dim + 1:
                self.error(simplex,
                           f"dimension {dim} needs {dim + 1} faces, found {len(faces)}")
            dims[simplex.text] = dim
            entries.append((simplex.text, dim, faces, simplex))
        self.expect("}")
        generators: dict[int, list] = {}
        for s, dim, _, _ in entries:
            generators.setdefault(dim, []).append(s)
        faces_table = {}
        for s, dim, faces, tok in entries:
            if dim == 0:
                continue
            faces_table[s] = tuple(
                self.resolve_face_expr(face, dims, dim - 1, f"face of {s!r}")
                for face in faces)
        max_dim = max(generators, default=0)
        self.doc.ssets[name.text] = SimplicialSet(max_dim, generators, faces_table)

    def parse_map(self):
        name = self.ident("map name")
        self.declare("map", name)
        self.expect(":")
        src_tok = self.ident("source sset")
        if src_tok.text not in self.doc.ssets:
            raise self.unresolved(src_tok, "sset", self.doc.ssets)
        self.expect("->")
        dst_tok = self.ident("target sset")
        if dst_tok.text not in self.doc.ssets:
            raise self.unresolved(dst_tok, "sset", self.doc.ssets)
        src, dst = self.doc.ssets[src_tok.text], self.doc.ssets[dst_tok.text]
        dst_dims = {g: dst.dim_of[g] for g in dst.all_gens()}
        self.expect("{")
        assignment = {}
        while self.peek() and self.peek().text != "}":
            simplex = self.ident("simplex name")
            if simplex.text not in src.dim_of:
                raise self.unresolved(simplex, f"simplex of {src_tok.text!r}", src.dim_of)
            if simplex.text in assignment:
                self.error(simplex, f"duplicate image of {simplex.text!r}")
            self.expect("->")
            face = self.parse_face_expr(dst_dims, name.text)
            self.expect(";")
            assignment[simplex.text] = self.resolve_face_expr(
                face, dst_dims, src.dim_of[simplex.text], f"image of {simplex.text!r}")
        self.expect("}")
        missing = [g for g in src.all_gens() if g not in assignment]
        if missing:
            self.error(name, f"map {name.text!r} misses images for {missing}")
        self.doc.maps[name.text] = SimplicialMap(src, dst, assignment)

    def parse_monoid(self):
        name = self.ident("monoid name")
        self.declare("monoid", name)
        self.expect("{")
        kw = self.ident()
        if kw.text != "elements":
            self.error(kw, "expected 'elements'")
        elements = [self.name_token().text]
        while self.peek() and self.peek().text == ",":
            self.next()
            elements.append(self.name_token().text)
        self.expect(";")
        kw = self.ident()
        if kw.text != "unit":
            self.error(kw, "expected 'unit'")
        unit_tok = self.name_token()
        if unit_tok.text not in elements:
            raise self.unresolved(unit_tok, "element", elements)
        self.expect(";")
        kw = self.ident()
        if kw.text != "mul":
            self.error(kw, "expected 'mul'")
        self.expect("{")
        table, declared = {}, set()
        for e in elements:
            table[(unit_tok.text, e)] = e
            table[(e, unit_tok.text)] = e
        while self.peek() and self.peek().text != "}":
            a = self.name_token()
            self.expect(".")
            b = self.name_token()
            self.expect("=")
            c = self.name_token()
            self.expect(";")
            for tok in (a, b, c):
                if tok.text not in elements:
                    raise self.unresolved(tok, "element", elements)
            if (a.text, b.text) in declared:
                self.error(a, f"duplicate product {a.text}.{b.text}")
            declared.add((a.text, b.text))
            table[(a.text, b.text)] = c.text
        self.expect("}")
        self.expect("}")
        try:
            category = from_monoid(table, unit_tok.text)
        except ValueError as exc:
            self.error(name, str(exc))
        self.doc.monoids[name.text] = {
            "elements": elements, "unit": unit_tok.text, "table": table}
        self.doc.categories[name.text] = category

    def parse_diagram(self):
        name = self.ident("diagram name")
        self.declare("diagram", name)
        kw = self.ident()
        if kw.text != "over":
            self.error(kw, "expected 'over'")
        cat_tok = self.ident("category name")
        if cat_tok.text not in self.doc.categories:
            raise self.unresolved(cat_tok, "monoid/category", self.doc.categories)
        cat = self.doc.categories[cat_tok.text]
        unit = self.doc.monoids[cat_tok.text]["unit"]
        self.expect("{")
        values: dict[str, SimplicialSet] = {}
        actions: dict[tuple, SimplicialMap] = {}
        while self.peek() and self.peek().text != "}":
            kw = self.ident()
            if kw.text == "F":
                self.expect("(")
                obj = self.name_token()
                if obj.text not in cat.objects:
                    raise self.unresolved(obj, "object", cat.objects)
                self.expect(")")
                self.expect("=")
                sset_tok = self.ident("sset name")
                if sset_tok.text not in self.doc.ssets:
                    raise self.unresolved(sset_tok, "sset", self.doc.ssets)
                self.expect(";")
                if obj.text in values:
                    self.error(kw, f"duplicate value F({obj.text})")
                values[obj.text] = self.doc.ssets[sset_tok.text]
            elif kw.text == "act":
                self.expect("(")
                obj_i = self.name_token()
                self.expect(",")
                obj_j = self.name_token()
                self.expect(")")
                self.expect(":")
                elem = self.name_token()
                self.expect("->")
                map_tok = self.ident("map name")
                self.expect(";")
                for obj in (obj_i, obj_j):
                    if obj.text not in cat.objects:
                        raise self.unresolved(obj, "object", cat.objects)
                if elem.text not in cat.hom(obj_i.text, obj_j.text).gens(0):
                    raise self.unresolved(elem, "morphism element",
                                          cat.hom(obj_i.text, obj_j.text).gens(0))
                if map_tok.text not in self.doc.maps:
                    raise self.unresolved(map_tok, "map", self.doc.maps)
                key = (obj_i.text, obj_j.text, elem.text)
                if elem.text == unit and obj_i.text == obj_j.text:
                    self.error(elem, f"the unit {unit!r} acts as the identity and takes no act")
                if key in actions:
                    self.error(kw, f"duplicate action act({key[0]},{key[1]}): {elem.text}")
                actions[key] = self.doc.maps[map_tok.text]
            else:
                self.error(kw, "expected 'F' or 'act'")
        self.expect("}")
        for obj in cat.objects:
            if obj not in values:
                self.error(name, f"diagram {name.text!r} misses F({obj})")
        for (i, j, e), m in actions.items():
            if m.source != values[j] or m.target != values[i]:
                self.error(name, f"action map for {e!r} must run F({j}) -> F({i})")
        for i in cat.objects:
            for j in cat.objects:
                for e in cat.hom(i, j).gens(0):
                    if e == unit and i == j:
                        continue
                    if (i, j, e) not in actions:
                        self.error(name,
                                   f"diagram {name.text!r} misses act({i},{j}): {e}")

        def act_gen(i, j, f_ref, x_ref):
            if f_ref.gen == unit and i == j:
                return x_ref
            return actions[(i, j, f_ref.gen)](x_ref)

        self.doc.diagrams[name.text] = build_diagram(cat, values, act_gen)


def parse(text: str) -> Document:
    """Parse a document; positioned DslError on any deviation."""
    return _Parser(text).parse()
