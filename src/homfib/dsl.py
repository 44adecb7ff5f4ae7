"""Plain-text declarations of spaces, maps, monoids and diagrams.

Tokens are identifiers [A-Za-z_][A-Za-z0-9_]*, integers (runs of digits)
and the marks -> { } [ ] ( ) : ; , . =, separated by blanks (space, tab,
carriage return), newlines and comments from '#' to the end of the line.
An error's column counts characters from the start of its line, from 1.

Grammar:

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


# One alternative per token kind, tried in this order at each position;
# '->' comes before the one-character marks.
_TOKEN = re.compile(r"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)"
                    r"|(?P<punct>->|[{}\[\]():;,.=])|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
                    r"|(?P<int>\d+)")


def tokenize(text: str) -> list[Token]:
    """The ident, int and punct tokens of text with their positions; a
    position where no token starts is a DslError."""
    tokens = []
    line, line_start, pos = 1, 0, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind in ("punct", "ident", "int"):
            tokens.append(Token(kind, m.group(), line, pos - line_start + 1))
        pos = m.end()
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

    def ahead(self) -> str | None:
        """The next token's text, None at the end of the input."""
        return self.tokens[self.pos].text if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        if self.pos == len(self.tokens):
            last = self.tokens[-1] if self.tokens else Token("punct", "", 1, 1)
            raise DslError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, text: str):
        tok = self.next()
        if tok.text != text:
            self.error(tok, f"expected {text!r}, found {tok.text!r}")

    def keyword(self, word: str):
        tok = self.ident()
        if tok.text != word:
            self.error(tok, f"expected {word!r}")

    def ident(self, what: str = "name") -> Token:
        tok = self.next()
        if tok.kind != "ident":
            self.error(tok, f"expected {what}, found {tok.text!r}")
        return tok

    def name_token(self) -> Token:
        tok = self.next()
        if tok.kind not in ("ident", "int"):
            self.error(tok, f"expected a name, found {tok.text!r}")
        return tok

    def listed(self, item) -> list:
        """One item or more, separated by commas."""
        items = [item()]
        while self.ahead() == ",":
            self.next()
            items.append(item())
        return items

    def error(self, tok: Token, message: str):
        raise DslError(message, tok.line, tok.col)

    def known(self, tok: Token, kind: str, names) -> Token:
        """tok, refused with the closest of names unless names holds it."""
        if tok.text not in names:
            hint = difflib.get_close_matches(tok.text, list(names), n=3)
            suffix = f" (did you mean {', '.join(hint)}?)" if hint else ""
            self.error(tok, f"unknown {kind} {tok.text!r}{suffix}")
        return tok

    def declare(self, kind: str, tok: Token):
        key = (kind, tok.text)
        if key in self.doc.spans:
            line, col = self.doc.spans[key]
            self.error(tok, f"duplicate {kind} name {tok.text!r} "
                            f"(first declared at {line}:{col})")
        self.doc.spans[key] = (tok.line, tok.col)

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Document:
        while self.ahead() is not None:
            tok = self.ident("declaration keyword")
            if tok.text not in self.DECLARATIONS:
                self.error(tok, f"unknown declaration {tok.text!r}")
            self.DECLARATIONS[tok.text](self)
        return self.doc

    def parse_face_expr(self, names: dict[str, int], owner: str):
        """NAME or sK ... NAME, returning an unnormalized (word, name) pair."""
        word = []
        while True:
            tok = self.name_token()
            m = re.fullmatch(r"s(\d+)", tok.text)
            if m and self.ahead() not in (None, ",", "]", ";"):
                word.append(int(m.group(1)))
                continue
            self.known(tok, f"simplex in {owner!r}", names)
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
        while self.ahead() not in (None, "}"):
            simplex = self.ident("simplex name")
            if simplex.text in dims:
                self.error(simplex, f"duplicate simplex {simplex.text!r}")
            self.expect(":")
            self.keyword("dim")
            dim_tok = self.next()
            if dim_tok.kind != "int":
                self.error(dim_tok, "expected a dimension")
            dim = int(dim_tok.text)
            self.keyword("faces")
            self.expect("[")
            faces = self.listed(lambda: self.parse_face_expr(dims, simplex.text)) \
                if self.ahead() not in (None, "]") else []
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
        src_tok = self.known(self.ident("source sset"), "sset", self.doc.ssets)
        self.expect("->")
        dst_tok = self.known(self.ident("target sset"), "sset", self.doc.ssets)
        src, dst = self.doc.ssets[src_tok.text], self.doc.ssets[dst_tok.text]
        dst_dims = {g: dst.dim_of[g] for g in dst.all_gens()}
        self.expect("{")
        assignment = {}
        while self.ahead() not in (None, "}"):
            simplex = self.known(self.ident("simplex name"),
                                 f"simplex of {src_tok.text!r}", src.dim_of)
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
        self.keyword("elements")
        elements = [tok.text for tok in self.listed(self.name_token)]
        self.expect(";")
        self.keyword("unit")
        unit = self.known(self.name_token(), "element", elements).text
        self.expect(";")
        self.keyword("mul")
        self.expect("{")
        table, declared = {}, set()
        for e in elements:
            table[(unit, e)] = e
            table[(e, unit)] = e
        while self.ahead() not in (None, "}"):
            a = self.name_token()
            self.expect(".")
            b = self.name_token()
            self.expect("=")
            c = self.name_token()
            self.expect(";")
            for tok in (a, b, c):
                self.known(tok, "element", elements)
            if (a.text, b.text) in declared:
                self.error(a, f"duplicate product {a.text}.{b.text}")
            declared.add((a.text, b.text))
            table[(a.text, b.text)] = c.text
        self.expect("}")
        self.expect("}")
        try:
            category = from_monoid(table, unit)
        except ValueError as exc:
            self.error(name, str(exc))
        self.doc.monoids[name.text] = {"elements": elements, "unit": unit, "table": table}
        self.doc.categories[name.text] = category

    def parse_diagram(self):
        name = self.ident("diagram name")
        self.declare("diagram", name)
        self.keyword("over")
        cat_tok = self.known(self.ident("category name"), "monoid/category",
                             self.doc.categories)
        cat = self.doc.categories[cat_tok.text]
        unit = self.doc.monoids[cat_tok.text]["unit"]
        self.expect("{")
        values: dict[str, SimplicialSet] = {}
        actions: dict[tuple, SimplicialMap] = {}
        while self.ahead() not in (None, "}"):
            kw = self.ident()
            if kw.text == "F":
                self.expect("(")
                obj = self.known(self.name_token(), "object", cat.objects)
                self.expect(")")
                self.expect("=")
                sset_tok = self.known(self.ident("sset name"), "sset", self.doc.ssets)
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
                    self.known(obj, "object", cat.objects)
                self.known(elem, "morphism element", cat.hom(obj_i.text, obj_j.text).gens(0))
                self.known(map_tok, "map", self.doc.maps)
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

    DECLARATIONS = {"sset": parse_sset, "map": parse_map,
                    "monoid": parse_monoid, "diagram": parse_diagram}


def parse(text: str) -> Document:
    """Parse a document; positioned DslError on any deviation."""
    return _Parser(text).parse()
