"""Vertex-identification lab: rebuild a complex from exploded tops.

The state is a partition of the (top, slot) corners of the source.  Fully
exploded, every corner is its own class; gluing instructions merge classes,
never split them, so any run of instructions reaches a quotient of the
source complex.
Scripts drive the same operations from text files, and
`oracle.random_complex` drives the lab to generate its complexes.
`pmglue` accepts exactly `complexes.canonical_pairs`, the manifold-facet
rule that `decompose` glues by.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .complexes import Complex, canonical_pairs, corner_layout, resolve_tokens
from .decompose import DecompositionResult, decomposition_from_corners
from .errors import (
    NotPseudomanifoldPair,
    NotSharedVertex,
    ParseError,
    TopologyError,
    VoidInstruction,
)
from .unionfind import flatten, union_min


class GluingState:
    """Partition of corners of the source complex, coarsened by gluing.

    Corners are the flat ids of `complexes.corner_layout`, read in place
    through `Complex.position`, and the partition is a union-find parent
    array over them.
    """

    def __init__(self, source: Complex):
        self.source = source
        self._flat, self._start = corner_layout(source)
        self._parent = list(range(len(self._flat)))
        self._pairs: set[frozenset] | None = None  # canonical_pairs, on the first pmglue

    def _glue_corners(self, t1: int, t2: int, shared: Iterable[int]) -> None:
        index, start, position = self._flat.index, self._start, self.source.position
        i1, i2 = position(t1), position(t2)
        s1, s2, e1, e2 = start[i1], start[i2], start[i1 + 1], start[i2 + 1]
        for v in shared:
            union_min(self._parent, index(v, s1, e1), index(v, s2, e2))

    # -- instructions ------------------------------------------------------

    def veq(self, t1: int, t2: int, v: int) -> None:
        """Identify vertex v of top t1 with vertex v of top t2."""
        r1, r2 = self.source.row(t1), self.source.row(t2)
        if v not in r1 or v not in r2:
            raise NotSharedVertex(f"vertex {v} is not shared by tops {t1} and {t2}")
        self._glue_corners(t1, t2, (v,))

    def glue(self, t1: int, t2: int) -> None:
        """Identify every vertex the two tops share in the source."""
        shared = set(self.source.row(t1)) & set(self.source.row(t2))
        if not shared:
            raise VoidInstruction(f"tops {t1} and {t2} share no vertices")
        self._glue_corners(t1, t2, shared)

    def pmglue(self, t1: int, t2: int) -> None:
        """Glue along a shared facet of order two.

        The two tops must be one of the source's `canonical_pairs`: they
        share a facet that no other top contains.  This is the static
        counterpart of a manifold-style face identification.
        """
        r1, r2 = self.source.row(t1), self.source.row(t2)
        if self._pairs is None:
            self._pairs = canonical_pairs(self.source)
        if frozenset((t1, t2)) not in self._pairs:
            raise NotPseudomanifoldPair(
                f"tops {t1} and {t2} do not meet along an order-2 facet"
            )
        self._glue_corners(t1, t2, set(r1) & set(r2))

    # -- views -------------------------------------------------------------

    def roots(self) -> list[int]:
        """Class of each flat corner, named by its smallest corner."""
        return flatten(self._parent)[:]

    def corner_classes(self) -> list[tuple[int, list[int]]]:
        """One (source vertex, sorted top ids) pair per corner class.

        Classes come ordered by smallest top, then vertex.
        """
        by_root: dict[int, tuple[int, list[int]]] = {}
        flat, start, roots = self._flat, self._start, self.roots()
        for i, t in enumerate(self.source.top_ids):
            for k in range(start[i], start[i + 1]):
                by_root.setdefault(roots[k], (flat[k], []))[1].append(t)
        return sorted(by_root.values(), key=lambda c: (c[1][0], c[0]))

    def splitting_vertices(self) -> list[int]:
        """Source vertices currently present in more than one class."""
        count: dict[int, int] = {}
        for v, _ in self.corner_classes():
            count[v] = count.get(v, 0) + 1
        return sorted(v for v, n in count.items() if n > 1)

    def is_isomorphic_to_source(self) -> bool:
        """True when the glued complex has exactly the source's vertices."""
        return not self.splitting_vertices()

    def dump_lines(self) -> list[str]:
        """Readable class listing, one `token-[tops]` line per class."""
        entries = []
        for v, tops in self.corner_classes():
            entries.append((self.source.label_of(v), tops))
        entries.sort(key=lambda e: (e[0], e[1][0]))
        return [f"{tok}-[{','.join(str(t) for t in tops)}]" for tok, tops in entries]

    def current_decomposition(self) -> DecompositionResult:
        """The glued complex with fresh ids for extra vertex copies."""
        return decomposition_from_corners(self.source, self.roots())


# -- script driver ---------------------------------------------------------


@dataclass
class GlueEvent:
    """Outcome of one script line."""

    line_no: int
    text: str
    kind: str  # ok | dump | assert-pass | assert-fail | error
    detail: str = ""
    payload: list[str] = field(default_factory=list)


@dataclass
class ScriptOutcome:
    state: GluingState | None
    events: list[GlueEvent]

    @property
    def ok(self) -> bool:
        return all(e.kind not in ("assert-fail", "error") for e in self.events)


def parse_glue_script(text: str) -> list[tuple[int, list[str]]]:
    """Split a script into (line number, token list) instructions.  Text
    that is no str raises ParseError."""
    if not isinstance(text, str):
        raise ParseError(f".glue text is a str, not a {type(text).__name__}")
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line.split()))
    return out


def _top_arg(tok: str, no: int) -> int:
    """A script's top id: ASCII decimal digits alone, as in a .tv file."""
    if not (tok.isascii() and tok.isdigit()):
        raise ParseError(f"top id {tok!r} is not a decimal number", no)
    return int(tok)


_ARITY = {
    "explode": 0,
    "veq": 3,
    "glue": 2,
    "pmglue": 2,
    "assert-iso": 0,
    "assert-split": 1,
    "dump": 0,
}


def run_glue_script(source: Complex, text: str) -> ScriptOutcome:
    """Execute a script; stops at the first hard error, asserts just record."""
    state: GluingState | None = None
    events: list[GlueEvent] = []
    for no, toks in parse_glue_script(text):
        op, args = toks[0], toks[1:]
        line = " ".join(toks)
        if op not in _ARITY:
            raise ParseError(f"unknown instruction {op!r}", no)
        if len(args) != _ARITY[op]:
            raise ParseError(f"{op} takes {_ARITY[op]} arguments", no)
        if op in ("veq", "glue", "pmglue"):
            t1, t2 = _top_arg(args[0], no), _top_arg(args[1], no)
        try:
            if op == "explode":
                state = GluingState(source)
                events.append(GlueEvent(no, line, "ok"))
                continue
            if state is None:
                events.append(
                    GlueEvent(no, line, "error", "explode must come first")
                )
                break
            if op == "veq":
                (v,) = resolve_tokens(source, [args[2]])
                state.veq(t1, t2, v)
                events.append(GlueEvent(no, line, "ok"))
            elif op == "glue":
                state.glue(t1, t2)
                events.append(GlueEvent(no, line, "ok"))
            elif op == "pmglue":
                state.pmglue(t1, t2)
                events.append(GlueEvent(no, line, "ok"))
            elif op == "assert-iso":
                if state.is_isomorphic_to_source():
                    events.append(GlueEvent(no, line, "assert-pass"))
                else:
                    bad = state.splitting_vertices()
                    events.append(
                        GlueEvent(no, line, "assert-fail", f"split vertices {bad}")
                    )
            elif op == "assert-split":
                (v,) = resolve_tokens(source, [args[0]])
                if v in state.splitting_vertices():
                    events.append(GlueEvent(no, line, "assert-pass"))
                else:
                    events.append(
                        GlueEvent(no, line, "assert-fail", f"vertex {args[0]} not split")
                    )
            elif op == "dump":
                events.append(
                    GlueEvent(no, line, "dump", payload=state.dump_lines())
                )
        except TopologyError as exc:
            events.append(GlueEvent(no, line, "error", f"{type(exc).__name__}: {exc}"))
            break
    return ScriptOutcome(state, events)
