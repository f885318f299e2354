"""Exception types shared across the package.

Every error raised by the library is a subclass of TopologyError so callers
(and the CLI) can catch one thing and still tell failures apart by class.
"""

from __future__ import annotations


class TopologyError(Exception):
    """Base class for all library errors."""


class ParseError(TopologyError):
    """A .tv or .glue file line, or a binary dump, did not match its format."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class InvalidComplex(TopologyError, ValueError):
    """A top with no vertices or a repeated vertex, or an empty complex to
    decompose.  Also a ValueError, so callers that catch that still work."""


class NotTop(TopologyError):
    """A simplex given as a top is a face of another top simplex."""

    def __init__(self, message: str, top: int | None = None):
        self.top = top  # id of the stored simplex that is a face
        super().__init__(message)


class NotAFace(TopologyError):
    """The given simplex is not a face of any top simplex."""


class DimensionUnsupported(TopologyError):
    """Manifold recognition is only attempted for d <= 3."""


class UnknownTop(TopologyError):
    """No top simplex with that id."""


class UnknownVertex(TopologyError):
    """No vertex with that id."""


class UnknownToken(TopologyError):
    """A vertex token not present in the file's token table."""


class NotSharedVertex(TopologyError):
    """Vertex equation on a vertex the two tops do not share."""


class VoidInstruction(TopologyError):
    """Gluing instruction between tops with disjoint vertex sets."""


class NotPseudomanifoldPair(TopologyError):
    """Pseudomanifold gluing requires a shared (d-1)-face of order 2."""


class NotInTrie(TopologyError):
    """The simplex is no face-table entry: not a face of the source
    complex, or a vertex, or a whole top row."""


class NotIqm(TopologyError):
    """`Ewds.build` packs only decompositions whose components are initial
    quasi-manifolds."""


class BadRenumbering(TopologyError):
    """A renumbering whose maps or block directories do not fit the tables
    it is applied to, such as one computed for another decomposition."""


class BadRelation(TopologyError):
    """Malformed S<n><m> request: n or m not an int, not 0 <= n < m,
    argument dimension != n, or vertex ids that cannot be sorted."""


class OutOfRange(TopologyError):
    """Index outside the implicit table's addressable area."""
