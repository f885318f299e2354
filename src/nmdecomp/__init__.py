"""Decomposition of simplicial complexes into initial quasi-manifold parts.

The package follows a two-layer design.  The decomposition layer splits an
arbitrary complex at its singular vertices into initial quasi-manifold
components and remembers the pasting map sigma.  The representation layer
stores the components in a flat winged structure (`Ewds`), optionally
renumbered so that most of the vertex table becomes implicit
(`ImplicitEwds`), plus a thin non-manifold layer (`NmLayer`) that restores
global adjacency queries on the original complex.
"""

from .complexes import (
    ClassifyFlags,
    Complex,
    canonical_pairs,
    format_tv,
    parse_tv,
    resolve_tokens,
    simplex,
    token_map,
)
from .decompose import DecompositionResult, decompose
from .errors import (
    BadRelation,
    BadRenumbering,
    InvalidComplex,
    NotAFace,
    NotInTrie,
    NotIqm,
    NotPseudomanifoldPair,
    NotSharedVertex,
    NotTop,
    OutOfRange,
    ParseError,
    TopologyError,
    UnknownToken,
    UnknownTop,
    UnknownVertex,
    VoidInstruction,
)
from .gluing import GluingState, ScriptOutcome, parse_glue_script, run_glue_script
from .nonmanifold import (
    NmLayer,
    build_ft_trie,
    build_nm_layer,
    build_splitmap,
)
from .oracle import (
    labeled_isomorphic,
    oracle_decompose,
    oracle_is_manifold,
    oracle_snm,
    oracle_splitmap,
    oracle_star,
    random_complex,
)
from .renumber import (
    ImplicitEwds,
    Renumbering,
    apply_renumbering,
    compute_renumbering,
)
from .winged import BOTTOM, DIAMOND, Ewds

__all__ = [
    "BOTTOM",
    "BadRelation",
    "BadRenumbering",
    "ClassifyFlags",
    "Complex",
    "DIAMOND",
    "DecompositionResult",
    "Ewds",
    "GluingState",
    "ImplicitEwds",
    "InvalidComplex",
    "NmLayer",
    "NotAFace",
    "NotInTrie",
    "NotIqm",
    "NotPseudomanifoldPair",
    "NotSharedVertex",
    "NotTop",
    "OutOfRange",
    "ParseError",
    "Renumbering",
    "ScriptOutcome",
    "TopologyError",
    "UnknownToken",
    "UnknownTop",
    "UnknownVertex",
    "VoidInstruction",
    "apply_renumbering",
    "build_ft_trie",
    "build_nm_layer",
    "build_splitmap",
    "canonical_pairs",
    "compute_renumbering",
    "decompose",
    "format_tv",
    "labeled_isomorphic",
    "oracle_decompose",
    "oracle_is_manifold",
    "oracle_snm",
    "oracle_splitmap",
    "oracle_star",
    "parse_glue_script",
    "parse_tv",
    "random_complex",
    "resolve_tokens",
    "run_glue_script",
    "simplex",
    "token_map",
]
