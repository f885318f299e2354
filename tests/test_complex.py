"""Core complex container: parsing, incidence, classification."""

import random
import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nmdecomp import complexes
from nmdecomp.complexes import (
    Complex,
    corner_layout,
    format_tv,
    parse_tv,
    resolve_tokens,
    simplex,
)
from nmdecomp.decompose import decompose
from nmdecomp.meshes import kuhn_brick, kuhn_cube
from nmdecomp.oracle import random_complex
from nmdecomp.errors import (
    InvalidComplex,
    NotTop,
    ParseError,
    TopologyError,
    UnknownToken,
    UnknownTop,
)
from helpers import boundary, faces_of_dim, label_rows, order_of


def test_parse_numeric_tokens_keep_ids(fan):
    assert fan.top_ids == [1, 2, 3]
    assert fan.row(1) == (1, 2, 3, 4)
    assert fan.row(3) == (2, 4, 5, 6)
    assert fan.num_vertices == 6


def test_parse_letter_tokens_sorted(cones):
    # letters map to 1..NV lexicographically, so x,y,z land at 19,20,21
    assert cones.num_vertices == 21
    assert resolve_tokens(cones, ["x", "y", "z"]) == (19, 20, 21)
    assert cones.label_of(1) == "a"


def test_parse_roundtrip(fan, cones):
    for c in (fan, cones):
        again = parse_tv(format_tv(c))
        assert again.rows() == c.rows()
        assert label_rows(again) == label_rows(c)


@pytest.mark.parametrize(
    "text, labels",
    [
        ("simplex 1: 1 2 3\nsimplex 2: 3 4 0\n", None),
        ("simplex 1: 007 1 2\nsimplex 2: 2 3 05\nsimplex 3: 0 1\n", {7: "007", 5: "05"}),
        ("simplex 1: b a 2\nsimplex 2: a_1 1\n", {3: "a", 4: "a_1", 5: "b"}),
        ("simplex 1: 1 2 x\nsimplex 2: 3 x\n", {4: "x"}),
    ],
    ids=["numerals", "leading-zeros", "words", "numerals-among-words"],
)
def test_parse_keeps_labels_that_differ_from_the_id(text, labels):
    # a label is kept only where it is not str() of its vertex; the text
    # reads back through format_tv either way
    c = parse_tv(text)
    assert c._labels == labels
    assert c.labelled is (labels is not None)
    assert format_tv(c) == text
    assert label_rows(parse_tv(format_tv(c))) == label_rows(c)


@pytest.mark.parametrize(
    "labels, kept",
    [({1: "1", 2: "02"}, {2: "02"}), ({1: "1", 2: "2"}, None), ({1: "a", 9: "9"}, {1: "a"})],
)
def test_mapping_keeps_labels_that_differ_from_the_id(labels, kept):
    c = Complex({1: (1, 2)}, labels=labels)
    assert c._labels == kept
    assert [c.label_of(1), c.label_of(2)] == [labels.get(1, "1"), labels.get(2, "2")]


@pytest.mark.parametrize(
    "c, fault",
    [
        pytest.param(Complex({}), "at least one simplex", id="no-tops"),
        pytest.param(Complex({1: (-1, 2, 3)}), "'-1'", id="negative-vertex"),
        pytest.param(Complex({-1: (1, 2, 3), 2: (3, 4)}), "top id -1", id="negative-top"),
        pytest.param(Complex({1: (1, 2)}, labels={1: "a b"}), "'a b'", id="space"),
        pytest.param(Complex({1: (1, 2)}, labels={1: "a\n"}), "'a\\n'", id="newline"),
        pytest.param(Complex({1: (1, 2)}, labels={1: ""}), "''", id="empty"),
        pytest.param(Complex({1: (1, 2), 2: (2, 3)}, labels={1: "a", 3: "a"}), "'a'", id="twice"),
        pytest.param(
            Complex({1: (1, 2)}, labels={1: "01", 2: "1"}), "'1' of vertex 2", id="one-numeral"
        ),
    ],
)
def test_format_tv_rejects_what_parse_tv_reads_otherwise(c, fault):
    # a negative id, a label that is no token, or one that reads as another
    # vertex's raises, naming the first such id or label in line order
    with pytest.raises(InvalidComplex, match=re.escape(fault)):
        format_tv(c)


def test_format_tv_writes_mixed_numerals():
    # "01" and "1" name one vertex only in a file of numerals
    c = Complex({1: (1, 2), 2: (2, 3)}, labels={1: "01", 2: "1", 3: "x"})
    assert format_tv(c) == "simplex 1: 01 1\nsimplex 2: 1 x\n"
    assert label_rows(parse_tv(format_tv(c))) == label_rows(c)


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_tv("simplex 1: a a b\n")
    with pytest.raises(ParseError):
        parse_tv("simplex 1: a b\nsimplex 1: c d\n")
    with pytest.raises(ParseError):
        parse_tv("nonsense\n")
    with pytest.raises(ParseError):
        parse_tv("simplex 1:\n")


@pytest.mark.parametrize("text", [b"simplex 1: 1 2\n", None, 7, ["simplex 1: 1 2\n"]])
def test_parse_rejects_text_that_is_no_str(text):
    with pytest.raises(ParseError, match=f"not a {type(text).__name__}$"):
        parse_tv(text)


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("simplex 1: 01 1 2\n", 1),
        ("simplex 1: 1 2\nsimplex 2: 02 3\n", 2),
        ("# comments only\n\n", None),
        ("", None),
    ],
    ids=["same-line", "across-lines", "comments-only", "empty"],
)
def test_parse_rejects_aliased_tokens_and_empty_files(text, line_no):
    with pytest.raises(ParseError) as exc:
        parse_tv(text)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "text, line_no, top",
    [
        ("simplex 1: 1 2\nsimplex 2: 1 2 3\n", 1, 1),
        ("# header\nsimplex 1: 1 2 3\n\nsimplex 2: 3 1\n", 4, 2),
        ("simplex 5: a b c\nsimplex 3: a b c\n", 1, 5),
    ],
    ids=["face-first", "face-last", "duplicate-rows"],
)
def test_parse_names_the_line_of_a_non_maximal_simplex(text, line_no, top):
    with pytest.raises(ParseError) as exc:
        parse_tv(text)
    assert exc.value.line_no == line_no
    assert str(exc.value).startswith(f"line {line_no}: stored simplex {top} ")
    assert isinstance(exc.value.__cause__, NotTop) and exc.value.__cause__.top == top


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("simplex \u0661: 1 2 3\n", 1),
        ("simplex 1: a b\nsimplex \uff12: b c\n", 2),
        ("simplex 1\u0662: 1 2\n", 1),
        ("simplex \u00b2: a b\n", 1),
        ("simplex 1_0: a b\n", 1),
        ("simplex +1: a b\n", 1),
    ],
    ids=["arabic-indic", "fullwidth", "mixed", "superscript", "underscore", "sign"],
)
def test_top_ids_are_ascii_decimal(text, line_no):
    # every Unicode digit is \d, but a top id is [0-9]+ and nothing else
    with pytest.raises(ParseError, match="expected 'simplex <id>: <tok> ...'") as exc:
        parse_tv(text)
    assert exc.value.line_no == line_no


# -- reference: the line-by-line .tv parser ---------------------------------

_REF_TOKEN_RE = re.compile(r"^[A-Za-z0-9_]+$")
_REF_LINE_RE = re.compile(r"^simplex\s+([0-9]+)\s*:\s*(.*)$")  # ASCII ids


def reference_parse_tv(text: str) -> Complex:
    """The .tv parser that checks every rule on every line as it reads it:
    one token regex per occurrence, then the "01"/"1" check over every
    occurrence in file order."""
    raw: list[tuple[int, int, list[str]]] = []
    seen_ids: set[int] = set()
    tokens: set[str] = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _REF_LINE_RE.match(stripped)
        if not m:
            raise ParseError(f"expected 'simplex <id>: <tok> ...', got {line!r}", line_no)
        tid = int(m.group(1))
        if tid in seen_ids:
            raise ParseError(f"duplicate simplex id {tid}", line_no)
        seen_ids.add(tid)
        toks = m.group(2).split()
        if not toks:
            raise ParseError("simplex with no vertices", line_no)
        for tok in toks:
            if not _REF_TOKEN_RE.match(tok):
                raise ParseError(f"bad vertex token {tok!r}", line_no)
        if len(set(toks)) != len(toks):
            raise ParseError("repeated vertex token in one simplex", line_no)
        tokens.update(toks)
        raw.append((line_no, tid, toks))

    if not raw:
        raise ParseError("no simplices")
    if all(t.isdigit() for t in tokens):
        to_id = {t: int(t) for t in tokens}
        first: dict[int, str] = {}
        for line_no, _, toks in raw:
            for tok in toks:
                other = first.setdefault(to_id[tok], tok)
                if other != tok:
                    raise ParseError(
                        f"tokens {other!r} and {tok!r} both name vertex {to_id[tok]}",
                        line_no,
                    )
    else:
        to_id = {t: i for i, t in enumerate(sorted(tokens), start=1)}
    labels = {i: t for t, i in to_id.items()}

    rows = {tid: tuple(to_id[t] for t in toks) for _, tid, toks in raw}
    try:
        return Complex(rows, labels=labels)
    except NotTop as exc:
        line_no = next(no for no, tid, _ in raw if tid == exc.top)
        raise ParseError(str(exc), line_no) from exc


def _parsed(parse, text: str):
    """The rows and labels parse gives, or what it raised: type, message,
    line and cause."""
    try:
        c = parse(text)
    except Exception as exc:
        cause = exc.__cause__
        return (
            type(exc),
            str(exc),
            getattr(exc, "line_no", None),
            cause and (type(cause), str(cause), getattr(cause, "top", None)),
        )
    return list(c.rows().items()), label_rows(c)


_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_SPACES = ["", " ", "  ", "\t", "\xa0", " \t\xa0", "\x1f", "\u3000"]
_ARABIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))  # Nd digits


@st.composite
def tv_texts(draw) -> str:
    """.tv texts whose lines are mostly good simplices, with blank lines,
    comments, every line break of str.splitlines, odd spaces, numerals in
    other forms, and faults of every kind in any order."""
    space, gap = st.sampled_from(_SPACES), st.sampled_from(_SPACES[1:])
    pool = ["1", "2", "3", "4", "5", "6", "7", "8"]
    if draw(st.booleans()):
        pool[:5] = ["a", "b", "c", "B", "x_1"]
    # rows of one width, which are faces of others only when equal, or of any
    width = st.integers(1, 4) if draw(st.booleans()) else st.just(draw(st.integers(1, 4)))
    if draw(st.booleans()):
        pool += ["06", "007"]  # the vertices of "6" and "7", if every token is a numeral
    if draw(st.integers(0, 5)) == 0:
        pool.append(draw(st.sampled_from(["a-b", "\xe9", "\u0661", "1.5", "#"])))  # no token
    others = ["blank", "comment", "garbage", "no-vertices", "repeated", "duplicate"]
    kinds = ["simplex"] * draw(st.integers(0, 8))
    kinds = draw(st.permutations(kinds + draw(st.lists(st.sampled_from(others), max_size=3))))
    out = []
    ids: list[int] = []
    for k, kind in enumerate(kinds, start=1):
        if kind == "blank":
            line = draw(space)
        elif kind == "comment":
            line = draw(space) + "# simplex 9: a"
        elif kind == "garbage":
            line = draw(st.sampled_from(["nonsense", "simplex1: a", "simplex 1 a", ": a"]))
        else:
            tid = draw(st.sampled_from(ids)) if kind == "duplicate" and ids else k
            ids.append(tid)
            num = draw(st.sampled_from([str(tid), f"0{tid}", str(tid).translate(_ARABIC)]))
            n = 0 if kind == "no-vertices" else draw(width)
            toks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True))
            if kind == "repeated":
                toks.append(toks[0])
            body = "".join(tok + draw(gap) for tok in toks)
            line = (
                draw(space) + "simplex" + draw(gap) + num + draw(space) + ":" + draw(space) + body
            )
        if draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(["#", " # x", "#a b # c"]))
        out.append(line + draw(st.sampled_from(_BREAKS)))
    text = "".join(out)
    return text if draw(st.booleans()) else text.rstrip("".join(_BREAKS))


@settings(max_examples=400, deadline=None)
@given(tv_texts())
def test_parse_tv_matches_reference(text):
    assert _parsed(parse_tv, text) == _parsed(reference_parse_tv, text)


@pytest.mark.parametrize(
    "text",
    [
        "simplex 1: 1 2\nsimplex 2: 01 3\nnonsense\n",
        "simplex 1: 1 2\nsimplex 2: 1 2 3\nsimplex 3:\n",
        "simplex 1: 01 2\nsimplex 2: 1 3\nsimplex 1: 4 5\n",
        "simplex 1: 01 2\nsimplex 2: 1 3 3\n",
        "simplex 1: 1 2\nsimplex 2: 1 2 3\nsimplex 3: 4 04\n",
        "simplex 1: a b\nsimplex 2: a b c\nsimplex 3: d d\n",
        "simplex 1: a b\r\nsimplex 2: a b c\r\n",
        "simplex 1: a b # c\x85simplex\u20282: a d\x1c\n",
        "simplex \u0661: a\xa0b\x1fc\u2029simplex 02: b\tc d",
        "# only\x0b\x0c  \n",
    ],
    ids=[
        "bad-line-before-alias",
        "no-vertices-after-face",
        "duplicate-id-after-alias",
        "repeated-token-after-alias",
        "alias-after-face",
        "repeated-token-after-face",
        "crlf-face",
        "break-inside-a-line",
        "unicode-id-and-spaces",
        "comments-only",
    ],
)
def test_parse_tv_names_the_first_fault_as_reference(text):
    assert _parsed(parse_tv, text) == _parsed(reference_parse_tv, text)


@st.composite
def faulty_tv_texts(draw):
    """A .tv text of maximal rows under unordered top ids, with up to two
    injected faults, and what parse_tv must give: the rows in id order, or
    the message, line and NotTop top of the fault that wins.

    Each base row holds a token of its own, so no base row is a face of
    another.  A fault is one inserted line: garbage, an id already taken
    (after the line that took it), a non-canonical numeral of a vertex
    named earlier, a repeated token, part of a base row, or, for no
    simplex at all, a file whose rows are all gone."""
    numeric = draw(st.booleans())
    fault = st.sampled_from(["bad", "duplicate", "alias", "repeated", "face", "empty"])
    kinds = [draw(fault) for _ in range(draw(st.integers(0, 2)))]
    if "empty" in kinds:  # only garbage can go with a file of no simplex
        kinds = [k for k in kinds if k == "bad"]
        n_base = 0
    else:
        n_base = draw(st.integers(1, 5))
    if not numeric:
        kinds = [k for k in kinds if k != "alias"]  # "07" and "7" are two words
    pool = list(map(str, range(1, 9))) if numeric else ["a", "b", "c", "d", "x_1", "B"]
    fresh = iter(draw(st.lists(st.integers(0, 99), min_size=8, max_size=8, unique=True)))
    lines: list = []  # (kind, id, tokens), or a string for a line that holds no simplex
    for _ in range(n_base):
        tid = next(fresh)
        own = str(200 + tid) if numeric else f"p{tid}"
        shared = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        toks = draw(st.permutations([own, *shared]))
        lines.append(("row", tid, toks))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "  ", "# simplex 1: a", "\t# x"])))
    base = [x for x in lines if type(x) is tuple]
    for n, kind in enumerate(kinds):
        lo = 0
        if kind == "bad":
            line = draw(st.sampled_from(["nonsense", "simplex1: a", "simplex 1 a", ": a"]))
        elif kind == "duplicate":
            r = draw(st.sampled_from(base))
            lo = lines.index(r) + 1
            line = ("duplicate", r[1], [f"{r[2][0]}9"])
        elif kind == "alias":
            r, v = draw(st.sampled_from([(r, v) for r in base for v in r[2]]))
            lo = lines.index(r) + 1
            tid = next(fresh)
            line = ("alias", tid, [str(300 + tid), "0" * (n + 1) + v])
        elif kind == "repeated":
            tid = next(fresh)
            own = str(300 + tid) if numeric else f"q{tid}"
            line = ("repeated", tid, [own, own])
        else:
            _, _, toks = draw(st.sampled_from(base))
            part = draw(st.lists(st.sampled_from(toks), min_size=1, unique=True))
            line = ("face", next(fresh), part)
        lines.insert(draw(st.integers(lo, len(lines))), line)

    text = "".join(
        (x if type(x) is str else f"simplex {x[1]}: {' '.join(x[2])}") + "\n" for x in lines
    )
    numbered = list(enumerate(lines, start=1))
    seen: set = set()
    for no, x in numbered:  # the first line that breaks a per-line rule
        if type(x) is str:
            if x.strip() and not x.lstrip().startswith("#"):
                return text, (f"expected 'simplex <id>: <tok> ...', got {x!r}", no, None)
            continue
        if x[1] in seen:
            return text, (f"duplicate simplex id {x[1]}", no, None)
        seen.add(x[1])
        if x[0] == "repeated":
            return text, ("repeated vertex token in one simplex", no, None)
    rows = [(no, x[1], x[2]) for no, x in numbered if type(x) is tuple]
    if not rows:
        return text, ("no simplices", None, None)
    for no, _, toks in rows:  # the first non-canonical numeral of a vertex named before
        if any(t.startswith("0") for t in toks):
            v = next(t for t in toks if t.startswith("0"))
            return text, (f"tokens {v.lstrip('0')!r} and {v!r} both name vertex {int(v)}", no, None)
    for no, tid, toks in rows:  # the first row, in line order, that is a face of another
        others = [t for _, t, o in rows if t != tid and set(toks) <= set(o)]
        if others:
            message = f"stored simplex {tid} is a face of stored simplex {min(others)}"
            return text, (message, no, tid)
    tokens = sorted({t for _, _, toks in rows for t in toks})
    to_id = {t: int(t) for t in tokens} if numeric else {t: i for i, t in enumerate(tokens, 1)}
    return text, sorted((tid, tuple(map(to_id.get, toks))) for _, tid, toks in rows)


@settings(max_examples=400, deadline=None)
@given(faulty_tv_texts())
def test_parse_tv_reports_faults_by_precedence(case):
    # per-line faults in line order (a repeated token before any face),
    # then no simplex, then two numerals for one vertex, then the first
    # face in line order at its own line, whatever order the ids take
    text, want = case
    try:
        c = parse_tv(text)
    except ParseError as exc:
        message, line_no, top = want
        assert str(exc) == (message if line_no is None else f"line {line_no}: {message}")
        assert exc.line_no == line_no
        assert getattr(exc.__cause__, "top", None) == top
    else:
        assert list(c.rows().items()) == want
        assert c.top_ids == sorted(c.top_ids)


@pytest.mark.slow
def test_parse_tv_matches_reference_at_benchmark_scale():
    # the ball, a brick less a seeded 30 % of its unit cubes, and 200 small
    # random complexes of every dimension, written and read back
    brick = kuhn_brick(12, 10, 8)
    rng = random.Random(30)
    dropped = set(rng.sample(range(brick.num_tops // 6), round(0.3 * brick.num_tops / 6)))
    perforated = brick.subcomplex(t for t in brick.top_ids if (t - 1) // 6 not in dropped)
    small = [random_complex(seed, 40, 1 + seed % 4) for seed in range(200)]
    for c in [kuhn_cube(10), perforated, *small]:
        text = format_tv(c)
        got = _parsed(parse_tv, text)
        assert got == _parsed(reference_parse_tv, text)
        assert got[0] == list(c.rows().items())


def test_tops_are_maximal():
    with pytest.raises(NotTop):
        Complex({1: (1, 2, 3), 2: (1, 2)})


def reference_maximality(rows: dict) -> None:
    """The maximality check over a vertex -> tops dict of sets, after the
    row check that Complex makes first."""
    for tid, row in rows.items():
        if len(set(row)) != len(row):
            raise InvalidComplex(f"repeated vertex in simplex {tid}")
    # every occurrence: as dict keys, True and 1.0 would fold into an earlier 1
    for row in rows.values():
        for v in row:
            if type(v) is not int:
                raise InvalidComplex(f"vertex id {v!r} is not an integer")
    vt: dict = {}
    for tid, row in rows.items():
        for v in row:
            vt.setdefault(v, set()).add(tid)
    for tid, row in rows.items():
        cofaces = set.intersection(*(vt[v] for v in row))
        if len(cofaces) > 1:
            other = min(t for t in cofaces if t != tid)
            raise NotTop(f"stored simplex {tid} is a face of stored simplex {other}", tid)


def _outcome(check, rows):
    try:
        check(rows)
    except (InvalidComplex, NotTop) as exc:
        return type(exc), str(exc), getattr(exc, "top", None)
    return None


# (kind, which top, put the new row first) -> one injected row
injections = st.lists(
    st.tuples(
        st.sampled_from(["duplicate", "face", "not-int", "bool"]),
        st.integers(min_value=0, max_value=10_000),
        st.booleans(),
    ),
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=4),
    injections,
    st.booleans(),
)
def test_maximality_matches_reference(seed, d, inject, empty):
    # duplicates and faces of tops, listed first or last, vertex ids that
    # are no ints or equal an int, and the empty complex
    rng = random.Random(seed)
    rows = {} if empty else random_complex(seed=seed, max_tops=12, d=d).rows()
    for kind, k, first in inject:
        if not rows:
            break
        old = list(rows.values())[k % len(rows)]
        if kind == "duplicate":
            new = tuple(rng.sample(old, len(old)))
        elif kind == "face":
            new = tuple(rng.sample(old, rng.randint(1, len(old))))
        else:
            new = tuple(old[:-1]) + (True if kind == "bool" else f"{old[-1]}x",)
        tid = max(rows) + 1 + k % 5
        rows = {tid: new, **rows} if first else {**rows, tid: new}
    want = _outcome(reference_maximality, rows)
    assert _outcome(Complex, rows) == want
    if not rows or any(type(v) is not int for r in rows.values() for v in r):
        return
    text = "".join(f"simplex {t}: {' '.join(map(str, r))}\n" for t, r in rows.items())
    try:
        parse_tv(text)
    except ParseError as exc:
        line_no = list(rows).index(want[2]) + 1
        assert (exc.line_no, exc.__cause__.top) == (line_no, want[2])
        assert str(exc) == f"line {line_no}: {want[1]}"
    else:
        assert want is None


@pytest.mark.parametrize(
    "make",
    [
        lambda: Complex({1: ()}),
        lambda: Complex({1: (1, 1)}),
        lambda: decompose(Complex({})),
        lambda: Complex({"a": (1,)}),
        lambda: Complex({1: (1, 2)}).star(()),
        lambda: decompose(Complex({1: ("x", "y")})),
        lambda: Complex({1: (1, 2)}).h_connected_components(-1),
        lambda: Complex({1: (1, 2)}).h_connected_components(1.5),
    ],
    ids=[
        "empty-top",
        "repeated-vertex",
        "decompose-empty",
        "top-id-not-int",
        "star-of-nothing",
        "vertex-not-int",
        "h-negative",
        "h-not-int",
    ],
)
def test_bad_input_raises_invalid_complex(make):
    with pytest.raises(InvalidComplex) as info:
        make()
    assert isinstance(info.value, TopologyError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "tv, message",
    [
        ({1: (1, 2), "1": (3, 4)}, "top ids 1 and '1' both name top 1"),
        ({"07": (1, 2), 3: (2, 3), 7: (3, 4)}, "top ids '07' and 7 both name top 7"),
        ({1: ([1], 2)}, "simplex 1 holds an unhashable vertex id"),
        # only ints and strings that int() reads name tops
        ({1.5: (1, 2)}, "top id 1.5 is not an integer"),
        ({2.0: (1, 2)}, "top id 2.0 is not an integer"),
        ({True: (1, 2)}, "top id True is not an integer"),
        # the first row at fault wins, and a row's own faults precede its id's
        ({1: (1, 1), 2: None}, "repeated vertex in simplex 1"),
        ({1: [], 2: ([1], 2)}, "empty simplex for id 1"),
        ({1: ([1], 2), 2: ()}, "simplex 1 holds an unhashable vertex id"),
        ({3: (1, 2), 1: (2, 3), 2: 5}, "simplex 2 is not a sequence of vertex ids"),
        ({1.5: (1, 1)}, "repeated vertex in simplex 1.5"),
        ({2: (1, 2), "2": (3, 3)}, "repeated vertex in simplex 2"),
    ],
    ids=[
        "colliding-ids",
        "colliding-ids-apart",
        "unhashable-vertex",
        "float-id",
        "integral-float-id",
        "bool-id",
        "repeat-before-no-sequence",
        "empty-before-unhashable",
        "unhashable-before-empty",
        "no-sequence-after-unordered-ids",
        "repeat-before-float-id",
        "repeat-before-colliding-ids",
    ],
)
def test_invalid_complex_names_the_top(tv, message):
    for validate in (True, False):
        with pytest.raises(InvalidComplex, match=re.escape(message)):
            Complex(tv, validate=validate)


@pytest.mark.parametrize(
    "tv, labels, message",
    [
        ([(1, 2)], None, "rows are a list, not a mapping"),
        (None, None, "rows are a NoneType, not a mapping"),
        ({1: (1, 2)}, [1], "labels are a list, not a mapping"),
        ({1: (1, 2)}, "12", "labels are a str, not a mapping"),
        ({1: (1, 2, 3), 2: (1, 4, 5)}, {1: 5}, "label 5 of vertex 1 is not a str"),
        ({1: (1, 2)}, {1: "a", 2: None}, "label None of vertex 2 is not a str"),
        ({1: (1, 2)}, {2: b"b"}, "label b'b' of vertex 2 is not a str"),
    ],
    ids=["rows-list", "rows-none", "labels-list", "labels-str", "int-label", "none-label",
         "bytes-label"],
)
def test_rows_and_labels_are_mappings_and_labels_str(tv, labels, message):
    for validate in (True, False):
        with pytest.raises(InvalidComplex, match=re.escape(message)):
            Complex(tv, labels, validate=validate)


def test_bowtie_label_that_is_no_str_is_refused_before_decompose():
    # vertex 1 pinches the two triangles, so decompose copies its label
    rows = {1: (1, 2, 3), 2: (1, 4, 5)}
    with pytest.raises(InvalidComplex, match="label 5 of vertex 1 is not a str"):
        decompose(Complex(rows, labels={1: 5}))
    nabla = decompose(Complex(rows, labels={1: "v"})).nabla
    assert format_tv(nabla) == "simplex 1: v 2 3\nsimplex 2: v_2 4 5\n"


@pytest.mark.parametrize(
    "rows, bad",
    [
        ({1: (1, 2, 3), 2: (True, 3, 4)}, "True"),
        ({2: (True, 3, 4), 1: (1, 2, 3)}, "True"),
        ({1: (1, 2), 2: (1.0, 3)}, "1.0"),
        ({2: (1.0, 3), 1: (1, 2)}, "1.0"),
    ],
    ids=["bool-after-int", "bool-first", "float-after-int", "float-first"],
)
def test_vertex_equal_to_an_int_is_still_no_int(rows, bad):
    # True == 1 and 1.0 == 1, so a check on the distinct vertices would let
    # them through behind an earlier 1; every occurrence is checked
    with pytest.raises(InvalidComplex, match=f"vertex id {re.escape(bad)} is not an integer"):
        Complex(rows)


@pytest.mark.parametrize(
    "lookup, error",
    [
        (lambda c: c.subcomplex([999]), UnknownTop),
        (lambda c: c.subcomplex(t for t in (1, "2")), UnknownTop),
        (lambda c: c.subcomplex(None), InvalidComplex),
        (lambda c: c.subcomplex(1), InvalidComplex),
        (lambda c: c.row(True), UnknownTop),
        (lambda c: c.row(1.0), UnknownTop),
        (lambda c: c.row(0), UnknownTop),
        (lambda c: c.dim_of(4), UnknownTop),
        (lambda c: c.position([1]), UnknownTop),
        (lambda c: c.star([[1]]), InvalidComplex),
        (lambda c: c.star([True]), InvalidComplex),
        (lambda c: c.star([2, True]), InvalidComplex),
        (lambda c: c.star([1.0]), InvalidComplex),
        (lambda c: c.star(["1"]), InvalidComplex),
        (lambda c: c.star("1"), InvalidComplex),
        (lambda c: c.star(None), InvalidComplex),
        (lambda c: c.star(1), InvalidComplex),
    ],
    ids=[
        "subcomplex-unknown",
        "subcomplex-str",
        "subcomplex-none",
        "subcomplex-int",
        "row-bool",
        "row-float",
        "row-below",
        "dim-of-above",
        "position-unhashable",
        "star-unhashable",
        "star-bool",
        "star-bool-after-int",
        "star-float",
        "star-str-id",
        "star-str",
        "star-none",
        "star-int",
    ],
)
def test_lookups_raise_typed_errors(lookup, error):
    c = Complex({1: (1, 2, 3), 2: (2, 3, 4), 3: (4, 5)})
    with pytest.raises(error):
        lookup(c)
    assert c.position(1) == 0
    assert c.star([1]) == {1} and c.star([999]) == c.star([1, 999]) == set()
    # no top holds an h-face above the dimension, however large h is
    assert c.h_connected_components(3) == c.h_connected_components(10**20) == [[1], [2], [3]]
    for tid in (True, 999):
        with pytest.raises(UnknownTop):
            c.position(tid)


@pytest.mark.parametrize("row", [None, 5])
def test_row_that_is_no_sequence_names_its_top(row):
    with pytest.raises(InvalidComplex, match="simplex 7 "):
        Complex({7: row})


def test_row_order_preserved(mixed):
    # input order is significant, rows are never sorted on ingest
    assert mixed.row(5) == (6, 5, 8)
    assert mixed.row(7) == (10, 9, 12, 11)


def test_star_and_link(fan):
    assert fan.star([2]) == {1, 2, 3}
    assert fan.star([2, 4, 5]) == {2, 3}
    assert fan.star([1, 5]) == set()


def test_order_of(fan):
    assert order_of(fan, [2, 4]) == 3
    assert order_of(fan, [1]) == 1
    # non-face order is 0 by convention
    assert order_of(fan, [1, 6]) == 0


def test_faces_and_counts(fan):
    assert len(faces_of_dim(fan, 0)) == 6
    assert len(faces_of_dim(fan, 3)) == 3


def test_h_connected_components(mixed):
    # the source is vertex-connected across dims except the two bare points
    assert mixed.h_connected_components(0) == [[1], [2], [3, 4, 5, 6, 7, 8, 9]]
    # 2-connectivity needs shared triangles: 7,8 share {9,12,11}, 8,9 {9,11,6}
    assert mixed.h_connected_components(2) == [[1], [2], [3], [4], [5], [6], [7, 8, 9]]


def test_refinement_direction(fan, mixed, cones):
    # every (h+1)-class sits inside some h-class
    for c in (fan, mixed, cones):
        for h in range(c.dim):
            coarse = {t: i for i, g in enumerate(c.h_connected_components(h)) for t in g}
            for g in c.h_connected_components(h + 1):
                assert len({coarse[t] for t in g}) == 1


def test_classify_fan(fan):
    fl = fan.classify()
    assert fl.regular and fl.pseudomanifold and fl.quasi_manifold and fl.iqm
    assert fl.manifold_le3 is True


def test_classify_mixed(mixed):
    fl = mixed.classify()
    assert not fl.regular
    assert not fl.pseudomanifold
    assert not fl.iqm


def test_classify_cones(cones):
    fl = cones.classify()
    assert fl.regular
    assert not fl.pseudomanifold
    assert fl.iqm
    assert fl.manifold_le3 is False


def test_classify_pinched(pinched):
    fl = pinched.classify()
    assert fl.regular and fl.pseudomanifold and fl.quasi_manifold and fl.iqm
    assert fl.manifold_le3 is False


def test_classify_reads_one_facet_pass(monkeypatch, fan, mixed, cones, pinched, bouquet):
    calls = []
    real = complexes.facet_slots
    monkeypatch.setattr(
        complexes, "facet_slots", lambda *a: calls.append(1) or real(*a)
    )
    for c in (fan, mixed, cones, pinched, bouquet):
        calls.clear()
        c.classify()
        assert len(calls) == 1
        calls.clear()
        flags, npm = c.classify_with_faces()
        assert len(calls) == 1
        assert flags == c.classify()
        stars = {f: sorted(c.star(f)) for f in faces_of_dim(c, c.dim - 1)}
        assert npm == {f: tops for f, tops in stars.items() if len(tops) > 2}


def test_non_pseudomanifold_faces(cones, fan):
    npm = cones.classify_with_faces()[1]
    xyz = resolve_tokens(cones, ["x", "y", "z"])
    assert set(npm) == {xyz}
    assert npm[xyz] == [34, 35, 36]
    assert fan.classify_with_faces()[1] == {}


def test_boundary_and_euler(fan):
    # solid ball: its boundary is a 2-sphere worth of triangles
    bnd = boundary(fan)
    assert all(len(f) == 3 for f in bnd)
    assert len(bnd) == 8
    verts = {v for f in bnd for v in f}
    edges = {e for f in bnd for e in combinations(f, 2)}
    assert len(verts) - len(edges) + len(bnd) == 2


def test_star_errors(fan):
    with pytest.raises(UnknownToken):
        resolve_tokens(fan, ["7"])


def test_subcomplex(mixed):
    sub = mixed.subcomplex([7, 8, 9])
    assert sub.top_ids == [7, 8, 9]
    assert sub.row(7) == mixed.row(7)
    assert sub.dim == 3
    # any order, repeats and generators give the same slice of the store
    assert mixed.subcomplex(t for t in (9, 7, 8, 7)) == sub
    # all of the tops in id order share the store
    whole = mixed.subcomplex(mixed.top_ids)
    assert whole == mixed and corner_layout(whole)[0] is corner_layout(mixed)[0]


def test_simplex_helper():
    assert simplex([3, 1, 2]) == (1, 2, 3)
    assert simplex((5,)) == (5,)
