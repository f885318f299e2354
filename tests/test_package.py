"""The package's public names, and the names its modules import."""

import ast
from pathlib import Path

import pytest

import nmdecomp
from nmdecomp import nonmanifold
from nmdecomp.counters import OpCounter
from nmdecomp.fixtures import load_tv


def test_all_resolves_and_is_sorted():
    missing = [name for name in nmdecomp.__all__ if not hasattr(nmdecomp, name)]
    assert missing == []
    assert nmdecomp.__all__ == sorted(nmdecomp.__all__)


def test_names_the_benchmark_reads(monkeypatch):
    # perfbench/bench.py reads these names and wraps the two builders that
    # build_nm_layer looks up in its module at call time
    assert issubclass(nmdecomp.NotInTrie, nmdecomp.TopologyError)
    calls = []
    for name in ("build_ft_trie", "build_splitmap"):
        fn = getattr(nonmanifold, name)
        monkeypatch.setattr(
            nonmanifold, name, lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a)
        )
    src = load_tv("fix_b.tv")
    dec = nmdecomp.decompose(src)
    nm = nmdecomp.build_nm_layer(nmdecomp.Ewds.build(dec))
    assert sorted(calls) == ["build_ft_trie", "build_splitmap"]
    # it counts dec.components and compares each one's top_ids, an
    # ascending list of ints, with the oracle's
    assert len(dec.components) == 5
    for comp in dec.components:
        ids = comp.top_ids
        assert type(ids) is list and {int} == set(map(type, ids)) and ids == sorted(ids)
    with pytest.raises(nmdecomp.NotInTrie):
        nm.trie.lookup((99, 100))
    assert type(nm.trie.num_nodes) is int and type(nm.trie.num_words) is int
    # vertices and whole top rows are no entries; every other face is one
    tops = {tuple(sorted(src.row(t))) for t in src.top_ids}
    assert nm.trie.num_words == len({f for f in src.all_faces() if len(f) > 1} - tops)
    # the traced run passes its harvest counter fifth, positionally
    args = (nm.ewds, nm.ewds.sigma_n, nm.copies_of, nm.v_nra)
    assert nonmanifold.build_splitmap(*args, OpCounter()) == nonmanifold.build_splitmap(*args)


def test_modules_read_every_import():
    # no linter runs on the package or its tests, so this stands in for its
    # unused-import rule: a module-level import whose name the module never
    # reads
    unused = []
    package = sorted(Path(nmdecomp.__file__).parent.rglob("*.py"))
    for path in package + sorted(Path(__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path.parent.name}/{path.name}: {name}")
    assert unused == []


def test_package_reads_every_private_definition():
    # a private function, class or method that nothing in the package reads
    # by name is used, at most, by its own test: each module-level _name
    # function or class, and each single-underscore method, must be read
    # somewhere in src/nmdecomp, as a name or an attribute
    package = sorted(Path(nmdecomp.__file__).parent.rglob("*.py"))
    trees = {path.name: ast.parse(path.read_text()) for path in package}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    private = []
    for name, tree in trees.items():
        for stmt in tree.body:
            members = stmt.body if isinstance(stmt, ast.ClassDef) else []
            for node in [stmt, *members]:
                if isinstance(node, defs) and node.name.startswith("_"):
                    if not node.name.startswith("__"):
                        private.append((name, node.name))
    assert private  # the walk finds them
    assert [f"{name}: {fn}" for name, fn in private if fn not in read] == []


def test_only_complexes_reads_the_row_store():
    # the row store is Complex's layout: other modules go through
    # corner_layout, position and the public methods, so a change of the
    # layout stays in complexes.py.  Its fields are named after no attribute
    # of any other class, so a read of one by name is a read of the store.
    fields = set(nmdecomp.Complex.__slots__)
    assert {"_store_ids", "_store_flat", "_store_start"} <= fields
    readers = []
    for path in sorted(Path(nmdecomp.__file__).parent.rglob("*.py")):
        if path.name == "complexes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in fields:
                readers.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert readers == []


def test_layer_and_encoder_import_nothing_from_decompose():
    # Ewds.build is the last code that reads a decomposition: the
    # non-manifold layer and the encoder stand on the packed tables and
    # Ewds.sigma_n alone, so neither imports anything from decompose.py
    src = Path(nmdecomp.__file__).parent
    readers = []
    for name in ("nonmanifold.py", "renumber.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                paths = [alias.name for alias in node.names]
            else:
                continue
            if any("decompose" in p.split(".") for p in paths):
                readers.append(f"{name}:{node.lineno}")
    assert readers == []


def test_every_error_has_a_raise_site():
    # a TopologyError subclass that no module raises is dead API: each one
    # in errors.py, the base aside, must be named in some raise statement
    src = Path(nmdecomp.__file__).parent
    tree = ast.parse((src / "errors.py").read_text())
    errors = {"TopologyError"}
    for stmt in tree.body:  # a subclass follows its base in the file
        if isinstance(stmt, ast.ClassDef) and any(
            isinstance(b, ast.Name) and b.id in errors for b in stmt.bases
        ):
            errors.add(stmt.name)
    raised = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name))
    assert sorted(errors - raised - {"TopologyError"}) == []


def test_snm_global_validates_no_copy():
    # snm_global checks its arguments once and trusts every top it reads
    # from the layer's tables: no per-copy validation may creep back
    tree = ast.parse(Path(nonmanifold.__file__).read_text())
    (layer,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "NmLayer"]
    (query,) = [n for n in layer.body if getattr(n, "name", None) == "snm_global"]
    called = set()
    for node in ast.walk(query):
        if isinstance(node, ast.Call):
            fn = node.func
            called.add(fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None))
    assert called & {"row_layout", "dim_of_top"} == set()
    assert "lookup" in called  # the face table is still asked through its one interface


def test_components_are_built_as_complexes_only_to_be_written():
    # a component is a run of nabla's tops; only the writer of --outdir
    # makes one a complex of its own, and no IQM check of one is left
    src = Path(nmdecomp.__file__).parent
    callers = []

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            fn = getattr(child, "func", None)
            if isinstance(fn, ast.Attribute) and fn.attr == "subcomplex":
                callers.append(f"{where}:{child.lineno}:{scope}")
            visit(child, where, inner)

    named = []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        visit(ast.parse(text), path.name, "")
        if "is_iqm" in text:
            named.append(path.name)
    assert [c.split(":")[::2] for c in callers] == [["cli.py", "cmd_decompose"]], callers
    assert named == []


def test_only_queries_walk():
    # Ewds.walk_block is the package's one star flood, and only a query
    # runs it: any other reader of a star reads the rows instead
    src = Path(nmdecomp.__file__).parent
    callers = []

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr == "walk_block":
                callers.append(f"{where}:{scope}")
            visit(child, where, inner)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    assert callers == ["nonmanifold.py:NmLayer.snm_global"]


def test_only_compute_renumbering_marks_and_only_apply_checks():
    # compute_renumbering marks the record it makes with the tables it read,
    # and apply_renumbering checks that mark and nothing else: the mark is
    # set nowhere else, read nowhere else, and no renumbering check is left
    src = Path(nmdecomp.__file__).parent
    marks, reads = [], set()

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Attribute) and child.attr == "made_for":
                if isinstance(child.ctx, ast.Load):
                    reads.add(f"{where}:{scope}")
                else:  # a store or del
                    marks.append(f"{where}:{scope}")
            if isinstance(child, ast.Constant) and child.value == "made_for":
                marks.append(f"{where}:{scope}")  # setattr or getattr by name
            visit(child, where, inner)

    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        assert "_check_renumbering" not in text, path.name
        visit(ast.parse(text), path.name, "")
    assert marks == ["renumber.py:compute_renumbering"]
    assert reads == {"renumber.py:apply_renumbering"}


def test_parse_tv_writes_the_store_and_only_set_assigns_labels():
    # parse_tv writes Complex's store itself: it builds no rows mapping for
    # the mapping constructor, neither by calling Complex(...) nor through
    # a rows helper.  And a label is stored only through Complex._set, the
    # one place that keeps the rule that no label is just str() of its id.
    src = Path(nmdecomp.__file__).parent
    calls, stores = [], []

    def visit(node, where, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            fn = getattr(child, "func", None)
            name = getattr(fn, "id", None) or getattr(fn, "attr", None)
            if scope == "parse_tv" and name and (name == "Complex" or "rows" in name):
                calls.append(f"{where}:{child.lineno}: {name}")
            if isinstance(child, ast.Attribute) and child.attr == "_labels":
                if not isinstance(child.ctx, ast.Load):  # a store or del
                    stores.append(f"{where}:{inner}")
            if isinstance(child, ast.Constant) and child.value == "_labels":
                stores.append(f"{where}:{inner}")  # setattr by name, or a slot
            visit(child, where, inner)

    for path in sorted(src.rglob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "")
    assert calls == []
    assert stores == ["complexes.py:Complex", "complexes.py:Complex._set"]
