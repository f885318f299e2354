"""Command line front end.

Subcommands:
  check      classify a complex and list its non-pseudomanifold faces
  decompose  split into initial quasi-manifold components, write tables
  query      answer an incidence relation S<n><m> on the source complex
  glue       run a gluing script against an exploded complex
  tables     print the worked reference tables (fig-a, fig-b, fig-b-opt)
  gen        emit a reproducible random complex
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

from .complexes import Complex, format_tv, parse_tv, resolve_tokens
from .decompose import DecompositionResult, decompose
from .errors import BadRelation, ParseError, TopologyError
from .fixtures import load_tv
from .gluing import run_glue_script
from .nonmanifold import NmLayer, build_nm_layer, check_relation
from .oracle import MAX_DRAW_DIM, MAX_DRAW_TOPS, random_complex
from .renumber import apply_renumbering, compute_renumbering
from .winged import BOTTOM, DIAMOND, Ewds


def _tt_symbol(x: int) -> str:
    if x == BOTTOM:
        return "-"
    if x == DIAMOND:
        return "*"
    return str(x)


def _read_text(path: str) -> str:
    """A .tv or .glue file's text, decoded as UTF-8 whatever the locale;
    ParseError names the offset of its first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        bad = f"byte {data[exc.start]:#04x} at offset {exc.start}"
        raise ParseError(f"not UTF-8 text: {bad}") from None


def _read_complex(path: str) -> Complex:
    return parse_tv(_read_text(path))


def _pipeline(c: Complex) -> tuple[DecompositionResult, Ewds, NmLayer]:
    dec = decompose(c)
    ewds = Ewds.build(dec)
    nm = build_nm_layer(ewds)
    return dec, ewds, nm


# -- check ------------------------------------------------------------------


def cmd_check(args) -> int:
    c = _read_complex(args.input)
    classified, npm = c.classify_with_faces()
    flags = classified.as_dict()
    if args.json:
        out = {
            "num_tops": c.num_tops,
            "dim": c.dim,
            "num_vertices": c.num_vertices,
            "flags": flags,
            "non_pseudomanifold_faces": [
                {"face": [c.label_of(v) for v in f], "tops": cof}
                for f, cof in sorted(npm.items())
            ],
        }
        print(json.dumps(out, indent=2))
        return 0
    print(f"tops: {c.num_tops}  dim: {c.dim}  vertices: {c.num_vertices}")
    for name, val in flags.items():
        print(f"{name}: {val}")
    if npm:
        print("non-pseudomanifold faces:")
        for f, cof in sorted(npm.items()):
            toks = " ".join(c.label_of(v) for v in f)
            print(f"  {toks}: order {len(cof)} tops {' '.join(map(str, cof))}")
    else:
        print("non-pseudomanifold faces: none")
    return 0


# -- decompose --------------------------------------------------------------


def cmd_decompose(args) -> int:
    c = _read_complex(args.input)
    dec, ewds, nm = _pipeline(c)
    stats = nm.stats()
    if args.outdir:
        outdir = Path(args.outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, comp in enumerate(dec.components, start=1):
            text = format_tv(dec.nabla.subcomplex(comp.top_ids))
            (outdir / f"component_{i:03d}.tv").write_text(text)
        sigma = {str(cpy): orig for cpy, orig in sorted(dec.sigma.items())}
        (outdir / "sigma.json").write_text(json.dumps(sigma, indent=2))
        cc = {"cc": dec.cc, "num_components": len(dec.components)}
        (outdir / "cc.json").write_text(json.dumps(cc, indent=2))
        (outdir / "ewds.bin").write_bytes(ewds.dump_bytes())
    if args.json:
        out = {
            "num_components": len(dec.components),
            "cc": dec.cc,
            "splitting_vertices": [c.label_of(v) for v in dec.splitting_vertices],
            "sigma_classes": {
                c.label_of(v): list(cs) for v, cs in dec.splitting_classes().items()
            },
            "identity": dec.is_identity(),
            "stats": stats,
        }
        print(json.dumps(out, indent=2))
        return 0
    print(f"components: {len(dec.components)}  cc: {' '.join(map(str, dec.cc))}")
    if dec.is_identity():
        print("decomposition is the identity: already initial quasi-manifold")
    else:
        for v, cs in sorted(dec.splitting_classes().items()):
            print(f"vertex {c.label_of(v)} -> copies {' '.join(map(str, cs))}")
    for key in ("NS", "NC", "NSP", "phi"):
        print(f"{key}: {stats[key]}")
    print(f"H_hat: {stats['H_hat']:.2f}")
    return 0


# -- query ------------------------------------------------------------------


_REL = re.compile(r"S([0-9])([0-9])")  # ASCII digits, the whole name


def cmd_query(args) -> int:
    m = _REL.fullmatch(args.rel)
    if not m:
        raise BadRelation(f"relation {args.rel!r} is not of the form S<n><m>")
    n, mm = int(m.group(1)), int(m.group(2))
    if n >= mm:  # before reading the input
        raise BadRelation(f"S{n}{mm}: need 0 <= n < m")
    c = _read_complex(args.input)
    gamma = resolve_tokens(c, args.simplex)
    check_relation(gamma, n, mm)  # before the pipeline, which is the slow part
    _, _, nm = _pipeline(c)
    faces = sorted(nm.snm_global(gamma, n, mm))
    if args.json:
        out = {
            "rel": args.rel,
            "simplex": args.simplex,
            "faces": [[c.label_of(v) for v in f] for f in faces],
            "count": len(faces),
        }
        print(json.dumps(out, indent=2))
        return 0
    for f in faces:
        print(" ".join(c.label_of(v) for v in f))
    print(f"count: {len(faces)}")
    return 0


# -- glue -------------------------------------------------------------------


def cmd_glue(args) -> int:
    c = _read_complex(args.input)
    script = _read_text(args.script)
    outcome = run_glue_script(c, script)
    if args.json:
        out = {
            "ok": outcome.ok,
            "events": [
                {
                    "line": e.line_no,
                    "text": e.text,
                    "kind": e.kind,
                    "detail": e.detail,
                    "dump": e.payload,
                }
                for e in outcome.events
            ],
        }
        print(json.dumps(out, indent=2))
        return 0 if outcome.ok else 1
    for e in outcome.events:
        if e.kind == "dump":
            print(f"{e.line_no}: dump")
            for line in e.payload:
                print(f"  {line}")
        elif e.kind == "ok":
            print(f"{e.line_no}: {e.text}")
        else:
            detail = f"  {e.detail}" if e.detail else ""
            print(f"{e.line_no}: {e.text}  [{e.kind}]{detail}")
    print("ok" if outcome.ok else "failed")
    return 0 if outcome.ok else 1


# -- tables -----------------------------------------------------------------


def _tables_json(ew: Ewds) -> dict:
    """The TV, VTSTAR and TT tables of ew as JSON fields."""
    ts = range(1, ew.nt + 1)
    return {
        "tv": {str(t): list(ew.row_of(t)) for t in ts},
        "vtstar": ew.vtstar[1:],
        "tt": {str(t): list(ew.tt_row_of(t)) for t in ts},
    }


def _print_tables(ew: Ewds) -> None:
    """Print the TV, VTSTAR and TT lines of ew."""
    for t in range(1, ew.nt + 1):
        print(f"TV {t}: {' '.join(map(str, ew.row_of(t)))}")
    print(f"VTSTAR: {' '.join(map(str, ew.vtstar[1:]))}")
    for t in range(1, ew.nt + 1):
        print(f"TT {t}: {' '.join(_tt_symbol(x) for x in ew.tt_row_of(t))}")


def _fig_a(as_json: bool) -> int:
    ew = Ewds.build(decompose(load_tv("fix_a.tv")))
    if as_json:
        print(json.dumps({"figure": "fig-a", **_tables_json(ew)}, indent=2))
        return 0
    print("# fig-a")
    _print_tables(ew)
    return 0


def _by_copy(ew: Ewds, key: tuple[int, ...], reps: tuple[int, ...]) -> dict:
    """A splitmap entry's representatives grouped by the copy of key that
    each one's row spans, copies in the order of their first
    representative."""
    out: dict[tuple[int, ...], list[int]] = {}
    for t in reps:
        cp = tuple(sorted(x for x in ew.row_of(t) if ew.sigma_n[x] in key))
        out.setdefault(cp, []).append(t)
    return out


def _fig_b(as_json: bool) -> int:
    dec = decompose(load_tv("fix_b.tv"))
    ew = Ewds.build(dec)
    nm = build_nm_layer(ew)
    stats = nm.stats()
    splitmap = {key: _by_copy(ew, key, reps) for key, reps in nm.splitmap.items()}
    if as_json:
        out = {
            "figure": "fig-b",
            "tbase": ew.tbase[: ew.d + 1],
            "tbase_addr": ew.tbase_addr[: ew.d + 1],
            "size": ew.size,
            "nt": ew.nt,
            "nv": ew.nv,
            **_tables_json(ew),
            "sigma": {str(cp): o for cp, o in sorted(dec.sigma.items()) if cp != o},
            "splitmap": {
                " ".join(map(str, k)): {" ".join(map(str, cp)): reps for cp, reps in v.items()}
                for k, v in splitmap.items()
            },
            "stats": stats,
        }
        print(json.dumps(out, indent=2))
        return 0
    print("# fig-b")
    print(f"TBase: {' '.join(map(str, ew.tbase[:ew.d + 1]))}")
    print(f"TBaseAddr: {' '.join(map(str, ew.tbase_addr[:ew.d + 1]))}")
    print(f"SIZE: {ew.size}")
    print(f"NT: {ew.nt}")
    print(f"NV: {ew.nv}")
    _print_tables(ew)
    for cp, o in sorted(dec.sigma.items()):
        if cp != o:
            print(f"SIGMA {cp}: {o}")
    for key, copies in sorted(splitmap.items()):
        parts = [
            f"copy {' '.join(map(str, cp))} reps {' '.join(map(str, reps))}"
            for cp, reps in sorted(copies.items())
        ]
        print(f"SPLITMAP {' '.join(map(str, key))}: {' ; '.join(parts)}")
    for key in ("NS", "NC", "NSP", "phi"):
        print(f"STATS {key}: {stats[key]}")
    print(f"STATS H_hat: {stats['H_hat']:.2f}")
    return 0


def _fig_b_opt(as_json: bool) -> int:
    ew = Ewds.build(decompose(load_tv("fix_b.tv")))
    ren = compute_renumbering(ew)
    imp = apply_renumbering(ew, ren)
    vt = [imp.vtstar_lookup(v) for v in range(1, imp.nv + 1)]
    rows = {t: imp.row_of(t) for t in range(1, imp.nt + 1)}
    if as_json:
        out = {
            "figure": "fig-b-opt",
            "fvv": ren.fvv[1:],
            "ftt": ren.ftt[1:],
            "cc": ren.cc,
            "vbase": ren.vbase,
            "taddr": imp.taddr,
            "iibnd": imp.iibnd,
            "iitaddr": imp.iitaddr,
            "tvpp": imp.tvpp[1:],
            "tv": {str(t): list(r) for t, r in rows.items()},
            "vtstar": vt,
        }
        print(json.dumps(out, indent=2))
        return 0
    print("# fig-b-opt")
    print(f"FVV: {' '.join(map(str, ren.fvv[1:]))}")
    print(f"FTT: {' '.join(map(str, ren.ftt[1:]))}")
    print(f"CC: {' '.join(map(str, ren.cc))}")
    print(f"VBase: {' '.join(map(str, ren.vbase))}")
    print(f"TAddr: {' '.join(map(str, imp.taddr))}")
    print(f"IIBND: {' '.join(map(str, imp.iibnd))}")
    print(f"IITAddr: {' '.join(map(str, imp.iitaddr))}")
    print(f"TVPP: {' '.join(map(str, imp.tvpp[1:]))}")
    for t, r in rows.items():
        print(f"TV {t}: {' '.join(map(str, r))}")
    print(f"VTSTAR: {' '.join(map(str, vt))}")
    return 0


def cmd_tables(args) -> int:
    if args.figure == "fig-a":
        return _fig_a(args.json)
    if args.figure == "fig-b":
        return _fig_b(args.json)
    return _fig_b_opt(args.json)


# -- gen --------------------------------------------------------------------


def cmd_gen(args) -> int:
    c = random_complex(seed=args.seed, max_tops=args.max_tops, d=args.dim)
    text = format_tv(c)
    if args.output:
        Path(args.output).write_text(text)
    if args.json:
        out = {
            "seed": args.seed,
            "num_tops": c.num_tops,
            "dim": c.dim,
            "num_vertices": c.num_vertices,
            "tv": text,
        }
        print(json.dumps(out, indent=2))
        return 0
    if not args.output:
        print(text, end="")
    else:
        print(f"wrote {c.num_tops} tops to {args.output}")
    return 0


# -- entry point ------------------------------------------------------------


def _in_range(low: int, high: int):
    """argparse type: an integer from low to high."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value

    return integer


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nmdecomp",
        description="decompose simplicial complexes into initial quasi-manifolds",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="classify a complex")
    p.add_argument("input")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("decompose", help="standard decomposition")
    p.add_argument("input")
    p.add_argument("-o", "--outdir", help="write components and tables here")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("query", help="incidence relation on the source complex")
    p.add_argument("input")
    p.add_argument("--rel", required=True, help="relation name, e.g. S02")
    p.add_argument("--simplex", nargs="+", required=True, help="vertex tokens")
    _add_common(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("glue", help="run a gluing script")
    p.add_argument("input")
    p.add_argument("script")
    _add_common(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("tables", help="print the worked reference tables")
    p.add_argument("figure", choices=("fig-a", "fig-b", "fig-b-opt"))
    _add_common(p)
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("gen", help="emit a reproducible random complex")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-tops", type=_in_range(1, MAX_DRAW_TOPS), default=40)
    p.add_argument("--dim", type=_in_range(0, MAX_DRAW_DIM), default=3)
    p.add_argument("-o", "--output")
    _add_common(p)
    p.set_defaults(func=cmd_gen)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TopologyError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
