"""Output checks, run outside the timed regions.

Every check compares a library result with something the library did not
compute: the generated rows, a brute-force oracle, or a second reading of
the same tables.  A failed check or an exception raised while checking is
counted on the Checker; it never aborts the run.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable

from nmdecomp import Complex, oracle_decompose, oracle_snm
from nmdecomp.winged import parse_dump

from workloads import Query, Rows

MAX_NOTES = 20


@dataclass
class Checker:
    """Tally of attempted operations and failed ones."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def attempt(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.notes) < MAX_NOTES:
            self.notes.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.fail(what)

    def guarded(self, what: str, fn: Callable[[], None]) -> None:
        """Run one check; an exception from the library is a failure."""
        try:
            fn()
        except Exception:  # the run must go on and report the failure
            self.fail(f"{what}: {traceback.format_exc(limit=3)}")

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_parse(chk: Checker, src: Complex, rows: Rows) -> None:
    chk.expect(src.rows() == rows, "parse_tv does not reproduce the generated rows")


def check_paste(chk: Checker, dec, rows: Rows) -> None:
    """sigma pasted over nabla gives back the source rows."""
    nabla, sigma = dec.nabla, dec.sigma
    back = {t: tuple(sigma[v] for v in nabla.row(t)) for t in nabla.top_ids}
    chk.expect(back == rows, "sigma over nabla does not reproduce the source")


def check_manifold_pairs(chk: Checker, dec, rows: Rows) -> None:
    """Tops of one dimension whose shared facet has exactly them as star
    must keep the same copy of every vertex of that facet."""
    vt: dict[int, set[int]] = {}
    for t, row in rows.items():
        for v in row:
            vt.setdefault(v, set()).add(t)
    cofaces: dict[tuple[int, ...], list[int]] = {}
    for t, row in rows.items():
        if len(row) > 1:
            for f in combinations(sorted(row), len(row) - 1):
                cofaces.setdefault(f, []).append(t)
    nabla = dec.nabla
    for f, ts in cofaces.items():
        if len(ts) != 2 or len(rows[ts[0]]) != len(rows[ts[1]]):
            continue
        if len(set.intersection(*(vt[v] for v in f))) != 2:
            continue
        a, b = ts
        for v in f:
            ca = nabla.row(a)[rows[a].index(v)]
            cb = nabla.row(b)[rows[b].index(v)]
            if ca != cb:
                chk.fail(f"tops {a} and {b} glued along {f} hold copies {ca} != {cb} of {v}")
                return


def check_oracle_decompose(chk: Checker, dec, src: Complex) -> None:
    slow = oracle_decompose(src)
    chk.expect(
        dec.sigma == slow.sigma
        and dec.nabla.rows() == slow.nabla.rows()
        and [c.top_ids for c in dec.components] == [c.top_ids for c in slow.components],
        "decompose differs from oracle_decompose",
    )


def check_queries(
    chk: Checker,
    sources: list[Complex],
    queries: Iterable[Query],
    answers: Iterable[set | None],
) -> None:
    """Answers given during the timed phase equal oracle_snm's.

    None stands for a query that raised, which the client already counted.
    """
    for (k, gamma, n, m), got in zip(queries, answers):
        if got is None:
            continue
        want = oracle_snm(sources[k], gamma, n, m)
        if got != want:
            chk.fail(f"S{n}{m}{gamma} on complex {k}: got {got}, want {want}")


def check_dump(chk: Checker, ew, data: bytes) -> None:
    """parse_dump reads the Ewds dump back into the same arrays."""
    got = parse_dump(data)
    want = {
        "d": ew.d, "nt": ew.nt, "nv": ew.nv,
        "tvp": ew.tvp[1:], "ttp": ew.ttp[1:], "vtstar": ew.vtstar[1:],
        "tbase": ew.tbase[: ew.d + 1], "tbase_addr": ew.tbase_addr[: ew.d + 1],
    }
    chk.expect(got == want, "parse_dump does not round-trip the Ewds dump")


def check_implicit(chk: Checker, ew, ren, imp) -> None:
    """tv_lookup at each renumbered top gives the renumbered, slot-exchanged row."""
    for h in range(ew.d + 1):
        for t in range(ew.tbase[h], ew.tbase[h + 1]):
            perm = ren.perm_of(t) or tuple(range(h + 1))
            row = ew.row_of(t)
            want = [ren.fvv[row[p]] for p in perm]
            got = [imp.tv_lookup(h, ren.ftt[t], k) for k in range(1, h + 2)]
            if got != want:
                chk.fail(f"tv_lookup of top {t} gives {got}, want {want}")
                return


# What each workload must contain; a generator that stops producing it, or a
# decomposition that stops finding it, fails the run.
EXPECTED_SHAPE: dict[str, Callable[[dict], bool]] = {
    "ball": lambda s: s["NS"] == 0 and s["vnra"] == 0 and s["splitmap_keys"] == 0,
    "perforated": lambda s: (
        s["NS"] > 0 and s["splitmap_keys"] > 0 and s["diamond_slots"] > 0
        and all(s["tops"].get(h) for h in (1, 2, 3))
    ),
}


def check_shape(chk: Checker, workload: str, shape: dict) -> None:
    rule = EXPECTED_SHAPE.get(workload)
    if rule is not None:
        chk.expect(rule(shape), f"{workload} has shape {shape}")
