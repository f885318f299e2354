"""Decomposition wall time against mesh size.

Usage:
    python scripts/scaling.py [--sizes 6,12,26] [--repeats 2]

Times decompose() on Kuhn cube meshes and prints seconds per run next to
t / (N log2 N); a flat right-hand column is the linearithmic signature.
The meshes are manifold balls, so the decomposition is the identity and
the measurement isolates the facet pass plus copy numbering.
"""

from __future__ import annotations

import argparse
import math
import time

from nmdecomp.decompose import decompose
from nmdecomp.meshes import kuhn_cube


def run(sizes: list[int], repeats: int) -> None:
    print(f"{'n':>4} {'tets':>8} {'seconds':>9} {'t/(N log2 N)':>14}")
    rates = []
    for n in sizes:
        mesh = kuhn_cube(n)
        best = math.inf
        for _ in range(repeats):
            t0 = time.perf_counter()
            dec = decompose(mesh)
            best = min(best, time.perf_counter() - t0)
        assert dec.is_identity()
        big_n = mesh.num_tops
        rate = best / (big_n * math.log2(big_n))
        rates.append(rate)
        print(f"{n:>4} {big_n:>8} {best:>9.3f} {rate:>14.3e}")
    if len(rates) > 1:
        print(f"spread max/min = {max(rates) / min(rates):.3f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", default="6,12,26",
                    help="comma separated Kuhn cube resolutions")
    ap.add_argument("--repeats", type=int, default=2,
                    help="runs per size; the best time is kept")
    args = ap.parse_args()
    run([int(s) for s in args.sizes.split(",")], args.repeats)


if __name__ == "__main__":
    main()
