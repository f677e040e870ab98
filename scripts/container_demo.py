#!/usr/bin/env python3
"""End-to-end container pipeline demo on a random host.

Builds the two-layer extension hypergraph for the path pattern over a
random host, runs both container pipelines with admissible parameters, and
prints the certified minimal sets, the containers and the verification
outcome.

Usage: python3 scripts/container_demo.py [seed] [m]
"""

import sys
from fractions import Fraction as F

from jcontainers.containers import extension_containers, non_janson_containers
from jcontainers.copies import extension_hypergraph, induced_copy_hypergraph
from jcontainers.hypercore import Graph, bits_of
from jcontainers.prng import SplitMix64
from jcontainers.ramsey import sample_gnhalf


def fmt(mask):
    return "{" + ",".join(str(v) for v in bits_of(mask)) + "}"


def main(seed: int, m: int) -> int:
    host = sample_gnhalf(m, seed)
    print(f"host: {m} vertices, {host.edge_count()} edges (seed {seed})")

    f = Graph.path(3)
    base = induced_copy_hypergraph(f, host, host).hyper
    print(f"\ninduced path copies inside the host: {len(base.edges)} edges")
    q = F(1, 16)
    if base.edges:
        s = base.uniformity()
        p = q / ((1 << 10) * s * s)
        fam = non_janson_containers(base, p, q, p * base.n / 64)
        print(f"flat pipeline: {len(fam.containers)} containers, "
              f"{len(fam.certified_minimals)} minimal certified sets, "
              f"violations={len(fam.violations)} incomplete={len(fam.incomplete)}")
        for x in fam.containers:
            print(f"  container {fmt(x)}")

    g_empty = Graph.empty(m)
    ext = extension_hypergraph(f, 1, g_empty, host)
    base_side = induced_copy_hypergraph(f, g_empty, host).hyper
    s2 = ext.hyper.uniformity() or 2
    p2 = q / ((1 << 10) * 4 * s2 * s2)
    fam2 = extension_containers(
        ext, base_side, ext.m, p2, q, p2 * ext.hyper.n / 64, F(0)
    )
    print(f"\ntwo-layer pipeline on {ext.hyper.n} vertices: "
          f"{len(fam2.containers)} containers, "
          f"violations={len(fam2.violations)} incomplete={len(fam2.incomplete)}")
    for x, y in fam2.shrunk.items():
        print(f"  container {fmt(x)} trimmed to {fmt(y)}")
    return 1 if (fam2.violations) else 0


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    m = int(sys.argv[2]) if len(sys.argv) > 2 else 6
    sys.exit(main(seed, m))
