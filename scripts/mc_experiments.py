#!/usr/bin/env python3
"""Monte-Carlo sweeps for the degree-concentration and extension-failure
events, printed as CSV with the exact references alongside.

Usage: python3 scripts/mc_experiments.py [seed]

The theory bounds printed next to the frequencies come from the constants
the experiments are modelled on; at these sizes most of them exceed 1 and
are reported anyway rather than asserted.
"""

import sys

from jcontainers.hypercore import Graph
from jcontainers.ramsey import chernoff_experiment, extension_experiment


def main(seed: int) -> None:
    print("experiment,params,trials,frequency,exact_reference,theory_bound")
    for u_size, s_size in [(1, 3), (4, 8), (8, 24), (16, 48), (32, 64)]:
        rep = chernoff_experiment(64, u_size, s_size, trials=2000, seed=seed)
        exact = float(rep.exact_reference) if rep.exact_reference is not None else ""
        print(
            f"chernoff,|U|={u_size};|S|={s_size},{rep.trials},"
            f"{rep.frequency},{exact},{rep.theory_bound}"
        )
    for name, pattern in [("K2", Graph.complete(2)), ("P3", Graph.path(3))]:
        for m in (8, 10, 12):
            rep = extension_experiment(pattern, m=m, r=2, trials=200, seed=seed)
            print(
                f"extension-gamma,F={name};m={m},{rep.trials},"
                f"{rep.frequency},,{rep.theory_bound}"
            )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
