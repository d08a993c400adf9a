#!/usr/bin/env python3
"""Fingerprint ``diversify()`` results on fixed inputs, solver by solver.

Prints one line per solve: a sha256 of the labels, the energy, lower bound
and ``similarity_total`` (``repr``, so every bit shows) and the iteration
count.  Two source trees that print the same lines solve identically;
``diff`` the outputs to compare them.

The inputs:

* default ``diversify()`` on the end-to-end benchmark's plan workloads
  (``benchmarks/e2e/plan.py``): ``sweep_instances`` and
  ``pipeline_instances`` for seeds 0 and 1, 30 solves;
* the paper's Fig. 4 case study without constraints and under C1 and C2,
  with every registered solver except ``exact`` (``anneal`` gets an
  explicit ``seed=0``, so trees with another default seed compare too);
* ``exact`` on a small network with per-host candidate ranges.

::

    python tools/diversify_fingerprint.py                    # this checkout
    python tools/diversify_fingerprint.py --root OTHER_TREE  # another one
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

SEEDS = (0, 1)


def line(name: str, solver: str, result) -> str:
    """One solve's fingerprint."""
    labels = np.asarray(result.solver_result.labels, dtype=np.int64)
    digest = hashlib.sha256(labels.tobytes()).hexdigest()[:16]
    return (
        f"{name} solver={solver} labels={digest} "
        f"energy={result.energy!r} bound={result.lower_bound!r} "
        f"similarity={result.similarity_total!r} "
        f"iterations={result.solver_result.iterations}"
    )


def plan_workloads() -> None:
    from plan import pipeline_instances, sweep_instances

    from repro.core.diversify import diversify

    for seed in SEEDS:
        for kind, instances in (
            ("sweep", sweep_instances(seed)),
            ("pipeline", pipeline_instances(seed)),
        ):
            for k, instance in enumerate(instances):
                result = diversify(
                    instance.network, instance.similarity,
                    preferences=instance.preferences,
                )
                name = f"{kind} seed={seed} #{k} {instance.name}"
                print(line(name, "trws", result), flush=True)


def fig4() -> None:
    from repro.casestudy import stuxnet_case_study
    from repro.core.diversify import diversify
    from repro.mrf.solvers import available_solvers

    case = stuxnet_case_study()
    solvers = [name for name in available_solvers() if name != "exact"]
    for label, constraints in (
        ("none", None), ("C1", case.c1), ("C2", case.c2),
    ):
        for solver in solvers:
            options = {"seed": 0} if solver == "anneal" else {}
            result = diversify(
                case.network, case.similarity, constraints=constraints,
                solver=solver, **options,
            )
            print(line(f"fig4 {label}", solver, result), flush=True)


def exact_case() -> None:
    from repro.core.diversify import diversify
    from repro.network.constraints import ConstraintSet, ForbidProduct
    from repro.network.model import Network
    from repro.nvd.similarity import SimilarityTable

    network = Network()
    network.add_host("a", {"os": ["w", "l", "m"], "db": ["d1", "d2"]})
    network.add_host("b", {"os": ["w", "l"], "db": ["d1", "d2", "d3"]})
    network.add_host("c", {"os": ["w", "l", "m"]})
    network.add_host("d", {"os": ["l", "m"], "db": ["d2", "d3"]})
    network.add_links([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    similarity = SimilarityTable(
        products=["w", "l", "m", "d1", "d2", "d3"],
        pairs={
            ("w", "l"): 0.4, ("w", "m"): 0.2, ("l", "m"): 0.6,
            ("d1", "d2"): 0.7, ("d2", "d3"): 0.3,
        },
    )
    constraints = ConstraintSet([ForbidProduct("c", "os", "w")])
    result = diversify(
        network, similarity, constraints=constraints, solver="exact",
        preferences={("b", "db", "d3"): 0.05},
    )
    print(line("heterogeneous", "exact", result), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--root", default=str(Path(__file__).resolve().parents[1]),
        help="source tree to fingerprint (default: this checkout)",
    )
    args = parser.parse_args()
    root = Path(args.root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]
    plan_workloads()
    fig4()
    exact_case()
    return 0


if __name__ == "__main__":
    sys.exit(main())
