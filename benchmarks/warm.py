"""Set-up of the ekstat benchmark: import the library and warm its rule caches.

Run as a script it is the set-up probe: a fresh interpreter imports
``ekstat``, builds every Gauss-Jacobi rule the benchmark's operator plans
use, prints ``ready`` and exits.  ``run.py`` times several probes from
process start to that line and reports their median as ``setup_s``.
The module imports nothing but the library, so the probe measures the
library's own start-up cost.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Parameters of the Mellin factorization checks in the acceptance suite.
MELLIN_CASES = (
    ("second", ((0.5, 0.7), (1.0, 1.3))),
    ("first", ((1.0, 0.7), (2.0, 1.3))),
)
# Operator kind per eval function, and the identity whose default
# parameters it is evaluated with.
EVAL_KINDS = (
    ("kober2_eval", "second", "1.1"),
    ("kober1_eval", "first", "2.1"),
    ("pathway_kober2_eval", "second", "1.4"),
    ("pathway_kober1_eval", "first", "2.3"),
)
N_NODES = 64


def regime_threshold(kind: str, p) -> float:
    """Point u at which one dimension switches from the plain rule to its
    split rule: the near field (second kind) lies below it, the far field
    (first kind) above it.  The constants restate the switch in
    ``ekstat.kober`` so that the benchmark's inputs stay put when it moves."""
    c = p.scale_factor if hasattr(p, "scale_factor") else 1.0
    return 0.25 / c if kind == "second" else 100.0 * c


def warm() -> None:
    """Build the rule caches of every operator plan the benchmark evaluates:
    both regimes of each dimension, at n and at the refinement size 2n."""
    import numpy as np

    from ekstat import kober, mc_oracle

    f1 = kober.gamma_product((2.0,))
    plans = []
    for _, kind, theorem in EVAL_KINDS:
        for p in mc_oracle.make_spec(theorem, 3).params:
            plans.append((kind, p, (N_NODES, 2 * N_NODES)))
    for theorem in kober.IDENTITY_IDS:
        for k in (1, 2):
            spec = mc_oracle.make_spec(theorem, k)
            kind, dims, _ = kober.identity_setup(theorem, spec.params)
            plans.extend((kind, d, (N_NODES,)) for d in dims)
            plans.extend((c.kind, d, (N_NODES,))
                         for c in mc_oracle.identity_candidates(spec) if c.admissible
                         for d in c.dim_params())
    for kind, dims in MELLIN_CASES:
        plans.extend((kind, kober.DimParams(*za), (N_NODES,)) for za in dims)
    for kind, p, sizes in plans:
        u0 = regime_threshold(kind, p)
        for n in sizes:
            kober.eval_many(kind, (p,), f1, np.array([[0.5 * u0], [2.0 * u0]]), n)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    warm()
    print("ready", flush=True)
