"""Differential fuzzing and metamorphic testing harness.

Layers (each usable on its own):

- :mod:`repro.testing.equivalence` — the shared cross-backend equivalence
  policy: which semirings must match bit-exactly, which only within a
  floating-point tolerance, and the ``assert_same`` comparator implementing
  it.  Also used by the hand-written oracle and distributed test suites.
- :mod:`repro.testing.programs` — random well-typed GraphBLAS program
  generation over every graph generator, semiring, mask/accumulator and
  descriptor combination, with static exactness annotation.
- :mod:`repro.testing.executor` — replay a program on any backend spec and
  diff the per-op snapshots against the reference oracle.
- :mod:`repro.testing.metamorphic` — implementation-independent invariants
  (permutation equivariance, semiring isomorphism, mask partition,
  duplicate-edge idempotence) that can catch the reference itself lying.
- :mod:`repro.testing.conservation` — flop and replay (launch and
  transfer) counter conservation laws on the simulator profiles.
- :mod:`repro.testing.shrink` — greedy failing-program minimisation and
  standalone pytest repro emission into ``tests/regressions/``.
- :mod:`repro.testing.fuzz` — the CLI tying it together
  (``python -m repro.testing.fuzz``).
"""

from .equivalence import (
    EXACT_FOLD_OPS,
    assert_same,
    describe_mismatch,
    product_exact,
    reduce_exact,
    same,
)
from .executor import (
    DEFAULT_SPECS,
    SMOKE_SPECS,
    Divergence,
    backend_specs,
    execute,
    run_differential,
)
from .programs import (
    GRAPH_RECIPES,
    INVALID_OPS,
    SEMIRING_POOL,
    Program,
    annotate_exactness,
    build_env,
    build_graph,
    generate_invalid_program,
    generate_program,
)
from .metamorphic import (
    check_duplicate_idempotence,
    check_mask_partition,
    check_permutation_equivariance,
    check_semiring_negation,
    run_metamorphic_suite,
)
from .conservation import (
    check_flop_conservation,
    check_replay_conservation,
    run_conservation_suite,
)
from .shrink import write_repro

__all__ = [
    "EXACT_FOLD_OPS",
    "assert_same",
    "describe_mismatch",
    "product_exact",
    "reduce_exact",
    "same",
    "DEFAULT_SPECS",
    "SMOKE_SPECS",
    "Divergence",
    "backend_specs",
    "execute",
    "run_differential",
    "GRAPH_RECIPES",
    "INVALID_OPS",
    "SEMIRING_POOL",
    "Program",
    "annotate_exactness",
    "build_env",
    "build_graph",
    "generate_invalid_program",
    "generate_program",
    "check_duplicate_idempotence",
    "check_mask_partition",
    "check_permutation_equivariance",
    "check_semiring_negation",
    "run_metamorphic_suite",
    "check_flop_conservation",
    "check_replay_conservation",
    "run_conservation_suite",
    "write_repro",
]
