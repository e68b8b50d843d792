"""Differential fuzzing CLI.

Run from the repo root::

    PYTHONPATH=src python -m repro.testing.fuzz --programs 500 --seed 0

Each iteration generates one random well-typed GraphBLAS program (see
:mod:`repro.testing.programs`) and replays it on every backend spec,
comparing op-by-op against the reference backend.  On a sampled cadence it
additionally runs the metamorphic invariant suite and the profile
counter-conservation suite.  The first failure is greedily shrunk and
written to ``tests/regressions/`` as a standalone pytest repro; the exit
code is the number of failing programs (0 == clean run).

Seeds are stable: program ``i`` of a run with ``--seed S`` is always
``generate_program(S + i)``, so a nightly failure reported as "seed 4217"
replays locally with ``--seed 4217 --programs 1``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Optional

from .conservation import run_conservation_suite
from .executor import DEFAULT_SPECS, SMOKE_SPECS, Divergence, run_differential
from .metamorphic import run_metamorphic_suite
from .programs import (
    Program,
    generate_invalid_program,
    generate_mutation_program,
    generate_program,
)
from .shrink import mutation_candidates, program_candidates, shrink, write_repro
from .streaming import (
    STREAMING_SMOKE_SPECS,
    STREAMING_SPECS,
    run_streaming_differential,
)

__all__ = ["main", "run_fuzz", "run_streaming_fuzz"]

_DEFAULT_REPRO_DIR = Path(__file__).resolve().parents[3] / "tests" / "regressions"


def _shrink_and_report(
    program: Program,
    divergence: Divergence,
    specs,
    repro_dir: Optional[Path],
    max_probes: int,
    streaming: bool = False,
) -> None:
    """Shrink a failing (mutation) program, print it, write its repro."""
    run = run_streaming_differential if streaming else run_differential

    def still_fails(cand: Program) -> bool:
        return run(cand, specs) is not None

    candidates = mutation_candidates if streaming else program_candidates
    small = shrink(program, still_fails, max_probes, candidates)
    final = run(small, specs) or divergence
    print(f"  shrunk: {len(program.ops)} ops -> {len(small.ops)} ops")
    print(f"  minimal program: {small.describe()}")
    print(f"  divergence: {final}")
    if repro_dir is not None:
        path = write_repro(small, final, repro_dir, streaming)
        print(f"  repro written: {path}")


def run_streaming_fuzz(
    programs: int,
    seed: int,
    specs=STREAMING_SPECS,
    do_shrink: bool = True,
    repro_dir: Optional[Path] = _DEFAULT_REPRO_DIR,
    max_failures: int = 5,
    shrink_probes: int = 300,
    verbose: bool = False,
    sanitize: bool = False,
) -> int:
    """Fuzz ``programs`` graph-mutation programs; returns failure count.

    Each program interleaves edge batches, compactions, and incremental
    analytics queries (:mod:`repro.testing.streaming`); every query is
    checked against the full-recompute oracle within each spec, and all
    per-op snapshots (including the final materialised CSR) are compared
    across specs.  Seed stability matches :func:`run_fuzz`: program ``i``
    is ``generate_mutation_program(seed + i)``.
    """
    san = None
    if sanitize:
        from .. import sanitizer as _sz

        san = _sz.enable()
    failures = 0
    i = 0
    t0 = time.monotonic()
    for i in range(programs):
        s = seed + i
        program = generate_mutation_program(s)
        if san is not None:
            san.reset()
        divergence = run_streaming_differential(program, specs)
        if divergence is not None:
            failures += 1
            print(f"[FAIL] streaming seed {s}: {program.describe()}")
            print(f"  {divergence}")
            if do_shrink:
                _shrink_and_report(
                    program, divergence, specs, repro_dir, shrink_probes,
                    streaming=True,
                )
        elif verbose:
            print(f"[ok] streaming seed {s}: {program.describe()}")
        if san is not None and san.findings:
            failures += 1
            print(f"[FAIL] sanitizer, streaming seed {s}: {program.describe()}")
            print("  " + san.report().replace("\n", "\n  "))
            san.drain()
        if failures >= max_failures:
            print(f"stopping after {failures} failures")
            break
        if not verbose and i and i % 50 == 0:
            dt = time.monotonic() - t0
            print(f"  ... {i}/{programs} programs, {failures} failures, {dt:.1f}s")
    dt = time.monotonic() - t0
    status = "FAILED" if failures else "passed"
    print(
        f"streaming fuzz {status}: {min(i + 1, programs)} programs, seeds "
        f"[{seed}, {seed + i}], {len(specs)} backend specs, "
        f"{failures} failures, {dt:.1f}s"
    )
    return failures


def run_fuzz(
    programs: int,
    seed: int,
    specs=DEFAULT_SPECS,
    metamorphic_every: int = 25,
    conservation_every: int = 25,
    invalid_every: int = 10,
    streaming_every: int = 20,
    do_shrink: bool = True,
    repro_dir: Optional[Path] = _DEFAULT_REPRO_DIR,
    max_failures: int = 5,
    shrink_probes: int = 400,
    verbose: bool = False,
    sanitize: bool = False,
) -> int:
    """Fuzz ``programs`` seeds starting at ``seed``; returns failure count.

    With ``sanitize=True`` every program also runs under gbsan
    (:mod:`repro.sanitizer`): any residency/lifetime/replay finding
    counts as a failure even when the numeric results agree — the fuzzer
    doubles as a sanitizer false-positive hunt and as a net for bugs whose
    symptom is mis-accounting rather than wrong output.
    """
    san = None
    if sanitize:
        from .. import sanitizer as _sz

        san = _sz.enable()
    failures = 0
    t0 = time.monotonic()
    for i in range(programs):
        s = seed + i
        program = generate_program(s)
        if san is not None:
            san.reset()  # fresh HB graph / shadows per program
        divergence = run_differential(program, specs)
        if divergence is not None:
            failures += 1
            print(f"[FAIL] seed {s}: {program.describe()}")
            print(f"  {divergence}")
            if do_shrink:
                _shrink_and_report(program, divergence, specs, repro_dir, shrink_probes)
        elif verbose:
            print(f"[ok] seed {s}: {program.describe()}")
        if san is not None and san.findings:
            failures += 1
            print(f"[FAIL] sanitizer, seed {s}: {program.describe()}")
            print("  " + san.report().replace("\n", "\n  "))
            san.drain()

        if invalid_every and i % invalid_every == 0:
            bad = generate_invalid_program(s)
            d = run_differential(bad, specs)
            if d is not None:
                failures += 1
                print(f"[FAIL] invalid-program seed {s}: {bad.describe()}")
                print(f"  {d}")

        if metamorphic_every and i % metamorphic_every == 0:
            for msg in run_metamorphic_suite(s):
                failures += 1
                print(f"[FAIL] metamorphic, seed {s}: {msg}")
        if conservation_every and i % conservation_every == 0:
            for msg in run_conservation_suite(program):
                failures += 1
                print(f"[FAIL] conservation, seed {s}: {msg}")
        if streaming_every and i % streaming_every == 0:
            sprog = generate_mutation_program(s)
            d = run_streaming_differential(sprog, STREAMING_SMOKE_SPECS)
            if d is not None:
                failures += 1
                print(f"[FAIL] streaming, seed {s}: {sprog.describe()}")
                print(f"  {d}")
                if do_shrink:
                    _shrink_and_report(
                        sprog, d, STREAMING_SMOKE_SPECS, repro_dir,
                        shrink_probes, streaming=True,
                    )

        if failures >= max_failures:
            print(f"stopping after {failures} failures")
            break
        if not verbose and i and i % 100 == 0:
            dt = time.monotonic() - t0
            print(f"  ... {i}/{programs} programs, {failures} failures, {dt:.1f}s")
    dt = time.monotonic() - t0
    status = "FAILED" if failures else "passed"
    print(
        f"fuzz {status}: {min(i + 1, programs)} programs, seeds "
        f"[{seed}, {seed + i}], {len(specs)} backend specs, "
        f"{failures} failures, {dt:.1f}s"
    )
    return failures


def _load_program(path: Path) -> Program:
    """Load a program from JSON, or from a generated repro's PROGRAM dict."""
    text = path.read_text()
    if path.suffix == ".py":
        ns: dict = {}
        exec(compile(text, str(path), "exec"), {"__name__": "_repro"}, ns)
        return Program.from_dict(ns["PROGRAM"])
    return Program.from_dict(json.loads(text))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--programs", type=int, default=500,
                    help="number of programs to generate (default 500)")
    ap.add_argument("--seed", type=int, default=0,
                    help="first program seed; program i uses seed+i")
    ap.add_argument("--smoke", action="store_true",
                    help="only reference/cpu/cuda_sim (skip multi_sim sweep)")
    ap.add_argument("--backends", type=str, default=None,
                    help="comma-separated backend specs overriding the default set")
    ap.add_argument("--metamorphic-every", type=int, default=25, metavar="N",
                    help="run the metamorphic suite every N programs (0 = never)")
    ap.add_argument("--conservation-every", type=int, default=25, metavar="N",
                    help="run the conservation suite every N programs (0 = never)")
    ap.add_argument("--invalid-every", type=int, default=10, metavar="N",
                    help="run an invalid-program (error-path) differential "
                         "every N programs (0 = never)")
    ap.add_argument("--streaming", action="store_true",
                    help="fuzz graph-mutation programs only (DynamicGraph + "
                         "incremental views vs the full-recompute oracle)")
    ap.add_argument("--streaming-every", type=int, default=20, metavar="N",
                    help="in the default mode, run one mutation-program "
                         "differential every N programs (0 = never)")
    ap.add_argument("--no-shrink", action="store_true",
                    help="report failures without shrinking")
    ap.add_argument("--repro-dir", type=Path, default=_DEFAULT_REPRO_DIR,
                    help="where shrunk pytest repros are written")
    ap.add_argument("--no-repro", action="store_true",
                    help="shrink but do not write repro files")
    ap.add_argument("--max-failures", type=int, default=5,
                    help="stop after this many failing programs")
    ap.add_argument("--shrink-probes", type=int, default=400,
                    help="probe budget for the greedy shrinker")
    ap.add_argument("--replay", type=Path, default=None, metavar="FILE",
                    help="replay one saved program (.json, or a generated "
                         "tests/regressions/*.py repro) instead of fuzzing")
    ap.add_argument("--sanitize", action="store_true",
                    help="run every program under gbsan (repro.sanitizer); "
                         "any finding counts as a failure")
    ap.add_argument("-v", "--verbose", action="store_true")
    args = ap.parse_args(argv)

    if args.backends:
        specs = tuple(s.strip() for s in args.backends.split(",") if s.strip())
    elif args.streaming:
        specs = STREAMING_SMOKE_SPECS if args.smoke else STREAMING_SPECS
    else:
        specs = SMOKE_SPECS if args.smoke else DEFAULT_SPECS

    if args.replay is not None:
        program = _load_program(args.replay)
        print(f"replaying {args.replay}: {program.describe()}")
        if args.streaming:
            divergence = run_streaming_differential(program, specs)
        else:
            divergence = run_differential(program, specs)
        if divergence is None:
            print("replay passed on all backends")
            return 0
        print(f"[FAIL] {divergence}")
        return 1

    if args.streaming:
        return run_streaming_fuzz(
            programs=args.programs,
            seed=args.seed,
            specs=specs,
            do_shrink=not args.no_shrink,
            repro_dir=None if args.no_repro else args.repro_dir,
            max_failures=args.max_failures,
            shrink_probes=args.shrink_probes,
            verbose=args.verbose,
            sanitize=args.sanitize,
        )

    return run_fuzz(
        programs=args.programs,
        seed=args.seed,
        specs=specs,
        metamorphic_every=args.metamorphic_every,
        conservation_every=args.conservation_every,
        invalid_every=args.invalid_every,
        streaming_every=args.streaming_every,
        do_shrink=not args.no_shrink,
        repro_dir=None if args.no_repro else args.repro_dir,
        max_failures=args.max_failures,
        shrink_probes=args.shrink_probes,
        verbose=args.verbose,
        sanitize=args.sanitize,
    )


if __name__ == "__main__":
    sys.exit(main())
