"""Tier-1 coverage for the repro.testing fuzz harness.

The nightly CI job runs thousands of fuzz programs; this file pins a
bounded, deterministic slice of the same machinery so every PR exercises
program generation, differential execution on all backend specs, the
metamorphic and conservation suites, and the shrinker — in a few seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.testing import (
    DEFAULT_SPECS,
    GRAPH_RECIPES,
    SEMIRING_POOL,
    SMOKE_SPECS,
    Program,
    annotate_exactness,
    build_env,
    generate_program,
    run_conservation_suite,
    run_differential,
    run_metamorphic_suite,
    write_repro,
)
from repro.testing.executor import Divergence, execute
from repro.testing.fuzz import _load_program
from repro.testing.shrink import _drop_op, result_slots, shrink


# ---------------------------------------------------------------------------
# Program generation
# ---------------------------------------------------------------------------


class TestProgramGeneration:
    def test_same_seed_same_program(self):
        for seed in range(20):
            a = generate_program(seed)
            b = generate_program(seed)
            assert a.to_json() == b.to_json()

    def test_serialization_round_trip(self):
        for seed in range(20):
            p = generate_program(seed)
            q = Program.from_json(p.to_json())
            assert q.to_dict() == p.to_dict()

    def test_op_kind_coverage(self):
        """Every op kind the generator knows must actually be emitted."""
        seen = set()
        for seed in range(300):
            seen.update(o["op"] for o in generate_program(seed).ops)
        expected = {
            "mxv", "vxm", "mxm", "ewise_add", "ewise_mult", "apply",
            "select", "reduce", "reduce_to_vector", "extract", "assign",
            "transpose",
        }
        assert expected <= seen

    def test_semiring_pool_excludes_nondeterministic_any(self):
        assert "ANY_FIRST" not in SEMIRING_POOL
        assert "ANY_SECOND" not in SEMIRING_POOL
        # but the counting ANY_PAIR (all inputs equal) stays in the pool
        assert "ANY_PAIR" in SEMIRING_POOL

    def test_graph_recipe_coverage(self):
        seen = {generate_program(seed).graph["generator"] for seed in range(300)}
        assert seen == set(GRAPH_RECIPES)

    def test_every_recipe_builds(self):
        for name in GRAPH_RECIPES:
            p = Program(
                graph={"generator": name, "size": 12, "seed": 3, "weighted": True},
                seed=0,
                ops=[],
            )
            env = build_env(p)
            assert env.matrices[0].nrows == env.n

    def test_exactness_annotation_matches_op_count(self):
        for seed in range(20):
            p = generate_program(seed)
            flags = annotate_exactness(p)
            assert len(flags) == len(p.ops)
            assert all(isinstance(f, bool) for f in flags)


# ---------------------------------------------------------------------------
# Differential execution
# ---------------------------------------------------------------------------


class TestDifferential:
    def test_smoke_specs_agree(self):
        for seed in range(30):
            d = run_differential(generate_program(seed), SMOKE_SPECS)
            assert d is None, str(d)

    def test_full_spec_matrix_agrees(self):
        """All nine specs, including every multi_sim P/splitter combo."""
        for seed in range(12):
            d = run_differential(generate_program(seed), DEFAULT_SPECS)
            assert d is None, str(d)

    def test_execute_snapshot_per_op(self):
        p = generate_program(5)
        snaps = execute(p, "reference")
        assert len(snaps) == len(p.ops)

    def test_injected_value_error_is_caught(self):
        """A single wrong stored value must surface as a Divergence."""
        p = generate_program(0)
        oracle = execute(p, "reference")
        # Find a vector-valued snapshot and corrupt one value.
        from repro import Vector

        for i, s in enumerate(oracle):
            if isinstance(s, Vector) and s.nvals:
                idx, vals = s.indices_array(), s.values_array().copy()
                vals[0] += 1.0
                corrupt = Vector.from_lists(idx, vals, s.size, s.type)
                from repro.testing.equivalence import same

                assert not same(corrupt, s, exact=True)
                assert not same(corrupt, s, exact=False)
                break
        else:
            pytest.skip("no non-empty vector snapshot in this program")

    def test_divergence_formatting(self):
        d = Divergence("cpu", 2, "mxv", "values differ")
        assert "cpu" in str(d) and "mxv" in str(d) and "#2" in str(d)


# ---------------------------------------------------------------------------
# Metamorphic + conservation suites (bounded samples of the nightly lanes)
# ---------------------------------------------------------------------------


class TestInvariantSuites:
    @pytest.mark.parametrize("seed", [0, 7, 19])
    def test_metamorphic_suite_clean(self, seed):
        assert run_metamorphic_suite(seed) == []

    @pytest.mark.parametrize("seed", [1, 13])
    def test_conservation_suite_clean(self, seed):
        assert run_conservation_suite(generate_program(seed)) == []


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_cascade_drop_keeps_programs_executable(self):
        """Dropping any op (plus dependents, with slot remap) stays valid."""
        for seed in range(25):
            p = generate_program(seed)
            for i in range(len(p.ops)):
                cand = _drop_op(p, i)
                if cand is None or not cand.ops:
                    continue
                execute(cand, "reference")  # must not raise

    def test_result_slots_align_with_env(self):
        p = generate_program(9)
        env = build_env(p)
        execute(p, "reference")
        slots = result_slots(p)
        assert len(slots) == len(p.ops)
        # Slot indices start right after the initial env contents.
        kinds = [k for k, _ in slots]
        first_v = next((s for k, s in slots if k == "v"), None)
        if first_v is not None:
            assert first_v == len(env.vectors) == 3  # three seed vectors
        first_m = next((s for k, s in slots if k == "m"), None)
        if first_m is not None:
            assert first_m == len(env.matrices) == 1  # one seed graph matrix
        assert set(kinds) <= {"v", "m", "s"}

    def test_shrinks_synthetic_failure_to_one_op(self):
        """A bug 'triggered by any mxm' must shrink to a single-op program."""
        prog = next(
            p for p in (generate_program(s) for s in range(300))
            if any(o["op"] == "mxm" for o in p.ops) and len(p.ops) >= 4
        )

        def still_fails(cand):
            execute(cand, "reference")  # candidate must stay well-formed
            return any(o["op"] == "mxm" for o in cand.ops)

        small = shrink(prog, still_fails)
        assert len(small.ops) == 1
        assert small.ops[0]["op"] == "mxm"
        assert small.ops[0].get("mask") is None
        assert small.ops[0].get("accum") is None
        assert small.graph["size"] <= prog.graph["size"]

    def test_shrinker_rejects_raising_candidates(self):
        p = generate_program(2)

        def still_fails(cand):
            if len(cand.ops) < len(p.ops):
                raise RuntimeError("probe crashed")
            return True

        small = shrink(p, still_fails, max_probes=50)
        assert small.to_json()  # never adopted a crashing candidate

    def test_shrink_submodule_is_not_shadowed(self):
        # The package must not bind the function under its submodule's name.
        import repro.testing.shrink as m

        assert m.__name__ == "repro.testing.shrink"
        assert m.shrink is shrink and callable(m.program_candidates)

    def test_write_repro_round_trip(self, tmp_path):
        p = generate_program(11)
        d = Divergence("cuda_sim", 0, p.ops[0]["op"], "synthetic")
        path = write_repro(p, d, tmp_path)
        assert path.exists() and path.name.startswith("test_shrunk_")
        loaded = _load_program(path)
        assert loaded.to_dict() == p.to_dict()
        # The emitted file is a self-contained passing pytest module.
        ns: dict = {}
        exec(compile(path.read_text(), str(path), "exec"), ns, ns)
        test_fns = [v for k, v in ns.items() if k.startswith("test_")]
        assert len(test_fns) == 1
        test_fns[0]()  # p is not actually failing, so the repro passes


# ---------------------------------------------------------------------------
# CLI entry point
# ---------------------------------------------------------------------------


class TestFuzzCLI:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        from repro.testing.fuzz import main

        rc = main([
            "--programs", "4", "--seed", "0", "--smoke",
            "--metamorphic-every", "2", "--conservation-every", "0",
            "--invalid-every", "2", "--repro-dir", str(tmp_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fuzz passed" in out
        assert not list(tmp_path.glob("test_shrunk_*.py"))

    def test_replay_json_program(self, tmp_path, capsys):
        from repro.testing.fuzz import main

        p = generate_program(6)
        path = tmp_path / "prog.json"
        path.write_text(p.to_json())
        assert main(["--replay", str(path), "--smoke"]) == 0
        assert "replay passed" in capsys.readouterr().out

    def test_explicit_backend_list(self, capsys):
        from repro.testing.fuzz import main

        rc = main([
            "--programs", "2", "--seed", "3",
            "--backends", "reference,cpu,multi_sim:2:degree_balanced",
            "--metamorphic-every", "0", "--conservation-every", "0",
            "--invalid-every", "0", "--no-repro",
        ])
        assert rc == 0
        assert "3 backend specs" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Backend-fixture opt-out plumbing (conftest no_multi_sim marker)
# ---------------------------------------------------------------------------


@pytest.mark.no_multi_sim
class TestBackendFixtureOptOut:
    def test_multi_sim_param_is_skipped(self, backend):
        assert backend in ("reference", "cpu", "cuda_sim")


class TestBackendFixtureMultiSim:
    def test_multi_sim_param_present(self, backend, small_graph):
        """The shared fixture runs multi_sim (P=2, degree_balanced) too."""
        import repro as gb
        from repro.core.semiring import PLUS_TIMES

        w = gb.vxm(
            gb.Vector.sparse(gb.FP64, 6),
            gb.Vector.from_lists([0], [1.0], 6, gb.FP64),
            small_graph,
            PLUS_TIMES,
        )
        assert w.nvals == 2  # 0->1 (1), 0->2 (4)
        assert sorted(w.indices_array().tolist()) == [1, 2]
