"""Mutation-program fuzzer plumbing: generator, differential, shrinker."""

import numpy as np
import pytest

from repro.testing.metamorphic import check_incremental_recompute
from repro.testing.programs import (
    MUTATION_OPS,
    Program,
    QUERY_ALGOS,
    generate_mutation_program,
)
from repro.testing.fuzz import main
from repro.testing.shrink import mutation_candidates, shrink, write_repro
from repro.testing.streaming import (
    STREAMING_SMOKE_SPECS,
    execute_streaming,
    run_streaming_differential,
)


def shrink_mutations(p, still_fails):
    return shrink(p, still_fails, max_probes=300, candidates=mutation_candidates)


class TestMutationPrograms:
    def test_generator_is_deterministic(self):
        a = generate_mutation_program(7)
        b = generate_mutation_program(7)
        assert a.to_dict() == b.to_dict()

    def test_json_roundtrip(self):
        p = generate_mutation_program(11)
        rt = Program.from_dict(p.to_dict())
        assert rt.to_dict() == p.to_dict()

    def test_op_mix_guarantees(self):
        for seed in range(20):
            p = generate_mutation_program(seed)
            kinds = [op["op"] for op in p.ops]
            assert set(kinds) <= set(MUTATION_OPS)
            assert "edge_batch" in kinds, "every program must mutate"
            assert "query" in kinds, "every program must observe"
            for op in p.ops:
                if op["op"] == "query":
                    assert op["algo"] in QUERY_ALGOS

    def test_replay_is_bit_stable_within_spec(self):
        p = generate_mutation_program(3)
        s1, d1 = execute_streaming(p, "reference")
        s2, d2 = execute_streaming(p, "reference")
        assert d1 is None and d2 is None
        # Applied-batch snapshots are plain tuples; compare those directly.
        for a, b in zip(s1, s2):
            if isinstance(a, tuple) and a and a[0] in ("applied", "compacted"):
                assert a == b


class TestStreamingDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_smoke_seeds_agree(self, seed):
        p = generate_mutation_program(seed)
        assert run_streaming_differential(p, STREAMING_SMOKE_SPECS) is None

    def test_incremental_recompute_invariant(self):
        for seed in (0, 5, 9):
            assert check_incremental_recompute(seed) is None


class TestStreamingShrinker:
    def test_shrinks_to_minimal_failing_program(self):
        p = generate_mutation_program(13)
        assert len(p.ops) >= 2

        # Synthetic failure: any program containing a query "fails".
        def still_fails(cand: Program) -> bool:
            return any(op["op"] == "query" for op in cand.ops)

        small = shrink_mutations(p, still_fails)
        assert still_fails(small)
        assert len(small.ops) == 1
        assert small.ops[0]["op"] == "query"

    def test_shrinker_reduces_graph_size(self):
        p = generate_mutation_program(17)
        orig_size = int(p.graph["size"])

        def still_fails(cand: Program) -> bool:
            return True  # everything fails -> shrink as far as candidates go

        small = shrink_mutations(p, still_fails)
        assert int(small.graph["size"]) < orig_size
        assert len(small.ops) == 1

    def test_probe_exceptions_count_as_pass(self):
        p = generate_mutation_program(19)

        def exploding(cand: Program) -> bool:
            raise RuntimeError("probe blew up")

        small = shrink_mutations(p, exploding)
        assert small.to_dict() == p.to_dict()  # nothing shrank, no crash

    def test_repro_file_is_replayable(self, tmp_path):
        p = generate_mutation_program(2)
        path = write_repro(p, "synthetic divergence", tmp_path, streaming=True)
        assert path.exists() and path.name.startswith("test_shrunk_stream_")
        ns: dict = {"__name__": "_r"}
        exec(compile(path.read_text(), str(path), "exec"), ns)
        rt = Program.from_dict(ns["PROGRAM"])
        assert rt.to_dict() == p.to_dict()
        # The generated test function replays clean for a passing program.
        test_fn = next(v for k, v in ns.items() if k.startswith("test_"))
        test_fn()
        assert main(["--streaming", "--smoke", "--replay", str(path)]) == 0
