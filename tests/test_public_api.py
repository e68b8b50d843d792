"""Public API surface: everything advertised exists and round-trips."""

import importlib

import pytest

import repro as gb


class TestExports:
    def test_version(self):
        assert gb.__version__

    def test_all_names_resolve(self):
        for name in gb.__all__:
            assert hasattr(gb, name), name

    def test_subpackage_all_resolve(self):
        for pkg in (gb.algorithms, gb.generators, gb.io, gb.gpu, gb.containers):
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"{pkg.__name__}.{name}"

    def test_core_operations_reexported(self):
        for name in (
            "mxm",
            "mxv",
            "vxm",
            "ewise_add",
            "ewise_mult",
            "ewise_union",
            "apply",
            "select",
            "reduce",
            "reduce_to_vector",
            "transpose",
            "extract",
            "assign",
            "assign_scalar",
            "kronecker",
        ):
            assert callable(getattr(gb, name)), name

    def test_types_reexported(self):
        assert gb.FP64.name == "FP64"
        assert len(gb.ALL_TYPES) == 11

    def test_descriptors_reexported(self):
        assert gb.DEFAULT is not None and gb.REPLACE.replace

    def test_error_root_reexported(self):
        assert issubclass(gb.DimensionMismatchError, gb.GraphBLASError)

    def test_semirings_monoids_registries(self):
        from repro.core.monoid import MONOIDS
        from repro.core.operators import BINARY_OPS, UNARY_OPS
        from repro.core.semiring import SEMIRINGS

        assert "PLUS_TIMES" in SEMIRINGS
        assert "MIN_MONOID" in MONOIDS
        assert "PLUS" in BINARY_OPS and "ABS" in UNARY_OPS

    def test_docstrings_on_public_functions(self):
        # Every advertised callable/class carries a docstring.
        missing = [
            name
            for name in gb.__all__
            if callable(getattr(gb, name)) and not getattr(gb, name).__doc__
        ]
        assert not missing, missing

    def test_algorithm_docstrings(self):
        missing = [
            name
            for name in gb.algorithms.__all__
            if not getattr(gb.algorithms, name).__doc__
        ]
        assert not missing, missing

    def test_modules_importable(self):
        for mod in (
            "repro.core.operations",
            "repro.core.union_op",
            "repro.backends.cpu.backend",
            "repro.backends.cuda_sim.kernels",
            "repro.bench.harness",
        ):
            importlib.import_module(mod)
