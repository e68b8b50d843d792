"""The optimisation policy: values, settling scopes, spec suffixes, env parse."""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro as gb
from repro.core import operations as ops
from repro.core.semiring import PLUS_TIMES
from repro.exceptions import InvalidValueError
from repro.lazy import tape_len
from repro.policy import current, parse_suffixes, policy
from repro.testing.executor import DEFAULT_SPECS, backend_session
from repro.testing.streaming import STREAMING_SPECS

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestValues:
    @pytest.mark.parametrize(
        "bad", [{"lazy": "maybe"}, {"lanes": "binned"}, {"fuse": 1}, {"elision": "no"}]
    )
    def test_bad_value_rejected_and_policy_kept(self, bad):
        before = current()
        with pytest.raises(InvalidValueError):
            with policy(**bad):
                pass  # pragma: no cover
        assert current() is before

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            with policy(bogus=False):
                pass  # pragma: no cover


class TestScope:
    def _record_mxv(self):
        a = gb.Matrix.from_dense(np.eye(4))
        u = gb.Vector.from_dense(np.ones(4))
        w = gb.Vector.sparse(gb.FP64, 4)
        ops.mxv(w, a, u, PLUS_TIMES)
        return w

    def test_entry_and_exit_settle_the_tape(self):
        with gb.use_backend("cuda_sim"):
            w = self._record_mxv()
            assert tape_len() == 1
            with policy(fuse=False):
                assert tape_len() == 0  # recorded before the scope: ran on entry
                w2 = self._record_mxv()
                assert tape_len() == 1
            assert tape_len() == 0  # recorded inside the scope: ran on exit
        assert w.to_lists() == w2.to_lists()

    def test_nested_scopes_restore(self):
        before = current()
        with policy(lanes="merge", capture=False) as outer:
            assert current() is outer and outer.lanes == "merge"
            with policy(lanes="off") as inner:
                assert inner.lanes == "off" and not inner.capture
            assert current() is outer
        assert current() is before

    def test_restores_after_body_raises(self):
        before = current()
        with pytest.raises(RuntimeError):
            with policy(lazy="off"):
                raise RuntimeError("body failed")
        assert current() is before


BAD_SPECS = [
    "cuda_sim:lazy=maybe",
    "cuda_sim:bogus",
    "cuda_sim:lanes=warp",
    "cuda_sim:lazy=on:lazy=off",
    "cuda_sim:noreuse:noreuse",
    "multi_sim",
    "multi_sim:2",
    "multi_sim:0:equal_rows",
    "multi_sim:2:bogus",
    "tpu",
]


class TestSpecs:
    @pytest.mark.parametrize("spec", sorted(set(DEFAULT_SPECS) | set(STREAMING_SPECS)))
    def test_known_spec_enters(self, spec):
        name, *parts = spec.split(":")
        suffixes = [p for p in parts if p == "noreuse" or "=" in p]
        expected = replace(current(), **parse_suffixes(suffixes))
        with backend_session(spec) as backend:
            assert backend.name == name
            if name == "multi_sim":
                assert (backend.nparts, backend.splitter) == (int(parts[0]), parts[1])
            assert current() == expected

    @pytest.mark.parametrize("spec", BAD_SPECS)
    def test_bad_spec_raises(self, spec):
        before = current()
        with pytest.raises(ValueError):
            with backend_session(spec):
                pass  # pragma: no cover
        assert current() is before

    def test_suffix_order_does_not_matter(self):
        a = parse_suffixes(["noreuse", "lazy=off", "lanes=merge"])
        b = parse_suffixes(["lanes=merge", "lazy=off", "noreuse"])
        assert a == b == {
            "aux_cache": False, "elision": False, "capture": False,
            "lazy": "off", "lanes": "merge",
        }
        for spec in ("cuda_sim:noreuse:lazy=off", "cuda_sim:lazy=off:noreuse"):
            with backend_session(spec):
                assert (current().lazy, current().aux_cache) == ("off", False)


def _import_with_env(value):
    env = dict(os.environ, REPRO_LAZY=value, PYTHONPATH=SRC)
    code = "from repro.policy import current; print(current().lazy)"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )


class TestEnv:
    @pytest.mark.parametrize("value, mode", [("0", "off"), ("ON", "on"), ("", "auto")])
    def test_accepted_values(self, value, mode):
        out = _import_with_env(value)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == mode

    @pytest.mark.parametrize("value", ["of", "nope"])
    def test_unknown_value_raises_and_lists_accepted(self, value):
        out = _import_with_env(value)
        assert out.returncode != 0
        assert f"REPRO_LAZY={value!r}" in out.stderr
        assert "accepted: auto, 1, on, true, yes, 0, off, false, no" in out.stderr
