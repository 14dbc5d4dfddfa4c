"""Tests for the shared adaptive round engine (``repro.stats.adaptive``).

The ledger pins below were computed before the Monte-Carlo sweep and the
stats fan-out moved onto one engine.  They hold the determinism contract
to the bit: the same specs must keep producing the same cache keys
(config digest), the same cell statistics (cells digest) and the same
spend, serially and on a process pool.
"""

import dataclasses

import numpy as np
import pytest

from repro.continuum import build_sweep_spec, run_sweep
from repro.obs import RunRegistry
from repro.pipeline.study import run_icsc_pipeline
from repro.stats.adaptive import ci_half_width, stream_rng, task_entropy
from repro.stats.fanout import StatSpec, run_stat_sweep, share_ci_tasks

FIXED_CONFIG = (
    "af81440169944a120b2a198926ed8f8aac17d2f497c1da08ad1f027ba151ed3c"
)
FIXED_CELLS = (
    "feee409fdaaf897d259416a7ae56f49cf780cbe36e07b8309463dbad251106ae"
)
ADAPTIVE_CONFIG = (
    "0a43de169c6a220b91e993feceeeec71652c11c282d20ec7a4e924b4d6667ce8"
)
ADAPTIVE_CELLS = (
    "3556f63ad33bd1d6ed3bc976d30cb2d783ca3e0d76f014f0d9a2e921181473ce"
)
STAT_CONFIG = (
    "9e084cd0d722f814ed8a58faa8c7a0e32f5f6bdd547d03f1415c0a28b09f4271"
)
STAT_CELLS = (
    "6b5f7f8184c55021fefdcb95dc18906635b97cd0121e1f168be3d8b398ca7f47"
)


def reference_spec():
    """The EXPERIMENTS.md fixed reference grid (1 workflow, 9 cells)."""
    return build_sweep_spec(
        grid="scheduler=heft,energy,round_robin;mtbf=20,50,200",
        fleet=1, replications=200, seed=0,
    )


class TestLedgerDigestPins:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_monte_carlo_sweeps(self, tmp_path, workers):
        registry = RunRegistry(tmp_path)
        fixed = run_sweep(reference_spec(), workers=workers,
                          registry=registry)
        adaptive = run_sweep(
            dataclasses.replace(
                reference_spec(), chunk_size=20, target_ci=0.02
            ),
            workers=workers, registry=registry,
        )
        assert fixed.n_replications_run == 1800
        assert adaptive.n_replications_run == 640
        records = registry.runs()
        assert [r.kind for r in records] == ["mc-sweep", "mc-sweep"]
        assert records[0].config_digest == FIXED_CONFIG
        assert records[0].artifacts["cells"].content_sha256 == FIXED_CELLS
        assert records[1].config_digest == ADAPTIVE_CONFIG
        assert (
            records[1].artifacts["cells"].content_sha256 == ADAPTIVE_CELLS
        )

    def test_stat_sweep(self, tmp_path):
        registry = RunRegistry(tmp_path)
        study, _ = run_icsc_pipeline(seed=0)
        spec = StatSpec(
            share_ci_tasks(study.q2.distribution, prefix="fig2")
            + share_ci_tasks(study.q3.votes, prefix="fig4"),
            seed=0, target_se=5e-4, max_draws=200_000,
        )
        result = run_stat_sweep(spec, registry=registry)
        assert result.n_replications_run == 234_000
        (record,) = registry.runs()
        assert record.kind == "stat-sweep"
        assert record.config_digest == STAT_CONFIG
        assert record.artifacts["cells"].content_sha256 == STAT_CELLS


class TestStreams:
    def test_entropy_is_content_addressed(self):
        assert task_entropy({"a": 1, "b": 2}) == task_entropy({"b": 2, "a": 1})
        assert task_entropy({"a": 1}) != task_entropy({"a": 2})
        assert 0 <= task_entropy({"a": 1}) < 2**128

    def test_stream_indices_are_independent_and_reproducible(self):
        entropy = task_entropy({"task": "x"})
        first = stream_rng(entropy, 3).random(4)
        assert np.array_equal(first, stream_rng(entropy, 3).random(4))
        assert not np.array_equal(first, stream_rng(entropy, 4).random(4))

    def test_ci_half_width(self):
        assert ci_half_width(2.0, 4) == pytest.approx(1.959963984540054)
