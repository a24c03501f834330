"""Wilcoxon signed-rank helper."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.eval import wilcoxon_improvement


class TestWilcoxon:
    def test_clear_improvement_significant(self):
        base = np.array([0.1, 0.11, 0.12, 0.10, 0.09, 0.11, 0.10, 0.12])
        cand = base + 0.05
        p, sig = wilcoxon_improvement(cand, base)
        assert sig
        assert p < 0.05

    def test_no_difference_not_significant(self):
        base = np.array([0.1, 0.2, 0.3])
        p, sig = wilcoxon_improvement(base.copy(), base)
        assert not sig
        assert p == 1.0

    def test_degradation_not_significant(self):
        base = np.array([0.2, 0.21, 0.22, 0.2, 0.19, 0.2, 0.21, 0.2])
        cand = base - 0.05
        _, sig = wilcoxon_improvement(cand, base)
        assert not sig

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_improvement(np.ones(3), np.ones(4))


def test_import_repro_leaves_scipy_stats_unloaded():
    """``scipy.stats`` is imported on first use, not by ``import repro``."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, repro, repro.serve, repro.stream; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
