"""The test session runs numpy's OpenBLAS on the thread count conftest.py
sets, and training runs it on one thread without changing the caller's
count.  The kernel OpenBLAS runs is read by name."""
import dataclasses
import os

import numpy as np
import pytest

from boxdistill.blas import openblas_corename, openblas_threads, openblas_threads_set


def _loaded_openblas_threads():
    np.ones((64, 64)) @ np.ones((64, 64))  # the BLAS library is loaded by now
    threads = openblas_threads()
    if threads is None:
        pytest.skip("numpy is not linked against a loadable OpenBLAS here")
    return threads


def test_openblas_runs_the_configured_thread_count():
    # 1 unless the caller set OPENBLAS_NUM_THREADS explicitly.
    assert _loaded_openblas_threads() == int(os.environ["OPENBLAS_NUM_THREADS"])


def test_training_runs_openblas_on_one_thread_and_restores_the_count(monkeypatch):
    import boxdistill.sim as sim_mod
    from boxdistill.experiments import build_dataset, train_on_dataset
    from boxdistill.verify import _small_training_config

    _loaded_openblas_threads()
    seen = set()
    head = sim_mod._head  # each head of every forward pass, in training and out

    def recording(*args):
        seen.add(openblas_threads())
        return head(*args)

    monkeypatch.setattr(sim_mod, "_head", recording)
    cfg = _small_training_config()
    dataset = build_dataset(cfg, 0)
    # The first step lands the weights near 1e308 and the next one diverges.
    diverging = dataclasses.replace(
        cfg, optimizer=dataclasses.replace(cfg.optimizer, learning_rate=1e308, epochs=3)
    )
    with openblas_threads_set(2):
        train_on_dataset(dataset, sim_mod.LossConfig(), cfg)
        assert openblas_threads() == 2
        with np.errstate(all="ignore"), pytest.raises(sim_mod.TrainingDivergedError):
            train_on_dataset(dataset, sim_mod.LossConfig(), diverging)
        assert openblas_threads() == 2
    assert seen == {1}


def test_corename_is_the_kernel_openblas_coretype_selects():
    import platform
    import subprocess
    import sys
    from pathlib import Path

    import boxdistill

    _loaded_openblas_threads()
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("Sandybridge is an x86-64 kernel")
    assert openblas_corename()
    src = str(Path(boxdistill.__file__).parents[1])
    env = {
        **os.environ,
        "OPENBLAS_CORETYPE": "Sandybridge",
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    }
    code = "import numpy; from boxdistill.blas import openblas_corename; print(openblas_corename())"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert done.stdout.strip() == "Sandybridge"
