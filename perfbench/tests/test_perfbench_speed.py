"""The speed probe that scales run_s and setup_s to reference seconds."""

import json
import os
import signal
import subprocess
import sys
import time

import speed
from conftest import BENCH, ROOT


def test_scaled_is_unprobed_wall_time_times_mean_speed():
    probe = speed.SpeedProbe(speed.python_kernel, ref_s=2.0, interval=1.0)
    probe.samples = [1.0, 4.0]  # speeds 2.0 and 0.5
    probe.spent = 0.5
    assert probe.speed() == 1.25
    assert probe.scaled(10.5) == 12.5


def test_probe_samples_while_code_runs_and_then_stops():
    saved = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe(speed.numpy_kernel(), speed.NUMPY_KERNEL_REF_S, 0.01)
    with probe:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(range(1000))
    assert len(probe.samples) > 10
    assert 0.0 < probe.spent < 0.3
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is saved
    n = len(probe.samples)
    time.sleep(0.05)
    assert len(probe.samples) == n


def test_probe_has_samples_when_the_code_never_yields():
    probe = speed.SpeedProbe(speed.python_kernel, speed.PYTHON_KERNEL_REF_S, 10.0)
    with probe:
        pass
    assert len(probe.samples) == 2 and probe.spent == 0.0
    assert probe.speed() > 0.0


def test_import_child_reports_its_probe():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "speed.py")], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["speed"] > 0.0 and result["spent"] >= 0.0
