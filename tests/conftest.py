import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, os.path.dirname(__file__))  # make `oracles` importable

SRC = Path(__file__).resolve().parents[1] / "src"

settings.register_profile(
    "default",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def run_python():
    """`run_python(*args, timeout=120, **env)` runs `python *args` in a child
    interpreter that imports leadlag from this checkout's src/, with `env`
    added to its environment, and returns the finished process, its output
    captured as text."""
    def run(*args, timeout=120, **env):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=timeout,
                              env={**os.environ, **env, "PYTHONPATH": str(SRC)})
    return run
