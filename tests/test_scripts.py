import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_fit_recovery_study_runs(monkeypatch, capsys):
    # the study calls the public API only; tiny arguments keep it well under a
    # second, and it must still print its header and one row per seed
    script = SCRIPTS / "fit_recovery_study.py"
    monkeypatch.setattr(sys, "argv", [str(script), "--assets", "20", "--steps", "4096",
                                      "--seeds", "1"])
    runpy.run_path(str(script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("generating: alpha=0.2, amplitude=4.000 (20 assets")
    assert lines[1].startswith("noiseless-fit reference: alpha=")
    assert lines[2].split() == ["seed", "alpha_hat", "amplitude_hat", "vs", "generating", "vs",
                                "reference"]
    assert len(lines) == 4
    seed, alpha, amplitude, *gaps = lines[3].split()
    assert seed == "0"
    assert 0.0 <= float(alpha) < 1.0 and float(amplitude) > 0.0
    assert [gap[-1] for gap in gaps] == ["%", "%"]
