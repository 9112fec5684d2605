"""The example scripts read their integer flags as the command line does:
ASCII digits only."""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
ARABIC_INDIC_TWO = "٢"


def _run(monkeypatch, script: str, *args: str) -> int:
    monkeypatch.setattr(sys, "argv", [script, *args])
    try:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    except SystemExit as exc:
        return exc.code
    return 0


def test_availability_experiment_refuses_a_non_ascii_digit(monkeypatch, capsys):
    assert _run(monkeypatch, "availability_experiment.py", "--t", ARABIC_INDIC_TWO, "--trials", "2",
                "--max-failures", "0") == 2
    out, err = capsys.readouterr()
    assert not out and "invalid int value" in err
    assert _run(monkeypatch, "availability_experiment.py", "--t", "2", "--trials", "2", "--max-failures", "0") == 0
    assert capsys.readouterr().out.startswith("c1: p=4 t=2 m=10 k=7 ")


@pytest.mark.parametrize("flag", ["--max-s", "--max-t", "--convergence-t"])
def test_rate_table_refuses_a_non_ascii_digit(monkeypatch, capsys, flag):
    assert _run(monkeypatch, "rate_table.py", flag, ARABIC_INDIC_TWO) == 2
    out, err = capsys.readouterr()
    assert not out and "invalid int value" in err
    assert _run(monkeypatch, "rate_table.py", "--max-s", "2", "--max-t", "2", "--convergence-t", "25") == 0
    assert "s=2 (ceiling 3/4): t=25: " in capsys.readouterr().out
