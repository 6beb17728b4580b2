"""The scripts under scripts/ run against the public API."""

import runpy
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_scripts_run_at_n5(monkeypatch, capsys):
    cases = [
        ("adjoin_sweep.py", ["--n", "5"],
         "  R_2 (|R_2| = 8): 4 reachable ×4, 8 reachable ×4"),
        ("census.py", ["--sizes", "5"], "  |J_5|         = 68   |J_5 ∩ Par_5| = 16"),
        ("word_lengths.py", ["--n", "5"],
         "   _,_,3,_,5  =  alpha_1·alpha_2·alpha_2·gamma·alpha_2·alpha_2·gamma"),
    ]
    for script, args, line in cases:
        monkeypatch.setattr(sys, "argv", [script, *args])
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        assert line in capsys.readouterr().out.splitlines(), script
