"""The public API: the package's export list, and the scripts under
scripts/ and README's quickstart that run against it."""

import re
import runpy
import sys
from pathlib import Path
from types import ModuleType

import fenceinj

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_public_names():
    """``__all__`` lists each public non-module attribute of the package
    once, and nothing else, so every entry resolves."""
    exported = fenceinj.__all__
    assert len(exported) == len(set(exported))
    public = {name for name, value in vars(fenceinj).items()
              if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert public == set(exported)


def test_readme_quickstart_runs():
    """README's one ``python`` block, the library quickstart, runs as is."""
    readme = (SCRIPTS.parent / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_scripts_run(monkeypatch, capsys):
    cases = [
        ("adjoin_sweep.py", ["--n", "5"],
         "  R_2 (|R_2| = 8): 4 reachable ×4, 8 reachable ×4"),
        # closes n = 9's top layer through GeneratorSet.from_codes
        ("adjoin_sweep.py", ["--n", "9"],
         "  R_4 (|R_4| = 16): 4 reachable ×4, 8 reachable ×12"),
        ("census.py", ["--sizes", "5"], "  |J_5|         = 68   |J_5 ∩ Par_5| = 16"),
        ("word_lengths.py", ["--n", "5"],
         "   _,_,3,_,5  =  alpha_1·alpha_2·alpha_2·gamma·alpha_2·alpha_2·gamma"),
    ]
    for script, args, line in cases:
        monkeypatch.setattr(sys, "argv", [script, *args])
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
        assert line in capsys.readouterr().out.splitlines(), script
