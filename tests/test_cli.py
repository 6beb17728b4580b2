"""End-to-end command-line behavior: outputs, caching, exit codes."""

import csv
import io
import json
import threading
from pathlib import Path

import pytest

from fenceinj import ClosureResult, build_G, close
from fenceinj.cache import load_closure
from fenceinj.cli import main
from fenceinj.oracle import write_code_file, write_sidecar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_values(capsys):
    for n, expected in [(1, 2), (3, 5), (5, 6), (7, 10), (9, 14), (11, 19)]:
        code, out, _ = run_cli(capsys, "rank", "--n", str(n), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["rank"] == expected
    doc = json.loads(run_cli(capsys, "rank", "--n", "3", "--format", "json")[1])
    assert doc["grade"] == "PAPER-PROVED"
    doc = json.loads(run_cli(capsys, "rank", "--n", "13", "--format", "json")[1])
    assert doc["grade"] == "PAPER-FORMULA"
    assert "quantitative ingredients" in doc["note"]
    # the note never sends the user to a verify that checks nothing
    for n in (1, 15):
        doc = json.loads(run_cli(capsys, "rank", "--n", str(n), "--format", "json")[1])
        assert doc["note"] == f"no verify claim is designated at n={n}"


def test_rank_table_and_csv(capsys):
    code, out, _ = run_cli(capsys, "rank", "--n", "9")
    assert code == 0 and "rank of FI_9 = 14" in out
    code, out, _ = run_cli(capsys, "rank", "--n", "9", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["field", "value"]
    assert ["rank", "14"] in rows


def test_enumerate(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--format", "json",
                           "--cache-dir", cache)
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 182
    assert doc["rank_histogram"] == [1, 25, 88, 52, 14, 2]
    assert (tmp_path / "cache" / "universe_n5.bin").exists()
    code, out, _ = run_cli(capsys, "enumerate", "--n", "5", "--format", "csv",
                           "--cache-dir", cache)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["rank", "count"]
    assert rows[1:] == [[str(r), str(c)] for r, c in
                        enumerate([1, 25, 88, 52, 14, 2])]


def test_enumerate_over_cap(tmp_path, capsys):
    code, _, err = run_cli(capsys, "enumerate", "--n", "11",
                           "--cache-dir", str(tmp_path))
    assert code == 2
    assert "closure" in err


def test_closure_starts_no_thread(tmp_path, capsys, monkeypatch):
    """``workers`` > 1 is accepted, and the closure stays in this thread."""
    def refuse(self):
        raise RuntimeError("the closure must run in the calling thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert len(close(build_G(7), workers=2)) == 2288
    code, out, _ = run_cli(capsys, "closure", "--n", "5", "--gens", "G",
                           "--workers", "2", "--format", "json",
                           "--cache-dir", str(tmp_path))
    assert code == 0 and json.loads(out)["count"] == 182


def test_closure_and_cache_stability(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    args = ("closure", "--n", "5", "--gens", "G", "--format", "json",
            "--cache-dir", cache)
    code, out1, _ = run_cli(capsys, *args, "--workers", "1")
    assert code == 0
    doc = json.loads(out1)
    assert doc["count"] == 182
    assert doc["max_word_length"] == 7
    files = sorted(p.name for p in (tmp_path / "cache").iterdir())
    blobs = {name: (tmp_path / "cache" / name).read_bytes() for name in files}
    # second run hits the cache and must not change any artifact
    code, out2, _ = run_cli(capsys, *args, "--workers", "4")
    assert code == 0
    for name in files:
        assert (tmp_path / "cache" / name).read_bytes() == blobs[name]
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("seconds"), d2.pop("seconds")
    assert d1 == d2


def test_closure_from_file(tmp_path, capsys):
    gens_path = tmp_path / "gens.json"
    build_G(5).save(gens_path)
    code, out, _ = run_cli(capsys, "closure", "--n", "5", "--gens",
                           f"file:{gens_path}", "--format", "json",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert json.loads(out)["count"] == 182
    # n mismatch between file and flag is a usage error
    code, _, err = run_cli(capsys, "closure", "--n", "7", "--gens",
                           f"file:{gens_path}",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 2 and "n=5" in err


def test_closure_gens_J(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "closure", "--n", "5", "--gens", "J",
                           "--format", "json",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 182
    assert len(doc["generators"]) == 68


def test_factor(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "factor", "--n", "5", "--gens", "G",
                           "--map", "2,_,_,4,5", "--format", "json",
                           "--cache-dir", cache)
    assert code == 0
    doc = json.loads(out)
    assert doc["generated"] is True and doc["verified"] is True
    assert doc["word"] == "beta_2_odd"
    code, out, _ = run_cli(capsys, "factor", "--n", "5", "--gens", "G",
                           "--map", "2,_,_,4,5", "--cache-dir", cache)
    assert code == 0 and "beta_2_odd" in out


def test_factor_not_generated(tmp_path, capsys):
    gens_path = tmp_path / "only_gamma.json"
    build_G(5).without("alpha_1", "alpha_2", "alpha_3", "beta_2_odd",
                       "beta_2_even").save(gens_path)
    code, out, _ = run_cli(capsys, "factor", "--n", "5", "--gens",
                           f"file:{gens_path}", "--map", "2,_,_,4,5",
                           "--format", "json",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert json.loads(out)["generated"] is False


def test_factor_documented_examples(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "factor", "--n", "5", "--gens", "G",
                           "--map", "_,_,_,_,_", "--format", "json",
                           "--cache-dir", cache)
    assert code == 0
    doc = json.loads(out)
    assert doc["generated"] is True and doc["verified"] is True
    code, out, _ = run_cli(capsys, "factor", "--n", "5", "--gens", "G",
                           "--map", "1,2,3,4,5", "--format", "json",
                           "--cache-dir", cache)
    assert code == 0
    assert json.loads(out)["word"] == "gamma·gamma"


def test_factor_bad_map(tmp_path, capsys):
    code, _, err = run_cli(capsys, "factor", "--n", "5", "--gens", "G",
                           "--map", "9,_,_,4,5",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, "factor", "--n", "5", "--gens", "G",
                           "--map", "+1,_,_,4,5",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 2 and "error" in err
    # a well-formed map that is not an automorphism names the violated pair
    code, _, err = run_cli(capsys, "factor", "--n", "5", "--gens", "G",
                           "--map", "1,3,_,_,_",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 2
    assert "points 1 and 2" in err


def test_verify(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "5", "--format", "json",
                           "--cache-dir", str(tmp_path / "cache"),
                           "--claims", "G-size-formula,rank-formula-consistency")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    statuses = {c["claim_id"]: c["status"] for c in doc["checks"]}
    assert statuses["G-size-formula"] == "pass"
    assert statuses["lemma6"] == "skipped"


def test_verify_table_and_csv(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--cache-dir", cache)
    assert code == 0
    assert "overall: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--format", "csv",
                           "--cache-dir", cache)
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "status", "grade", "seconds", "evidence"]
    assert len(rows) == 13


def test_verify_unknown_claim(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "5", "--claims", "bogus",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 2 and "unknown claim" in err
    # a filter that names no claim is refused, not run as "all" or "none"
    for claims in ("", ",", " , "):
        code, out, err = run_cli(capsys, "verify", "--n", "5", "--claims", claims,
                                 "--cache-dir", str(tmp_path / "cache"))
        assert code == 2 and not out, claims
        assert err == "error: the claim filter names no claim\n", claims


def test_verify_size_with_no_claim(tmp_path, capsys):
    """A size where no claim is designated is refused, not reported PASS."""
    for n in ("1", "15"):
        code, out, err = run_cli(capsys, "verify", "--n", n,
                                 "--cache-dir", str(tmp_path / "cache"))
        assert code == 2 and not out, n
        assert err == f"error: no claim is designated at n={n}\n", n


def test_usage_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "rank", "--n", "4")
    assert code == 2 and "odd" in err
    code, _, err = run_cli(capsys, "closure", "--n", "5", "--gens", "X",
                           "--cache-dir", str(tmp_path))
    assert code == 2
    code, _, err = run_cli(capsys, "closure", "--n", "5", "--gens",
                           "file:/does/not/exist",
                           "--cache-dir", str(tmp_path))
    assert code == 2
    malformed = [
        {"entries": []},
        [1, 2],
        {"n": 5},
        {"n": 5, "entries": [{"label": "a"}]},
        {"n": 5, "entries": [{"label": 3, "map_text": "1,2,3,4,5"}]},
    ]
    for k, doc in enumerate(malformed):
        path = tmp_path / f"gens{k}.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "closure", "--n", "5", "--gens",
                                 f"file:{path}", "--cache-dir", str(tmp_path))
        assert code == 2 and out == "", doc
        assert err.startswith("error: ") and err.count("\n") == 1, doc
        assert "Traceback" not in err, doc
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["rank"])  # missing --n
    for workers in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["closure", "--n", "5", "--gens", "G", "--workers", workers,
                  "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "--workers" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "5", "--workers", "1",
              "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2


# every cache artifact, by name suffix, with the commands that read it
CACHE_ARTIFACTS = [
    ("universe_n5.bin", ("enumerate", "verify")),
    ("universe_n5.bin.json", ("enumerate", "verify")),
    (".tree", ("closure", "factor")),
    (".tree.json", ("closure", "factor")),
]
CACHE_COMMANDS = {
    "enumerate": ("enumerate", "--n", "5"),
    "verify": ("verify", "--n", "5", "--claims", "lemma-bf4", "--workers", "1"),
    "closure": ("closure", "--n", "5", "--gens", "G", "--workers", "1"),
    "factor": ("factor", "--n", "5", "--gens", "G", "--map", "2,_,_,4,5",
               "--workers", "1"),
}


def _snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("damage", ["truncate", "flip", "delete"])
def test_bad_cache_file_is_rebuilt(tmp_path, capsys, damage):
    for suffix, commands in CACHE_ARTIFACTS:
        for command in commands:
            cache = tmp_path / f"{command}{suffix}"
            argv = (*CACHE_COMMANDS[command], "--format", "json",
                    "--cache-dir", str(cache))
            code, _, err = run_cli(capsys, *argv)
            assert code == 0 and err == ""
            clean = _snapshot(cache)
            (name,) = [name for name in clean if name.endswith(suffix)]
            raw = clean[name]
            if damage == "truncate":
                (cache / name).write_bytes(raw[:len(raw) // 2])
            elif damage == "delete":
                (cache / name).unlink()
            else:
                flipped = bytearray(raw)
                flipped[len(raw) // 2] ^= 0xFF
                (cache / name).write_bytes(bytes(flipped))
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, (name, command)
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("warning:"), err
            assert _snapshot(cache) == clean, (name, command)


def test_previous_layout_cache_is_rebuilt(tmp_path, capsys, g5_closure):
    """A closure cached in the older layout, which also kept the sorted codes
    in a ``.bin`` code file with its own sidecar and had no tree sidecar, is
    rebuilt with one warning into the files a clean run writes, and the code
    file and its sidecar are removed."""
    clean_dir = tmp_path / "clean"
    assert run_cli(capsys, *CACHE_COMMANDS["closure"], "--cache-dir",
                   str(clean_dir))[0] == 0
    clean = _snapshot(clean_dir)
    (tree_name,) = [name for name in clean if name.endswith(".tree")]
    meta = json.loads(clean[tree_name + ".json"])
    code_name = tree_name.removesuffix(".tree") + ".bin"
    for command in ("closure", "factor"):
        cache = tmp_path / command
        cache.mkdir()
        (cache / tree_name).write_bytes(clean[tree_name])
        write_code_file(cache / code_name, 5, g5_closure.member_codes)
        write_sidecar(cache / code_name, {
            key: meta[key] for key in ("n", "count", "labels", "level_sizes")})
        code, _, err = run_cli(capsys, *CACHE_COMMANDS[command],
                               "--cache-dir", str(cache))
        assert code == 0, command
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning:"), err
        # the old code file and its sidecar are gone
        assert _snapshot(cache) == clean, command


def test_failed_cache_write_leaves_no_file(tmp_path, monkeypatch):
    def broken_save(self, tree_path):
        Path(tree_path).write_bytes(b"partial")
        Path(f"{tree_path}.json").write_text("{")
        raise OSError("disk full")

    monkeypatch.setattr(ClosureResult, "save", broken_save)
    with pytest.raises(OSError):
        load_closure(tmp_path, build_G(5))
    assert list(tmp_path.iterdir()) == []
