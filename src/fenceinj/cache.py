"""The on-disk cache of universes and closures.

This is the only module that names cache files.  Under one directory:

* ``universe_n{n}.bin`` and its sidecar ``universe_n{n}.bin.json``: the
  census of FI_n;
* ``closure_n{n}_{key}.bin``, its sidecar and ``closure_n{n}_{key}.tree``:
  the member codes and the BFS witness tree of a generating set, keyed by
  ``generator_cache_key`` so distinct sets never collide.

Each file is written under a temporary name in the same directory and then
moved into place with ``os.replace``, so a reader never sees half a file.
An entry that is partly missing, unreadable or inconsistent is a miss: one
warning line goes to stderr and the entry is rebuilt.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import Callable, TypeVar

from .closure import ClosureResult, close, generator_cache_key
from .generators import GeneratorSet
from .oracle import ElementUniverse, enumerate_FI, sidecar_path

T = TypeVar("T")


def universe_path(cache_dir: str | Path, n: int) -> Path:
    return Path(cache_dir) / f"universe_n{n}.bin"


def closure_paths(cache_dir: str | Path, gens: GeneratorSet) -> tuple[Path, Path]:
    """(code file, tree file) of the closure of ``gens``."""
    stem = Path(cache_dir) / f"closure_n{gens.n}_{generator_cache_key(gens)}"
    return stem.with_suffix(".bin"), stem.with_suffix(".tree")


def load_universe(cache_dir: str | Path, n: int, workers: int = 1) -> ElementUniverse:
    """FI_n from the cache, enumerated and stored on a miss."""
    path = universe_path(cache_dir, n)

    def load() -> ElementUniverse:
        universe = ElementUniverse.load(path)
        if universe.n != n:
            raise ValueError(f"{path} holds FI_{universe.n}")
        return universe

    return _cached(
        (path, sidecar_path(path)), load,
        lambda: enumerate_FI(n, workers=workers),
        lambda universe, temps: universe.save(temps[0]))


def load_closure(cache_dir: str | Path, gens: GeneratorSet,
                 workers: int = 1) -> ClosureResult:
    """⟨gens⟩ with its witnesses from the cache, closed and stored on a miss."""
    code_path, tree_path = closure_paths(cache_dir, gens)
    return _cached(
        (code_path, sidecar_path(code_path), tree_path),
        lambda: ClosureResult.load(code_path, tree_path, gens),
        lambda: close(gens, workers=workers),
        lambda result, temps: result.save(temps[0], temps[2]))


def _cached(files: tuple[Path, ...], load: Callable[[], T], build: Callable[[], T],
            save: Callable[[T, list[Path]], None]) -> T:
    """Load the entry stored in ``files``; on a miss build and store it.

    ``save`` gets temporary paths matching ``files`` one to one; a sidecar
    follows its binary file because the prefix leaves the suffixes alone.
    """
    if any(f.exists() for f in files):
        try:
            return load()
        except (OSError, ValueError) as exc:
            print(f"warning: rebuilding cache entry {files[0].name}: {exc}",
                  file=sys.stderr)
    value = build()
    files[0].parent.mkdir(parents=True, exist_ok=True)
    temps = [f.with_name(f".tmp{os.getpid()}-{f.name}") for f in files]
    try:
        save(value, temps)
        for temp, final in zip(temps, files):
            os.replace(temp, final)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return value
