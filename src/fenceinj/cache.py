"""The on-disk cache of closures.

This is the only module that names cache files.  Under one directory it
keeps ``closure_n{n}_{key}.tree`` and its sidecar: the BFS witness tree of
a generating set and a digest of the member codes it rebuilds, keyed by
``generator_cache_key`` so distinct sets never collide.  The census of FI_n
is not cached: ``oracle.enumerate_FI`` builds it on demand.

Each file is written under a temporary name in the same directory and then
moved into place with ``os.replace``, so a reader never sees half a file.
An entry that is partly missing, unreadable or inconsistent is a miss: one
warning line goes to stderr and the entry is rebuilt.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from .closure import ClosureResult, close, generator_cache_key, sidecar_path
from .generators import GeneratorSet


def closure_path(cache_dir: str | Path, gens: GeneratorSet) -> Path:
    """The tree file of the closure of ``gens``; its sidecar holds the rest."""
    return Path(cache_dir) / f"closure_n{gens.n}_{generator_cache_key(gens)}.tree"


def load_closure(cache_dir: str | Path, gens: GeneratorSet) -> ClosureResult:
    """⟨gens⟩ with its witnesses from the cache, closed and stored on a miss.

    ``save`` writes to a temporary path; its sidecar follows it into place
    because the prefix leaves the suffixes alone.
    """
    path = closure_path(cache_dir, gens)
    files = (path, sidecar_path(path))
    if any(f.exists() for f in files):
        try:
            return ClosureResult.load(path, gens)
        except (OSError, ValueError) as exc:
            print(f"warning: rebuilding cache entry {path.name}: {exc}",
                  file=sys.stderr)
    result = close(gens)
    path.parent.mkdir(parents=True, exist_ok=True)
    temps = [f.with_name(f".tmp{os.getpid()}-{f.name}") for f in files]
    try:
        result.save(temps[0])
        for temp, final in zip(temps, files):
            os.replace(temp, final)
    finally:
        for temp in temps:
            temp.unlink(missing_ok=True)
    return result
