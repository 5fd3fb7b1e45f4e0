"""Persistent content-addressed artifact cache.

Every ``repro`` process used to pay the full cold-start tax: re-parse
Maril, re-run the CGG, recompile every kernel and re-warm every JIT
segment, because all of that state died with the process.  This package
keeps the expensive products on disk, content-addressed, so a second run
mostly reads pickles:

* ``target`` — CGG output: one :class:`~repro.machine.target.TargetMachine`
  per (variant name, Maril source), consulted by
  :func:`repro.targets.load_target`;
* ``exe`` — linked executables per (target, C source, compile options),
  consulted by :func:`repro.compile_c`;
* ``jit`` — generated segment-JIT *source* (:mod:`repro.sim.jit`), so a
  new process re-``compile()``\\ s Python text instead of re-translating
  semantics trees through warmup;
* ``timing`` — block-timing memo digests (:mod:`repro.sim.blockcache`).

Keys are sha256 over a code-version salt plus the artifact's inputs
(Maril source, C source, option fingerprints, upstream keys), so a
changed input or a bumped salt is a clean miss — entries are immutable
and never updated in place.  Publication is write-then-rename
(:mod:`repro.cache.store`), safe for concurrent processes sharing one
cache directory; the grid workers open the same store read-mostly.

Configuration is ambient: the default root is ``~/.cache/repro``,
overridden by ``REPRO_CACHE_DIR``; ``REPRO_CACHE=0`` disables the cache
entirely (every get misses, every put is dropped); ``REPRO_CACHE_SALT``
overrides the code-version salt.  :func:`configure` replaces the
process-wide instance programmatically — the evaluation harness points
it at a fresh tmpdir for cold/warm comparisons.

This module must stay import-light (no imports from the ``repro``
package root) — ``repro/__init__`` itself depends on it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path

from repro.cache.store import CORRUPT, HIT, FileStore
from repro.utils import timing

#: bump to invalidate every cached artifact after a change to any code
#: that shapes cached products (CGG, codegen, linker, JIT codegen,
#: pipeline digests) — this is the "code version" half of every key
CACHE_VERSION = 5

_FALSE_WORDS = ("0", "false", "off", "no")

__all__ = [
    "ArtifactCache",
    "CACHE_VERSION",
    "configure",
    "default_root",
    "get_cache",
]


def default_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ArtifactCache:
    """Key derivation + counters over a :class:`FileStore`.

    ``enabled=False`` makes the cache fully inert: gets miss without
    touching the filesystem, puts and invalidations are dropped.
    Counters (``hits``/``misses``/``writes``/``corrupt``) are plain
    ints on the instance so callers can snapshot deltas even when the
    :mod:`~repro.utils.timing` recorder is disabled; when it is enabled
    the same events also flow into ``cache.*`` counters.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        enabled: bool | None = None,
        salt: str | None = None,
    ):
        self.root = Path(root) if root is not None else default_root()
        if enabled is None:
            enabled = (
                os.environ.get("REPRO_CACHE", "1").lower()
                not in _FALSE_WORDS
            )
        self.enabled = bool(enabled)
        if salt is None:
            salt = os.environ.get("REPRO_CACHE_SALT", f"v{CACHE_VERSION}")
        self.salt = salt
        self.store = FileStore(self.root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0
        #: per-layer session counters: ``layer -> {"hits": n, "misses":
        #: n, "writes": n}`` — same events as the aggregate ints above,
        #: attributed to the layer they touched
        self.layer_counters: dict[str, dict[str, int]] = {}

    # -- keys -------------------------------------------------------------

    def key(self, *parts) -> str:
        """sha256 hex over the salt and ``parts`` (order-sensitive,
        length-prefix framed so part boundaries cannot be confused)."""
        digest = hashlib.sha256()
        digest.update(self.salt.encode())
        for part in parts:
            data = part if isinstance(part, bytes) else str(part).encode()
            digest.update(b"\x00%d\x00" % len(data))
            digest.update(data)
        return digest.hexdigest()

    # -- access -----------------------------------------------------------

    def _layer_count(self, layer: str, event: str) -> None:
        counts = self.layer_counters.get(layer)
        if counts is None:
            counts = self.layer_counters[layer] = {
                "hits": 0, "misses": 0, "writes": 0
            }
        counts[event] += 1

    def get(self, layer: str, key: str):
        """The cached value, or ``None`` on a miss (corrupt entries are
        deleted by the store and surface here as misses)."""
        if not self.enabled:
            return None
        status, value = self.store.read(layer, key)
        if status == HIT:
            self.hits += 1
            self._layer_count(layer, "hits")
            if timing.ENABLED:
                timing.add("cache.hit")
                timing.add(f"cache.{layer}.hit")
            return value
        if status == CORRUPT:
            self.corrupt += 1
            if timing.ENABLED:
                timing.add("cache.corrupt")
        self.misses += 1
        self._layer_count(layer, "misses")
        if timing.ENABLED:
            timing.add("cache.miss")
            timing.add(f"cache.{layer}.miss")
        return None

    def put(self, layer: str, key: str, value) -> bool:
        """Atomically publish ``value``; False when the cache is off,
        the value does not pickle (e.g. a target carrying closures), or
        the filesystem refuses — a failed put is never fatal."""
        if not self.enabled:
            return False
        try:
            self.store.write(layer, key, value)
        except (pickle.PicklingError, TypeError, AttributeError, OSError):
            if timing.ENABLED:
                timing.add("cache.put_failed")
            return False
        self.writes += 1
        self._layer_count(layer, "writes")
        if timing.ENABLED:
            timing.add("cache.write")
            timing.add(f"cache.{layer}.write")
        return True

    def invalidate(self, layer: str, key: str) -> bool:
        if not self.enabled:
            return False
        return self.store.invalidate(layer, key)

    # -- introspection ----------------------------------------------------

    def counters(self) -> dict[str, int]:
        """This process's session counters (not the on-disk totals)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
        }

    def stats(self) -> dict:
        """JSON-ready snapshot: configuration, session counters (total
        and per layer) and a per-layer walk of what is on disk
        (``entries`` / ``bytes``)."""
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "salt": self.salt,
            "session": self.counters(),
            "session_layers": {
                layer: dict(counts)
                for layer, counts in sorted(self.layer_counters.items())
            },
            "layers": self.store.layer_stats(),
        }

    def clear(self) -> int:
        """Delete every artifact (works even when disabled — clearing a
        cache you are not using is still meaningful)."""
        return self.store.clear()


#: the process-wide instance (grid workers inherit it via fork)
_active: ArtifactCache | None = None


def get_cache() -> ArtifactCache:
    """The process-wide cache, created from the environment on first use."""
    global _active
    if _active is None:
        _active = ArtifactCache()
    return _active


def configure(
    root: str | Path | None = None,
    enabled: bool | None = None,
    salt: str | None = None,
) -> ArtifactCache:
    """Replace the process-wide cache (arguments beat the environment)."""
    global _active
    _active = ArtifactCache(root=root, enabled=enabled, salt=salt)
    return _active
