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
* ``jit`` — the segment JIT's generated functions as marshalled code
  objects (:mod:`repro.sim.jit`), keyed on the interpreter's bytecode
  magic too, so a new process loads bytecode instead of re-translating
  semantics trees through warmup;
* ``timing`` — block-timing memo digests (:mod:`repro.sim.blockcache`).

Keys are sha256 over a code salt plus the artifact's inputs (Maril
source, C source, option fingerprints, upstream keys), so a changed
input or changed code is a clean miss — entries are immutable and never
updated in place.  The salt is a sha256 over this package's own
``*.py`` files (:func:`code_salt`): a change to the compiler, the JIT
or the pipeline model cannot be served products of the old code.
Publication is write-then-rename (:mod:`repro.cache.store`), safe for
concurrent processes sharing one cache directory; the grid workers open
the same store read-mostly.

Configuration is ambient: the default root is ``~/.cache/repro``,
overridden by ``REPRO_CACHE_DIR``; ``REPRO_CACHE=0`` disables the cache
entirely (every get misses, every put is dropped).  :func:`configure`
replaces the process-wide instance programmatically — the evaluation
harness points it at a fresh tmpdir for cold/warm comparisons.

Gets, misses and writes are counted on the ambient
:class:`~repro.obs.Trace` (``cache.hit``, ``cache.<layer>.miss``, ...).

This module must stay import-light (no imports from the ``repro``
package root) — ``repro/__init__`` itself depends on it.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
from pathlib import Path

from repro.cache.store import CORRUPT, HIT, FileStore
import repro.obs as obs

_FALSE_WORDS = ("0", "false", "off", "no")

#: the ``repro`` package directory, whose sources :func:`code_salt` hashes
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

__all__ = [
    "ArtifactCache",
    "code_salt",
    "configure",
    "default_root",
    "get_cache",
]


@functools.lru_cache(maxsize=None)
def code_salt(root: Path = PACKAGE_ROOT) -> str:
    """sha256 over every ``*.py`` file under ``root`` (relative path and
    contents, in sorted path order): the code half of every key.
    Memoized per ``root`` for the life of the process."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix().encode()
        digest.update(b"%d\x00%s\x00%d\x00" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


def default_root() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro"


class ArtifactCache:
    """Key derivation over a :class:`FileStore`.

    ``enabled=False`` makes the cache fully inert: gets miss without
    touching the filesystem, puts and invalidations are dropped, and
    the code salt is never computed.
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
            salt = code_salt() if self.enabled else ""
        self.salt = salt
        self.store = FileStore(self.root)

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

    def get(self, layer: str, key: str):
        """The cached value, or ``None`` on a miss (corrupt entries are
        deleted by the store and surface here as misses)."""
        if not self.enabled:
            return None
        status, value = self.store.read(layer, key)
        if status == HIT:
            obs.count("cache.hit")
            obs.count(f"cache.{layer}.hit")
            return value
        if status == CORRUPT:
            obs.count("cache.corrupt")
        obs.count("cache.miss")
        obs.count(f"cache.{layer}.miss")
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
            obs.count("cache.put_failed")
            return False
        obs.count("cache.write")
        obs.count(f"cache.{layer}.write")
        return True

    def invalidate(self, layer: str, key: str) -> bool:
        if not self.enabled:
            return False
        return self.store.invalidate(layer, key)

    # -- introspection ----------------------------------------------------

    def stats(self) -> dict:
        """JSON-ready snapshot: configuration and a per-layer walk of
        what is on disk (``entries`` / ``bytes``)."""
        return {
            "root": str(self.root),
            "enabled": self.enabled,
            "salt": self.salt,
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
