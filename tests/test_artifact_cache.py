"""The persistent artifact cache: disk round-trips for all four layers,
invalidation on changed inputs and changed code, corruption tolerance,
and the ``fresh=True`` / ``REPRO_CACHE=0`` escape hatches.

Every test runs against a private tmpdir cache and restores the
process-wide (disabled-for-tests) configuration afterwards.  CGG builds
and cache traffic are read off the ``cgg.builds`` and ``cache.*``
counters of a trace around the work.
"""

import shutil

import pytest

import repro
from repro.backend.asmprinter import format_program
from repro.cache import (
    PACKAGE_ROOT,
    ArtifactCache,
    code_salt,
    configure,
    get_cache,
)
from repro.sim import DirectMappedCache
from repro.sim.blockcache import BlockTimingCache
from repro.targets import clear_target_cache, load_target, maril_source

KERNEL = """
double bench(int loop, int n) {
    int l; int i; double q;
    q = 0.0;
    for (l = 0; l < loop; l++) {
        for (i = 0; i < n; i++) { q = q + 1.5 * 0.25; }
    }
    return q;
}
"""

OPTIONS = repro.CompileOptions(strategy="rase")


def counted(fn, *args):
    """``(fn(*args), counters)``: the counters a trace around the call
    recorded."""
    trace = repro.Trace("cache test")
    with repro.tracing(trace):
        value = fn(*args)
    return value, trace.counters


def builds(name: str) -> int:
    """CGG builds one ``load_target(name)`` causes."""
    return counted(load_target, name)[1].get("cgg.builds", 0)


@pytest.fixture
def store(tmp_path):
    """A live cache at a private tmpdir; teardown restores the suite's
    disabled default and drops in-process targets unpickled from it."""
    active = configure(root=tmp_path, enabled=True)
    clear_target_cache()
    yield active
    clear_target_cache()
    configure()


def _simulate(executable):
    return repro.simulate(
        executable,
        "bench",
        args=(3, 40),
        options=repro.SimOptions(cache=DirectMappedCache()),
    )


# -- layer 1: targets ------------------------------------------------------


def test_target_disk_round_trip(store):
    first = load_target("toyp")
    assert first.content_key
    clear_target_cache()
    second, counters = counted(load_target, "toyp")
    # a disk hit, not a rebuild — and not the same instance
    assert counters.get("cgg.builds", 0) == 0
    assert counters["cache.target.hit"] == 1
    assert second is not first
    assert second.content_key == first.content_key
    # the unpickled target compiles identically
    assert format_program(
        repro.compile_c(KERNEL, second, OPTIONS).machine_program
    ) == format_program(
        repro.compile_c(KERNEL, first, OPTIONS).machine_program
    )


def test_fresh_bypasses_and_invalidates_disk(store):
    load_target("toyp")
    assert store.store.layer_stats()["target"]["files"] == 1
    fresh, counters = counted(load_target, "toyp", True)
    # fresh built privately and deleted the disk entry
    assert counters["cgg.builds"] == 1
    assert store.store.layer_stats().get("target", {}).get("files", 0) == 0
    assert fresh.content_key is None
    # the next cold load must rebuild (both layers were bypassed)
    clear_target_cache()
    assert builds("toyp") == 1


# -- layer 2: executables --------------------------------------------------


def test_executable_disk_round_trip(store):
    target = load_target("r2000")
    first = repro.compile_c(KERNEL, target, OPTIONS)
    assert first.content_key
    second, counters = counted(repro.compile_c, KERNEL, target, OPTIONS)
    assert counters["cache.hit"] == 1
    assert counters.get("compile.compiled", 0) == 0
    assert second is not first
    assert second.content_key == first.content_key
    assert format_program(second.machine_program) == format_program(
        first.machine_program
    )
    run_first = _simulate(first)
    run_second = _simulate(second)
    assert run_second.cycles == run_first.cycles
    assert run_second.return_value == run_first.return_value


def test_options_and_source_changes_miss(store):
    target = load_target("r2000")
    repro.compile_c(KERNEL, target, OPTIONS)
    # changed options -> new key, full compile
    _, counters = counted(
        repro.compile_c, KERNEL, target, repro.CompileOptions(strategy="ips")
    )
    assert counters["cache.exe.write"] == 1
    # changed source -> new key, full compile
    _, counters = counted(repro.compile_c, KERNEL + "\n", target, OPTIONS)
    assert counters["cache.exe.write"] == 1
    # unchanged inputs -> pure hit, no new artifact
    _, counters = counted(repro.compile_c, KERNEL, target, OPTIONS)
    assert counters.get("cache.write", 0) == 0
    assert counters["cache.hit"] == 1


def test_salt_bump_is_clean_miss(tmp_path):
    try:
        configure(root=tmp_path, enabled=True, salt="v-old")
        clear_target_cache()
        load_target("m88000")
        configure(root=tmp_path, enabled=True, salt="v-new")
        clear_target_cache()
        assert builds("m88000") == 1
        # both salted entries coexist; neither clobbered the other
        assert get_cache().store.layer_stats()["target"]["files"] == 2
    finally:
        clear_target_cache()
        configure()


def _single_artifact(store, layer):
    files = [
        path
        for path in (store.root / layer).rglob("*.bin")
        if not path.name.startswith(".tmp-")
    ]
    assert len(files) == 1
    return files[0]


def test_corrupt_entry_is_clean_miss(store):
    load_target("toyp")
    path = _single_artifact(store, "target")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    clear_target_cache()
    _, counters = counted(load_target, "toyp")
    # detected, deleted, rebuilt and re-published
    assert counters["cache.corrupt"] == 1
    assert counters["cgg.builds"] == 1
    clear_target_cache()
    assert builds("toyp") == 0


def test_truncated_entry_is_clean_miss(store):
    target = load_target("r2000")
    repro.compile_c(KERNEL, target, OPTIONS)
    path = _single_artifact(store, "exe")
    path.write_bytes(path.read_bytes()[: 40])
    executable, counters = counted(repro.compile_c, KERNEL, target, OPTIONS)
    assert counters["cache.corrupt"] == 1
    assert counters["cache.miss"] == 1
    assert _simulate(executable).instructions > 0


# -- layers 3 + 4: JIT code and timing digests -----------------------------


def test_jit_and_timing_preload_round_trip(store):
    target = load_target("r2000")
    first = repro.compile_c(KERNEL, target, OPTIONS)
    reference = _simulate(first)
    # the run crossed the JIT warmup threshold and persisted its state
    assert first._segment_jit.compiled > 0
    layers = store.store.layer_stats()
    assert layers["jit"]["files"] == 1
    assert layers["timing"]["files"] == 1

    # "new process": no in-process target, so the target and then a
    # fresh executable object come straight off the disk
    clear_target_cache()
    second, counters = counted(
        lambda: repro.compile_c(KERNEL, load_target("r2000"), OPTIONS)
    )
    assert counters.get("cgg.builds", 0) == 0
    assert counters["cache.exe.hit"] == 1
    assert not hasattr(second, "_segment_jit")
    warm = _simulate(second)
    assert warm.cycles == reference.cycles
    assert warm.return_value == reference.return_value
    assert warm.instructions == reference.instructions
    assert warm.cache_hits == reference.cache_hits
    assert warm.cache_misses == reference.cache_misses
    # zero warmup work: functions rebuilt from their marshalled code
    # objects, no translation, no timing replays
    assert warm.jit_segments == 0
    assert warm.block_cache_misses == 0
    assert second._segment_jit.preloaded > 0
    assert second._segment_jit.compiled == 0


def test_timing_payload_with_tuple_keys_is_a_clean_miss(store):
    # a memo whose transitions are keyed by ``(entry id, miss mask)``
    # tuples is refused whole: the next process replays its timing as a
    # cold one does and reads identical cycles
    target = load_target("r2000")
    first = repro.compile_c(KERNEL, target, OPTIONS)
    reference = _simulate(first)
    assert reference.timing_digests > 0
    penalty = DirectMappedCache().miss_penalty
    key = store.key("timing", first.content_key, repr(penalty))
    payload = store.get("timing", key)
    payload["segments"] = {
        segment: {(k & 0xFFFFFFFF, k >> 32): r for k, r in table.items()}
        for segment, table in payload["segments"].items()
    }
    fresh = BlockTimingCache(target, first.instrs, penalty)
    assert not fresh.preload(payload)
    assert store.put("timing", key, payload)
    clear_target_cache()
    second = repro.compile_c(KERNEL, load_target("r2000"), OPTIONS)
    again = _simulate(second)
    assert again.cycles == reference.cycles
    assert again.return_value == reference.return_value
    assert again.timing_digests == reference.timing_digests
    assert again.block_cache_misses == reference.block_cache_misses


def test_jit_payload_of_another_interpreter_is_a_clean_miss(
    store, monkeypatch
):
    # marshalled code objects are only readable by the Python that wrote
    # them: the jit key carries the bytecode magic, so a payload written
    # under another magic is never read and the JIT translates afresh
    target = load_target("r2000")
    monkeypatch.setattr("repro.sim.simulator.MAGIC_NUMBER", b"\x00\x00\r\n")
    first = repro.compile_c(KERNEL, target, OPTIONS)
    reference = _simulate(first)
    assert first._segment_jit.compiled > 0
    assert store.store.layer_stats()["jit"]["files"] == 1
    monkeypatch.undo()
    second = repro.compile_c(KERNEL, target, OPTIONS)
    assert not hasattr(second, "_segment_jit")
    again = _simulate(second)
    assert second._segment_jit.compiled > 0
    assert second._segment_jit.preloaded == 0
    assert again.cycles == reference.cycles
    assert again.return_value == reference.return_value
    # the run under this interpreter's magic published its own payload
    assert store.store.layer_stats()["jit"]["files"] == 2


#: a branchy loop body (several segments) so a trace superblock can
#: form once the hot edge crosses its own warmup threshold
DIAMOND_KERNEL = """
double bench(int loop, int n) {
    int l; int i; double q;
    q = 0.0;
    for (l = 0; l < loop; l++) {
        for (i = 0; i < n; i++) {
            if (i & 1) q = q + 1.5;
            else q = q - 0.5;
        }
    }
    return q;
}
"""


def _simulate_sb(executable, args):
    return repro.simulate(
        executable,
        "bench",
        args=args,
        options=repro.SimOptions(cache=DirectMappedCache()),
    )


def test_promoting_preloaded_segment_keeps_counters_disjoint(store):
    # cold process: enough iterations to compile segments, too few for
    # the edge profile to trigger trace promotion
    target = load_target("r2000")
    first = repro.compile_c(DIAMOND_KERNEL, target, OPTIONS)
    _simulate_sb(first, (2, 20))
    assert first._segment_jit.compiled > 0
    assert first._segment_jit.superblocks == 0

    # warm process: segments preload from disk, then a long run promotes
    # one of those *preloaded* segments into a superblock — the
    # preloaded/compiled split must not move (promotion is neither a
    # preload nor a fresh segment translation)
    second = repro.compile_c(DIAMOND_KERNEL, target, OPTIONS)
    reference = _simulate_sb(second, (3, 400))
    jit = second._segment_jit
    preloaded = jit.preloaded
    assert preloaded > 0
    assert jit.compiled == 0
    assert jit.superblocks > 0
    assert jit.sb_preloaded == 0  # promoted here, not preloaded as a trace
    assert jit.preloaded == preloaded

    # and the promoted-trace state round-trips: a third "process"
    # preloads the trace itself (sb_preloaded), again without touching
    # compiled
    third = repro.compile_c(DIAMOND_KERNEL, target, OPTIONS)
    warm = _simulate_sb(third, (3, 400))
    assert warm.cycles == reference.cycles
    assert warm.return_value == reference.return_value
    assert third._segment_jit.sb_preloaded > 0
    assert third._segment_jit.superblocks == 0
    assert third._segment_jit.compiled == 0


# -- configuration ---------------------------------------------------------


def test_repro_cache_zero_disables(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    try:
        store = configure()  # re-read the environment
        assert not store.enabled
        assert store.root == tmp_path
        assert store.salt == ""  # the code salt is never computed
        clear_target_cache()
        _, counters = counted(repro.compile_c, KERNEL, "toyp", OPTIONS)
        assert not any(name.startswith("cache.") for name in counters)
        assert not any(tmp_path.iterdir())
    finally:
        clear_target_cache()
        monkeypatch.undo()
        configure()


def test_store_survives_unpicklable_values(tmp_path):
    store = ArtifactCache(root=tmp_path, enabled=True)
    key = store.key("x")
    # a closure does not pickle
    written, counters = counted(store.put, "target", key, lambda: None)
    assert not written
    assert counters == {"cache.put_failed": 1}
    assert store.get("target", key) is None


def test_salt_is_derived_from_the_package_sources(tmp_path, monkeypatch):
    copy = tmp_path / "repro"
    shutil.copytree(
        PACKAGE_ROOT, copy, ignore=shutil.ignore_patterns("__pycache__")
    )
    assert code_salt(copy) == code_salt(PACKAGE_ROOT)
    # no environment variable overrides the code salt
    monkeypatch.setenv("REPRO_CACHE_SALT", "stale")
    assert ArtifactCache(root=tmp_path, enabled=True).salt == code_salt()
    # one changed byte in one source file changes the salt
    edited = tmp_path / "edited"
    shutil.copytree(copy, edited)
    source = edited / "sim" / "pipeline.py"
    data = bytearray(source.read_bytes())
    data[-1] ^= 1
    source.write_bytes(bytes(data))
    assert code_salt(edited) != code_salt(copy)


def test_key_parts_are_framed(tmp_path):
    store = ArtifactCache(root=tmp_path, enabled=True, salt="s")
    assert store.key("ab", "c") != store.key("a", "bc")
    assert store.key("a") != store.key("a", "")


def test_atomic_publication_leaves_no_temp_files(store):
    target = load_target("i860")
    repro.compile_c(KERNEL, target, OPTIONS)
    leftovers = [
        path
        for path in store.root.rglob("*")
        if path.is_file() and path.name.startswith(".tmp-")
    ]
    assert leftovers == []


def test_target_key_depends_on_maril_source(store):
    # the key derivation really consumes the source text
    assert store.key(
        "target", "toyp", maril_source("toyp")
    ) != store.key("target", "toyp", maril_source("toyp") + " ")
