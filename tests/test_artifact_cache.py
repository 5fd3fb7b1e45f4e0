"""The persistent artifact cache: disk round-trips for all four layers,
invalidation on changed inputs, corruption tolerance, and the
``fresh=True`` / ``REPRO_CACHE=0`` escape hatches.

Every test runs against a private tmpdir cache and restores the
process-wide (disabled-for-tests) configuration afterwards.
"""

import pytest

import repro
from repro.backend.asmprinter import format_program
from repro.cache import ArtifactCache, configure, get_cache
from repro.sim import DirectMappedCache
from repro.targets import (
    clear_target_cache,
    load_target,
    maril_source,
    target_build_count,
)

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
    builds = target_build_count("toyp")
    assert first.content_key
    clear_target_cache()
    second = load_target("toyp")
    # a disk hit, not a rebuild — and not the same instance
    assert target_build_count("toyp") == builds
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
    builds = target_build_count("toyp")
    fresh = load_target("toyp", fresh=True)
    # fresh built privately and deleted the disk entry
    assert target_build_count("toyp") == builds + 1
    assert store.store.layer_stats().get("target", {}).get("files", 0) == 0
    assert fresh.content_key is None
    # the next cold load must rebuild (both layers were bypassed)
    clear_target_cache()
    load_target("toyp")
    assert target_build_count("toyp") == builds + 2


# -- layer 2: executables --------------------------------------------------


def test_executable_disk_round_trip(store):
    target = load_target("r2000")
    first = repro.compile_c(KERNEL, target, OPTIONS)
    assert first.content_key
    hits_before = store.hits
    second = repro.compile_c(KERNEL, target, OPTIONS)
    assert store.hits == hits_before + 1
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
    writes = store.writes
    # changed options -> new key, full compile
    repro.compile_c(KERNEL, target, repro.CompileOptions(strategy="ips"))
    assert store.writes == writes + 1
    # changed source -> new key, full compile
    repro.compile_c(KERNEL + "\n", target, OPTIONS)
    assert store.writes == writes + 2
    # unchanged inputs -> pure hit, no new artifact
    hits = store.hits
    repro.compile_c(KERNEL, target, OPTIONS)
    assert store.writes == writes + 2
    assert store.hits == hits + 1


def test_salt_bump_is_clean_miss(tmp_path):
    try:
        configure(root=tmp_path, enabled=True, salt="v-old")
        clear_target_cache()
        load_target("m88000")
        builds = target_build_count("m88000")
        configure(root=tmp_path, enabled=True, salt="v-new")
        clear_target_cache()
        load_target("m88000")
        assert target_build_count("m88000") == builds + 1
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
    builds = target_build_count("toyp")
    path = _single_artifact(store, "target")
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF
    path.write_bytes(bytes(blob))
    clear_target_cache()
    load_target("toyp")
    # detected, deleted, rebuilt and re-published
    assert store.corrupt == 1
    assert target_build_count("toyp") == builds + 1
    clear_target_cache()
    load_target("toyp")
    assert target_build_count("toyp") == builds + 1


def test_truncated_entry_is_clean_miss(store):
    target = load_target("r2000")
    repro.compile_c(KERNEL, target, OPTIONS)
    path = _single_artifact(store, "exe")
    path.write_bytes(path.read_bytes()[: 40])
    misses = store.misses
    executable = repro.compile_c(KERNEL, target, OPTIONS)
    assert store.corrupt == 1
    assert store.misses == misses + 1
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
    builds = target_build_count("r2000")
    exe_hits = store.layer_counters["exe"]["hits"]
    second = repro.compile_c(KERNEL, load_target("r2000"), OPTIONS)
    assert target_build_count("r2000") == builds
    assert store.layer_counters["exe"]["hits"] == exe_hits + 1
    assert not hasattr(second, "_segment_jit")
    warm = _simulate(second)
    assert warm.cycles == reference.cycles
    assert warm.return_value == reference.return_value
    assert warm.instructions == reference.instructions
    assert warm.cache_hits == reference.cache_hits
    assert warm.cache_misses == reference.cache_misses
    # zero warmup work: segments re-compile()d from cached source, no
    # translation, no timing replays
    assert warm.jit_segments == 0
    assert warm.block_cache_misses == 0
    assert second._segment_jit.preloaded > 0
    assert second._segment_jit.compiled == 0


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
        clear_target_cache()
        load_target("toyp")
        repro.compile_c(KERNEL, "toyp", OPTIONS)
        assert store.counters() == {
            "hits": 0, "misses": 0, "writes": 0, "corrupt": 0,
        }
        assert not any(tmp_path.iterdir())
    finally:
        clear_target_cache()
        monkeypatch.undo()
        configure()


def test_store_survives_unpicklable_values(tmp_path):
    store = ArtifactCache(root=tmp_path, enabled=True)
    key = store.key("x")
    assert not store.put("target", key, lambda: None)  # closure
    assert store.get("target", key) is None
    assert store.writes == 0


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
