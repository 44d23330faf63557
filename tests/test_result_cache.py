"""Tests for the content-addressed result cache and grid sharding.

The cache contract: a unit's outcome is keyed by its inputs alone (exact
severity repr, dataset seed, full method spec, sample count/dims, version
tag), hits are byte-identical to recomputation, malformed entries are
misses rather than errors, and anything that could change the result
changes the key.  The sharding contract: the stable key-hash partition is
disjoint, complete, insensitive to grid extension, and an unsharded run
over the union of the shards' caches reproduces the unsharded record bit
for bit.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import replace

import pytest

from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.experiments import MethodSpec
from repro.experiments.cache import (
    CACHE_KIND,
    ResultCache,
    default_version_tag,
    unit_cache_key,
)
from repro.experiments.scenario_suite import (
    ScenarioSuiteConfig,
    compare_scenario_records,
    format_suite_summary,
    run_scenario_suite,
)
from repro.experiments.scheduler import (
    parse_shard,
    plan_units,
    run_cross_cell,
    serialize_method_result,
    shard_units,
    unit_shard,
)


@pytest.fixture(scope="module")
def fast_config():
    """A training configuration that fits in well under a second."""
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        regularizers=RegularizerConfig(
            alpha=1e-2, gamma1=1.0, gamma2=1e-2, gamma3=1e-2, max_pairs_per_layer=6
        ),
        training=TrainingConfig(
            iterations=10,
            learning_rate=1e-2,
            weight_update_every=5,
            weight_steps_per_iteration=1,
            evaluation_interval=10,
            early_stopping_patience=None,
            seed=0,
        ),
    )


def small_units(fast_config, **overrides):
    spec = MethodSpec(backbone="cfr", framework="vanilla", config=fast_config, seed=0)
    options = dict(
        scenario_severities={"overlap": (0.0, 1.0)},
        specs=[spec],
        replications=2,
        seed=11,
        num_samples=120,
        dims=(4, 4, 4, 2),
    )
    options.update(overrides)
    return plan_units(**options)


def suite_config(fast_config, **overrides) -> ScenarioSuiteConfig:
    spec = MethodSpec(backbone="cfr", framework="vanilla", config=fast_config, seed=0)
    options = dict(
        scenario_names=["overlap", "flip-noise"],
        severities=(0.0, 1.0),
        num_samples=120,
        replications=2,
        n_jobs=1,
        seed=11,
        methods=[spec],
    )
    options.update(overrides)
    return ScenarioSuiteConfig(**options)


class TestResultCacheStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        payload = {"result": {"x": 1.5}, "build_seconds": 0.25}
        path = cache.put("abc123", payload)
        assert os.path.exists(path)
        loaded = cache.get("abc123")
        assert loaded["result"] == {"x": 1.5}
        assert loaded["kind"] == CACHE_KIND
        assert os.listdir(str(tmp_path / "cache")) == ["abc123.json"]

    def test_missing_key_is_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("nope") is None

    @pytest.mark.parametrize(
        "content",
        [
            "{not json at all",                          # corrupt
            '{"result": {"x": 1}',                       # torn write
            '"a bare string"',                           # non-dict
            '{"kind": "something-else", "result": {}}',  # foreign kind
            "",                                          # empty file
        ],
    )
    def test_malformed_entries_are_misses(self, tmp_path, content):
        cache = ResultCache(str(tmp_path))
        with open(os.path.join(str(tmp_path), "bad.json"), "w", encoding="utf-8") as handle:
            handle.write(content)
        assert cache.get("bad") is None

    def test_put_leaves_no_temp_litter(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key", {"result": {}})
        assert sorted(os.listdir(str(tmp_path))) == ["key.json"]

    def test_overwrite_is_atomic_replacement(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("key", {"result": {"v": 1}})
        cache.put("key", {"result": {"v": 2}})
        assert cache.get("key")["result"] == {"v": 2}

    @pytest.mark.parametrize("key", ["", "a/b", "../escape", "a\x00b/.."])
    def test_path_escaping_keys_rejected(self, tmp_path, key):
        cache = ResultCache(str(tmp_path))
        with pytest.raises(ValueError, match="invalid cache key"):
            cache.get(key)


class TestUnitCacheKey:
    def test_severities_colliding_under_percent_g_get_distinct_keys(self, fast_config):
        # %g truncates both to "0.123457"; the cache key must not.
        close = small_units(
            fast_config,
            scenario_severities={"overlap": (0.12345678, 0.123456789)},
            replications=1,
        )
        assert f"{0.12345678:g}" == f"{0.123456789:g}"  # the historical collision
        assert unit_cache_key(close[0]) != unit_cache_key(close[1])

    def test_replication_index_is_excluded(self, fast_config):
        # The outcome depends on the replication only through its dataset
        # seed — regridding the replication axis must not invalidate entries.
        units = small_units(fast_config, replications=1)
        clone = replace(units[0], replication=units[0].replication + 5)
        assert unit_cache_key(clone) == unit_cache_key(units[0])
        reseeded = replace(units[0], replication_seed=units[0].replication_seed + 1)
        assert unit_cache_key(reseeded) != unit_cache_key(units[0])

    def test_dirty_inputs_change_the_key(self, fast_config):
        unit = small_units(fast_config, replications=1)[0]
        retrained = replace(
            fast_config, training=replace(fast_config.training, iterations=20)
        )
        dirty_spec = replace(unit.spec, config=retrained)
        assert unit_cache_key(replace(unit, spec=dirty_spec)) != unit_cache_key(unit)
        assert unit_cache_key(replace(unit, num_samples=121)) != unit_cache_key(unit)
        assert unit_cache_key(replace(unit, dims=(5, 4, 4, 2))) != unit_cache_key(unit)
        assert unit_cache_key(replace(unit, scenario="flip-noise")) != unit_cache_key(unit)

    def test_version_tag_invalidates_everything(self, fast_config):
        unit = small_units(fast_config, replications=1)[0]
        assert unit_cache_key(unit) == unit_cache_key(
            unit, version_tag=default_version_tag()
        )
        assert unit_cache_key(unit) != unit_cache_key(unit, version_tag="other+cache2")


class TestRunCrossCellCache:
    def test_warm_run_is_all_hits_and_byte_identical(self, fast_config, tmp_path):
        units = small_units(fast_config)
        cold = run_cross_cell(units, n_jobs=1, cache=ResultCache(str(tmp_path / "cache")))
        assert len(cold) == len(units)
        assert all(not outcome.from_cache for outcome in cold.values())

        warm = run_cross_cell(units, n_jobs=1, cache=ResultCache(str(tmp_path / "cache")))
        assert len(warm) == len(units)
        assert all(outcome.from_cache for outcome in warm.values())
        for key, outcome in warm.items():
            # Byte identity including the recorded wall-clock: a hit replays
            # the stored result, it does not re-measure anything.
            assert json.dumps(serialize_method_result(outcome.result)) == json.dumps(
                serialize_method_result(cold[key].result)
            )
            assert outcome.seconds_saved > 0.0

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param('{"kind": "scenario-result-cache", "result"', id="torn"),
            # The rest parse as entries of the right kind but fail to
            # deserialize, each with a different exception: KeyError,
            # TypeError, AttributeError, ValueError.
            pytest.param(
                '{"kind": "scenario-result-cache", "result": {"per_environment": {}}}',
                id="undecodable",
            ),
            pytest.param('{"kind": "scenario-result-cache", "result": null}', id="null-result"),
            pytest.param(
                '{"kind": "scenario-result-cache", "result": '
                '{"stability": {}, "per_environment": []}}',
                id="wrong-type",
            ),
            pytest.param(
                '{"kind": "scenario-result-cache", "result": {"per_environment": {}, '
                '"stability": {"mean": {}, "stability": {}, "std": {}, "per_environment": []}, '
                '"training_seconds": "n/a"}}',
                id="bad-number",
            ),
        ],
    )
    def test_corrupt_entry_recomputes_instead_of_crashing(
        self, fast_config, tmp_path, content
    ):
        units = small_units(fast_config, replications=1)
        cache_dir = str(tmp_path / "cache")
        run_cross_cell(units, n_jobs=1, cache=ResultCache(cache_dir))
        victim = units[0].cache_key
        with open(os.path.join(cache_dir, f"{victim}.json"), "w", encoding="utf-8") as handle:
            handle.write(content)
        outcomes = run_cross_cell(units, n_jobs=1, cache=ResultCache(cache_dir))
        assert outcomes[units[0].key].ok
        assert not outcomes[units[0].key].from_cache   # recomputed
        assert outcomes[units[1].key].from_cache       # still served
        # The recomputation repaired the entry in place.
        repaired = run_cross_cell(units, n_jobs=1, cache=ResultCache(cache_dir))
        assert all(outcome.from_cache for outcome in repaired.values())


class TestSharding:
    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard((1, 1)) == (1, 1)
        for bad in ("0/2", "3/2", "a/b", "2", "1/2/3", object()):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_partition_is_disjoint_and_complete(self, fast_config):
        units = small_units(fast_config)
        shards = [shard_units(units, (index, 3)) for index in (1, 2, 3)]
        keys = [unit.key for shard in shards for unit in shard]
        assert sorted(keys) == sorted(unit.key for unit in units)
        assert len(keys) == len(set(keys))
        assert shard_units(units, None) == list(units)

    def test_partition_is_stable_under_grid_extension(self, fast_config):
        # Appending a method must not reshuffle already-planned units: the
        # shard is a pure hash of the unit key, not its list position.
        units = small_units(fast_config)
        extra = MethodSpec(backbone="tarnet", framework="vanilla", config=fast_config, seed=0)
        extended = small_units(
            fast_config, specs=[units[0].spec, extra]
        )
        before = {unit.key: unit_shard(unit.key, 4) for unit in units}
        after = {unit.key: unit_shard(unit.key, 4) for unit in extended}
        for key, shard in before.items():
            assert after[key] == shard


def union_caches(target, *sources) -> str:
    """Copy every entry of the ``sources`` cache dirs into ``target``."""
    os.makedirs(str(target), exist_ok=True)
    for source in sources:
        for name in os.listdir(str(source)):
            shutil.copy(os.path.join(str(source), name), str(target))
    return str(target)


class TestShardMerge:
    """Shards write into per-host caches or one shared cache; an unsharded
    run over the union of their entries assembles the grid from cache hits."""

    @pytest.fixture(scope="class")
    def shard_tmp(self, tmp_path_factory):
        return tmp_path_factory.mktemp("shards")

    @pytest.fixture(scope="class")
    def shard_run(self, fast_config, shard_tmp):
        unsharded = run_scenario_suite(suite_config(fast_config))
        caches = []
        for index in (1, 2):
            cache_dir = str(shard_tmp / f"shard{index}")
            caches.append(cache_dir)
            # Shard 2 runs on the worker pool, which writes the same entries.
            record = run_scenario_suite(
                suite_config(fast_config, cache_dir=cache_dir, shard=(index, 2), n_jobs=index)
            )
            assert record["suite"]["shard"] == f"{index}/2"
            assert record["cache"]["misses"] == len(os.listdir(cache_dir))
        return unsharded, caches

    def test_merge_equals_unsharded_run(self, fast_config, shard_run, shard_tmp):
        unsharded, caches = shard_run
        for n_jobs in (1, 2):
            union = union_caches(shard_tmp / f"union-{n_jobs}", *caches)
            assembled = run_scenario_suite(
                suite_config(fast_config, cache_dir=union, n_jobs=n_jobs)
            )
            assert assembled["cache"]["hits"] == 8
            assert assembled["cache"]["misses"] == 0
            assert compare_scenario_records(unsharded, assembled) == []

    def test_shards_share_one_cache(self, fast_config, shard_run, shard_tmp):
        # Hosts on a shared filesystem write into one dir: shard 2 finds
        # shard 1's entries there, serves and counts none of them, and
        # computes only its own units.
        unsharded, caches = shard_run
        shared = union_caches(shard_tmp / "shared", caches[0])
        record = run_scenario_suite(
            suite_config(fast_config, cache_dir=shared, shard=(2, 2))
        )
        assert record["cache"]["hits"] == 0
        assert record["cache"]["misses"] == len(os.listdir(caches[1]))
        assert sorted(os.listdir(shared)) == sorted(os.listdir(caches[0]) + os.listdir(caches[1]))
        assembled = run_scenario_suite(suite_config(fast_config, cache_dir=shared))
        assert assembled["cache"]["hits"] == 8 and assembled["cache"]["misses"] == 0
        assert compare_scenario_records(unsharded, assembled) == []

    def test_missing_shard_is_computed(self, fast_config, shard_run, shard_tmp):
        # An assembly run computes what no shard cached, and says how much.
        unsharded, caches = shard_run
        union = union_caches(shard_tmp / "union-missing", caches[0])
        assembled = run_scenario_suite(suite_config(fast_config, cache_dir=union))
        assert assembled["cache"]["hits"] == len(os.listdir(caches[0]))
        assert assembled["cache"]["misses"] == len(os.listdir(caches[1]))
        assert compare_scenario_records(unsharded, assembled) == []

    def test_entries_of_another_grid_are_not_served(
        self, fast_config, shard_run, shard_tmp
    ):
        # A shard of a different grid (another seed, so other datasets) has
        # other keys: unioned in, it serves nothing to this grid.
        unsharded, caches = shard_run
        foreign = str(shard_tmp / "foreign")
        run_scenario_suite(
            suite_config(fast_config, seed=12, cache_dir=foreign, shard=(2, 2))
        )
        union = union_caches(shard_tmp / "union-foreign", caches[0], foreign)
        assembled = run_scenario_suite(suite_config(fast_config, cache_dir=union))
        assert assembled["cache"]["misses"] == len(os.listdir(caches[1]))
        assert compare_scenario_records(unsharded, assembled) == []

    def test_shard_without_cache_is_refused(self, fast_config):
        with pytest.raises(ValueError, match="needs a cache_dir"):
            run_scenario_suite(suite_config(fast_config, shard=(1, 2)))


class TestSuiteRecordBlocks:
    @pytest.fixture(scope="class")
    def cached_records(self, fast_config, tmp_path_factory):
        cache_dir = str(tmp_path_factory.mktemp("suite-cache") / "cache")
        config = suite_config(fast_config, cache_dir=cache_dir)
        cold = run_scenario_suite(config)
        warm = run_scenario_suite(config)
        return cold, warm

    def test_cache_block(self, cached_records):
        cold, warm = cached_records
        assert cold["cache"]["enabled"] and cold["cache"]["hits"] == 0
        assert cold["cache"]["misses"] == 8
        assert warm["cache"] == dict(
            warm["cache"],
            hits=8,
            misses=0,
            hit_rate=1.0,
        )
        assert warm["cache"]["seconds_saved"] > 0.0

    def test_stage_block(self, cached_records):
        cold, warm = cached_records
        for key in (
            "plan_seconds",
            "execute_seconds",
            "materialise_seconds",
            "fit_seconds",
            "evaluate_seconds",
            "aggregate_seconds",
        ):
            assert cold["stages"][key] >= 0.0
        assert cold["stages"]["fit_seconds"] > 0.0
        # The warm run executed nothing, so its per-unit stage sums are zero.
        assert warm["stages"]["fit_seconds"] == 0.0
        assert warm["stages"]["materialise_seconds"] == 0.0

    def test_serial_record_has_stage_clocks(self, fast_config):
        record = run_scenario_suite(suite_config(fast_config))
        assert record["cache"]["enabled"] is False
        assert isinstance(record["stages"]["fit_seconds"], float)
        assert record["stages"]["fit_seconds"] > 0.0
        assert record["stages"]["execute_seconds"] > 0.0

    def test_summary_formatting(self, cached_records):
        _, warm = cached_records
        summary = format_suite_summary(warm)
        assert "stages:" in summary and "cache:" in summary
        assert "8 hits / 0 misses (100% hit rate)" in summary
        assert format_suite_summary({"benchmark": "scenario-matrix"}) == ""
