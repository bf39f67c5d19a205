"""Tests for the on-disk artifact store and the campaign executors.

Three property families the persistence layer must guarantee:

1. **Round-trip identity** — ``Scenario → hash → store → record`` is
   lossless: a result read back from disk (by a fresh store instance,
   as another process would) equals the simulated one bit-for-bit.
2. **Cache-hit monotonicity** — across any sequence of campaigns sharing
   one store, each distinct scenario is simulated exactly once, ever.
3. **Executor equivalence** — the thread and process executors produce
   records equal to the serial executor on the same grid, in the same
   order (checked on the fig10 grid per the paper's evaluation).
"""

import itertools
import json
import sqlite3
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accelerator.metrics import AreaBreakdown, EnergyBreakdown, SimulationResult
from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    ExecutionPolicy,
    ResultCache,
    Scenario,
    ScenarioRecord,
    available_designs,
    expand_grid,
    run_campaign,
    run_scenario,
    run_spec,
    scenario_key,
)
from repro.experiments.store import SCHEMA_VERSION
from repro.schemes import available_schemes
from repro.transformer.model_zoo import PAPER_MODELS

KB = 1024
MB = 1024 * 1024

_CASES = itertools.count()

scenarios_st = st.builds(
    Scenario,
    model=st.sampled_from(["bert-base", "bert-large", "roberta-large", "deberta-xl"]),
    task=st.sampled_from(["mnli", "stsb", "squad"]),
    sequence_length=st.sampled_from([None, 64, 128, 384]),
    batch_size=st.integers(min_value=1, max_value=4),
    scheme=st.sampled_from((None,) + available_schemes()),
    design=st.sampled_from(available_designs()),
    buffer_bytes=st.sampled_from([256 * KB, 512 * KB, 1 * MB, 4 * MB]),
)


class TestScenarioKey:
    def test_stable_and_distinct(self):
        a = Scenario(model="bert-base")
        b = Scenario(model="bert-base")
        c = Scenario(model="bert-large")
        assert scenario_key(a) == scenario_key(b)
        assert scenario_key(a) != scenario_key(c)

    def test_schema_version_changes_key(self):
        scenario = Scenario()
        assert scenario_key(scenario) != scenario_key(scenario, schema_version=SCHEMA_VERSION + 1)

    @given(scenario=scenarios_st)
    @settings(max_examples=50, deadline=None)
    def test_key_is_deterministic_function_of_fields(self, scenario):
        assert scenario_key(scenario) == scenario_key(Scenario.from_dict(scenario.to_dict()))


class TestSerializationRoundTrip:
    @given(scenario=scenarios_st)
    @settings(max_examples=50, deadline=None)
    def test_scenario_round_trips(self, scenario):
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_scenario_from_dict_ignores_unknown_fields(self):
        data = Scenario(model="bert-large").to_dict()
        data["added_in_schema_9"] = "whatever"
        assert Scenario.from_dict(data) == Scenario(model="bert-large")

    def test_simulation_result_round_trips(self):
        result = run_scenario(Scenario())
        rebuilt = SimulationResult.from_dict(result.to_dict())
        assert rebuilt == result
        # JSON canonical forms agree too (what the store actually writes).
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            result.to_dict(), sort_keys=True
        )

    def test_simulation_result_tolerates_unknown_fields(self):
        data = run_scenario(Scenario()).to_dict()
        data["new_top_level_metric"] = 1.0
        data["energy"]["new_component"] = 2.0
        data["area"]["new_component"] = 3.0
        rebuilt = SimulationResult.from_dict(data)
        assert rebuilt.energy == EnergyBreakdown.from_dict(data["energy"])
        assert rebuilt.area == AreaBreakdown.from_dict(data["area"])

    def test_scenario_record_round_trips(self):
        scenario = Scenario(design="gobo")
        record = ScenarioRecord(scenario=scenario, result=run_scenario(scenario), cached=True)
        rebuilt = ScenarioRecord.from_dict(record.to_dict())
        assert rebuilt.scenario == record.scenario
        assert rebuilt.result == record.result
        assert rebuilt.cached is True

    def test_scenario_record_from_dict_ignores_unknown_fields(self):
        scenario = Scenario()
        record = ScenarioRecord(scenario=scenario, result=run_scenario(scenario))
        data = record.to_dict()
        data["annotations"] = {"reviewer": "future schema"}
        rebuilt = ScenarioRecord.from_dict(data)
        assert rebuilt.scenario == scenario


class TestArtifactStore:
    def test_put_get_round_trip_across_instances(self, tmp_path):
        scenario = Scenario(design="mokey", buffer_bytes=256 * KB)
        result = run_scenario(scenario)
        store = ArtifactStore(tmp_path / "store")
        assert store.get(scenario) is None
        assert store.put(scenario, result) is True
        assert store.put(scenario, result) is False  # content-addressed: no dup
        # A fresh instance (≈ another process) reads the identical result.
        reloaded = ArtifactStore(tmp_path / "store").get(scenario)
        assert reloaded == result
        assert scenario in ArtifactStore(tmp_path / "store")

    @given(scenario=scenarios_st)
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_scenario_round_trips_through_disk(self, tmp_path, scenario):
        result = run_scenario(scenario)
        root = tmp_path / scenario_key(scenario)
        ArtifactStore(root).put(scenario, result)
        assert ArtifactStore(root).get(scenario) == result

    def test_unreadable_lines_are_skipped_not_fatal(self, tmp_path):
        # A directory holding a JSONL log is imported on open; lines this
        # code cannot read are counted as skipped, never fatal.
        scenario = Scenario()
        good = {
            "schema_version": SCHEMA_VERSION,
            "key": scenario_key(scenario),
            "scenario": scenario.to_dict(),
            "result": run_scenario(scenario).to_dict(),
        }
        (tmp_path / "records.jsonl").write_text(
            json.dumps(good) + "\n"
            + "not json at all\n"
            + json.dumps({"schema_version": SCHEMA_VERSION + 7, "key": "x"}) + "\n"
            + json.dumps({"schema_version": SCHEMA_VERSION, "key": "y"}) + "\n",
            encoding="utf-8",
        )
        reopened = ArtifactStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.skipped == 3
        assert reopened.keys() == [scenario_key(scenario)]
        assert reopened.get(scenario) == run_scenario(scenario)
        # The newer-schema line is kept as a row of its own version.
        assert ArtifactStore(tmp_path).skipped == 1

    def test_records_with_extra_fields_still_load(self, tmp_path):
        scenario = Scenario()
        record = {
            "schema_version": SCHEMA_VERSION,
            "key": scenario_key(scenario),
            "scenario": dict(scenario.to_dict(), future_axis=42),
            "result": dict(run_scenario(scenario).to_dict(), future_metric=1.5),
        }
        (tmp_path / "records.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert ArtifactStore(tmp_path).get(scenario) == run_scenario(scenario)

    def test_clear_removes_everything(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenario = Scenario()
        store.put(scenario, run_scenario(scenario))
        assert store.clear() == 1
        assert len(store) == 0
        assert store.keys() == []
        assert store.get(scenario) is None
        assert len(ArtifactStore(tmp_path)) == 0

    def test_clear_then_external_writes_report_fresh_state(self, tmp_path):
        """Bug lock: clear() must not pin pre-clear state in this instance.

        Records written after the clear by another instance (≈ another
        process), and their skipped count, must be visible here — and
        corrupt rows this instance discovered before the clear must not
        keep counting.
        """
        store = ArtifactStore(tmp_path)
        scenario = Scenario()
        store.put(scenario, run_scenario(scenario))
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "INSERT INTO records (key, schema_version, scenario, result) "
                "VALUES ('corrupt', ?, 'not json', 'not json')",
                (SCHEMA_VERSION,),
            )
        assert len(list(store.records())) == 1  # discovers the corrupt row
        assert store.skipped == 1
        store.clear()
        # Another process writes a record (and an old-schema row) after the clear.
        ArtifactStore(tmp_path).put(scenario, run_scenario(scenario))
        with sqlite3.connect(str(store.path)) as conn:
            conn.execute(
                "INSERT INTO records (key, schema_version, scenario, result) "
                "VALUES ('stale', ?, '{}', '{}')",
                (SCHEMA_VERSION + 1,),
            )
        assert len(store) == 1
        assert store.skipped == 1
        assert store.get(scenario) is not None

    def test_records_streams_lazily(self, tmp_path):
        """records() must be a lazy generator, not a full copy."""
        import types

        store = ArtifactStore(tmp_path)
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(4)]
        for scenario in scenarios:
            store.put(scenario, run_scenario(scenario))
        stream = store.records()
        assert isinstance(stream, types.GeneratorType)
        first = next(stream)
        assert first.scenario == scenarios[0]
        # Interleaved writes while a consumer holds the generator are safe
        # (records put after the scan started don't appear).
        late = Scenario(buffer_bytes=9 * 64 * KB)
        store.put(late, run_scenario(late))
        rest = [entry.scenario for entry in stream]
        assert rest == scenarios[1:]

    def test_records_generator_survives_concurrent_clear(self, tmp_path):
        store = ArtifactStore(tmp_path)
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(3)]
        for scenario in scenarios:
            store.put(scenario, run_scenario(scenario))
        stream = store.records()
        next(stream)
        store.clear()
        assert list(stream) == []  # ends cleanly instead of yielding stale entries


class TestStoreBackedCache:
    def test_store_hits_resolve_without_simulation(self, tmp_path):
        grid = expand_grid(designs=("mokey", "tensor-cores"), buffer_bytes=(256 * KB, 1 * MB))
        first = run_campaign(grid, cache=ResultCache(store=ArtifactStore(tmp_path)))
        assert first.simulated_count == len(grid)

        # Fresh cache + fresh store instance: everything comes from disk.
        cache = ResultCache(store=ArtifactStore(tmp_path))
        second = run_campaign(grid, cache=cache)
        assert second.simulated_count == 0
        assert cache.store_hits == len(grid)
        assert all(record.cached for record in second)
        for a, b in zip(first, second):
            assert a.result == b.result

    def test_clear_keeps_backing_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = ResultCache(store=store)
        run_campaign([Scenario()], cache=cache)
        cache.clear()
        assert len(cache) == 0
        assert len(store) == 1  # disk state is managed separately

    @given(subsets=st.lists(st.lists(st.integers(min_value=0, max_value=7), max_size=12), max_size=6))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_cache_hit_monotonicity(self, tmp_path, subsets):
        """Across any campaign sequence, each scenario simulates at most once."""
        pool = expand_grid(
            models=("bert-base", "bert-large"),
            designs=("mokey", "tensor-cores"),
            buffer_bytes=(256 * KB, 1 * MB),
        )
        assert len(pool) == 8
        # tmp_path is shared across hypothesis examples; each example needs
        # a virgin store or earlier examples' records leak in as hits.
        cache = ResultCache(store=ArtifactStore(tmp_path / f"case-{next(_CASES)}"))
        ever_seen = set()
        total_simulated = 0
        previous_hits = 0
        for subset in subsets:
            scenarios = [pool[i] for i in subset]
            campaign = run_campaign(scenarios, cache=cache)
            total_simulated += campaign.simulated_count
            newly_seen = {s for s in scenarios if s not in ever_seen}
            assert campaign.simulated_count == len(newly_seen)
            ever_seen |= newly_seen
            assert cache.hits >= previous_hits  # hits only ever accumulate
            previous_hits = cache.hits
        assert total_simulated == len(ever_seen)


def fig10_grid():
    """The fig10 evaluation grid: Table I workloads × (TC, Mokey) × buffer sweep."""
    return expand_grid(
        workloads=[(m, t, s) for (m, t, s, _head) in PAPER_MODELS],
        designs=("tensor-cores", "mokey"),
        buffer_bytes=(256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB),
    )


def fig10_spec(executor, **execution):
    """fig10_grid() as a campaign spec on the given executor."""
    return CampaignSpec(
        axes=AxisGrid(
            workloads=tuple((m, t, s) for (m, t, s, _head) in PAPER_MODELS),
            designs=("tensor-cores", "mokey"),
            buffer_bytes=(256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB),
        ),
        execution=ExecutionPolicy(executor=executor, **execution),
    )


class TestExecutorEquivalence:
    @pytest.fixture(scope="class")
    def serial_records(self):
        return list(run_spec(fig10_spec("serial")))

    def test_spec_expands_to_the_fig10_grid(self):
        assert fig10_spec("serial").scenarios() == fig10_grid()

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_serial_bit_for_bit(self, serial_records, executor):
        parallel = list(run_spec(fig10_spec(executor, max_workers=4)))
        assert len(parallel) == len(serial_records) == 80
        for expected, measured in zip(serial_records, parallel):
            assert measured.scenario == expected.scenario  # same deterministic order
            assert measured.result == expected.result
            assert json.dumps(measured.result.to_dict(), sort_keys=True) == json.dumps(
                expected.result.to_dict(), sort_keys=True
            )

    def test_process_executor_chunked_dispatch(self):
        # The first fig10 workload: fig10_grid()[:10].
        axes = replace(fig10_spec("serial").axes, workloads=(PAPER_MODELS[0][:3],))
        chunked = run_spec(
            CampaignSpec(
                axes=axes,
                execution=ExecutionPolicy(executor="process", max_workers=2, chunksize=3),
            )
        )
        serial = run_spec(CampaignSpec(axes=axes, execution=ExecutionPolicy(executor="serial")))
        assert [r.scenario for r in serial] == fig10_grid()[:10]
        for a, b in zip(chunked, serial):
            assert a.result == b.result

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_spec(CampaignSpec(execution=ExecutionPolicy(executor="rayon")))
