"""Store conformance, JSONL interchange and concurrency battery.

:class:`~repro.experiments.store.ArtifactStore` is the one store engine
(indexed, WAL-mode SQLite), so this module tests it four ways:

1. **Conformance** — the full contract: round-trip, upgrade /
   last-write-wins, corrupt-input skip counting, ``clear``, insertion
   order and query semantics.  Hypothesis drives put sequences against a
   plain dict model (put return values, key order, record digests), and
   every query shape is checked against a brute-force recount over
   ``records()``.
2. **JSONL interchange** — ``export_jsonl``/``import_jsonl`` keep the
   log format byte for byte; torn, corrupt and wrong-schema lines are
   counted as skipped; a directory holding only a JSONL log is imported
   once on open.
3. **Concurrency** — threads and a ``ProcessPoolExecutor`` hammer one
   store with interleaved puts/upgrades (final state must equal the
   serial oracle), and a killed spec campaign resumes bit-identically.
4. **Pushdown at scale** — a 10k-record grid answers filtered / grouped
   / top-k queries without deserializing the record set (asserted by
   counting rebuilds).
"""

import hashlib
import itertools
import json
import multiprocessing
import random
import sqlite3
import sys
import threading
import time
import types
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accelerator.metrics import AreaBreakdown, EnergyBreakdown, SimulationResult
from repro.cli import main
from repro.experiments import (
    ArtifactStore,
    AxisGrid,
    CampaignSpec,
    ExecutionPolicy,
    FidelityResult,
    MeasuredStats,
    Scenario,
    SqliteStoreBackend,
    StoreEntry,
    export_jsonl,
    import_jsonl,
    iter_campaign,
    open_store,
    run_spec,
    scenario_key,
    store_digest,
)
from repro.experiments import store as store_module
from repro.experiments import store_sqlite as store_sqlite_module
from repro.experiments.store import SCHEMA_VERSION, parse_filter, read_jsonl

KB = 1024

_CASES = itertools.count()


# --------------------------------------------------------------------------- #
# Deterministic fabrication: entries derived purely from the scenario, so
# every process/thread agrees on the payload without simulating.
# --------------------------------------------------------------------------- #


def fake_result(scenario: Scenario, variant: int = 0) -> SimulationResult:
    base = float(
        scenario.buffer_bytes % 977
        + scenario.batch_size * 13
        + len(scenario.model) * 7
        + variant * 1000
    )
    compute = base + 100.0
    memory = base * 2.0 + 50.0
    return SimulationResult(
        design_name=scenario.design,
        workload_name=f"{scenario.model}/{scenario.task}",
        buffer_bytes=scenario.buffer_bytes,
        compute_cycles=compute,
        memory_cycles=memory,
        total_cycles=max(compute, memory) + 10.0,
        traffic_bytes=base * 3.0,
        energy=EnergyBreakdown(dram=base * 0.1, sram=base * 0.01, compute=base * 0.001),
        area=AreaBreakdown(compute=12.5, buffer=base * 0.002),
    )


def fake_fidelity(scenario: Scenario) -> FidelityResult:
    return FidelityResult(
        scheme=scenario.scheme or scenario.design,
        metric="accuracy",
        fp_score=0.9,
        weight_only_score=0.89,
        weight_activation_score=0.88,
        settings_digest="fake",
    )


def fake_measured(scenario: Scenario) -> MeasuredStats:
    return MeasuredStats(
        model=scenario.model,
        sequence_length=scenario.sequence_length or 128,
        batch_size=scenario.batch_size,
        gaussian_pairs=1000 + scenario.batch_size,
        outlier_pairs=10,
        settings_digest="fake",
    )


def entry_digest(entry) -> str:
    payload = {
        "scenario": entry.scenario.to_dict(),
        "result": entry.result.to_dict(),
        "fidelity": None if entry.fidelity is None else entry.fidelity.to_dict(),
        "measured": None if entry.measured is None else entry.measured.to_dict(),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def store_digests(store: ArtifactStore) -> dict:
    """key → record digest, the bit-identity currency of these tests."""
    return {
        scenario_key(entry.scenario): entry_digest(entry) for entry in store.records()
    }


def corpus_scenarios():
    """A small mixed corpus: several axes vary, scheme includes None."""
    scenarios = []
    for model in ("m-alpha", "m-beta"):
        for design in ("d-one", "d-two"):
            for scheme in (None, "s-x"):
                for buffer_bytes in (256 * KB, 512 * KB, 1024 * KB):
                    scenarios.append(
                        Scenario(
                            model=model,
                            task="t",
                            batch_size=len(model) % 3 + 1,
                            scheme=scheme,
                            design=design,
                            buffer_bytes=buffer_bytes,
                        )
                    )
    return scenarios


def inject_corrupt(store: ArtifactStore, n_bad_payload: int, n_wrong_version: int) -> None:
    """Unreadable payload rows + future-schema rows, written behind the store."""
    conn = sqlite3.connect(str(store.path))
    with conn:
        for i in range(n_bad_payload):
            conn.execute(
                "INSERT INTO records (key, schema_version, scenario, result) "
                "VALUES (?, ?, ?, ?)",
                (f"bad-payload-{i}", SCHEMA_VERSION, "not json", "not json"),
            )
        for i in range(n_wrong_version):
            scenario = Scenario(model=f"future-{i}")
            conn.execute(
                "INSERT INTO records (key, schema_version, scenario, result) "
                "VALUES (?, ?, ?, ?)",
                (
                    scenario_key(scenario, SCHEMA_VERSION + 1),
                    SCHEMA_VERSION + 1,
                    json.dumps(scenario.to_dict()),
                    json.dumps(fake_result(scenario).to_dict()),
                ),
            )
    conn.close()
    store.refresh()


@pytest.fixture
def make_store(tmp_path):
    def factory(name="store"):
        return open_store(tmp_path / name)

    return factory


# --------------------------------------------------------------------------- #
# A brute-force recount of query semantics over records(): the expected
# rows of every query shape, computed in plain Python.
# --------------------------------------------------------------------------- #


def field_value(entry: StoreEntry, name: str):
    scenario, result = entry.scenario, entry.result
    if name == "effective_scheme":
        return scenario.scheme if scenario.scheme is not None else result.design_name
    if name == "energy_joules":
        return result.energy.dram + result.energy.sram + result.energy.compute
    if name == "area_mm2":
        return result.area.compute + result.area.buffer
    if hasattr(scenario, name):
        return getattr(scenario, name)
    return float(getattr(result, name))


def passes(value, op: str, wanted) -> bool:
    if wanted is None:
        return (value is None) == (op == "==")
    if value is None:  # SQL: NULL never satisfies a concrete comparison
        return False
    return {
        "==": value == wanted,
        "!=": value != wanted,
        "<": value < wanted,
        "<=": value <= wanted,
        ">": value > wanted,
        ">=": value >= wanted,
    }[op]


def split_order(order_by):
    """``(field, descending)`` for the four order spellings."""
    descending = order_by.startswith(("-", "~")) or order_by.endswith(":desc")
    name = order_by.lstrip("-~")
    for suffix in (":desc", ":asc"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name, descending


def nulls_first(value):
    return (value is not None, value)


def recount(store: ArtifactStore, filters=(), group_by=None, order_by=None, limit=None):
    parsed = [parse_filter(f) if isinstance(f, str) else f for f in filters]
    matching = [
        e for e in store.records()
        if all(passes(field_value(e, name), op, wanted) for name, op, wanted in parsed)
    ]
    if group_by is None:
        if order_by is not None:
            name, descending = split_order(order_by)
            matching.sort(key=lambda e: nulls_first(field_value(e, name)), reverse=descending)
        return matching[:limit]
    fields = (group_by,) if isinstance(group_by, str) else tuple(group_by)
    groups = {}
    for entry in matching:
        groups.setdefault(tuple(field_value(entry, f) for f in fields), []).append(entry)
    rows = []
    for key in sorted(groups, key=lambda k: tuple(nulls_first(v) for v in k)):
        members = groups[key]
        row = dict(zip(fields, key))
        row["count"] = len(members)
        row["with_fidelity"] = sum(e.fidelity is not None for e in members)
        row["with_measured"] = sum(e.measured is not None for e in members)
        for metric in ("total_cycles", "energy_joules"):
            values = [field_value(e, metric) for e in members]
            row[f"min_{metric}"] = min(values)
            row[f"mean_{metric}"] = sum(values) / len(values)
        rows.append(row)
    if order_by is not None:
        name, descending = split_order(order_by)
        rows.sort(key=lambda r: nulls_first(r[name]), reverse=descending)
    return rows[:limit]


def assert_rows_equal(actual, expected):
    assert len(actual) == len(expected)
    for row_a, row_e in zip(actual, expected):
        assert set(row_a) == set(row_e)
        for column, value in row_e.items():
            if column.startswith("mean_"):
                # SQLite's AVG may accumulate in a different order.
                assert row_a[column] == pytest.approx(value, rel=1e-12)
            else:
                assert row_a[column] == value, column


# --------------------------------------------------------------------------- #
# Conformance.
# --------------------------------------------------------------------------- #
class TestBackendConformance:
    def test_one_engine_under_both_names(self, make_store, tmp_path):
        assert ArtifactStore is SqliteStoreBackend
        assert store_sqlite_module.SqliteStoreBackend is store_module.ArtifactStore
        assert type(make_store()) is ArtifactStore
        assert type(open_store(tmp_path / "s", backend="sqlite")) is ArtifactStore

    def test_round_trip_across_instances(self, make_store):
        scenario = Scenario(design="mokey", buffer_bytes=256 * KB)
        result = fake_result(scenario)
        store = make_store()
        assert store.get(scenario) is None
        assert store.put(scenario, result) is True
        assert store.put(scenario, result) is False  # content-addressed: no dup
        reloaded = make_store()  # a fresh instance, as another process would
        assert reloaded.get(scenario) == result
        assert scenario in reloaded
        assert len(reloaded) == 1

    def test_empty_store_reads_do_not_create_files(self, make_store):
        store = make_store("fresh")
        assert store.get(Scenario()) is None
        assert len(store) == 0
        assert store.keys() == []
        assert list(store.records()) == []
        assert list(store.query()) == []
        assert store.query(group_by="model") == []
        assert store.skipped == 0
        assert not store.path.exists()

    def test_upgrade_adds_parts_and_replaces_result(self, make_store):
        scenario = Scenario(design="mokey")
        store = make_store()
        assert store.put(scenario, fake_result(scenario, variant=0)) is True
        assert store.get_fidelity(scenario) is None

        # Offering a missing part upgrades; the new result payload wins.
        fidelity = fake_fidelity(scenario)
        assert store.put(scenario, fake_result(scenario, variant=1), fidelity=fidelity) is True
        assert store.get(scenario) == fake_result(scenario, variant=1)
        assert store.get_fidelity(scenario) == fidelity
        # Re-offering a known part stores nothing (and keeps the result).
        assert store.put(scenario, fake_result(scenario, variant=2), fidelity=fidelity) is False
        assert store.get(scenario) == fake_result(scenario, variant=1)

        measured = fake_measured(scenario)
        assert store.put(scenario, fake_result(scenario, variant=3), measured=measured) is True
        entry = next(iter(store.records()))
        assert entry.fidelity == fidelity  # carried through the second upgrade
        assert entry.measured == measured
        assert entry.result == fake_result(scenario, variant=3)
        assert len(store) == 1

    def test_insertion_order_is_stable_across_upgrades_and_reopens(self, make_store):
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(5)]
        store = make_store()
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        # Upgrading the first record must not move it to the end.
        store.put(scenarios[0], fake_result(scenarios[0]), fidelity=fake_fidelity(scenarios[0]))
        expected = [scenario_key(s) for s in scenarios]
        assert store.keys() == expected
        assert [scenario_key(e.scenario) for e in store.records()] == expected
        reopened = make_store()
        assert reopened.keys() == expected

    def test_corrupt_and_future_schema_records_are_skipped_not_fatal(self, make_store):
        scenario = Scenario()
        store = make_store()
        store.put(scenario, fake_result(scenario))
        inject_corrupt(store, n_bad_payload=2, n_wrong_version=1)
        reopened = make_store()
        entries = list(reopened.records())  # surfaces lazily-discovered corruption
        assert len(entries) == 1
        assert len(reopened) == 1
        assert reopened.skipped == 3
        assert reopened.get(scenario) == fake_result(scenario)

    def test_store_written_under_bumped_schema_degrades_to_misses(self, make_store):
        # Simulate a store produced entirely by a future code version.
        store = make_store()
        seed = Scenario(model="seed")
        store.put(seed, fake_result(seed))
        store.clear()
        inject_corrupt(store, n_bad_payload=0, n_wrong_version=3)
        reopened = make_store()
        assert list(reopened.records()) == []
        assert len(reopened) == 0
        assert reopened.skipped == 3
        assert reopened.get(Scenario(model="future-0")) is None

    def test_clear_empties_and_store_remains_usable(self, make_store):
        store = make_store()
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(3)]
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        assert store.clear() == 3
        assert len(store) == 0
        assert store.skipped == 0
        assert store.get(scenarios[0]) is None
        assert store.put(scenarios[0], fake_result(scenarios[0])) is True
        assert len(make_store()) == 1

    def test_put_many_counts_only_new_records(self, make_store):
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(4)]
        source = make_store("src")
        for scenario in scenarios[:3]:
            source.put(scenario, fake_result(scenario))
        dest = make_store("dst")
        dest.put(scenarios[0], fake_result(scenarios[0]))
        assert dest.put_many(source.records()) == 2  # first one already known
        assert dest.keys() == [scenario_key(s) for s in scenarios[:3]]

    def test_records_is_a_lazy_iterator(self, make_store):
        store = make_store()
        scenarios = [Scenario(buffer_bytes=(i + 1) * 64 * KB) for i in range(4)]
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        stream = store.records()
        assert isinstance(stream, types.GeneratorType)
        assert next(stream).scenario == scenarios[0]
        assert [e.scenario for e in stream] == scenarios[1:]

    def test_query_filters_order_and_limit(self, make_store):
        store = make_store()
        for scenario in corpus_scenarios():
            store.put(scenario, fake_result(scenario))
        only = list(store.query([("model", "==", "m-alpha"), ("buffer_bytes", "<=", 512 * KB)]))
        assert only
        assert all(
            e.scenario.model == "m-alpha" and e.scenario.buffer_bytes <= 512 * KB for e in only
        )
        ordered = list(store.query(order_by="-total_cycles", limit=5))
        assert len(ordered) == 5
        values = [e.result.total_cycles for e in ordered]
        assert values == sorted(values, reverse=True)
        # String filters (the CLI form) behave identically to triples.
        assert [entry_digest(e) for e in store.query(["model=m-alpha"])] == [
            entry_digest(e) for e in store.query([("model", "==", "m-alpha")])
        ]

    def test_query_null_scheme_semantics(self, make_store):
        store = make_store()
        scenarios = corpus_scenarios()
        for scenario in scenarios:
            store.put(scenario, fake_result(scenario))
        with_scheme = list(store.query(["scheme!=none"]))
        without_scheme = list(store.query(["scheme=none"]))
        assert all(e.scenario.scheme is not None for e in with_scheme)
        assert all(e.scenario.scheme is None for e in without_scheme)
        assert len(with_scheme) + len(without_scheme) == len(scenarios)
        # A concrete comparison never matches NULL (SQL three-valued logic).
        assert all(
            e.scenario.scheme is not None for e in store.query([("scheme", "!=", "s-x")])
        ) or not list(store.query([("scheme", "!=", "s-x")]))

    def test_query_group_by_aggregates(self, make_store):
        store = make_store()
        scenarios = corpus_scenarios()
        for i, scenario in enumerate(scenarios):
            store.put(
                scenario,
                fake_result(scenario),
                fidelity=fake_fidelity(scenario) if i % 2 == 0 else None,
            )
        rows = store.query(group_by=("model", "design"))
        assert sum(row["count"] for row in rows) == len(scenarios)
        assert sum(row["with_fidelity"] for row in rows) == (len(scenarios) + 1) // 2
        for row in rows:
            members = [
                e
                for e in scenarios
                if e.model == row["model"] and e.design == row["design"]
            ]
            expected_min = min(fake_result(e).total_cycles for e in members)
            assert row["min_total_cycles"] == pytest.approx(expected_min, rel=1e-12)
        top = store.query(group_by="model", order_by="-count", limit=1)
        assert len(top) == 1

    def test_query_rejects_unknown_fields_with_suggestions(self, make_store):
        store = make_store()
        with pytest.raises(ValueError, match="did you mean 'model'"):
            list(store.query([("modle", "==", "x")]))
        with pytest.raises(ValueError, match="must be a scenario axis"):
            store.query(group_by="total_cycles")
        with pytest.raises(ValueError, match="unknown order_by"):
            list(store.query(order_by="total_cycels"))
        with pytest.raises(ValueError, match="no comparison operator"):
            parse_filter("model")

    def test_refresh_makes_external_writes_visible(self, make_store):
        store = make_store()
        scenario = Scenario()
        store.put(scenario, fake_result(scenario))
        assert len(store) == 1
        other = make_store()  # ≈ another process appending to the same root
        late = Scenario(model="late-arrival")
        other.put(late, fake_result(late))
        store.refresh()
        assert len(store) == 2
        assert store.get(late) == fake_result(late)




# --------------------------------------------------------------------------- #
# Put sequences against a plain dict model; queries against a recount.
# --------------------------------------------------------------------------- #

_OP_POOL = [Scenario(model=f"m{i % 3}", buffer_bytes=(i + 1) * 64 * KB) for i in range(6)]

_ops_st = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(_OP_POOL) - 1),
        st.booleans(),  # offer fidelity
        st.booleans(),  # offer measured
        st.integers(min_value=0, max_value=2),  # result variant
    ),
    max_size=20,
)


def model_put(model: dict, scenario, result, fidelity, measured) -> bool:
    """The put contract on a dict: upgrades only add parts, keep position."""
    key = scenario_key(scenario)
    existing = model.get(key)
    if existing is not None:
        adds_fidelity = fidelity is not None and existing.fidelity is None
        adds_measured = measured is not None and existing.measured is None
        if not adds_fidelity and not adds_measured:
            return False
        fidelity = fidelity if fidelity is not None else existing.fidelity
        measured = measured if measured is not None else existing.measured
    model[key] = StoreEntry(scenario, result, fidelity, measured)
    return True


class TestQuerySemantics:
    @given(ops=_ops_st)
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_put_sequences_match_a_dict_model(self, tmp_path, ops):
        store = open_store(tmp_path / f"case-{next(_CASES)}")
        model = {}
        for index, offer_fidelity, offer_measured, variant in ops:
            scenario = _OP_POOL[index]
            args = (
                scenario,
                fake_result(scenario, variant=variant),
                fake_fidelity(scenario) if offer_fidelity else None,
                fake_measured(scenario) if offer_measured else None,
            )
            assert store.put(*args) == model_put(model, *args)
        assert store.keys() == list(model)
        assert len(store) == len(model)
        assert [entry_digest(e) for e in store.records()] == [
            entry_digest(e) for e in model.values()
        ]

    @pytest.fixture(scope="class")
    def query_corpus(self, tmp_path_factory):
        store = open_store(tmp_path_factory.mktemp("query-corpus") / "store")
        for i, scenario in enumerate(corpus_scenarios()):
            store.put(
                scenario,
                fake_result(scenario, variant=i % 2),
                fidelity=fake_fidelity(scenario) if i % 3 == 0 else None,
                measured=fake_measured(scenario) if i % 4 == 0 else None,
            )
        return store

    @pytest.mark.parametrize(
        "query",
        [
            {},
            {"filters": [("model", "==", "m-alpha")]},
            {"filters": ["buffer_bytes<=524288", "design!=d-two"]},
            {"filters": ["scheme=none"]},
            {"filters": ["scheme!=none"], "order_by": "scheme"},
            # A concrete comparison never matches a NULL scheme.
            {"filters": [("scheme", "!=", "s-y")]},
            # effective_scheme never holds NULL: it is the override when
            # set, else the design name — so filters on it see both kinds.
            {"filters": [("effective_scheme", "==", "s-x")]},
            {"filters": [("effective_scheme", "==", "d-one")]},
            {"filters": ["effective_scheme!=s-x"], "order_by": "effective_scheme"},
            {"filters": [("total_cycles", ">", 500.0)], "order_by": "-energy_joules"},
            {"order_by": "total_cycles", "limit": 7},
            {"order_by": "-buffer_bytes", "limit": 3},
            # The three descending spellings and the explicit ascending one.
            {"order_by": "~total_cycles", "limit": 7},
            {"order_by": "total_cycles:desc", "limit": 7},
            {"order_by": "total_cycles:asc", "limit": 7},
        ],
        ids=repr,
    )
    def test_entry_queries_match_recount(self, query_corpus, query):
        actual = [entry_digest(e) for e in query_corpus.query(**query)]
        expected = [entry_digest(e) for e in recount(query_corpus, **query)]
        assert actual == expected
        assert actual or query.get("filters")  # non-filtered shapes must match rows

    @pytest.mark.parametrize(
        "query",
        [
            {"group_by": ("model", "design")},
            {"group_by": "model", "order_by": "-count"},
            {"group_by": ("model", "scheme")},  # a NULL group key
            {"group_by": ("design",), "order_by": "mean_total_cycles", "limit": 2},
            {"filters": ["buffer_bytes>262144"], "group_by": ("model", "design")},
            {"group_by": ("effective_scheme",), "order_by": "~count"},
            {"filters": [("effective_scheme", "!=", "d-two")],
             "group_by": ("model", "effective_scheme")},
        ],
        ids=repr,
    )
    def test_grouped_queries_match_recount(self, query_corpus, query):
        assert_rows_equal(query_corpus.query(**query), recount(query_corpus, **query))


# --------------------------------------------------------------------------- #
# Migration: JSONL interchange, legacy directories, old database schemas.
# --------------------------------------------------------------------------- #


def jsonl_line(entry: StoreEntry, **overrides) -> str:
    """One log line in the interchange format: canonical, compact JSON."""
    record = {
        "schema_version": SCHEMA_VERSION,
        "key": scenario_key(entry.scenario),
        "scenario": entry.scenario.to_dict(),
        "result": entry.result.to_dict(),
    }
    if entry.fidelity is not None:
        record["fidelity"] = entry.fidelity.to_dict()
    if entry.measured is not None:
        record["measured"] = entry.measured.to_dict()
    record.update(overrides)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def corpus_entries(n: int):
    return [
        StoreEntry(
            scenario,
            fake_result(scenario),
            fake_fidelity(scenario) if i % 2 == 0 else None,
            fake_measured(scenario) if i % 3 == 0 else None,
        )
        for i, scenario in enumerate(corpus_scenarios()[:n])
    ]


def digests_of(entries) -> dict:
    return {scenario_key(e.scenario): store_module.entry_digest(e) for e in entries}


def _bad_lines_are_skipped(tmp_path, monkeypatch):
    entries = corpus_entries(7)
    lines = [jsonl_line(e) for e in entries[:3]]
    lines.append("corrupt line")
    lines.append(jsonl_line(entries[3], schema_version=SCHEMA_VERSION + 1))
    lines.append(json.dumps({"schema_version": SCHEMA_VERSION, "key": "no-payload"}))
    lines.append("")  # blank lines are neither records nor skipped
    lines += [jsonl_line(e) for e in entries[4:6]]
    torn = jsonl_line(entries[6])[:40]  # a writer killed mid-line
    log = tmp_path / "in.jsonl"
    log.write_text("\n".join(lines) + "\n" + torn, encoding="utf-8")
    store = open_store(tmp_path / "store")
    assert import_jsonl(log, store) == (5, 4)
    good = entries[:3] + entries[4:6]
    assert store.keys() == [scenario_key(e.scenario) for e in good]
    assert store_digest(store) == digests_of(good)
    assert store.skipped == 1  # the newer-schema line, kept as a row


def _upgrade_line_wins_at_first_position(tmp_path, monkeypatch):
    first, second = corpus_entries(2)
    bare = first._replace(fidelity=None, measured=None)
    upgraded = first._replace(result=fake_result(first.scenario, variant=1))
    log = tmp_path / "in.jsonl"
    log.write_text(
        "".join(jsonl_line(e) + "\n" for e in (bare, second, upgraded)), encoding="utf-8"
    )
    store = open_store(tmp_path / "store")
    assert import_jsonl(log, store) == (2, 0)
    assert store.keys() == [scenario_key(first.scenario), scenario_key(second.scenario)]
    assert store_digest(store) == digests_of([upgraded, second])


def _export_import_export_is_byte_identical(tmp_path, monkeypatch):
    entries = corpus_entries(10)
    source = open_store(tmp_path / "a")
    for entry in entries:
        source.put(entry.scenario, entry.result)  # bare first, then upgrade
    for entry in entries:
        source.put(entry.scenario, entry.result, entry.fidelity, entry.measured)
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    assert main(["store", "export", str(tmp_path / "a"), str(first)]) == 0
    assert main(["store", "import", str(first), str(tmp_path / "b")]) == 0
    assert main(["store", "export", str(tmp_path / "b"), str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    # One line per key, in insertion order, in the interchange format.
    assert first.read_text(encoding="utf-8").splitlines() == [jsonl_line(e) for e in entries]
    assert open_store(tmp_path / "b").keys() == source.keys()


def _legacy_directory_imports_once(tmp_path, monkeypatch):
    entries = corpus_entries(6)
    upgraded = entries[1]._replace(measured=fake_measured(entries[1].scenario))
    root = tmp_path / "legacy"
    root.mkdir()
    log = root / "records.jsonl"
    log.write_text(
        "".join(jsonl_line(e) + "\n" for e in entries + [upgraded]) + "corrupt line\n",
        encoding="utf-8",
    )
    before = log.read_bytes()
    reads = []
    real_read = store_module.read_jsonl
    monkeypatch.setattr(
        store_module, "read_jsonl", lambda path: reads.append(path) or real_read(path)
    )
    first = ArtifactStore(root)
    count = len(first)
    second = open_store(root)
    assert len(second) == count == len(entries)
    keys = second.keys()
    assert len(keys) == len(set(keys))
    assert len(reads) == 1
    assert log.read_bytes() == before
    assert store_digest(second) == digests_of(read_jsonl(log)[0])


INTERCHANGE_CASES = {
    "torn-corrupt-and-stale-lines": _bad_lines_are_skipped,
    "upgrade-line-wins-at-first-position": _upgrade_line_wins_at_first_position,
    "export-import-export": _export_import_export_is_byte_identical,
    "legacy-directory-opened-twice": _legacy_directory_imports_once,
}


def legacy_directory(tmp_path, entries):
    """A directory written as a JSONL log (plus one unreadable line)."""
    root = tmp_path / "legacy"
    root.mkdir()
    (root / "records.jsonl").write_text(
        "".join(jsonl_line(e) + "\n" for e in entries) + "corrupt line\n", encoding="utf-8"
    )
    return root


_LATE = Scenario(model="late")

# Every read and write surface that can be the first touch of a legacy
# directory; each must import the log before answering.
LEGACY_FIRST_ACCESS = {
    "len": lambda store, entries: len(store) == len(entries),
    "keys": lambda store, entries: store.keys() == [scenario_key(e.scenario) for e in entries],
    "get": lambda store, entries: store.get(entries[2].scenario) == entries[2].result,
    "records": lambda store, entries: [entry_digest(e) for e in store.records()]
    == [entry_digest(e) for e in entries],
    "query": lambda store, entries: [e.scenario for e in store.query(["buffer_bytes>262144"])]
    == [e.scenario for e in entries if e.scenario.buffer_bytes > 256 * KB],
    "grouped-query": lambda store, entries: sum(
        row["count"] for row in store.query(group_by="scheme")
    )
    == len(entries),
    "skipped": lambda store, entries: store.skipped == 1,  # the corrupt line
    "put": lambda store, entries: store.put(_LATE, fake_result(_LATE)) is True,
    "put-many": lambda store, entries: store.put_many(entries) == 0,
    "clear": lambda store, entries: store.clear() == len(entries),
}


class TestMigration:
    @pytest.mark.parametrize("case", list(INTERCHANGE_CASES))
    def test_jsonl_interchange_edge_cases(self, tmp_path, monkeypatch, case):
        INTERCHANGE_CASES[case](tmp_path, monkeypatch)

    @pytest.mark.parametrize("surface", list(LEGACY_FIRST_ACCESS))
    def test_first_access_imports_a_legacy_directory(self, tmp_path, surface):
        entries = corpus_entries(5)
        root = legacy_directory(tmp_path, entries)
        before = (root / "records.jsonl").read_bytes()
        store = ArtifactStore(root)
        assert not store.path.exists()  # constructing the store touches nothing
        assert LEGACY_FIRST_ACCESS[surface](store, entries)
        assert store.path.exists()
        assert (root / "records.jsonl").read_bytes() == before
        expected = [scenario_key(e.scenario) for e in entries]
        if surface == "put":
            expected.append(scenario_key(_LATE))
        if surface == "clear":
            expected = []  # imported once: a cleared store stays cleared
        assert ArtifactStore(root).keys() == expected

    def test_legacy_log_without_readable_lines_opens_an_empty_store(self, tmp_path, monkeypatch):
        (entry,) = corpus_entries(1)
        root = tmp_path / "legacy"
        root.mkdir()
        (root / "records.jsonl").write_text(
            "corrupt line\n" + jsonl_line(entry, schema_version=SCHEMA_VERSION + 1) + "\n",
            encoding="utf-8",
        )
        store = ArtifactStore(root)
        assert len(store) == 0
        assert store.skipped == 2
        assert store.path.exists()

        def unexpected_read(path):
            raise AssertionError(f"log read again: {path}")

        # The (empty) database now answers; the log is not read again.
        monkeypatch.setattr(store_module, "read_jsonl", unexpected_read)
        reopened = ArtifactStore(root)
        assert reopened.keys() == []
        assert reopened.skipped == 1  # the newer-schema row persists

    def test_import_merges_into_an_existing_store(self, tmp_path):
        entries = corpus_entries(4)
        assert entries[1].fidelity is None and entries[1].measured is None
        assert entries[3].fidelity is None and entries[3].measured is not None
        store = open_store(tmp_path / "store")
        store.put(entries[3].scenario, entries[3].result)  # known, without its measured part
        store.put(entries[1].scenario, entries[1].result)  # known, identical
        log = tmp_path / "in.jsonl"
        log.write_text("".join(jsonl_line(e) + "\n" for e in entries), encoding="utf-8")
        # New keys append, the measured line upgrades in place, the
        # identical line stores nothing.
        assert import_jsonl(log, store) == (3, 0)
        order = [entries[3], entries[1], entries[0], entries[2]]
        assert store.keys() == [scenario_key(e.scenario) for e in order]
        assert store_digest(store) == digests_of(entries)
        assert import_jsonl(log, store) == (0, 0)
        assert len(store) == len(entries)

    def test_export_writes_only_readable_records(self, tmp_path, capsys):
        entries = corpus_entries(3)
        store = open_store(tmp_path / "store")
        assert store.put_many(entries) == 3
        inject_corrupt(store, n_bad_payload=1, n_wrong_version=2)
        out = tmp_path / "out.jsonl"
        assert main(["store", "export", str(store.root), str(out)]) == 0
        summary = capsys.readouterr().out
        assert "exported 3 records" in summary
        assert "[3 unreadable records skipped]" in summary
        assert out.read_text(encoding="utf-8").splitlines() == [jsonl_line(e) for e in entries]

    def test_export_of_an_empty_store_is_an_empty_log(self, tmp_path):
        store = open_store(tmp_path / "never-written")
        out = tmp_path / "out.jsonl"
        assert export_jsonl(store, out) == 0
        assert out.read_bytes() == b""
        assert not store.root.exists()

    def test_lines_without_a_key_fall_back_to_the_scenario_key(self, tmp_path):
        first, second = corpus_entries(2)
        bare = first._replace(fidelity=None, measured=None)

        def keyless(entry):
            record = json.loads(jsonl_line(entry))
            del record["key"]
            return json.dumps(record)

        log = tmp_path / "in.jsonl"
        log.write_text(
            "\n".join([keyless(bare), jsonl_line(second), keyless(first)]) + "\n",
            encoding="utf-8",
        )
        entries, other_version, unreadable = read_jsonl(log)
        assert other_version == {} and unreadable == 0
        assert digests_of(entries) == digests_of([first, second])
        assert [scenario_key(e.scenario) for e in entries] == [
            scenario_key(first.scenario),
            scenario_key(second.scenario),
        ]

    @pytest.mark.parametrize("stamped", [True, False], ids=["stamped", "unstamped"])
    def test_directory_with_both_files_opens_the_database(self, tmp_path, stamped):
        # A database that already holds the records table wins over a log
        # beside it, whether or not it carries the set-up stamp (databases
        # written before the stamp existed do not).
        root = tmp_path / "both"
        kept, ignored = Scenario(model="kept"), Scenario(model="ignored")
        store = open_store(root)
        store.put(kept, fake_result(kept))
        store.close()
        if not stamped:
            with sqlite3.connect(str(root / "records.sqlite")) as conn:
                conn.execute("PRAGMA user_version = 0")
        log = root / "records.jsonl"
        log.write_text(
            jsonl_line(StoreEntry(ignored, fake_result(ignored), None, None)) + "\n",
            encoding="utf-8",
        )
        reopened = open_store(root)
        assert reopened.keys() == [scenario_key(kept)]
        assert reopened.get(ignored) is None

    def test_interrupted_legacy_import_runs_again(self, tmp_path, monkeypatch):
        # A process killed mid-import leaves no half-set-up database: the
        # transaction rolls back and the next open imports the log.
        entries = corpus_entries(4)
        root = legacy_directory(tmp_path, entries)

        def killed(path):
            raise KeyboardInterrupt

        monkeypatch.setattr(store_module, "read_jsonl", killed)
        with pytest.raises(KeyboardInterrupt):
            ArtifactStore(root).keys()
        monkeypatch.undo()
        assert ArtifactStore(root).keys() == [scenario_key(e.scenario) for e in entries]

    def test_open_store_rejects_other_backends(self, tmp_path):
        with pytest.raises(ValueError, match="repro store import"):
            open_store(tmp_path, backend="jsonl")

    def test_old_schema_database_gains_backfilled_effective_scheme(self, tmp_path):
        # A database created before the materialised effective_scheme
        # column existed must migrate on open: the column appears, is
        # backfilled from COALESCE(scheme, result design_name), and
        # queries on it match the recount.
        scenarios = corpus_scenarios()[:8]
        root = tmp_path / "old"
        root.mkdir()
        conn = sqlite3.connect(str(root / "records.sqlite"))
        conn.execute(
            """
            CREATE TABLE records (
                key TEXT PRIMARY KEY,
                schema_version INTEGER NOT NULL,
                model TEXT, task TEXT, sequence_length INTEGER,
                batch_size INTEGER, scheme TEXT, design TEXT,
                buffer_bytes INTEGER, activation_buffer_fraction REAL,
                scenario TEXT NOT NULL, result TEXT NOT NULL,
                fidelity TEXT, measured TEXT
            )
            """
        )
        for scenario in scenarios:
            result = fake_result(scenario)
            conn.execute(
                "INSERT INTO records VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    scenario_key(scenario),
                    SCHEMA_VERSION,
                    scenario.model,
                    scenario.task,
                    scenario.sequence_length,
                    scenario.batch_size,
                    scenario.scheme,
                    scenario.design,
                    scenario.buffer_bytes,
                    scenario.activation_buffer_fraction,
                    json.dumps(scenario.to_dict(), sort_keys=True),
                    json.dumps(result.to_dict(), sort_keys=True),
                    None,
                    None,
                ),
            )
        conn.commit()
        conn.close()

        migrated = open_store(root)
        inner = migrated._connect(create=False)
        columns = {row[1] for row in inner.execute("PRAGMA table_info(records)")}
        assert "effective_scheme" in columns
        for query in (
            {"filters": [("effective_scheme", "==", "s-x")]},
            {"filters": [("effective_scheme", "==", "d-one")]},
        ):
            assert [entry_digest(e) for e in migrated.query(**query)] == [
                entry_digest(e) for e in recount(migrated, **query)
            ]
        grouped = {"group_by": ("effective_scheme",)}
        assert_rows_equal(migrated.query(**grouped), recount(migrated, **grouped))
        # Idempotent: a second opener finds the column and changes nothing.
        again = open_store(root)
        assert len(again) == len(scenarios)

    def test_spec_ignores_legacy_store_backend_key(self, tmp_path):
        # Spec files written while stores had a backend knob still load.
        spec = CampaignSpec.from_dict(
            {"execution": {"store": str(tmp_path / "s"), "store_backend": "jsonl"}}
        )
        assert spec.validate() is spec
        assert spec.execution.store == str(tmp_path / "s")
        assert "store_backend" not in spec.to_dict()["execution"]


# --------------------------------------------------------------------------- #
# Concurrency: threads and processes against one SQLite store.
# --------------------------------------------------------------------------- #


def _stress_scenario(i: int) -> Scenario:
    return Scenario(model=f"stress-{i % 4}", batch_size=i % 3 + 1, buffer_bytes=(i + 1) * 64 * KB)


def _stress_put(store: SqliteStoreBackend, i: int, part: int) -> None:
    scenario = _stress_scenario(i)
    store.put(
        scenario,
        fake_result(scenario),
        fidelity=fake_fidelity(scenario) if part == 1 else None,
        measured=fake_measured(scenario) if part == 2 else None,
    )


def _process_stress_worker(root: str, indices, part: int) -> int:
    store = SqliteStoreBackend(root)
    try:
        for i in indices:
            _stress_put(store, i, part)
    finally:
        store.close()
    return len(indices)


def _put_into_fresh_store(root: str, i: int, start_at: float) -> str:
    """Wait until ``start_at``, then open ``root`` and put one record.

    Returns the error text, or "" on success.
    """
    time.sleep(max(0.0, start_at - time.time()))
    store = SqliteStoreBackend(root)
    try:
        _stress_put(store, i, 0)
        return ""
    except sqlite3.Error as exc:
        return f"{type(exc).__name__}: {exc}"
    finally:
        store.close()


def _oracle_digests(tmp_path, n: int) -> dict:
    oracle = open_store(tmp_path / "oracle")
    for i in range(n):
        scenario = _stress_scenario(i)
        oracle.put(
            scenario,
            fake_result(scenario),
            fidelity=fake_fidelity(scenario),
            measured=fake_measured(scenario),
        )
    return store_digests(oracle)


class TestSqliteConcurrency:
    N = 16

    def test_thread_stress_equals_serial_oracle(self, tmp_path):
        store = SqliteStoreBackend(tmp_path / "shared")
        # Every (scenario, part) op twice over: commutative by construction
        # (same result payload, deterministic parts), so any interleaving
        # must land on the serial-oracle state with no lost records.
        ops = [(i, part) for i in range(self.N) for part in (0, 1, 2)] * 2
        failures = []

        def worker(seed: int) -> None:
            local = ops[:]
            random.Random(seed).shuffle(local)
            try:
                for i, part in local:
                    _stress_put(store, i, part)
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert failures == []
        assert len(store) == self.N  # no lost records
        assert store_digests(store) == _oracle_digests(tmp_path, self.N)

    def test_process_stress_equals_serial_oracle(self, tmp_path):
        root = str(tmp_path / "shared")
        indices = list(range(self.N))
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_process_stress_worker, root, indices, part)
                for part in (0, 1, 2, 0, 1, 2)
            ]
            assert [f.result() for f in futures] == [self.N] * 6
        store = SqliteStoreBackend(root)
        assert len(store) == self.N
        assert store_digests(store) == _oracle_digests(tmp_path, self.N)

    def test_threads_opening_one_legacy_directory_at_once(self, tmp_path):
        # Openers racing the first open wait for the one import and then
        # see every record: none reads a half-set-up store.
        entries = corpus_entries(12)
        root = tmp_path / "legacy"
        root.mkdir()
        (root / "records.jsonl").write_text(
            "".join(jsonl_line(e) + "\n" for e in entries), encoding="utf-8"
        )
        workers = 8
        barrier = threading.Barrier(workers)
        failures = []
        seen = []

        def opener() -> None:
            store = ArtifactStore(root)
            try:
                barrier.wait(timeout=30)
                seen.append(store.keys())
            except Exception as exc:  # surfaced after join
                failures.append(exc)
            finally:
                store.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=opener) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        expected = [scenario_key(e.scenario) for e in entries]
        assert seen == [expected] * workers
        store = ArtifactStore(root)
        assert store.keys() == expected
        assert store_digest(store) == digests_of(entries)

    def test_processes_opening_one_fresh_store_at_once(self, tmp_path):
        # Switching a fresh file to WAL can report "database is locked"
        # without waiting on the busy timeout; every opener must retry.
        workers, attempts = 4, 12
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            def race(root: str, delay: float) -> list:
                start_at = [time.time() + delay] * workers
                return list(pool.map(
                    _put_into_fresh_store, [root] * workers, range(workers), start_at
                ))

            # Start every worker (each import takes a while) before racing.
            race(str(tmp_path / "warm"), 0.5)
            for attempt in range(attempts):
                root = str(tmp_path / f"fresh-{attempt}")
                errors = race(root, 0.05)
                assert errors == [""] * workers, f"attempt {attempt}: {errors}"
                store = SqliteStoreBackend(root)
                assert len(store) == workers
                store.close()

    def test_killed_sqlite_campaign_resumes_bit_identically(self, tmp_path):
        def spec(store_dir):
            return CampaignSpec(
                name="sqlite-resume",
                axes=AxisGrid(
                    designs=("mokey", "tensor-cores"), buffer_bytes=(256 * KB, 512 * KB)
                ),
                execution=ExecutionPolicy(executor="serial", store=str(store_dir)),
            )

        fresh = run_spec(spec(tmp_path / "fresh"))
        assert fresh.simulated_count == 4
        assert (tmp_path / "fresh" / "records.sqlite").exists()

        events = iter_campaign(spec(tmp_path / "killed"))
        next(events)
        events.close()  # the kill: one record persisted, three missing
        killed = open_store(tmp_path / "killed")
        assert len(killed) == 1

        resumed = run_spec(spec(tmp_path / "killed"))
        assert resumed.simulated_count == 3
        assert sum(1 for r in resumed if r.cached) == 1
        assert store_digests(open_store(tmp_path / "killed")) == store_digests(
            open_store(tmp_path / "fresh")
        )


# --------------------------------------------------------------------------- #
# Pushdown at scale: the 10k-record acceptance test.
# --------------------------------------------------------------------------- #
class TestSqlitePushdownScale:
    GRID = 10_000

    @pytest.fixture(scope="class")
    def big_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("bulk") / "big"
        store = SqliteStoreBackend(root)
        scenarios = [
            Scenario(
                model=f"model-{i % 5}",
                task=f"task-{i % 3}",
                batch_size=i % 8 + 1,
                sequence_length=64 + i,  # guarantees 10k distinct scenarios
                design=f"design-{i % 4}",
                buffer_bytes=(i % 50 + 1) * 64 * KB + (i // 2000) * KB,
            )
            for i in range(self.GRID)
        ]
        assert len({scenario_key(s) for s in scenarios}) == self.GRID
        stored = store.put_many(
            StoreEntry(s, fake_result(s), None, None) for s in scenarios
        )
        assert stored == self.GRID
        return store, scenarios

    @pytest.fixture
    def rebuild_counter(self, monkeypatch):
        calls = {"n": 0}
        real = store_module.Scenario

        class CountingScenario:
            @staticmethod
            def from_dict(data):
                calls["n"] += 1
                return real.from_dict(data)

        monkeypatch.setattr(store_module, "Scenario", CountingScenario)
        return calls

    def test_grouped_report_deserializes_nothing(self, big_store, rebuild_counter):
        store, scenarios = big_store
        rows = store.query(
            filters=["buffer_bytes<=1048576"], group_by=("model", "design"), order_by="-count"
        )
        assert rebuild_counter["n"] == 0  # pure pushdown: no payload rebuilt
        expected = {}
        for s in scenarios:
            if s.buffer_bytes <= 1048576:
                key = (s.model, s.design)
                expected[key] = expected.get(key, 0) + 1
        assert {(r["model"], r["design"]): r["count"] for r in rows} == expected
        counts = [r["count"] for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_top_k_deserializes_only_k_records(self, big_store, rebuild_counter):
        store, scenarios = big_store
        top = list(
            store.query(
                filters=[("model", "==", "model-1")], order_by="-total_cycles", limit=10
            )
        )
        assert len(top) == 10
        assert rebuild_counter["n"] == 10  # only the surviving rows rebuilt
        expected = sorted(
            (fake_result(s).total_cycles for s in scenarios if s.model == "model-1"),
            reverse=True,
        )[:10]
        assert [e.result.total_cycles for e in top] == expected

    def test_records_prefix_read_is_streaming(self, big_store, rebuild_counter):
        store, _scenarios = big_store
        stream = store.records()
        for _ in range(3):
            next(stream)
        stream.close()
        assert rebuild_counter["n"] == 3
