"""Content-addressed artifact store for simulation results.

The store makes campaigns incremental across processes: every simulated
:class:`~repro.experiments.scenario.Scenario` is persisted under a stable
content hash of the scenario (plus the record schema version), and later
campaigns — in this process or any other — resolve identical grid points
from disk instead of re-simulating them.

:class:`ArtifactStore` is the one storage engine: an indexed SQLite
database in ``<root>/records.sqlite`` (WAL mode) with a real column per
scenario axis, so :meth:`ArtifactStore.query` filters, orders, groups and
limits inside SQLite, and concurrent shard writers (threads or processes)
interleave safely.  ``repro.experiments.store_sqlite.SqliteStoreBackend``
names the same class.

Its contract:

* **Content addressing** — records are keyed by :func:`scenario_key`;
  two processes always agree on the key of a scenario.
* **Last-write-wins upgrades** — :meth:`~ArtifactStore.put` on an
  existing key stores nothing unless it *adds* a missing part (fidelity
  and/or measured stats); an upgrade carries every part already known
  plus the new ones, and the upgraded record replaces the old one while
  keeping its original insertion position.
* **Insertion order** — :meth:`~ArtifactStore.keys` and
  :meth:`~ArtifactStore.records` iterate in first-put order, stable
  across upgrades, re-opens, export and import.
* **Degrade, never crash** — records written under a different
  ``schema_version`` and records whose payload does not rebuild are
  skipped (surfaced via :attr:`~ArtifactStore.skipped`), so a store
  written by a newer code version degrades to cache misses.
* **Streaming** — :meth:`~ArtifactStore.records` and ungrouped
  :meth:`~ArtifactStore.query` results are lazy cursors; consuming a
  prefix does not deserialize the full record set.

JSONL is the interchange format: :func:`export_jsonl` (``repro store
export``) writes one self-describing JSON object per record, in insertion
order, and :func:`import_jsonl` (``repro store import``) loads such a log
in one transaction::

    {"key": "<sha256 prefix>", "schema_version": 1,
     "scenario": {...Scenario.to_dict()...},
     "result": {...SimulationResult.to_dict()...},
     "fidelity": {...FidelityResult.to_dict()...},    # optional
     "measured": {...MeasuredStats.to_dict()...}}     # optional

Opening a directory that holds a ``records.jsonl`` log and no
``records.sqlite`` database imports the log once, in the transaction
that creates the database; the log itself is left untouched.

The ``fidelity`` field is the accuracy half of the record (see
:mod:`repro.experiments.accuracy`) and ``measured`` is the measured
index-domain operation mix (see :mod:`repro.experiments.measured`); both
are omitted for hardware-only records, and a later campaign *upgrades*
such a record as described above.  Because unknown fields are tolerated
in both directions, adding these joins needs no ``SCHEMA_VERSION`` bump —
the simulator numerics the key protects are unchanged.

The content key is computed from the canonical JSON of the scenario's
field mapping, so it is stable across processes, platforms, and
``PYTHONHASHSEED`` — unlike ``hash(scenario)``, which keys the in-memory
:class:`~repro.experiments.campaign.ResultCache` only.
"""

from __future__ import annotations

import difflib
import hashlib
import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.accelerator.metrics import SimulationResult
from repro.experiments.accuracy import FidelityResult
from repro.experiments.measured import MeasuredStats
from repro.experiments.scenario import Scenario

__all__ = [
    "SCHEMA_VERSION",
    "scenario_key",
    "entry_digest",
    "store_digest",
    "StoreEntry",
    "ArtifactStore",
    "QUERY_FIELDS",
    "AXIS_FIELDS",
    "GROUP_METRICS",
    "GROUP_AGGREGATES",
    "parse_filter",
    "DEFAULT_STORE_BACKEND",
    "open_store",
    "export_jsonl",
    "import_jsonl",
    "read_jsonl",
]


class StoreEntry(NamedTuple):
    """One stored record: the scenario, its result and optional joins."""

    scenario: Scenario
    result: SimulationResult
    fidelity: Optional[FidelityResult]
    measured: Optional[MeasuredStats]


# Bump on any change that invalidates stored results: an incompatible
# serialized form of Scenario/SimulationResult, OR an intentional change
# to the simulator's numerics (i.e. whenever tests/goldens.json is
# regenerated).  The key hashes only scenario *inputs*, so without a bump
# an existing store would silently keep serving pre-change results.
# Old-version records are ignored (and re-simulated) rather than misread.
SCHEMA_VERSION = 1

#: The database file inside a store directory.
SQLITE_FILENAME = "records.sqlite"

#: A JSONL log inside a store directory, imported on first open.
JSONL_FILENAME = "records.jsonl"

#: The storage engine's name, as job statuses and benchmark runs report it.
DEFAULT_STORE_BACKEND = "sqlite"

#: ``PRAGMA user_version`` of a database whose set-up (schema, indexes,
#: legacy-log import) has committed.
_SETUP_VERSION = 1


def scenario_key(scenario: Scenario, schema_version: int = SCHEMA_VERSION) -> str:
    """Stable content hash identifying ``scenario`` under ``schema_version``.

    The key is the first 24 hex digits of the SHA-256 of the canonical
    (sorted-key, compact) JSON of the scenario's fields plus the schema
    version, so two processes always agree on it.
    """
    payload = {"schema_version": schema_version, "scenario": scenario.to_dict()}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def entry_digest(entry: StoreEntry) -> str:
    """SHA-256 of one stored record's canonical content.

    Hashes the full self-describing record form (schema version, scenario,
    result, and whichever joins the entry carries) as canonical JSON, so
    two entries digest equal iff a reader would rebuild identical values
    from them — independent of which process wrote them, in what order,
    or under which backend.
    """
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "scenario": entry.scenario.to_dict(),
        "result": entry.result.to_dict(),
    }
    if entry.fidelity is not None:
        record["fidelity"] = entry.fidelity.to_dict()
    if entry.measured is not None:
        record["measured"] = entry.measured.to_dict()
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def store_digest(store: "ArtifactStore") -> Dict[str, str]:
    """Content identity of a whole store: ``{scenario key: record digest}``.

    Insertion order is deliberately *not* part of the identity: shard
    workers appending to one shared store interleave nondeterministically,
    but a multi-worker campaign is bit-identical to a single-process run
    exactly when this mapping matches — same keys, same record digests.
    The equality tests and the service's CI smoke compare stores this way.
    """
    return {scenario_key(e.scenario): entry_digest(e) for e in store.records()}


# --------------------------------------------------------------------------- #
# Query pushdown: the field/filter/plan model queries are written in.
# --------------------------------------------------------------------------- #


@dataclass(frozen=True)
class QueryField:
    """One name filters/``order_by``/``group_by`` can address.

    Attributes:
        name: Public field name.
        kind: ``"axis"`` (a scenario field, an indexed column) or
            ``"metric"`` (a headline number extracted from the stored
            result payload).
        sql: SQL expression over the ``records`` table computing the
            field's value.
    """

    name: str
    kind: str
    sql: str


def _result_metric(name: str) -> QueryField:
    return QueryField(name, "metric", f"json_extract(result, '$.{name}')")


#: Scenario axes addressable by queries — each is an indexed column.
AXIS_FIELDS = (
    "model",
    "task",
    "sequence_length",
    "batch_size",
    "scheme",
    "design",
    "buffer_bytes",
    "activation_buffer_fraction",
)

#: Every field a query can filter or order by, axis columns first.
QUERY_FIELDS: Dict[str, QueryField] = {
    name: QueryField(name, "axis", name) for name in AXIS_FIELDS
}
QUERY_FIELDS.update(
    {
        # The scheme the report's scheme column displays: the scenario's
        # override when set, else the result's design name, materialised
        # as an indexed column (kind "axis": filterable, groupable,
        # orderable).
        "effective_scheme": QueryField("effective_scheme", "axis", "effective_scheme"),
        "compute_cycles": _result_metric("compute_cycles"),
        "memory_cycles": _result_metric("memory_cycles"),
        "total_cycles": _result_metric("total_cycles"),
        "traffic_bytes": _result_metric("traffic_bytes"),
        # Totals are sums of serialized components, added left-to-right in
        # the same order as the EnergyBreakdown/AreaBreakdown ``total``
        # properties, so SQL and Python agree bit-for-bit.
        "energy_joules": QueryField(
            "energy_joules",
            "metric",
            "(json_extract(result, '$.energy.dram')"
            " + json_extract(result, '$.energy.sram')"
            " + json_extract(result, '$.energy.compute'))",
        ),
        "area_mm2": QueryField(
            "area_mm2",
            "metric",
            "(json_extract(result, '$.area.compute')"
            " + json_extract(result, '$.area.buffer'))",
        ),
    }
)

#: Metrics aggregated (min + mean) per group row of a grouped query.
GROUP_METRICS = ("total_cycles", "energy_joules")

#: Aggregate column names a grouped query's ``order_by`` may address.
GROUP_AGGREGATES = ("count", "with_fidelity", "with_measured") + tuple(
    f"{agg}_{metric}" for metric in GROUP_METRICS for agg in ("min", "mean")
)

#: Comparison operators filters understand (``=`` is accepted as ``==``).
FILTER_OPS = ("==", "!=", "<", "<=", ">", ">=")

Filter = Tuple[str, str, Any]


def parse_filter(text: str) -> Filter:
    """Parse a CLI-style ``field<op>value`` string into a filter triple.

    ``repro campaign report --where model=bert-base --where
    "total_cycles<=1e9"`` feeds through here: the operator is one of
    ``= == != < <= > >=``, and the value parses as ``None`` (``none`` /
    ``null``), an int, a float, or falls back to a string.
    """
    for op in ("<=", ">=", "!=", "==", "<", ">", "="):
        if op in text:
            field, raw = text.split(op, 1)
            field = field.strip()
            if not field:
                raise ValueError(f"filter {text!r} is missing a field name")
            return field, ("==" if op == "=" else op), _parse_filter_value(raw.strip())
    raise ValueError(
        f"filter {text!r} has no comparison operator "
        f"(write field<op>value, e.g. model=bert-base or total_cycles<=1e9)"
    )


def _parse_filter_value(raw: str) -> Any:
    if raw.lower() in ("none", "null"):
        return None
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        pass
    return raw


def _suggest(name: Any, candidates: Iterable[str]) -> str:
    matches = difflib.get_close_matches(str(name), list(candidates), n=1, cutoff=0.6)
    return f" — did you mean {matches[0]!r}?" if matches else ""


@dataclass(frozen=True)
class _QueryPlan:
    """A validated query, compiled to one SQL statement by the store.

    Built (and fully validated — unknown fields raise ``ValueError`` with
    a did-you-mean suggestion before any I/O) by :meth:`build`.
    """

    filters: Tuple[Tuple[QueryField, str, Any], ...]
    group_fields: Tuple[QueryField, ...]
    order_field: Optional[str]
    descending: bool
    limit: Optional[int]

    @classmethod
    def build(
        cls,
        filters: Iterable[Union[str, Filter]] = (),
        group_by: Optional[Union[str, Sequence[str]]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> "_QueryPlan":
        parsed: List[Tuple[QueryField, str, Any]] = []
        for item in filters or ():
            if isinstance(item, str):
                item = parse_filter(item)
            name, op, value = item
            field = QUERY_FIELDS.get(name)
            if field is None:
                raise ValueError(
                    f"unknown query field {name!r}{_suggest(name, QUERY_FIELDS)} "
                    f"(fields: {', '.join(QUERY_FIELDS)})"
                )
            op = "==" if op == "=" else op
            if op not in FILTER_OPS:
                raise ValueError(
                    f"unknown filter operator {op!r} (choose from {', '.join(FILTER_OPS)})"
                )
            if value is None and op not in ("==", "!="):
                raise ValueError(
                    f"filter {name!r} {op} None: ordering comparisons need a non-null value"
                )
            if field.kind == "metric" and value is not None and not isinstance(value, (int, float)):
                raise ValueError(
                    f"filter on metric {name!r} needs a numeric value, got {value!r}"
                )
            parsed.append((field, op, value))
        group_fields: List[QueryField] = []
        if group_by is not None:
            names = (group_by,) if isinstance(group_by, str) else tuple(group_by)
            for name in names:
                field = QUERY_FIELDS.get(name)
                if field is None or field.kind != "axis":
                    groupable = tuple(
                        f.name for f in QUERY_FIELDS.values() if f.kind == "axis"
                    )
                    raise ValueError(
                        f"group_by field {name!r} must be a scenario axis"
                        f"{_suggest(name, groupable)} (axes: {', '.join(groupable)})"
                    )
                group_fields.append(field)
        order_field: Optional[str] = None
        descending = False
        if order_by:
            # Three descending spellings: '-FIELD' (needs the --order-by=
            # equals form on the CLI, argparse eats the bare '-'), '~FIELD'
            # and 'FIELD:desc' (both safe in the space form).  'FIELD:asc'
            # spells ascending explicitly.
            order_field = str(order_by)
            if order_field[:1] in ("-", "~"):
                descending, order_field = True, order_field[1:]
            if order_field.endswith(":desc"):
                descending, order_field = True, order_field[: -len(":desc")]
            elif order_field.endswith(":asc"):
                descending, order_field = False, order_field[: -len(":asc")]
            if group_fields:
                valid = tuple(f.name for f in group_fields) + GROUP_AGGREGATES
                if order_field not in valid:
                    raise ValueError(
                        f"order_by {order_field!r} must be a group field or aggregate"
                        f"{_suggest(order_field, valid)} (choices: {', '.join(valid)})"
                    )
            elif order_field not in QUERY_FIELDS:
                raise ValueError(
                    f"unknown order_by field {order_field!r}"
                    f"{_suggest(order_field, QUERY_FIELDS)} "
                    f"(fields: {', '.join(QUERY_FIELDS)})"
                )
        if limit is not None:
            limit = int(limit)
            if limit <= 0:
                raise ValueError(f"limit must be positive, got {limit}")
        return cls(tuple(parsed), tuple(group_fields), order_field, descending, limit)


# --------------------------------------------------------------------------- #
# The storage engine.
# --------------------------------------------------------------------------- #

_CREATE_TABLE = """
CREATE TABLE IF NOT EXISTS records (
    key TEXT PRIMARY KEY,
    schema_version INTEGER NOT NULL,
    model TEXT,
    task TEXT,
    sequence_length INTEGER,
    batch_size INTEGER,
    scheme TEXT,
    design TEXT,
    buffer_bytes INTEGER,
    activation_buffer_fraction REAL,
    effective_scheme TEXT,
    scenario TEXT NOT NULL,
    result TEXT NOT NULL,
    fidelity TEXT,
    measured TEXT
)
"""

_PAYLOAD_COLUMNS = "key, scenario, result, fidelity, measured"


def _dumps(payload: Optional[dict]) -> Optional[str]:
    if payload is None:
        return None
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _entry_from_dicts(
    scenario: Any, result: Any, fidelity: Any, measured: Any
) -> StoreEntry:
    return StoreEntry(
        Scenario.from_dict(scenario),
        SimulationResult.from_dict(result),
        None if fidelity is None else FidelityResult.from_dict(fidelity),
        None if measured is None else MeasuredStats.from_dict(measured),
    )


class ArtifactStore:
    """WAL-mode SQLite store of scenario → result records.

    One connection per thread (SQLite connections are not thread-safe);
    every write runs inside a ``BEGIN IMMEDIATE`` transaction with
    retry-on-busy, so any number of threads or processes may share the
    same database file.  Reads never create the store — a missing
    database is an empty store.  Layer it under a
    :class:`~repro.experiments.campaign.ResultCache`
    (``ResultCache(store=...)``) to make campaigns incremental across
    processes.
    """

    #: How long a writer waits on a locked database before giving up.
    BUSY_TIMEOUT_S = 30.0

    def __init__(self, root: Union[str, os.PathLike]) -> None:
        self.root = Path(root)
        self.path = self.root / SQLITE_FILENAME
        self._local = threading.local()
        self._connections: List[sqlite3.Connection] = []
        self._conn_lock = threading.Lock()
        # Keys of rows whose payload failed to rebuild (counted as
        # skipped alongside wrong-schema-version rows).
        self._corrupt: Set[str] = set()
        # Unreadable lines of a legacy log this instance imported.
        self._unreadable_lines = 0
        # Bumped by clear(), which ends any records() scan in flight.
        self._clears = 0

    # -- connection management -------------------------------------------

    def _connect(self, create: bool) -> Optional[sqlite3.Connection]:
        conn: Optional[sqlite3.Connection] = getattr(self._local, "conn", None)
        if conn is not None:
            return conn
        if not (create or self.path.exists() or (self.root / JSONL_FILENAME).exists()):
            return None
        self.root.mkdir(parents=True, exist_ok=True)
        # isolation_level=None: no implicit transactions; writes manage
        # their own BEGIN IMMEDIATE / COMMIT for multi-writer safety.
        conn = sqlite3.connect(str(self.path), timeout=self.BUSY_TIMEOUT_S, isolation_level=None)
        self._execute_when_free(conn, "PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(self.BUSY_TIMEOUT_S * 1000)}")
        if conn.execute("PRAGMA user_version").fetchone()[0] < _SETUP_VERSION:
            try:
                self._write(conn, self._set_up_locked)
            except BaseException:
                conn.close()
                raise
        self._local.conn = conn
        with self._conn_lock:
            self._connections.append(conn)
        return conn

    def _set_up_locked(self, conn: sqlite3.Connection) -> None:
        """Create (or migrate) the schema, importing a legacy log once.

        Runs in one immediate transaction and ends by stamping
        ``PRAGMA user_version``, so concurrent openers wait for it and
        then find the work done, and an interrupted set-up (a killed
        process) is rolled back and simply runs again on the next open.
        A directory written as a JSONL log (``records.jsonl``, no
        database yet) is imported here; the log itself is left as it
        was, and a database that already held the table never imports.
        """
        if conn.execute("PRAGMA user_version").fetchone()[0] >= _SETUP_VERSION:
            return
        fresh = conn.execute(
            "SELECT 1 FROM sqlite_master WHERE type = 'table' AND name = 'records'"
        ).fetchone() is None
        conn.execute(_CREATE_TABLE)
        self._ensure_effective_scheme(conn)
        for column in AXIS_FIELDS + ("effective_scheme", "schema_version"):
            conn.execute(
                f"CREATE INDEX IF NOT EXISTS idx_records_{column} ON records ({column})"
            )
        legacy_log = self.root / JSONL_FILENAME
        if fresh and legacy_log.exists():
            self._unreadable_lines = self._import_locked(conn, legacy_log)[2]
        conn.execute(f"PRAGMA user_version = {_SETUP_VERSION}")

    def _execute_when_free(self, conn: sqlite3.Connection, sql: str) -> None:
        """Run ``sql``, retrying for up to ``BUSY_TIMEOUT_S`` while locked.

        ``BEGIN IMMEDIATE``, and ``PRAGMA journal_mode=WAL`` on a fresh
        file, can fail with "database is locked" at once instead of waiting
        on the connection's busy timeout.
        """
        deadline = time.monotonic() + self.BUSY_TIMEOUT_S
        while True:
            try:
                conn.execute(sql)
                return
            except sqlite3.OperationalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.005)

    @staticmethod
    def _ensure_effective_scheme(conn: sqlite3.Connection) -> None:
        """Migrate pre-existing databases to the materialised scheme column.

        ``effective_scheme`` holds what the report's scheme column shows
        (the scenario's override, else the result's design name) so the
        ``--scheme``/``effective_scheme`` filter compiles to an indexed
        SQL comparison instead of rebuilding every result payload.  The
        backfill expression is
        ``COALESCE(scheme, json_extract(result, '$.design_name'))`` —
        exactly what :meth:`put` writes.  Runs inside the set-up
        transaction.
        """
        columns = {row[1] for row in conn.execute("PRAGMA table_info(records)")}
        if "effective_scheme" not in columns:
            conn.execute("ALTER TABLE records ADD COLUMN effective_scheme TEXT")
            conn.execute(
                "UPDATE records SET effective_scheme = "
                "COALESCE(scheme, json_extract(result, '$.design_name'))"
            )

    def close(self) -> None:
        """Close every connection this instance opened (all threads)."""
        with self._conn_lock:
            conns, self._connections = self._connections, []
        for conn in conns:
            try:
                conn.close()
            except sqlite3.Error:
                pass
        self._local = threading.local()

    def _write(self, conn: sqlite3.Connection, work) -> Any:
        """Run ``work(conn)`` inside an immediate transaction, retrying on busy."""
        self._execute_when_free(conn, "BEGIN IMMEDIATE")
        try:
            value = work(conn)
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        return value

    # -- row <-> entry ----------------------------------------------------

    def _rebuild(self, row: Sequence[Any]) -> Optional[StoreEntry]:
        key, *payloads = row
        try:
            return _entry_from_dicts(
                *(None if payload is None else json.loads(payload) for payload in payloads)
            )
        except (ValueError, KeyError, TypeError, AttributeError):
            self._corrupt.add(key)
            return None

    # -- read surface -----------------------------------------------------

    @property
    def skipped(self) -> int:
        """Records this code version cannot read: stored rows of another
        schema version, rows whose payload failed to rebuild so far, and
        the unreadable lines of a legacy log this instance imported."""
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (stale,) = conn.execute(
            "SELECT COUNT(*) FROM records WHERE schema_version != ?", (SCHEMA_VERSION,)
        ).fetchone()
        return int(stale) + len(self._corrupt) + self._unreadable_lines

    def __len__(self) -> int:
        conn = self._connect(create=False)
        if conn is None:
            return 0
        (count,) = conn.execute(
            "SELECT COUNT(*) FROM records WHERE schema_version = ?", (SCHEMA_VERSION,)
        ).fetchone()
        return int(count) - len(self._corrupt)

    def __contains__(self, scenario: Scenario) -> bool:
        return self._fetch_entry(scenario_key(scenario)) is not None

    def _fetch_entry(self, key: str) -> Optional[StoreEntry]:
        conn = self._connect(create=False)
        if conn is None or key in self._corrupt:
            return None
        row = conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM records WHERE key = ? AND schema_version = ?",
            (key, SCHEMA_VERSION),
        ).fetchone()
        if row is None:
            return None
        return self._rebuild(row)

    def get(self, scenario: Scenario) -> Optional[SimulationResult]:
        """The stored result for ``scenario``, or ``None``."""
        entry = self._fetch_entry(scenario_key(scenario))
        return entry.result if entry is not None else None

    def get_fidelity(self, scenario: Scenario) -> Optional[FidelityResult]:
        """The stored fidelity for ``scenario``, or ``None``."""
        entry = self._fetch_entry(scenario_key(scenario))
        return entry.fidelity if entry is not None else None

    def get_measured(self, scenario: Scenario) -> Optional[MeasuredStats]:
        """The stored measured stats for ``scenario``, or ``None``."""
        entry = self._fetch_entry(scenario_key(scenario))
        return entry.measured if entry is not None else None

    def keys(self) -> List[str]:
        conn = self._connect(create=False)
        if conn is None:
            return []
        rows = conn.execute(
            "SELECT key FROM records WHERE schema_version = ? ORDER BY rowid",
            (SCHEMA_VERSION,),
        ).fetchall()
        return [key for (key,) in rows if key not in self._corrupt]

    def records(self) -> Iterator[StoreEntry]:
        """All readable entries, in insertion order, as a lazy cursor scan.

        Each :class:`StoreEntry` unpacks as ``(scenario, result,
        fidelity, measured)``; the optional parts are ``None`` for
        hardware-only records.  Rows stream straight off a SQLite cursor
        (rowid order — stable under upgrades, which UPDATE in place), so
        a prefix read only deserializes the prefix; rows that fail to
        rebuild are counted into :attr:`skipped` and skipped.  Records
        put after the scan starts are not yielded, and a :meth:`clear`
        on this instance ends the scan.
        """
        conn = self._connect(create=False)
        if conn is None:
            return
        clears = self._clears
        cursor = conn.execute(
            f"SELECT {_PAYLOAD_COLUMNS} FROM records WHERE schema_version = ? "
            f"AND rowid <= (SELECT MAX(rowid) FROM records) ORDER BY rowid",
            (SCHEMA_VERSION,),
        )
        for row in cursor:
            if self._clears != clears:
                return
            entry = self._rebuild(row)
            if entry is not None:
                yield entry

    def refresh(self) -> None:
        """Forget remembered corrupt rows; SQLite reads are always live."""
        self._corrupt = set()

    # -- query pushdown ---------------------------------------------------

    def query(
        self,
        filters: Iterable[Union[str, Filter]] = (),
        group_by: Optional[Union[str, Sequence[str]]] = None,
        order_by: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> Union[Iterator[StoreEntry], List[Dict[str, Any]]]:
        """Filtered (and optionally grouped) view, evaluated inside SQLite.

        The query is validated first (unknown fields raise ``ValueError``
        with a did-you-mean suggestion), then compiled to one SQL
        statement over the indexed axis columns (metrics via
        ``json_extract``), so filtering, grouping, ordering and ``limit``
        all happen in the database and only surviving rows are
        deserialized.  Comparisons follow SQL: a concrete comparison
        (``!=`` included) never matches a NULL axis, ``field=none`` /
        ``field!=none`` test for NULL, and NULLs order first ascending,
        last descending.

        Args:
            filters: ``(field, op, value)`` triples or CLI-style strings
                (see :func:`parse_filter`); fields are the scenario axes
                plus the headline result metrics (:data:`QUERY_FIELDS`).
            group_by: Axis name(s); switches the return value to a list
                of aggregate row dicts (group fields + ``count`` /
                ``with_fidelity`` / ``with_measured`` + min/mean of
                :data:`GROUP_METRICS`), ordered by the group fields.
            order_by: Field to order entries by (or, grouped, a group
                field / aggregate name); ``-FIELD``, ``~FIELD`` and
                ``FIELD:desc`` order descending, ``FIELD:asc`` ascending.
                Ties keep insertion (or group-key) order.
            limit: Keep only the first ``limit`` entries/rows.

        Returns:
            A lazy iterator of :class:`StoreEntry` (no ``group_by``) or a
            list of aggregate row dicts (with ``group_by``).
        """
        plan = _QueryPlan.build(filters, group_by, order_by, limit)
        conn = self._connect(create=False)
        if conn is None:
            if plan.group_fields:
                return []
            return iter(())
        where, params = self._compile_filters(plan)
        if plan.group_fields:
            return self._query_groups(conn, plan, where, params)
        return self._query_entries(conn, plan, where, params)

    @staticmethod
    def _compile_filters(plan: _QueryPlan) -> Tuple[List[str], List[Any]]:
        where = ["schema_version = ?"]
        params: List[Any] = [SCHEMA_VERSION]
        for field, op, value in plan.filters:
            if value is None:
                where.append(f"{field.sql} IS {'NULL' if op == '==' else 'NOT NULL'}")
            else:
                where.append(f"{field.sql} {'=' if op == '==' else op} ?")
                params.append(value)
        return where, params

    def _query_entries(
        self, conn: sqlite3.Connection, plan: _QueryPlan, where: List[str], params: List[Any]
    ) -> Iterator[StoreEntry]:
        order = ["rowid"]
        if plan.order_field is not None:
            field = QUERY_FIELDS[plan.order_field]
            order.insert(0, f"{field.sql} {'DESC' if plan.descending else 'ASC'}")
        sql = (
            f"SELECT {_PAYLOAD_COLUMNS} FROM records "
            f"WHERE {' AND '.join(where)} ORDER BY {', '.join(order)}"
        )
        if plan.limit is not None:
            sql += " LIMIT ?"
            params = params + [plan.limit]

        def rows() -> Iterator[StoreEntry]:
            for row in conn.execute(sql, params):
                entry = self._rebuild(row)
                if entry is not None:
                    yield entry

        return rows()

    def _query_groups(
        self, conn: sqlite3.Connection, plan: _QueryPlan, where: List[str], params: List[Any]
    ) -> List[Dict[str, Any]]:
        group_cols = [field.sql for field in plan.group_fields]
        select = [f'{field.sql} AS "{field.name}"' for field in plan.group_fields]
        select.append('COUNT(*) AS "count"')
        select.append('SUM(fidelity IS NOT NULL) AS "with_fidelity"')
        select.append('SUM(measured IS NOT NULL) AS "with_measured"')
        for metric in GROUP_METRICS:
            expr = QUERY_FIELDS[metric].sql
            select.append(f'MIN({expr}) AS "min_{metric}"')
            select.append(f'AVG({expr}) AS "mean_{metric}"')
        # Group keys are always secondary sort keys: ties under an explicit
        # order_by fall back to the default group-key order.
        order_terms = [f'"{field.name}" ASC' for field in plan.group_fields]
        if plan.order_field is not None:
            order_terms.insert(
                0, f'"{plan.order_field}" {"DESC" if plan.descending else "ASC"}'
            )
        order = ", ".join(order_terms)
        sql = (
            f"SELECT {', '.join(select)} FROM records WHERE {' AND '.join(where)} "
            f"GROUP BY {', '.join(group_cols)} ORDER BY {order}"
        )
        if plan.limit is not None:
            sql += " LIMIT ?"
            params = params + [plan.limit]
        cursor = conn.execute(sql, params)
        names = [desc[0] for desc in cursor.description]
        return [dict(zip(names, row)) for row in cursor.fetchall()]

    # -- mutation ---------------------------------------------------------

    def put(
        self,
        scenario: Scenario,
        result: SimulationResult,
        fidelity: Optional[FidelityResult] = None,
        measured: Optional[MeasuredStats] = None,
    ) -> bool:
        """Persist one record; returns ``False`` if nothing new was stored.

        An existing record only changes when a missing part (fidelity /
        measured) is offered: the upgrade carries every part already
        known plus the new one, replaces the scenario and result payloads,
        and keeps the row's original insertion position (UPDATE leaves
        rowid unchanged).  The decision and the write happen in one
        ``BEGIN IMMEDIATE`` transaction, so concurrent upgraders never
        lose a part.
        """
        conn = self._connect(create=True)
        return self._write(conn, lambda c: self._put_locked(c, scenario, result, fidelity, measured))

    def _put_locked(
        self,
        conn: sqlite3.Connection,
        scenario: Scenario,
        result: SimulationResult,
        fidelity: Optional[FidelityResult],
        measured: Optional[MeasuredStats],
    ) -> bool:
        key = scenario_key(scenario)
        effective_scheme = (
            scenario.scheme if scenario.scheme is not None else result.design_name
        )
        row = conn.execute(
            "SELECT fidelity, measured FROM records WHERE key = ? AND schema_version = ?",
            (key, SCHEMA_VERSION),
        ).fetchone()
        if row is not None:
            existing_fidelity, existing_measured = row
            adds_fidelity = fidelity is not None and existing_fidelity is None
            adds_measured = measured is not None and existing_measured is None
            if not adds_fidelity and not adds_measured:
                return False
            fidelity_json = _dumps(fidelity.to_dict()) if fidelity is not None else existing_fidelity
            measured_json = _dumps(measured.to_dict()) if measured is not None else existing_measured
            conn.execute(
                "UPDATE records SET schema_version = ?, scenario = ?, result = ?, "
                "effective_scheme = ?, fidelity = ?, measured = ? WHERE key = ?",
                (
                    SCHEMA_VERSION,
                    _dumps(scenario.to_dict()),
                    _dumps(result.to_dict()),
                    effective_scheme,
                    fidelity_json,
                    measured_json,
                    key,
                ),
            )
            return True
        axis_values = tuple(getattr(scenario, name) for name in AXIS_FIELDS)
        conn.execute(
            f"INSERT OR REPLACE INTO records "
            f"(key, schema_version, {', '.join(AXIS_FIELDS)}, effective_scheme, "
            f"scenario, result, fidelity, measured) "
            f"VALUES ({', '.join('?' * (len(AXIS_FIELDS) + 7))})",
            (key, SCHEMA_VERSION)
            + axis_values
            + (
                effective_scheme,
                _dumps(scenario.to_dict()),
                _dumps(result.to_dict()),
                _dumps(fidelity.to_dict()) if fidelity is not None else None,
                _dumps(measured.to_dict()) if measured is not None else None,
            ),
        )
        return True

    def put_many(self, entries: Iterable[StoreEntry]) -> int:
        """Persist many entries in one write transaction; returns how many
        stored anything (the bulk-load and import path)."""
        conn = self._connect(create=True)

        def work(c: sqlite3.Connection) -> int:
            return sum(
                1
                for entry in entries
                if self._put_locked(c, entry.scenario, entry.result, entry.fidelity, entry.measured)
            )

        return self._write(conn, work)

    def _import_locked(self, conn: sqlite3.Connection, path: Path) -> Tuple[int, int, int]:
        """Load the JSONL log at ``path`` inside the caller's transaction.

        Returns ``(stored, other_version, unreadable)``: how many records
        stored anything, how many keys of another ``schema_version`` were
        kept (verbatim, as rows of their own version that :attr:`skipped`
        counts), and how many lines could not be read at all.
        """
        entries, other_version, unreadable = read_jsonl(path)
        stored = sum(
            1
            for entry in entries
            if self._put_locked(conn, entry.scenario, entry.result, entry.fidelity, entry.measured)
        )
        conn.executemany(
            "INSERT OR IGNORE INTO records "
            "(key, schema_version, scenario, result, fidelity, measured) "
            "VALUES (?, ?, ?, ?, ?, ?)",
            [
                (key, record["schema_version"])
                + tuple(
                    json.dumps(record.get(part), sort_keys=True, separators=(",", ":"))
                    for part in ("scenario", "result")
                )
                + tuple(_dumps(record.get(part)) for part in ("fidelity", "measured"))
                for key, record in other_version.items()
            ],
        )
        return stored, len(other_version), unreadable

    def clear(self) -> int:
        """Delete every record; returns how many current-schema records existed.

        The database file itself remains (WAL and connections stay
        valid), so other writers sharing the store keep working.
        """
        conn = self._connect(create=False)
        if conn is None:
            return 0

        def work(c: sqlite3.Connection) -> int:
            (count,) = c.execute(
                "SELECT COUNT(*) FROM records WHERE schema_version = ?", (SCHEMA_VERSION,)
            ).fetchone()
            c.execute("DELETE FROM records")
            return int(count) - len(self._corrupt)

        count = self._write(conn, work)
        self._corrupt = set()
        self._unreadable_lines = 0
        self._clears += 1
        return count


def open_store(
    root: Union[str, os.PathLike], backend: str = DEFAULT_STORE_BACKEND
) -> ArtifactStore:
    """Open the artifact store at ``root``.

    ``backend`` can only name the one engine, ``"sqlite"``; any other
    name raises ``ValueError``.
    """
    if backend != DEFAULT_STORE_BACKEND:
        raise ValueError(
            f"unknown store backend {backend!r}: stores are SQLite only "
            f"(load a JSONL log with `repro store import LOG DIR`)"
        )
    return ArtifactStore(root)


# --------------------------------------------------------------------------- #
# JSONL interchange.
# --------------------------------------------------------------------------- #


def _jsonl_line(entry: StoreEntry) -> str:
    record: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "key": scenario_key(entry.scenario),
        "scenario": entry.scenario.to_dict(),
        "result": entry.result.to_dict(),
    }
    if entry.fidelity is not None:
        record["fidelity"] = entry.fidelity.to_dict()
    if entry.measured is not None:
        record["measured"] = entry.measured.to_dict()
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def export_jsonl(store: ArtifactStore, path: Union[str, os.PathLike]) -> int:
    """Write every readable record of ``store`` to a JSONL log at ``path``.

    One canonical (sorted-key, compact) JSON object per key, in insertion
    order, so exporting the import of an export reproduces it byte for
    byte.  The log is written beside ``path`` and moved into place when
    complete, so an interrupted export leaves no partial file, and
    exporting over the legacy log the store imports from reads it first.
    Returns how many records were written.
    """
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
    count = 0
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            for entry in store.records():
                handle.write(_jsonl_line(entry) + "\n")
                count += 1
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return count


def read_jsonl(
    path: Union[str, os.PathLike],
) -> Tuple[List[StoreEntry], Dict[str, Dict[str, Any]], int]:
    """Read a JSONL log: ``(entries, other_version, unreadable)``.

    A log may hold several lines per key (an upgrade appends a fuller
    record): the last line wins, at the key's first position.  Keyed
    lines of another integer ``schema_version`` are returned raw in
    ``other_version`` (key → record, last line wins); ``unreadable``
    counts the non-blank lines that are neither — lines that do not parse
    (a torn last line, say) or whose payload does not rebuild.
    """
    index: Dict[str, StoreEntry] = {}
    other_version: Dict[str, Dict[str, Any]] = {}
    unreadable = 0
    with Path(path).open("rb") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                version = record.get("schema_version")
                if version != SCHEMA_VERSION:
                    if type(version) is not int or not isinstance(record.get("key"), str):
                        raise ValueError("unkeyed record of an unknown schema version")
                    other_version[record["key"]] = record
                    continue
                entry = _entry_from_dicts(
                    record["scenario"],
                    record["result"],
                    record.get("fidelity"),
                    record.get("measured"),
                )
                key = record.get("key") or scenario_key(entry.scenario)
            except (ValueError, KeyError, TypeError, AttributeError):
                unreadable += 1
                continue
            index[key] = entry
    return list(index.values()), other_version, unreadable


def import_jsonl(path: Union[str, os.PathLike], store: ArtifactStore) -> Tuple[int, int]:
    """Load a JSONL log into ``store`` in one transaction.

    Keys already in ``store`` merge under the usual upgrade rules; keys
    of another schema version are kept as rows of that version.  Returns
    ``(stored, skipped)``: how many records stored anything, and how many
    keys of another schema version plus unreadable lines were skipped.
    """
    conn = store._connect(create=True)
    stored, other_version, unreadable = store._write(
        conn, lambda c: store._import_locked(c, Path(path))
    )
    return stored, other_version + unreadable
