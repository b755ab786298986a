"""Tests for the SQLite store backend, migration, and crash safety.

The SQLite backend must honor the exact store contract the JSON layout
established — same envelope, same KB-fingerprint invalidation, same
corruption-as-miss forgiveness — while adding what JSON cannot: single
file, batched transactions, and in-place migration.  The crash drills
are the heart of it: a SIGKILL'd writer mid-transaction, a corrupted
database image, and a corrupted ``-wal`` sidecar must every one degrade
to cache misses, never to a wrong report.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time

import pytest

from repro.core.pipeline import BatchGrader, source_key
from repro.core.storage import ResultStore, resolve_backend
from repro.core.storage.migrate import migrate_to_sqlite
from repro.core.storage.sqlite_backend import SqliteBackend, database_path
from repro.kb import get_assignment


@pytest.fixture()
def store(assignment1, tmp_path):
    return ResultStore(tmp_path, assignment1, backend="sqlite")


def _report(assignment1, engine1):
    return engine1.grade(assignment1.reference_solutions[0])


class TestBackendResolution:
    def test_directory_defaults_to_json(self, tmp_path):
        assert resolve_backend(tmp_path) == "json"

    def test_database_file_in_directory_flips_auto(self, tmp_path):
        (tmp_path / "store.sqlite").touch()
        assert resolve_backend(tmp_path) == "sqlite"

    def test_database_suffix_resolves_sqlite(self, tmp_path):
        assert resolve_backend(tmp_path / "cache.sqlite") == "sqlite"
        assert resolve_backend(tmp_path / "cache.db") == "sqlite"

    def test_explicit_backend_wins_over_detection(self, tmp_path):
        (tmp_path / "store.sqlite").touch()
        assert resolve_backend(tmp_path, "json") == "json"

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            resolve_backend(tmp_path, "postgres")

    def test_store_exposes_backend_name(self, tmp_path, assignment1):
        assert ResultStore(tmp_path, assignment1).backend_name == "json"
        assert (
            ResultStore(tmp_path, assignment1, backend="sqlite").backend_name
            == "sqlite"
        )


class TestSqliteRoundTrip:
    def test_put_then_get(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        assert store.put("k" * 64, report) is True
        loaded = store.get("k" * 64)
        assert loaded is not None
        assert loaded.to_dict() == report.to_dict()
        assert loaded.render() == report.render()

    def test_single_database_file(self, store, tmp_path, assignment1, engine1):
        store.put("a" * 64, _report(assignment1, engine1))
        store.put("b" * 64, _report(assignment1, engine1))
        files = [
            p for p in tmp_path.rglob("*")
            if p.is_file() and not p.name.startswith("store.sqlite")
        ]
        assert files == []  # no per-entry files, ever
        assert store.entry_count() == 2

    def test_missing_key_is_a_miss(self, store):
        assert store.get("0" * 64) is None
        assert store.entry_count() == 0

    def test_cluster_records_round_trip(self, store):
        record = {"fingerprint": "f" * 64, "members": ["a", "b"]}
        assert store.put_cluster("f" * 64, record) is True
        assert store.get_cluster("f" * 64) == record

    def test_campaign_records_round_trip(self, store):
        record = {"digest": "d" * 64, "count": 10}
        assert store.put_campaign("c1/shard-00000000", record) is True
        assert store.get_campaign("c1/shard-00000000") == record
        assert store.get_campaign("c1/shard-00000001") is None

    def test_cluster_link_round_trips(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        store.put("d" * 64, report, cluster="f" * 64)
        assert store.cluster_key("d" * 64) == "f" * 64
        store.put("e" * 64, report)
        assert store.cluster_key("e" * 64) is None

    def test_kb_change_invalidates_entries(
        self, tmp_path, assignment1, engine1
    ):
        report = _report(assignment1, engine1)
        old = ResultStore(tmp_path, assignment1, backend="sqlite")
        old.put("f" * 64, report)
        changed = dataclasses.replace(
            assignment1,
            synthesize_else_conditions=(
                not assignment1.synthesize_else_conditions
            ),
        )
        new = ResultStore(tmp_path, changed, backend="sqlite")
        assert new.get("f" * 64) is None
        assert old.get("f" * 64) is not None

    def test_assignments_do_not_collide(self, tmp_path, engine1):
        a1 = get_assignment("assignment1")
        a2 = get_assignment("esc-LAB-3-P1-V1")
        report = engine1.grade(a1.reference_solutions[0])
        ResultStore(tmp_path, a1, backend="sqlite").put("a" * 64, report)
        assert (
            ResultStore(tmp_path, a2, backend="sqlite").get("a" * 64) is None
        )

    def test_concurrent_thread_writers(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        failures: list[str] = []

        def write(i: int) -> None:
            key = f"{i:02d}" + "0" * 62
            if not store.put(key, report):
                failures.append(key)

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        assert store.entry_count() == 16

    def test_concurrent_first_opens_all_write(self, tmp_path):
        # 16 threads open their first connection to a fresh database at
        # the same instant: each races the WAL switch and table creation
        backend = SqliteBackend(tmp_path, ("assignment1", "kb"))
        barrier = threading.Barrier(16)
        results: list[bool] = []

        def write(i: int) -> None:
            barrier.wait()
            results.append(backend.write("entry", f"key{i}", {"i": i}))

        threads = [
            threading.Thread(target=write, args=(i,)) for i in range(16)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert results == [True] * 16
        assert backend.count("entry") == 16

    def test_busy_wal_switch_is_retried(self, tmp_path, monkeypatch):
        # SQLite can refuse the WAL switch with an immediate SQLITE_BUSY
        # (no busy handler); the first open must retry, not fail the write
        refusals = []
        connect = sqlite3.connect

        class RefusingConnection:
            def __init__(self, conn):
                self._conn = conn

            def execute(self, sql, *args):
                if sql == "PRAGMA journal_mode=WAL" and len(refusals) < 3:
                    refusals.append(sql)
                    raise sqlite3.OperationalError("database is locked")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        monkeypatch.setattr(
            sqlite3, "connect",
            lambda *args, **kwargs: RefusingConnection(connect(*args, **kwargs)),
        )
        backend = SqliteBackend(tmp_path, ("assignment1", "kb"))
        assert backend.write("entry", "key", {"ok": 1}) is True
        assert len(refusals) == 3
        assert backend.read("entry", "key") == {"ok": 1}
        mode = connect(database_path(tmp_path)).execute(
            "PRAGMA journal_mode"
        ).fetchone()[0]
        assert mode == "wal"


class TestCrossBackendIdentity:
    def test_reports_byte_identical_across_backends(
        self, tmp_path, assignment1, engine1
    ):
        report = _report(assignment1, engine1)
        json_store = ResultStore(
            tmp_path / "json", assignment1, backend="json"
        )
        sqlite_store = ResultStore(
            tmp_path / "sqlite", assignment1, backend="sqlite"
        )
        key = source_key(assignment1.reference_solutions[0])
        assert json_store.put(key, report)
        assert sqlite_store.put(key, report)
        from_json = json_store.get(key)
        from_sqlite = sqlite_store.get(key)
        assert from_json.render() == from_sqlite.render()
        assert (
            json.dumps(from_json.to_dict(), sort_keys=True)
            == json.dumps(from_sqlite.to_dict(), sort_keys=True)
        )

    def test_envelopes_identical_across_backends(
        self, tmp_path, assignment1, engine1
    ):
        """The stored envelope itself is backend-independent — which is
        what makes migration a verbatim copy."""
        report = _report(assignment1, engine1)
        key = "a" * 64
        json_store = ResultStore(tmp_path, assignment1, backend="json")
        json_store.put(key, report)
        json_envelope = json.loads(json_store.path_for(key).read_text())
        sqlite_store = ResultStore(
            tmp_path / "db", assignment1, backend="sqlite"
        )
        sqlite_store.put(key, report)
        sqlite_envelope = sqlite_store.backend.read("entry", key)
        assert json_envelope == sqlite_envelope


class TestBatch:
    def test_batch_commits_all_writes(self, store, assignment1, engine1):
        report = _report(assignment1, engine1)
        with store.batch():
            for i in range(8):
                assert store.put(f"{i:02d}" + "a" * 62, report)
        reader = ResultStore(store.root, assignment1, backend="sqlite")
        assert reader.entry_count() == 8

    def test_exception_rolls_back_the_batch(
        self, store, assignment1, engine1
    ):
        report = _report(assignment1, engine1)
        with pytest.raises(RuntimeError):
            with store.batch():
                store.put("1" * 64, report)
                store.put("2" * 64, report)
                raise RuntimeError("boom")
        reader = ResultStore(store.root, assignment1, backend="sqlite")
        assert reader.get("1" * 64) is None
        assert reader.get("2" * 64) is None
        assert reader.entry_count() == 0
        # the store recovers: the next write lands normally
        assert store.put("3" * 64, report)
        assert reader.entry_count() == 1

    def test_json_backend_batch_is_a_noop(self, tmp_path, assignment1,
                                          engine1):
        store = ResultStore(tmp_path, assignment1, backend="json")
        with store.batch():
            store.put("a" * 64, _report(assignment1, engine1))
        assert store.entry_count() == 1


_CRASH_WRITER = """
import os, sys, time
sys.path.insert(0, {src!r})
from repro.core.storage import ResultStore
from repro.core.report import GradingReport
from repro.kb import get_assignment

assignment = get_assignment("assignment1")
store = ResultStore({root!r}, assignment, backend="sqlite")
report = GradingReport(assignment_name=assignment.name)
batch = store.batch()
batch.__enter__()
for i in range(50):
    store.put(f"{{i:02d}}" + "c" * 62, report)
print("READY", flush=True)
time.sleep(30)  # killed here, mid-transaction
"""


class TestCrashSafety:
    def test_sigkilled_writer_mid_transaction_reads_as_misses(
        self, tmp_path, assignment1
    ):
        """Kill -9 a writer inside an open batch: nothing it wrote is
        visible, and the database stays fully usable."""
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = _CRASH_WRITER.format(src=src, root=str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "READY" in line, proc.stderr.read()
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
        store = ResultStore(tmp_path, assignment1, backend="sqlite")
        for i in range(50):
            assert store.get(f"{i:02d}" + "c" * 62) is None
        assert store.entry_count() == 0
        # and the database is not wedged: new writes land
        from repro.core.report import GradingReport

        assert store.put(
            "d" * 64, GradingReport(assignment_name=assignment1.name)
        )
        assert store.entry_count() == 1

    def test_corrupt_database_image_degrades_to_misses(
        self, tmp_path, assignment1, engine1
    ):
        store = ResultStore(tmp_path, assignment1, backend="sqlite")
        store.put("a" * 64, _report(assignment1, engine1))
        store.backend._discard_connection()  # checkpoint WAL into the db
        db = database_path(tmp_path)
        db.write_bytes(b"this is not a sqlite database " * 64)
        for sidecar in ("-wal", "-shm"):
            (db.parent / (db.name + sidecar)).unlink(missing_ok=True)
        fresh = ResultStore(tmp_path, assignment1, backend="sqlite")
        assert fresh.get("a" * 64) is None
        assert fresh.entry_count() == 0

    def test_corrupt_wal_sidecar_never_yields_wrong_report(
        self, tmp_path, assignment1, engine1
    ):
        """Garbage in the ``-wal`` sidecar: reads either recover the
        committed state or miss — never a corrupted report."""
        store = ResultStore(tmp_path, assignment1, backend="sqlite")
        report = _report(assignment1, engine1)
        store.put("a" * 64, report)
        store.backend._discard_connection()  # checkpoint + close
        db = database_path(tmp_path)
        (db.parent / (db.name + "-wal")).write_bytes(os.urandom(4096))
        fresh = ResultStore(tmp_path, assignment1, backend="sqlite")
        loaded = fresh.get("a" * 64)
        assert loaded is None or loaded.to_dict() == report.to_dict()

    def test_truncated_entry_payload_is_a_miss(self, tmp_path, assignment1):
        """A torn row (truncated JSON in the entry column) is a miss."""
        store = ResultStore(tmp_path, assignment1, backend="sqlite")
        backend = store.backend
        conn = backend._connection()
        conn.execute(
            "INSERT INTO records (assignment, kb, kind, key, entry)"
            " VALUES (?, ?, ?, ?, ?)",
            (backend._assignment, backend._kb, "entry", "t" * 64,
             '{"schema": 1, "kb": "tr'),
        )
        conn.commit()
        assert store.get("t" * 64) is None


class TestMigration:
    def _populate(self, tmp_path, assignment1, engine1):
        store = ResultStore(tmp_path, assignment1, backend="json")
        report = _report(assignment1, engine1)
        keys = [f"{i:02d}" + "b" * 62 for i in range(6)]
        for key in keys:
            store.put(key, report, cluster="f" * 64)
        store.put_cluster("f" * 64, {"members": keys})
        store.put_repair("d" * 64, {"source": "void m() {}", "origin": "x"})
        store.put_campaign("c1/header", {"shard_size": 100})
        return store, report, keys

    def test_migrate_copies_every_record_kind(
        self, tmp_path, assignment1, engine1
    ):
        _, report, keys = self._populate(tmp_path, assignment1, engine1)
        stats = migrate_to_sqlite(tmp_path)
        assert stats.migrated == {
            "entry": 6, "cluster": 1, "repair": 1, "campaign": 1,
        }
        assert stats.skipped == 0
        migrated = ResultStore(tmp_path, assignment1, backend="sqlite")
        for key in keys:
            assert migrated.get(key).to_dict() == report.to_dict()
            assert migrated.cluster_key(key) == "f" * 64
        assert migrated.get_cluster("f" * 64) == {"members": keys}
        assert migrated.get_repair("d" * 64) == {
            "source": "void m() {}", "origin": "x",
        }
        assert migrated.get_campaign("c1/header") == {"shard_size": 100}

    def test_migration_flips_auto_detection(
        self, tmp_path, assignment1, engine1
    ):
        _, report, keys = self._populate(tmp_path, assignment1, engine1)
        assert ResultStore(tmp_path, assignment1).backend_name == "json"
        migrate_to_sqlite(tmp_path)
        flipped = ResultStore(tmp_path, assignment1)
        assert flipped.backend_name == "sqlite"
        assert flipped.get(keys[0]).to_dict() == report.to_dict()

    def test_remove_json_deletes_migrated_files(
        self, tmp_path, assignment1, engine1
    ):
        self._populate(tmp_path, assignment1, engine1)
        migrate_to_sqlite(tmp_path, remove_json=True)
        assert list(tmp_path.rglob("*.json")) == []
        assert ResultStore(tmp_path, assignment1).entry_count() == 6

    def test_corrupt_entries_are_skipped_not_migrated(
        self, tmp_path, assignment1, engine1
    ):
        store, _, _ = self._populate(tmp_path, assignment1, engine1)
        store.path_for("ff" + "0" * 62).parent.mkdir(
            parents=True, exist_ok=True
        )
        store.path_for("ff" + "0" * 62).write_text("{torn")
        stats = migrate_to_sqlite(tmp_path)
        assert stats.skipped == 1
        assert stats.migrated["entry"] == 6

    def test_migration_is_idempotent(self, tmp_path, assignment1, engine1):
        self._populate(tmp_path, assignment1, engine1)
        first = migrate_to_sqlite(tmp_path)
        second = migrate_to_sqlite(tmp_path)
        assert first.total == second.total
        assert ResultStore(tmp_path, assignment1).entry_count() == 6

    def test_empty_root_still_creates_database(self, tmp_path):
        stats = migrate_to_sqlite(tmp_path)
        assert stats.total == 0
        assert database_path(tmp_path).is_file()
        assert resolve_backend(tmp_path) == "sqlite"


class TestJsonSkipUnchangedWrite:
    def test_identical_rewrite_skips_the_replace(
        self, tmp_path, assignment1, engine1
    ):
        store = ResultStore(tmp_path, assignment1, backend="json")
        report = _report(assignment1, engine1)
        assert store.put("a" * 64, report)
        path = store.path_for("a" * 64)
        before = path.stat()
        time.sleep(0.01)  # let any rewrite move mtime_ns
        assert store.put("a" * 64, report) is True
        after = path.stat()
        assert (before.st_ino, before.st_mtime_ns) == (
            after.st_ino, after.st_mtime_ns
        )

    def test_changed_entry_is_rewritten(self, tmp_path, assignment1,
                                        engine1):
        store = ResultStore(tmp_path, assignment1, backend="json")
        report = _report(assignment1, engine1)
        store.put("a" * 64, report)
        path = store.path_for("a" * 64)
        before = path.stat().st_ino
        store.put("a" * 64, report, cluster="f" * 64)  # different envelope
        assert store.cluster_key("a" * 64) == "f" * 64
        assert path.stat().st_ino != before


class TestPipelineIntegration:
    def test_batch_grader_store_backend_kwarg(
        self, tmp_path, assignment1
    ):
        grader = BatchGrader(
            assignment1, store=tmp_path, store_backend="sqlite"
        )
        good = assignment1.reference_solutions[0]
        result = grader.grade_batch([good])
        assert result.stats.counters.get("cache.store_writes") == 1
        assert database_path(tmp_path).is_file()
        warm = BatchGrader(
            assignment1, store=tmp_path, store_backend="sqlite"
        )
        replay = warm.grade_batch([good])
        assert replay.stats.counters.get("cache.store_hits") == 1
        assert replay.stats.graded == 0
        assert replay.rendered() == result.rendered()

    def test_process_mode_cluster_workers_share_sqlite_store(
        self, tmp_path, assignment1
    ):
        store = ResultStore(tmp_path, assignment1, backend="sqlite")
        grader = BatchGrader(
            assignment1, mode="process", workers=2, store=store,
            cluster=True,
        )
        good = assignment1.reference_solutions[0]
        cohort = [(f"s{i}", good + f"\n// v{i}") for i in range(4)]
        result = grader.grade_batch(cohort)
        assert [r.status for r in result.reports] == ["ok"] * 4
        serial = BatchGrader(assignment1).grade_batch(cohort)
        assert result.rendered() == serial.rendered()

    def test_sqlite3_module_is_importable(self):
        """CI guard: the interpreter must ship the sqlite3 extension."""
        assert sqlite3.sqlite_version_info >= (3, 7, 0)  # WAL support
