"""Inspection tooling: dumps must be accurate and latch-safe."""

from repro.database import Database
from repro.ext.btree import BTreeExtension
from repro.tools.inspect import (
    describe_record,
    dump_log,
    dump_tree,
    format_stats,
    lock_table_report,
)


def build():
    db = Database(page_capacity=4)
    tree = db.create_tree("t", BTreeExtension())
    txn = db.begin()
    for i in range(10):
        tree.insert(txn, i, f"r{i}")
    db.commit(txn)
    return db, tree


class TestDumpTree:
    def test_contains_every_node(self):
        db, tree = build()
        text = dump_tree(tree)
        for pid in tree.all_pids():
            assert f"[{pid}]" in text

    def test_shows_tombstones(self):
        db, tree = build()
        txn = db.begin()
        tree.delete(txn, 3, "r3")
        db.commit(txn)
        text = dump_tree(tree, max_entries=10)
        assert f"(deleted by {txn.xid})" in text

    def test_header_metadata(self):
        db, tree = build()
        text = dump_tree(tree)
        assert "tree 't'" in text and "btree" in text


class TestDumpLog:
    def test_one_line_per_record(self):
        db, tree = build()
        text = dump_log(db.log)
        assert text.count("\n") == db.log.end_lsn  # header + N lines
        assert "SplitRecord" in text or "RootSplitRecord" in text
        assert "AddLeafEntryRecord" in text

    def test_limit_truncates(self):
        db, tree = build()
        text = dump_log(db.log, limit=3)
        assert "truncated" in text

    def test_header_names_what_restart_starts_from(self):
        db, tree = build()
        assert "master=0\n" in dump_log(db.log)
        lsn = db.checkpoint()
        dirty = len(db.log.get(lsn).dpt)
        text = dump_log(db.log)
        assert f"master={lsn} (begin={lsn} dpt={dirty})" in text
        assert f"begin={lsn} att=0 dpt={dirty}" in text.splitlines()[-1]

    def test_describe_every_record_type(self):
        db, tree = build()
        txn = db.begin()
        tree.delete(txn, 1, "r1")
        db.rollback(txn)
        for record in db.log.records_from(1):
            line = describe_record(record)
            assert str(record.lsn) in line
            assert record.type_name() in line


class TestReports:
    def test_format_stats(self):
        db, tree = build()
        text = format_stats(db)
        assert "trees:" in text and "inserts: 10" in text

    def test_lock_table_report(self):
        db, tree = build()
        txn = db.begin()
        tree.insert(txn, 99, "held")
        text = lock_table_report(db)
        assert "rid" in text and "held" in text
        db.commit(txn)
        assert "(empty)" in lock_table_report(db)
