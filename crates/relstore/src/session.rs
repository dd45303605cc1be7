//! Connection-style sessions supporting SQL-level transaction control.
//!
//! [`crate::Database::transaction`] gives closure-scoped transactions with
//! serializable isolation (the write lock is held throughout). A
//! [`Session`] instead mimics a JDBC connection: statements arrive one at
//! a time and `BEGIN`/`COMMIT`/`ROLLBACK` arrive as statements.
//!
//! Sessions run under **snapshot isolation**: `BEGIN` pins the commit LSN
//! of the moment it executes, and every read inside the transaction — full
//! scans, index probes, hash joins — sees exactly the rows committed as of
//! that LSN, plus the session's own uncommitted writes. Readers take only
//! the storage *read* lock, so a long-lived open transaction in one
//! session never blocks reads in another. Writes take per-statement write
//! locks and install new row versions; if a concurrent transaction already
//! wrote (or committed a write to) the same row, the statement fails with
//! [`Error::WriteConflict`] — first writer wins, the loser retries.

use crate::db::Database;
use crate::error::{Error, Result};
use crate::exec::{run_select_with_stats, SelectStats};
use crate::expr::Params;
use crate::result::{ExecResult, ResultSet};
use crate::sql::ast::Statement;
use crate::storage::UndoLog;
use crate::table::{Snapshot, WriteCtx};
use std::sync::Arc;

/// State carried between statements while a transaction is open.
struct OpenTxn {
    txid: u64,
    /// Commit LSN pinned at `BEGIN`; reads see commits `<=` this.
    snapshot_lsn: u64,
    undo: UndoLog,
}

/// A stateful connection to a [`Database`].
pub struct Session {
    db: Arc<Database>,
    /// `Some` while a transaction is open.
    txn: Option<OpenTxn>,
}

impl Session {
    pub fn new(db: Arc<Database>) -> Session {
        Session { db, txn: None }
    }

    /// Is a transaction currently open?
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Execute one statement, honouring transaction state.
    pub fn execute(&mut self, sql: &str, params: &Params) -> Result<ExecResult> {
        let stmt = self.db.prepare(sql)?;
        match stmt.as_ref() {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(Error::Transaction("transaction already open".into()));
                }
                self.txn = Some(OpenTxn {
                    txid: self.db.mint_txid(),
                    snapshot_lsn: self.db.pin_snapshot(),
                    undo: Vec::new(),
                });
                Ok(ExecResult::Affected(0))
            }
            Statement::Commit => {
                let Some(txn) = self.txn.take() else {
                    return Err(Error::Transaction("no open transaction".into()));
                };
                // Stamp every version this transaction installed with one
                // commit LSN, under the storage write lock, so the durable
                // stream and the visibility clock order by commit point.
                let seq = self.db.with_storage_mut(|storage| {
                    self.db.commit_locked(storage, &txn.undo, txn.txid)
                });
                self.db.unpin_snapshot(txn.snapshot_lsn);
                self.db.wait_durable_opt(seq)?;
                Ok(ExecResult::Affected(0))
            }
            Statement::Rollback => match self.txn.take() {
                Some(txn) => {
                    self.db
                        .with_storage_mut(|storage| storage.rollback(txn.undo, txn.txid));
                    self.db.unpin_snapshot(txn.snapshot_lsn);
                    Ok(ExecResult::Affected(0))
                }
                None => Err(Error::Transaction("no open transaction".into())),
            },
            Statement::Select(sel) => {
                self.db.count_statement();
                // Inside a transaction, read at the pinned snapshot plus
                // our own uncommitted writes; outside, read the latest
                // committed state. Either way only the read lock is taken.
                let snap = match &self.txn {
                    Some(t) => Snapshot::at(t.snapshot_lsn, t.txid),
                    None => Snapshot::latest(),
                };
                let mut stats = SelectStats::default();
                let r = self.db.with_storage(|storage| {
                    Ok(ExecResult::Rows(run_select_with_stats(
                        storage, sel, params, snap, &mut stats,
                    )?))
                });
                self.db.record_select_stats(&stats);
                r
            }
            Statement::Insert(_) | Statement::Update(_) | Statement::Delete(_) => {
                self.db.count_statement();
                match &mut self.txn {
                    Some(txn) => {
                        let ctx = WriteCtx {
                            txid: txn.txid,
                            snapshot_lsn: txn.snapshot_lsn,
                        };
                        let undo = &mut txn.undo;
                        let mut stats = SelectStats::default();
                        let r = self.db.with_storage_mut(|storage| {
                            let mark = undo.len();
                            let r = storage.run_dml(&stmt, params, undo, &ctx, &mut stats);
                            if r.is_err() {
                                // statement-level atomicity inside the txn
                                let tail: UndoLog = undo.drain(mark..).collect();
                                storage.rollback(tail, ctx.txid);
                            }
                            r
                        });
                        self.db.record_stats(&stats);
                        r.map_err(|e| self.db.note_conflict(e))
                    }
                    None => self.db.execute_stmt(&stmt, params),
                }
            }
            // DDL is auto-committed and refused mid-transaction
            _ => {
                if self.txn.is_some() {
                    return Err(Error::Transaction(
                        "DDL is not allowed inside a transaction".into(),
                    ));
                }
                self.db.execute_stmt(&stmt, params)
            }
        }
    }

    pub fn query(&mut self, sql: &str, params: &Params) -> Result<ResultSet> {
        match self.execute(sql, params)? {
            ExecResult::Rows(r) => Ok(r),
            _ => Err(Error::Unsupported("query() on a non-SELECT".into())),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // an abandoned open transaction rolls back, like closing a JDBC
        // connection without commit
        if let Some(txn) = self.txn.take() {
            self.db
                .with_storage_mut(|storage| storage.rollback(txn.undo, txn.txid));
            self.db.unpin_snapshot(txn.snapshot_lsn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.execute_script("CREATE TABLE t (k INTEGER PRIMARY KEY AUTOINCREMENT, v TEXT NOT NULL);")
            .unwrap();
        db
    }

    #[test]
    fn begin_commit_persists() {
        let db = db();
        let mut s = Session::new(Arc::clone(&db));
        s.execute("BEGIN", &Params::new()).unwrap();
        assert!(s.in_transaction());
        s.execute("INSERT INTO t (v) VALUES ('a')", &Params::new())
            .unwrap();
        s.execute("COMMIT", &Params::new()).unwrap();
        assert!(!s.in_transaction());
        assert_eq!(db.table_len("t").unwrap(), 1);
    }

    #[test]
    fn rollback_undoes_session_writes() {
        let db = db();
        let mut s = Session::new(Arc::clone(&db));
        s.execute("BEGIN", &Params::new()).unwrap();
        s.execute("INSERT INTO t (v) VALUES ('a')", &Params::new())
            .unwrap();
        s.execute("INSERT INTO t (v) VALUES ('b')", &Params::new())
            .unwrap();
        // reads inside the txn see the writes
        let rs = s
            .query("SELECT COUNT(*) AS n FROM t", &Params::new())
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(2)));
        s.execute("ROLLBACK", &Params::new()).unwrap();
        assert_eq!(db.table_len("t").unwrap(), 0);
    }

    #[test]
    fn failing_statement_rolls_back_only_itself() {
        let db = db();
        let mut s = Session::new(Arc::clone(&db));
        s.execute("BEGIN", &Params::new()).unwrap();
        s.execute("INSERT INTO t (v) VALUES ('keep')", &Params::new())
            .unwrap();
        // violates NOT NULL → statement fails, txn survives
        assert!(s
            .execute("INSERT INTO t (v) VALUES (NULL)", &Params::new())
            .is_err());
        assert!(s.in_transaction());
        s.execute("COMMIT", &Params::new()).unwrap();
        assert_eq!(db.table_len("t").unwrap(), 1);
    }

    #[test]
    fn transaction_misuse_is_rejected() {
        let db = db();
        let mut s = Session::new(Arc::clone(&db));
        assert!(s.execute("COMMIT", &Params::new()).is_err());
        assert!(s.execute("ROLLBACK", &Params::new()).is_err());
        s.execute("BEGIN", &Params::new()).unwrap();
        assert!(s.execute("BEGIN", &Params::new()).is_err());
        assert!(s
            .execute("CREATE TABLE u (x INTEGER)", &Params::new())
            .is_err());
    }

    #[test]
    fn drop_rolls_back_open_transaction() {
        let db = db();
        {
            let mut s = Session::new(Arc::clone(&db));
            s.execute("BEGIN", &Params::new()).unwrap();
            s.execute("INSERT INTO t (v) VALUES ('ghost')", &Params::new())
                .unwrap();
            // dropped without commit
        }
        assert_eq!(db.table_len("t").unwrap(), 0);
    }

    #[test]
    fn autocommit_outside_transaction() {
        let db = db();
        let mut s = Session::new(Arc::clone(&db));
        s.execute("INSERT INTO t (v) VALUES ('auto')", &Params::new())
            .unwrap();
        assert_eq!(db.table_len("t").unwrap(), 1);
        // DDL works outside a txn
        s.execute("CREATE TABLE u (x INTEGER)", &Params::new())
            .unwrap();
        assert!(db.table_names().contains(&"u".to_string()));
    }

    #[test]
    fn two_sessions_interleave_with_independent_rollback() {
        let db = db();
        let mut a = Session::new(Arc::clone(&db));
        let mut b = Session::new(Arc::clone(&db));
        a.execute("BEGIN", &Params::new()).unwrap();
        a.execute("INSERT INTO t (v) VALUES ('from-a')", &Params::new())
            .unwrap();
        b.execute("INSERT INTO t (v) VALUES ('from-b')", &Params::new())
            .unwrap(); // autocommit
        a.execute("ROLLBACK", &Params::new()).unwrap();
        let rs = db.query("SELECT v FROM t", &Params::new()).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.first("v"), Some(&Value::Text("from-b".into())));
    }

    #[test]
    fn open_transaction_is_invisible_to_other_sessions() {
        let db = db();
        let mut a = Session::new(Arc::clone(&db));
        let mut b = Session::new(Arc::clone(&db));
        a.execute("BEGIN", &Params::new()).unwrap();
        a.execute("INSERT INTO t (v) VALUES ('pending')", &Params::new())
            .unwrap();
        // b reads the committed state: nothing there yet
        let rs = b
            .query("SELECT COUNT(*) AS n FROM t", &Params::new())
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(0)));
        a.execute("COMMIT", &Params::new()).unwrap();
        let rs = b
            .query("SELECT COUNT(*) AS n FROM t", &Params::new())
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(1)));
    }

    #[test]
    fn pinned_snapshot_ignores_later_commits() {
        let db = db();
        db.execute("INSERT INTO t (v) VALUES ('before')", &Params::new())
            .unwrap();
        let mut a = Session::new(Arc::clone(&db));
        a.execute("BEGIN", &Params::new()).unwrap();
        let rs = a
            .query("SELECT COUNT(*) AS n FROM t", &Params::new())
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(1)));
        // a concurrent autocommit lands after a's snapshot
        db.execute("INSERT INTO t (v) VALUES ('after')", &Params::new())
            .unwrap();
        let rs = a
            .query("SELECT COUNT(*) AS n FROM t", &Params::new())
            .unwrap();
        assert_eq!(
            rs.first("n"),
            Some(&Value::Integer(1)),
            "snapshot must not move"
        );
        a.execute("COMMIT", &Params::new()).unwrap();
        let rs = a
            .query("SELECT COUNT(*) AS n FROM t", &Params::new())
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(2)));
    }

    #[test]
    fn first_writer_wins_conflict() {
        let db = db();
        db.execute("INSERT INTO t (v) VALUES ('seed')", &Params::new())
            .unwrap();
        let mut a = Session::new(Arc::clone(&db));
        let mut b = Session::new(Arc::clone(&db));
        a.execute("BEGIN", &Params::new()).unwrap();
        b.execute("BEGIN", &Params::new()).unwrap();
        a.execute("UPDATE t SET v = 'a-wins' WHERE k = 1", &Params::new())
            .unwrap();
        // b touches the same row while a's write is pending
        let err = b
            .execute("UPDATE t SET v = 'b-loses' WHERE k = 1", &Params::new())
            .unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }), "got {err:?}");
        // b's txn survives the failed statement and can commit the rest
        b.execute("COMMIT", &Params::new()).unwrap();
        a.execute("COMMIT", &Params::new()).unwrap();
        let rs = db
            .query("SELECT v FROM t WHERE k = 1", &Params::new())
            .unwrap();
        assert_eq!(rs.first("v"), Some(&Value::Text("a-wins".into())));
    }

    #[test]
    fn committed_after_snapshot_conflicts_on_write() {
        let db = db();
        db.execute("INSERT INTO t (v) VALUES ('seed')", &Params::new())
            .unwrap();
        let mut a = Session::new(Arc::clone(&db));
        a.execute("BEGIN", &Params::new()).unwrap();
        // autocommit writer updates the row after a pinned its snapshot
        db.execute("UPDATE t SET v = 'newer' WHERE k = 1", &Params::new())
            .unwrap();
        let err = a
            .execute("UPDATE t SET v = 'stale-write' WHERE k = 1", &Params::new())
            .unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }), "got {err:?}");
        a.execute("ROLLBACK", &Params::new()).unwrap();
        let rs = db
            .query("SELECT v FROM t WHERE k = 1", &Params::new())
            .unwrap();
        assert_eq!(rs.first("v"), Some(&Value::Text("newer".into())));
    }

    #[test]
    fn read_your_own_writes_through_index_probe_and_join() {
        let db = Arc::new(Database::new());
        db.execute_script(
            "CREATE TABLE dept (id INTEGER PRIMARY KEY, name TEXT NOT NULL);
             CREATE TABLE emp (id INTEGER PRIMARY KEY, dept_id INTEGER NOT NULL, name TEXT NOT NULL);
             CREATE INDEX emp_dept ON emp (dept_id);
             INSERT INTO dept (id, name) VALUES (1, 'eng');
             INSERT INTO emp (id, dept_id, name) VALUES (1, 1, 'alice');",
        )
        .unwrap();
        let mut s = Session::new(Arc::clone(&db));
        s.execute("BEGIN", &Params::new()).unwrap();
        s.execute(
            "INSERT INTO emp (id, dept_id, name) VALUES (2, 1, 'bob')",
            &Params::new(),
        )
        .unwrap();
        // PK probe sees the uncommitted row
        let rs = s
            .query("SELECT name FROM emp WHERE id = 2", &Params::new())
            .unwrap();
        assert_eq!(rs.first("name"), Some(&Value::Text("bob".into())));
        // secondary-index probe sees it
        let rs = s
            .query(
                "SELECT COUNT(*) AS n FROM emp WHERE dept_id = 1",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(2)));
        // hash join sees it
        let rs = s
            .query(
                "SELECT emp.name FROM emp JOIN dept ON emp.dept_id = dept.id ORDER BY emp.name",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        // ...while a concurrent session sees none of it
        let mut other = Session::new(Arc::clone(&db));
        let rs = other
            .query("SELECT COUNT(*) AS n FROM emp", &Params::new())
            .unwrap();
        assert_eq!(rs.first("n"), Some(&Value::Integer(1)));
        let rs = other
            .query("SELECT name FROM emp WHERE id = 2", &Params::new())
            .unwrap();
        assert_eq!(
            rs.len(),
            0,
            "uncommitted row must not leak through PK probe"
        );
        s.execute("ROLLBACK", &Params::new()).unwrap();
        assert_eq!(db.table_len("emp").unwrap(), 1);
    }
}
