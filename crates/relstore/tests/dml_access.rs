//! How UPDATE and DELETE find their rows. They share SELECT's row locator,
//! so a keyed write probes the PK or a secondary index instead of scanning
//! the table. The oracle property below runs the same writes against a twin
//! database whose tables have no key and no index, so every statement there
//! takes the scan path. Both must agree on affected counts, final state and
//! the committed redo stream.

use parking_lot::Mutex;
use proptest::prelude::*;
use relstore::{ChangeRecord, CommitSink, Database, Error, Params, Session, Value};
use std::sync::Arc;

/// Records every committed transaction's redo records, in commit order.
#[derive(Default)]
struct Recorder(Mutex<Vec<Vec<ChangeRecord>>>);

impl CommitSink for Recorder {
    fn on_commit(&self, changes: Vec<ChangeRecord>) -> u64 {
        let mut log = self.0.lock();
        log.push(changes);
        log.len() as u64
    }

    fn wait_durable(&self, _lsn: u64) -> relstore::Result<()> {
        Ok(())
    }
}

/// The indexed database: `doc` has a PK and a secondary index on `a`, and
/// `note` an index on its FK column.
const INDEXED: &str = "
    CREATE TABLE doc (k INTEGER PRIMARY KEY, a INTEGER, b TEXT, c INTEGER);
    CREATE INDEX ix_doc_a ON doc (a);
    CREATE TABLE note (n INTEGER PRIMARY KEY, doc_k INTEGER,
        CONSTRAINT fk_doc FOREIGN KEY (doc_k) REFERENCES doc (k) ON DELETE CASCADE);
    CREATE INDEX ix_note_doc ON note (doc_k);";

/// The scan oracle: the same columns with no key and no index.
const SCANNED: &str = "
    CREATE TABLE doc (k INTEGER NOT NULL, a INTEGER, b TEXT, c INTEGER);
    CREATE TABLE note (n INTEGER NOT NULL, doc_k INTEGER,
        CONSTRAINT fk_doc FOREIGN KEY (doc_k) REFERENCES doc (k) ON DELETE CASCADE);";

/// WHERE shapes: PK equality, secondary equality plus a residual, an
/// unindexed column, an OR, and the key compared the other way round.
const WHERES: [&str; 5] = [
    "k = :p",
    "a = :p AND c > :q",
    "c = :p",
    "k = :p OR a = :q",
    ":p = a",
];

/// Assignments; `a = :v` moves a row between secondary-index buckets.
const SETS: [&str; 3] = ["c = c + 1, b = :v", "a = :v", "b = NULL"];

#[derive(Debug, Clone)]
struct Write {
    delete: bool,
    set: usize,
    shape: usize,
    p: Value,
    q: Value,
    v: Value,
}

impl Write {
    fn sql(&self) -> String {
        if self.delete {
            format!("DELETE FROM doc WHERE {}", WHERES[self.shape])
        } else {
            format!(
                "UPDATE doc SET {} WHERE {}",
                SETS[self.set], WHERES[self.shape]
            )
        }
    }

    fn params(&self) -> Params {
        Params::new()
            .bind("p", self.p.clone())
            .bind("q", self.q.clone())
            .bind("v", self.v.clone())
    }
}

/// Keys and values, with NULLs and parameters that never coerce to
/// INTEGER (`'abc'`, `2.5`) or coerce without comparing equal (`'3'`).
fn arb_param() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..12).prop_map(Value::Integer),
        (0i64..12).prop_map(Value::Integer),
        (0i64..12).prop_map(Value::Integer),
        Just(Value::Null),
        Just(Value::Text("abc".into())),
        Just(Value::Text("3".into())),
        Just(Value::Real(2.5)),
        Just(Value::Real(3.0)),
    ]
}

fn arb_write() -> impl Strategy<Value = Write> {
    (
        any::<bool>(),
        0usize..SETS.len(),
        0usize..WHERES.len(),
        arb_param(),
        arb_param(),
        arb_param(),
    )
        .prop_map(|(delete, set, shape, p, q, v)| Write {
            delete,
            set,
            shape,
            p,
            q,
            v,
        })
}

/// Seed rows: `(a, b, c)` per doc (keys 1..), and the doc key of each note.
type Seed = (Vec<(Value, Value, Value)>, Vec<i64>);

fn opt_int() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..6).prop_map(Value::Integer),
        (0i64..6).prop_map(Value::Integer),
        Just(Value::Null),
    ]
}

fn arb_seed() -> impl Strategy<Value = Seed> {
    let opt_text = prop_oneof!["[a-c]{1,2}".prop_map(Value::Text), Just(Value::Null)];
    (
        proptest::collection::vec((opt_int(), opt_text, opt_int()), 0..12),
        proptest::collection::vec(1i64..12, 0..8),
    )
}

/// One database under test plus its redo recorder.
struct Arm {
    db: Arc<Database>,
    log: Arc<Recorder>,
}

impl Arm {
    fn new(ddl: &str, seed: &Seed) -> Arm {
        let db = Arc::new(Database::new());
        db.execute_script(ddl).unwrap();
        let (docs, notes) = seed;
        for (i, (a, b, c)) in docs.iter().enumerate() {
            db.execute(
                "INSERT INTO doc (k, a, b, c) VALUES (:k, :a, :b, :c)",
                &Params::new()
                    .bind("k", i as i64 + 1)
                    .bind("a", a.clone())
                    .bind("b", b.clone())
                    .bind("c", c.clone()),
            )
            .unwrap();
        }
        for (n, doc) in notes.iter().enumerate() {
            // notes on missing docs fail their FK check in both arms alike
            let _ = db.execute(
                "INSERT INTO note (n, doc_k) VALUES (:n, :d)",
                &Params::new().bind("n", n as i64 + 1).bind("d", *doc),
            );
        }
        let log = Arc::new(Recorder::default());
        db.set_commit_sink(Arc::clone(&log) as Arc<dyn CommitSink>, false);
        Arm { db, log }
    }

    /// Run `writes`, autocommit or in one session transaction; the outcome
    /// of each statement as `Ok(affected)` or the error text.
    fn run(&self, writes: &[Write], in_session: bool) -> Vec<Result<usize, String>> {
        let mut session = Session::new(Arc::clone(&self.db));
        if in_session {
            session.execute("BEGIN", &Params::new()).unwrap();
        }
        let out = writes
            .iter()
            .map(|w| {
                session
                    .execute(&w.sql(), &w.params())
                    .map(|r| r.affected())
                    .map_err(|e| e.to_string())
            })
            .collect();
        if in_session {
            session.execute("COMMIT", &Params::new()).unwrap();
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn probe_located_dml_equals_scan_oracle(
        seed in arb_seed(),
        batches in proptest::collection::vec(
            (proptest::collection::vec(arb_write(), 1..6), any::<bool>()),
            1..5,
        ),
    ) {
        let indexed = Arm::new(INDEXED, &seed);
        let scanned = Arm::new(SCANNED, &seed);
        for (writes, in_session) in &batches {
            prop_assert_eq!(
                indexed.run(writes, *in_session),
                scanned.run(writes, *in_session),
                "writes {:?}", writes
            );
        }
        prop_assert_eq!(indexed.db.dump(), scanned.db.dump());
        prop_assert_eq!(&*indexed.log.0.lock(), &*scanned.log.0.lock());
        // the twin really is the scan path
        prop_assert_eq!(scanned.db.counters().index_probes.get(), 0);
    }
}

fn keyed_table(rows: i64) -> Database {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE t (oid INTEGER PRIMARY KEY AUTOINCREMENT, v INTEGER, tag TEXT);
         CREATE INDEX ix_t_v ON t (v);",
    )
    .unwrap();
    db.transaction(|tx| {
        for i in 0..rows {
            tx.execute(
                "INSERT INTO t (v, tag) VALUES (:v, 'x')",
                &Params::new().bind("v", i % 7),
            )?;
        }
        Ok(())
    })
    .unwrap();
    db
}

/// `(rows_scanned, index_probes, scan_fallbacks)` consumed by `f`.
fn work(db: &Database, f: impl FnOnce()) -> (u64, u64, u64) {
    let c = db.counters();
    let before = (
        c.rows_scanned.get(),
        c.index_probes.get(),
        c.scan_fallbacks.get(),
    );
    f();
    (
        c.rows_scanned.get() - before.0,
        c.index_probes.get() - before.1,
        c.scan_fallbacks.get() - before.2,
    )
}

#[test]
fn keyed_writes_examine_one_row_at_any_table_size() {
    for rows in [1_000i64, 100_000] {
        let db = keyed_table(rows);
        let key = Params::new().bind("k", rows / 2);
        let upd = work(&db, || {
            let n = db.execute("UPDATE t SET v = v + 1 WHERE oid = :k", &key);
            assert_eq!(n.unwrap().affected(), 1);
        });
        assert_eq!(upd, (1, 1, 0), "PK UPDATE over {rows} rows");
        let del = work(&db, || {
            let n = db.execute("DELETE FROM t WHERE oid = :k", &key);
            assert_eq!(n.unwrap().affected(), 1);
        });
        assert_eq!(del, (1, 1, 0), "PK DELETE over {rows} rows");
        // a create locates nothing and returns the key it minted
        let mut minted = Vec::new();
        let ins = work(&db, || {
            let r = db.execute("INSERT INTO t (v, tag) VALUES (1, 'new')", &Params::new());
            minted = r.unwrap().keys().to_vec();
        });
        assert_eq!(ins, (0, 0, 0), "INSERT over {rows} rows");
        assert_eq!(minted, vec![rows + 1]);
        // an unindexed WHERE still scans, and the counters show it
        let scan = work(&db, || {
            db.execute("UPDATE t SET v = 0 WHERE tag = 'none'", &Params::new())
                .unwrap();
        });
        assert_eq!(
            scan,
            (rows as u64, 0, 1),
            "unindexed UPDATE over {rows} rows"
        );
    }
}

#[test]
fn uncoercible_keys_match_nothing() {
    let db = keyed_table(20);
    for key in [Value::Text("abc".into()), Value::Real(2.5)] {
        for column in ["oid", "v", "tag"] {
            let p = Params::new().bind("k", key.clone());
            let sel = db.query(&format!("SELECT * FROM t WHERE {column} = :k"), &p);
            assert_eq!(sel.unwrap().len(), 0, "SELECT {column} = {key:?}");
            for dml in ["UPDATE t SET v = 99", "DELETE FROM t"] {
                let r = db.execute(&format!("{dml} WHERE {column} = :k"), &p);
                assert_eq!(r.unwrap().affected(), 0, "{dml} WHERE {column} = {key:?}");
            }
        }
    }
    assert_eq!(db.table_len("t").unwrap(), 20);
}

/// `=` compares REAL and TIMESTAMP by value, so an index probe must find
/// the row a scan finds although neither type coerces to the other.
#[test]
fn real_and_timestamp_keys_probe_like_a_scan() {
    for ddl in [
        "CREATE TABLE m (r REAL, ts TIMESTAMP); CREATE INDEX ix_r ON m (r); CREATE INDEX ix_ts ON m (ts);",
        "CREATE TABLE m (r REAL, ts TIMESTAMP);",
    ] {
        let db = Database::new();
        db.execute_script(ddl).unwrap();
        db.execute("INSERT INTO m (r, ts) VALUES (5.0, 5)", &Params::new())
            .unwrap();
        for (column, key, hits) in [
            ("r", Value::Timestamp(5), 1),
            ("ts", Value::Real(5.0), 1),
            ("ts", Value::Real(5.5), 0),
        ] {
            let p = Params::new().bind("k", key.clone());
            let sql = format!("SELECT * FROM m WHERE {column} = :k");
            assert_eq!(db.query(&sql, &p).unwrap().len(), hits, "{ddl}: {sql} {key:?}");
            let sql = format!("UPDATE m SET r = r WHERE {column} = :k");
            assert_eq!(db.execute(&sql, &p).unwrap().affected(), hits, "{ddl}: {sql}");
        }
    }
}

#[test]
fn session_write_on_a_probed_row_keeps_first_writer_wins() {
    let db = Arc::new(keyed_table(10));
    let key = Params::new().bind("k", 3);
    let conflicts = || db.counters().write_conflicts.get();
    let mut first = Session::new(Arc::clone(&db));
    let mut second = Session::new(Arc::clone(&db));
    first.execute("BEGIN", &Params::new()).unwrap();
    second.execute("BEGIN", &Params::new()).unwrap();
    let probes = db.counters().index_probes.get();
    let n = first.execute("UPDATE t SET v = 100 WHERE oid = :k", &key);
    assert_eq!(n.unwrap().affected(), 1);
    assert!(
        db.counters().index_probes.get() > probes,
        "located by probe"
    );

    // the row holds an uncommitted version of `first`
    for sql in [
        "UPDATE t SET v = 200 WHERE oid = :k",
        "DELETE FROM t WHERE oid = :k",
    ] {
        let before = conflicts();
        let err = second.execute(sql, &key).unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }), "{sql}: {err}");
        assert_eq!(conflicts(), before + 1);
    }
    first.execute("COMMIT", &Params::new()).unwrap();

    // committed after `second`'s snapshot: still a conflict
    let err = second
        .execute("UPDATE t SET v = 300 WHERE oid = :k", &key)
        .unwrap_err();
    assert!(matches!(err, Error::WriteConflict { .. }), "{err}");
    second.execute("ROLLBACK", &Params::new()).unwrap();
    let rs = db.query("SELECT v FROM t WHERE oid = :k", &key).unwrap();
    assert_eq!(rs.first("v"), Some(&Value::Integer(100)));
}
