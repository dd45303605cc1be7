//! Model-derived hash partitioning: one logical store, N physical shards.
//!
//! Shard keys come from [`codegen::derive_shard_keys`] — the same unit
//! access paths that drive derived indexes decide how rows spread across
//! stores, so the model (not a DBA) places the data. Routing rules:
//!
//! * DDL runs on every shard (schemas stay identical);
//! * an INSERT routes by its shard-key value; OID-keyed tables mint a
//!   *global* id first so surrogate keys stay unique across shards;
//! * UPDATE/DELETE/SELECT with a shard-key equality in the WHERE clause
//!   touch exactly one shard — the unit-query hot path (`unit.oid = ?`,
//!   `child.fk = ?`) stays single-shard by construction;
//! * anything else fans out to all shards and merges: ordered merge via
//!   `Value::total_cmp`, per-shard `LIMIT limit+offset` pushdown, then
//!   global DISTINCT/OFFSET/LIMIT. `COUNT(*)` sums per-shard counts.
//!
//! Which statements are routable is NOT decided here: the store dispatches
//! on [`analyze::routing`], the same pure classifier the deploy-time
//! distribution pass lowers generated statements through — a statement the
//! analyzer calls `AZ401` is exactly a statement this store rejects, with
//! the same explanation ([`Unroutable::explain`]). Deliberate restrictions
//! (surfaced as `Error::Unsupported`, never wrong answers): cross-shard
//! GROUP BY/aggregates beyond `COUNT(*)`, multi-statement transactions,
//! inserts without a column list or a routable shard-key value, and
//! fan-out ORDER BY keys missing from the projection.

use analyze::routing::{
    self, DmlRouting, InsertRouting, RejectRule, SelectRouting, ShardKeyMap, Unroutable,
};
use codegen::ShardKey;
use parking_lot::Mutex;
use relstore::sql::ast::{Expr, Insert, Select, Statement};
use relstore::{Database, Error, ExecResult, Params, ResultSet, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// N databases behind one SQL front door.
pub struct ShardedStore {
    shards: Vec<Arc<Database>>,
    /// table → shard-key column, from the model derivation.
    keys: ShardKeyMap,
    /// Global surrogate-key mint: next OID per table, so auto-assigned
    /// ids never collide across shards.
    oid_next: Mutex<HashMap<String, i64>>,
    counters: Arc<obs::ReplCounters>,
}

/// FNV-1a over a canonical byte encoding of the routing value.
fn hash_value(v: &Value) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    match v {
        Value::Integer(i) => eat(&i.to_le_bytes()),
        Value::Text(s) => eat(s.as_bytes()),
        other => eat(other.render().as_bytes()),
    }
    h
}

/// Evaluate a routing expression the classifier has already vetted as
/// [`routing::is_routable_value`] — literals and bound parameters.
fn eval_route(e: &Expr, params: &Params) -> relstore::Result<Value> {
    match e {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => params.get_positional(*i).cloned(),
        Expr::NamedParam(n) => params.get_named(n).cloned(),
        _ => Err(Error::Unsupported(
            "shard routing needs a literal or parameter value".into(),
        )),
    }
}

/// Render a classifier rejection as the store's runtime error — one
/// explanation shared with the deploy-time `AZ401` diagnostic.
fn unsupported(rule: RejectRule, sql: &str) -> Error {
    Error::Unsupported(Unroutable::new(rule, sql.trim()).explain())
}

impl ShardedStore {
    /// Wrap already-bootstrapped shards. `keys` normally comes straight
    /// from [`codegen::derive_shard_keys`]; tables it does not mention
    /// route by `oid`.
    pub fn new(
        shards: Vec<Arc<Database>>,
        keys: &[ShardKey],
        counters: Arc<obs::ReplCounters>,
    ) -> ShardedStore {
        assert!(shards.len() >= 2, "a sharded store needs at least 2 shards");
        ShardedStore {
            shards,
            keys: ShardKeyMap::new(keys),
            oid_next: Mutex::new(HashMap::new()),
            counters,
        }
    }

    /// Create `n` empty shards and run `ddl` on each.
    pub fn bootstrap(
        n: usize,
        ddl: &str,
        keys: &[ShardKey],
        counters: Arc<obs::ReplCounters>,
    ) -> relstore::Result<ShardedStore> {
        let mut shards = Vec::with_capacity(n);
        for _ in 0..n {
            let db = Arc::new(Database::new());
            if !ddl.trim().is_empty() {
                db.execute_script(ddl)?;
            }
            shards.push(db);
        }
        Ok(ShardedStore::new(shards, keys, counters))
    }

    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// The shard-key column a table routes by (`oid` by default).
    pub fn shard_key(&self, table: &str) -> &str {
        self.keys.key_of(table)
    }

    /// Which shard holds rows of `table` whose shard key equals `value`.
    pub fn shard_for(&self, value: &Value) -> usize {
        (hash_value(value) % self.shards.len() as u64) as usize
    }

    fn record_read(&self, shard: usize) {
        self.counters.record_read(&format!("shard-{shard}"));
    }

    /// Execute one statement against the sharded store.
    pub fn execute(&self, sql: &str, params: &Params) -> relstore::Result<ExecResult> {
        let stmt = relstore::parse_statement(sql)?;
        match stmt {
            Statement::CreateTable(_) | Statement::CreateIndex(_) | Statement::DropTable { .. } => {
                let shared = Arc::new(stmt);
                for db in &self.shards {
                    db.execute_prepared(&shared, params)?;
                }
                Ok(ExecResult::Affected(0))
            }
            Statement::Insert(ins) => self.execute_insert(sql, ins, params),
            Statement::Update(ref upd) => self.execute_dml(
                &stmt,
                routing::dml_routing(&upd.table, upd.where_clause.as_ref(), &self.keys),
                params,
            ),
            Statement::Delete(ref del) => self.execute_dml(
                &stmt,
                routing::dml_routing(&del.table, del.where_clause.as_ref(), &self.keys),
                params,
            ),
            Statement::Select(sel) => self.execute_select(sql, sel, params).map(ExecResult::Rows),
            Statement::Begin | Statement::Commit | Statement::Rollback => {
                Err(unsupported(RejectRule::MultiStatementTxn, sql))
            }
        }
    }

    /// Execute a SELECT, returning its rows.
    pub fn query(&self, sql: &str, params: &Params) -> relstore::Result<ResultSet> {
        match self.execute(sql, params)? {
            ExecResult::Rows(rs) => Ok(rs),
            _ => Err(Error::Unsupported("not a SELECT".into())),
        }
    }

    fn execute_insert(
        &self,
        sql: &str,
        ins: Insert,
        params: &Params,
    ) -> relstore::Result<ExecResult> {
        let plan = routing::insert_routing(&ins, &self.keys).map_err(|r| unsupported(r, sql))?;
        let key = self.shard_key(&ins.table).to_string();
        let mut keys = Vec::new();
        for row in &ins.rows {
            let one = Insert {
                table: ins.table.clone(),
                columns: ins.columns.clone(),
                rows: vec![row.clone()],
            };
            // each shard reports the key it stored: the global mint for
            // auto-assigned oids, since the shard assigns exactly that id
            let stored = match plan {
                InsertRouting::ByKeyColumn(pos) => {
                    let v = eval_route(&row[pos], params)?;
                    // explicit surrogate keys must advance the global
                    // mint, or a later auto-insert would collide
                    if key == "oid" {
                        if let Value::Integer(i) = v {
                            let mut mint = self.oid_next.lock();
                            let next = mint.entry(ins.table.to_lowercase()).or_insert(1);
                            *next = (*next).max(i + 1);
                        }
                    }
                    let target = self.shard_for(&v);
                    let stmt = Arc::new(Statement::Insert(one));
                    self.shards[target].execute_prepared(&stmt, params)?
                }
                InsertRouting::ByMintedOid => {
                    // auto-assigned surrogate: mint a global id, force the
                    // target shard's counter to it, insert — the shard
                    // assigns exactly the minted id because every insert
                    // (routed or explicit) keeps per-shard counters ≤ mint
                    let g = {
                        let mut mint = self.oid_next.lock();
                        let next = mint.entry(ins.table.to_lowercase()).or_insert(1);
                        let g = *next;
                        *next = g + 1;
                        g
                    };
                    let target = self.shard_for(&Value::Integer(g));
                    self.shards[target].set_auto_counter(&ins.table, g)?;
                    let stmt = Arc::new(Statement::Insert(one));
                    self.shards[target].execute_prepared(&stmt, params)?
                }
            };
            keys.extend_from_slice(stored.keys());
        }
        Ok(ExecResult::Inserted {
            count: ins.rows.len(),
            keys,
        })
    }

    fn execute_dml(
        &self,
        stmt: &Statement,
        plan: DmlRouting,
        params: &Params,
    ) -> relstore::Result<ExecResult> {
        let stmt = Arc::new(stmt.clone());
        match plan {
            DmlRouting::SingleShard(v) => {
                let v = eval_route(&v, params)?;
                self.shards[self.shard_for(&v)].execute_prepared(&stmt, params)
            }
            DmlRouting::Fanout => {
                let mut affected = 0usize;
                for db in &self.shards {
                    affected += db.execute_prepared(&stmt, params)?.affected();
                }
                Ok(ExecResult::Affected(affected))
            }
        }
    }

    fn execute_select(
        &self,
        sql: &str,
        sel: Select,
        params: &Params,
    ) -> relstore::Result<ResultSet> {
        match routing::select_routing(&sel, &self.keys).map_err(|r| unsupported(r, sql))? {
            SelectRouting::AnyShard => {
                // no FROM: any shard computes the same scalars
                self.record_read(0);
                let stmt = Arc::new(Statement::Select(sel));
                self.shards[0].query_prepared(&stmt, params)
            }
            SelectRouting::SingleShard(v) => {
                // shard-key equality on the base table — this is what
                // keeps model unit queries on exactly one store
                let v = eval_route(&v, params)?;
                let target = self.shard_for(&v);
                self.record_read(target);
                let stmt = Arc::new(Statement::Select(sel));
                self.shards[target].query_prepared(&stmt, params)
            }
            SelectRouting::FanoutCount => self.fanout_count(&sel, params),
            SelectRouting::FanoutMerge => self.fanout_merge(sql, sel, params),
        }
    }

    /// `SELECT COUNT(*)` over all shards: counts add.
    fn fanout_count(&self, sel: &Select, params: &Params) -> relstore::Result<ResultSet> {
        let stmt = Arc::new(Statement::Select(sel.clone()));
        let mut total: i64 = 0;
        let mut columns: Vec<String> = Vec::new();
        for (i, db) in self.shards.iter().enumerate() {
            self.record_read(i);
            let rs = db.query_prepared(&stmt, params)?;
            if columns.is_empty() {
                columns = rs.columns().to_vec();
            }
            if let Some(Value::Integer(n)) = rs.rows().first().and_then(|r| r.first()) {
                total += n;
            }
        }
        Ok(ResultSet::new(columns, vec![vec![Value::Integer(total)]]))
    }

    /// Scatter, gather, merge: per-shard `LIMIT limit+offset` pushdown,
    /// global ORDER BY via `total_cmp`, then DISTINCT/OFFSET/LIMIT.
    fn fanout_merge(&self, sql: &str, sel: Select, params: &Params) -> relstore::Result<ResultSet> {
        let limit = match sel.limit.as_ref() {
            Some(e) => match eval_route(e, params)? {
                Value::Integer(n) if n >= 0 => Some(n as usize),
                v => {
                    return Err(Error::Unsupported(format!(
                        "LIMIT must be a non-negative integer, got {}",
                        v.render()
                    )))
                }
            },
            None => None,
        };
        let offset = match sel.offset.as_ref() {
            Some(e) => match eval_route(e, params)? {
                Value::Integer(n) if n >= 0 => n as usize,
                v => {
                    return Err(Error::Unsupported(format!(
                        "OFFSET must be a non-negative integer, got {}",
                        v.render()
                    )))
                }
            },
            None => 0,
        };

        // per-shard statement: Top-(limit+offset) pushdown, no offset —
        // the global winner set is a subset of each shard's local top
        let mut per_shard = sel.clone();
        per_shard.offset = None;
        per_shard.limit = limit.map(|l| Expr::Literal(Value::Integer((l + offset) as i64)));
        // DISTINCT stays pushed down too (local dedupe shrinks transfer);
        // the global pass below dedupes across shards.
        let stmt = Arc::new(Statement::Select(per_shard));

        let mut columns: Vec<String> = Vec::new();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (i, db) in self.shards.iter().enumerate() {
            self.record_read(i);
            let rs = db.query_prepared(&stmt, params)?;
            if columns.is_empty() {
                columns = rs.columns().to_vec();
            }
            rows.extend(rs.into_rows());
        }

        // global ORDER BY: the classifier proved every key is projected,
        // so failing to resolve one here would be a drift bug — reject
        // loudly rather than silently keeping concat order
        let probe = ResultSet::new(columns.clone(), Vec::new());
        let mut sort_keys: Vec<(usize, bool)> = Vec::with_capacity(sel.order_by.len());
        for o in &sel.order_by {
            let Expr::Column { name, .. } = &o.expr else {
                return Err(unsupported(
                    RejectRule::OrderByNotMergeable {
                        column: "<expression>".into(),
                    },
                    sql,
                ));
            };
            let idx = probe
                .column_index(name)
                .or_else(|| columns.iter().position(|c| c.eq_ignore_ascii_case(name)));
            match idx {
                Some(idx) => sort_keys.push((idx, o.ascending)),
                None => {
                    return Err(unsupported(
                        RejectRule::OrderByNotMergeable {
                            column: name.clone(),
                        },
                        sql,
                    ))
                }
            }
        }
        if !sort_keys.is_empty() {
            rows.sort_by(|a, b| {
                for (idx, asc) in &sort_keys {
                    let ord = a[*idx].total_cmp(&b[*idx]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }

        if sel.distinct {
            let mut seen: Vec<Vec<Value>> = Vec::new();
            rows.retain(|r| {
                if seen.contains(r) {
                    false
                } else {
                    seen.push(r.clone());
                    true
                }
            });
        }

        let rows: Vec<Vec<Value>> = rows
            .into_iter()
            .skip(offset)
            .take(limit.unwrap_or(usize::MAX))
            .collect();
        Ok(ResultSet::new(columns, rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ShardedStore {
        let keys = vec![ShardKey {
            table: "issue".into(),
            column: "volume_oid".into(),
            reasons: vec!["test".into()],
        }];
        let s = ShardedStore::bootstrap(
            3,
            "CREATE TABLE volume (oid INTEGER NOT NULL AUTOINCREMENT, title TEXT, PRIMARY KEY (oid));\n\
             CREATE TABLE issue (oid INTEGER NOT NULL AUTOINCREMENT, volume_oid INTEGER, number INTEGER, PRIMARY KEY (oid));",
            &keys,
            Arc::new(obs::ReplCounters::new()),
        )
        .expect("bootstrap");
        for i in 1..=9 {
            s.execute(
                "INSERT INTO volume (title) VALUES (?)",
                &Params::positional([Value::Text(format!("vol {i}"))]),
            )
            .expect("insert volume");
        }
        for v in 1..=9i64 {
            for n in 1..=2i64 {
                s.execute(
                    "INSERT INTO issue (volume_oid, number) VALUES (?, ?)",
                    &Params::positional([Value::Integer(v), Value::Integer(n)]),
                )
                .expect("insert issue");
            }
        }
        s
    }

    #[test]
    fn auto_oids_are_globally_unique_and_spread() {
        let s = store();
        let mut oids: Vec<i64> = Vec::new();
        let mut populated = 0;
        for db in s.shards() {
            let rs = db.query("SELECT oid FROM volume", &Params::new()).unwrap();
            if !rs.is_empty() {
                populated += 1;
            }
            for r in rs.rows() {
                if let Value::Integer(i) = r[0] {
                    oids.push(i);
                }
            }
        }
        oids.sort_unstable();
        assert_eq!(oids, (1..=9).collect::<Vec<i64>>(), "dense, no collisions");
        assert!(populated >= 2, "9 rows should spread past one shard");
    }

    #[test]
    fn insert_returns_the_global_mint() {
        let s = store();
        let r = s
            .execute(
                "INSERT INTO volume (title) VALUES ('vol 10'), ('vol 11')",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(
            r.keys(),
            &[10, 11],
            "the store's global mint, in VALUES order"
        );
        for (oid, title) in [(10, "vol 10"), (11, "vol 11")] {
            let rs = s
                .query(
                    "SELECT title FROM volume WHERE oid = ?",
                    &Params::positional([Value::Integer(oid)]),
                )
                .unwrap();
            assert_eq!(rs.first("title"), Some(&Value::Text(title.into())));
        }
    }

    #[test]
    fn key_equality_routes_to_exactly_one_shard() {
        let s = store();
        let counters = Arc::clone(&s.counters);
        let before: u64 = (0..3)
            .map(|i| counters.reads_for(&format!("shard-{i}")))
            .sum();
        let rs = s
            .query(
                "SELECT oid, title FROM volume WHERE oid = ?",
                &Params::positional([Value::Integer(5)]),
            )
            .unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.first("title"), Some(&Value::Text("vol 5".into())));
        let after: u64 = (0..3)
            .map(|i| counters.reads_for(&format!("shard-{i}")))
            .sum();
        assert_eq!(after - before, 1, "exactly one shard touched");

        // fk-keyed children of one parent are co-located: also one shard
        let before = after;
        let rs = s
            .query(
                "SELECT oid, number FROM issue WHERE volume_oid = ? ORDER BY number",
                &Params::positional([Value::Integer(4)]),
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        let after: u64 = (0..3)
            .map(|i| counters.reads_for(&format!("shard-{i}")))
            .sum();
        assert_eq!(after - before, 1, "unit query stays single-shard");
    }

    #[test]
    fn fanout_merges_order_limit_and_count() {
        let s = store();
        let rs = s
            .query(
                "SELECT oid, title FROM volume ORDER BY oid DESC LIMIT 3 OFFSET 1",
                &Params::new(),
            )
            .unwrap();
        let oids: Vec<i64> = rs
            .rows()
            .iter()
            .map(|r| match r[0] {
                Value::Integer(i) => i,
                _ => panic!("oid"),
            })
            .collect();
        assert_eq!(oids, vec![8, 7, 6], "global Top-K after offset");

        let rs = s
            .query("SELECT COUNT(*) FROM issue", &Params::new())
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Integer(18));

        let rs = s
            .query(
                "SELECT DISTINCT number FROM issue ORDER BY number",
                &Params::new(),
            )
            .unwrap();
        assert_eq!(rs.len(), 2, "global DISTINCT across shards");
    }

    #[test]
    fn dml_routes_and_fans_out() {
        let s = store();
        // routed update: one shard
        let n = s
            .execute(
                "UPDATE volume SET title = ? WHERE oid = ?",
                &Params::positional([Value::Text("renamed".into()), Value::Integer(3)]),
            )
            .unwrap()
            .affected();
        assert_eq!(n, 1);
        let rs = s
            .query(
                "SELECT title FROM volume WHERE oid = ?",
                &Params::positional([Value::Integer(3)]),
            )
            .unwrap();
        assert_eq!(rs.first("title"), Some(&Value::Text("renamed".into())));

        // fan-out delete sums across shards
        let n = s
            .execute(
                "DELETE FROM issue WHERE number = ?",
                &Params::positional([Value::Integer(2)]),
            )
            .unwrap()
            .affected();
        assert_eq!(n, 9);
        let rs = s
            .query("SELECT COUNT(*) FROM issue", &Params::new())
            .unwrap();
        assert_eq!(rs.rows()[0][0], Value::Integer(9));
    }

    #[test]
    fn unsupported_shapes_fail_loudly_not_wrongly() {
        let s = store();
        assert!(matches!(
            s.execute("BEGIN", &Params::new()),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            s.query(
                "SELECT volume_oid, COUNT(*) FROM issue GROUP BY volume_oid",
                &Params::new()
            ),
            Err(Error::Unsupported(_))
        ));
        assert!(matches!(
            s.execute("INSERT INTO issue VALUES (99, 1, 1)", &Params::new()),
            Err(Error::Unsupported(_))
        ));
        // a fan-out whose ORDER BY key is not projected cannot be merged:
        // reject, never return a wrongly-ordered concatenation
        assert!(matches!(
            s.query("SELECT title FROM volume ORDER BY oid", &Params::new()),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn rejections_render_the_shared_explanation() {
        let s = store();
        let Err(Error::Unsupported(msg)) = s.execute("BEGIN", &Params::new()) else {
            panic!("BEGIN must be rejected");
        };
        assert!(msg.starts_with("sharding: "), "{msg}");
        assert!(msg.contains("BEGIN"), "carries the statement: {msg}");

        let Err(Error::Unsupported(msg)) =
            s.execute("INSERT INTO issue VALUES (99, 1, 1)", &Params::new())
        else {
            panic!("column-less INSERT must be rejected");
        };
        assert!(msg.contains("must list its columns"), "{msg}");
        assert!(msg.contains("INSERT INTO issue VALUES (99, 1, 1)"), "{msg}");
    }

    #[test]
    fn explicit_oids_bump_the_global_mint() {
        let keys: Vec<ShardKey> = Vec::new();
        let s = ShardedStore::bootstrap(
            2,
            "CREATE TABLE t (oid INTEGER NOT NULL AUTOINCREMENT, x INTEGER, PRIMARY KEY (oid))",
            &keys,
            Arc::new(obs::ReplCounters::new()),
        )
        .unwrap();
        s.execute(
            "INSERT INTO t (oid, x) VALUES (?, ?)",
            &Params::positional([Value::Integer(10), Value::Integer(0)]),
        )
        .unwrap();
        s.execute(
            "INSERT INTO t (x) VALUES (?)",
            &Params::positional([Value::Integer(1)]),
        )
        .unwrap();
        let mut oids: Vec<i64> = Vec::new();
        for db in s.shards() {
            for r in db
                .query("SELECT oid FROM t", &Params::new())
                .unwrap()
                .rows()
            {
                if let Value::Integer(i) = r[0] {
                    oids.push(i);
                }
            }
        }
        oids.sort_unstable();
        assert_eq!(oids, vec![10, 11], "auto id minted past the explicit one");
    }
}
