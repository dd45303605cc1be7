//! Row storage for one table, with primary-key and secondary indexes.
//!
//! Rows are **version chains** (MVCC): each slot holds the versions of one
//! logical row, oldest to newest, stamped with begin/end commit LSNs. A
//! [`Snapshot`] decides which version of each chain a reader sees, so
//! readers never block on writers. A `RowId` names a slot and is stable for
//! the lifetime of the chain, which lets indexes and the undo log refer to
//! rows cheaply. Index buckets list every chain in which *any* version
//! carries the key; probes re-check the visible version against the key.

use crate::error::{Error, Result};
use crate::schema::TableSchema;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap};

/// Stable identifier of a row slot within one table.
pub type RowId = usize;

/// A stored row: one `Value` per column, in schema order.
pub type Row = Vec<Value>;

/// High bit of a stamp: set (and != [`LIVE`]) means "written by the
/// uncommitted transaction whose id is in the low bits".
pub const TXN_MARK: u64 = 1 << 63;

/// End stamp of a version that has not been superseded or deleted.
pub const LIVE: u64 = u64::MAX;

/// Transaction id used by the committed-immediate compatibility paths
/// (unit tests, recovery); never handed to a live session.
const IMMEDIATE_TXID: u64 = 1 << 62;

/// Is `stamp` an uncommitted-transaction mark? ([`LIVE`] also has the high
/// bit set, so it must be excluded first.)
pub fn is_txn_stamp(stamp: u64) -> bool {
    stamp != LIVE && stamp & TXN_MARK != 0
}

/// The transaction id carried by an uncommitted mark.
pub fn txn_of(stamp: u64) -> u64 {
    stamp & !TXN_MARK
}

/// One version of a logical row.
///
/// `begin` is the commit LSN that created it (or a txn mark while its
/// writer is uncommitted); `end` is the commit LSN that superseded or
/// deleted it, a txn mark for a pending overwrite/delete, or [`LIVE`].
#[derive(Debug, Clone)]
pub struct Version {
    pub begin: u64,
    pub end: u64,
    pub row: Row,
}

/// A read view: versions committed at or before `lsn`, plus the
/// uncommitted writes of transaction `txid` (0 = plain reader).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub lsn: u64,
    pub txid: u64,
}

impl Snapshot {
    /// Every committed version, no uncommitted ones. Commits happen under
    /// the write lock, so this is a consistent view for any reader that
    /// holds the read lock — no clock load needed.
    pub fn latest() -> Snapshot {
        Snapshot {
            lsn: TXN_MARK - 1,
            txid: 0,
        }
    }

    /// The writer's own view: latest committed plus its own uncommitted
    /// versions. Used by write paths and read-your-own-writes selects.
    pub fn current(txid: u64) -> Snapshot {
        Snapshot {
            lsn: TXN_MARK - 1,
            txid,
        }
    }

    /// A pinned snapshot: committed prefix up to `lsn`, plus own writes.
    pub fn at(lsn: u64, txid: u64) -> Snapshot {
        Snapshot { lsn, txid }
    }

    fn sees_stamp(&self, stamp: u64) -> bool {
        if is_txn_stamp(stamp) {
            self.txid != 0 && txn_of(stamp) == self.txid
        } else {
            stamp <= self.lsn
        }
    }

    /// Is this version the one a reader under this snapshot sees?
    pub fn visible(&self, v: &Version) -> bool {
        if !self.sees_stamp(v.begin) {
            return false;
        }
        v.end == LIVE || !self.sees_stamp(v.end)
    }
}

/// The identity a writer mutates under: its transaction id and the commit
/// LSN of the snapshot it read from (committed versions newer than that
/// are first-writer-wins conflicts).
#[derive(Debug, Clone, Copy)]
pub struct WriteCtx {
    pub txid: u64,
    pub snapshot_lsn: u64,
}

impl WriteCtx {
    /// A writer that reads the latest committed state (exclusive
    /// transactions and autocommit: the write lock is held, so no
    /// committed-after-snapshot conflict is possible).
    pub fn exclusive(txid: u64) -> WriteCtx {
        WriteCtx {
            txid,
            snapshot_lsn: TXN_MARK - 1,
        }
    }
}

/// A secondary index over one or more columns.
#[derive(Debug, Clone)]
pub struct Index {
    pub name: String,
    /// Column positions in the table schema, in index order.
    pub columns: Vec<usize>,
    pub unique: bool,
    /// Ordered map from composite key to the chains holding it in any
    /// version. Probes must re-check the visible version's key.
    map: BTreeMap<Vec<Value>, Vec<RowId>>,
}

impl Index {
    /// The composite key of `row` under this index.
    pub fn key_of(&self, row: &Row) -> Vec<Value> {
        self.columns.iter().map(|&c| row[c].clone()).collect()
    }

    /// Chains in which some version's indexed columns equal `key`.
    pub fn lookup(&self, key: &[Value]) -> &[RowId] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Number of distinct keys (used by the planner's cost heuristic).
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    fn add(&mut self, key: Vec<Value>, id: RowId) {
        let bucket = self.map.entry(key).or_default();
        if !bucket.contains(&id) {
            bucket.push(id);
        }
    }

    fn remove(&mut self, key: &[Value], id: RowId) {
        if let Some(bucket) = self.map.get_mut(key) {
            bucket.retain(|&r| r != id);
            if bucket.is_empty() {
                self.map.remove(key);
            }
        }
    }
}

/// One table: schema + version-chain slots + indexes.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    /// Version chains, oldest to newest; an empty chain is a free slot.
    slots: Vec<Vec<Version>>,
    free: Vec<RowId>,
    /// Committed-current row count (what `len()` reports).
    live: usize,
    /// Total stored versions across all chains.
    versions: usize,
    /// Primary-key index (present iff the schema declares a PK).
    pk_index: Option<HashMap<Vec<Value>, Vec<RowId>>>,
    indexes: Vec<Index>,
    next_auto: i64,
}

impl Table {
    pub fn new(schema: TableSchema) -> Result<Table> {
        schema.validate()?;
        let pk_index = if schema.primary_key.is_empty() {
            None
        } else {
            Some(HashMap::new())
        };
        Ok(Table {
            schema,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            versions: 0,
            pk_index,
            indexes: Vec::new(),
            next_auto: 1,
        })
    }

    /// Number of committed-current rows.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total versions stored (live + superseded + uncommitted).
    pub fn version_count(&self) -> usize {
        self.versions
    }

    /// The value the next auto-increment insert would receive.
    pub fn peek_auto(&self) -> i64 {
        self.next_auto
    }

    /// Iterate over `(RowId, &Row)` for all committed-current rows.
    pub fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.iter_visible(Snapshot::latest())
    }

    /// Iterate over the rows visible under `snap`.
    pub fn iter_visible(&self, snap: Snapshot) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(id, chain)| {
                chain
                    .iter()
                    .rev()
                    .find(|v| snap.visible(v))
                    .map(|v| (id, &v.row))
            })
    }

    /// The version of chain `id` visible under `snap`, if any.
    pub fn visible_row(&self, id: RowId, snap: Snapshot) -> Option<&Row> {
        self.slots
            .get(id)?
            .iter()
            .rev()
            .find(|v| snap.visible(v))
            .map(|v| &v.row)
    }

    /// Fetch the committed-current row by id (None if deleted/out of range).
    pub fn get(&self, id: RowId) -> Option<&Row> {
        self.visible_row(id, Snapshot::latest())
    }

    /// The newest version's row regardless of visibility (redo derivation:
    /// at commit time the committer's own versions are still txn-marked).
    pub fn latest_row(&self, id: RowId) -> Option<&Row> {
        self.slots.get(id)?.last().map(|v| &v.row)
    }

    /// Exact-match lookup through the primary-key index (committed view).
    pub fn get_by_pk(&self, key: &[Value]) -> Option<(RowId, &Row)> {
        self.get_by_pk_visible(key, Snapshot::latest())
    }

    /// Exact-match PK lookup under `snap`, re-checking the visible
    /// version's key (buckets may list chains that only held the key in
    /// an old version).
    pub fn get_by_pk_visible(&self, key: &[Value], snap: Snapshot) -> Option<(RowId, &Row)> {
        let idx = self.pk_index.as_ref()?;
        for &id in idx.get(key)? {
            if let Some(r) = self.visible_row(id, snap) {
                if self.pk_key(r).as_deref() == Some(key) {
                    return Some((id, r));
                }
            }
        }
        None
    }

    /// Chains whose version visible under `snap` carries `key` in `ix`.
    pub fn probe_visible(&self, ix: &Index, key: &[Value], snap: Snapshot) -> Vec<RowId> {
        self.probe_visible_rows(ix, key, snap)
            .map(|(id, _)| id)
            .collect()
    }

    /// [`Table::probe_visible`] with each chain's visible version, so a
    /// reader that needs the row does not walk the chain a second time.
    pub fn probe_visible_rows<'t: 'k, 'k>(
        &'t self,
        ix: &'k Index,
        key: &'k [Value],
        snap: Snapshot,
    ) -> impl Iterator<Item = (RowId, &'t Row)> + 'k {
        let holds_key = move |r: &Row| {
            ix.columns.len() == key.len() && ix.columns.iter().zip(key).all(|(&c, k)| r[c] == *k)
        };
        ix.lookup(key).iter().filter_map(move |&id| {
            self.visible_row(id, snap)
                .filter(|r| holds_key(r))
                .map(|r| (id, r))
        })
    }

    /// The secondary indexes of this table.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Find an index whose leading columns are exactly `columns` (a prefix
    /// match is enough for an equality probe on the prefix).
    pub fn find_index_on(&self, columns: &[usize]) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| ix.columns.len() >= columns.len() && ix.columns[..columns.len()] == *columns)
    }

    /// Create a secondary index and populate it from existing versions.
    pub fn create_index(
        &mut self,
        name: impl Into<String>,
        column_names: &[String],
        unique: bool,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(Error::DuplicateIndex(name));
        }
        let mut columns = Vec::with_capacity(column_names.len());
        for c in column_names {
            columns.push(self.schema.require_column(c)?);
        }
        let mut ix = Index {
            name,
            columns,
            unique,
            map: BTreeMap::new(),
        };
        if unique {
            let mut seen: BTreeMap<Vec<Value>, ()> = BTreeMap::new();
            for (_, row) in self.iter() {
                if seen.insert(ix.key_of(row), ()).is_some() {
                    return Err(Error::UniqueViolation {
                        table: self.schema.name.clone(),
                        column: column_names.join(","),
                    });
                }
            }
        }
        for (id, chain) in self.slots.iter().enumerate() {
            for v in chain {
                ix.add(ix.key_of(&v.row), id);
            }
        }
        self.indexes.push(ix);
        Ok(())
    }

    fn pk_key(&self, row: &Row) -> Option<Vec<Value>> {
        if self.schema.primary_key.is_empty() {
            None
        } else {
            Some(
                self.schema
                    .primary_key
                    .iter()
                    .map(|&i| row[i].clone())
                    .collect(),
            )
        }
    }

    /// Validate NOT NULL + apply defaults + auto-increment. `row` must have
    /// one entry per column.
    fn prepare_row(&mut self, mut row: Row) -> Result<Row> {
        for (i, col) in self.schema.columns.iter().enumerate() {
            if row[i].is_null() {
                if col.auto_increment {
                    row[i] = Value::Integer(self.next_auto);
                    self.next_auto += 1;
                    continue;
                }
                if let Some(d) = &col.default {
                    row[i] = d.clone();
                }
            }
            if row[i].is_null() && !col.nullable {
                return Err(Error::NullViolation {
                    table: self.schema.name.clone(),
                    column: col.name.clone(),
                });
            }
            if !row[i].is_null() {
                row[i] = std::mem::replace(&mut row[i], Value::Null).coerce(col.data_type)?;
            }
        }
        // keep the auto counter ahead of explicitly supplied keys
        for (i, col) in self.schema.columns.iter().enumerate() {
            if col.auto_increment {
                if let Value::Integer(v) = row[i] {
                    if v >= self.next_auto {
                        self.next_auto = v + 1;
                    }
                }
            }
        }
        Ok(row)
    }

    fn arity_check(&self, row: &Row) -> Result<()> {
        if row.len() != self.schema.columns.len() {
            return Err(Error::Parameter(format!(
                "row arity {} != {} columns of {}",
                row.len(),
                self.schema.columns.len(),
                self.schema.name
            )));
        }
        Ok(())
    }

    /// Scan a bucket of candidate chains for a key collision from `ctx`'s
    /// perspective: a row current to this writer with the same key is a
    /// [`Error::UniqueViolation`]; an uncommitted *foreign* version (insert
    /// or pending delete) with the key is a first-writer-wins
    /// [`Error::WriteConflict`].
    fn check_unique_bucket(
        &self,
        ids: &[RowId],
        key: &[Value],
        key_of: impl Fn(&Row) -> Option<Vec<Value>>,
        ctx: &WriteCtx,
        skip: Option<RowId>,
        label: &str,
    ) -> Result<()> {
        let me = Snapshot::current(ctx.txid);
        for &id in ids {
            if Some(id) == skip {
                continue;
            }
            let Some(newest) = self.slots.get(id).and_then(|c| c.last()) else {
                continue;
            };
            if let Some(r) = self.visible_row(id, me) {
                if key_of(r).as_deref() == Some(key) {
                    if newest.end != LIVE
                        && is_txn_stamp(newest.end)
                        && txn_of(newest.end) != ctx.txid
                    {
                        // a foreign txn is deleting it; if that rolls back
                        // our insert would collide — conflict, not dup
                        return Err(Error::WriteConflict {
                            table: self.schema.name.clone(),
                        });
                    }
                    return Err(Error::UniqueViolation {
                        table: self.schema.name.clone(),
                        column: label.to_string(),
                    });
                }
            } else if is_txn_stamp(newest.begin)
                && txn_of(newest.begin) != ctx.txid
                && newest.end == LIVE
                && key_of(&newest.row).as_deref() == Some(key)
            {
                // invisible to us but a foreign uncommitted write holds the
                // key: committing both would violate uniqueness
                return Err(Error::WriteConflict {
                    table: self.schema.name.clone(),
                });
            }
        }
        Ok(())
    }

    fn check_insert_constraints(
        &self,
        row: &Row,
        ctx: &WriteCtx,
        skip: Option<RowId>,
    ) -> Result<()> {
        if let Some(key) = self.pk_key(row) {
            if key.iter().any(Value::is_null) {
                return Err(Error::NullViolation {
                    table: self.schema.name.clone(),
                    column: self.schema.primary_key_names().join(","),
                });
            }
            let ids: Vec<RowId> = self
                .pk_index
                .as_ref()
                .and_then(|m| m.get(&key))
                .cloned()
                .unwrap_or_default();
            self.check_unique_bucket(
                &ids,
                &key,
                |r| self.pk_key(r),
                ctx,
                skip,
                &self.schema.primary_key_names().join(","),
            )?;
        }
        for ix in &self.indexes {
            if ix.unique {
                let key = ix.key_of(row);
                let ids = ix.lookup(&key).to_vec();
                self.check_unique_bucket(&ids, &key, |r| Some(ix.key_of(r)), ctx, skip, &ix.name)?;
            }
        }
        Ok(())
    }

    /// Add chain `id`'s newest version to every index (dedup per bucket).
    fn index_add_newest(&mut self, id: RowId) {
        let row = match self.slots[id].last() {
            Some(v) => v.row.clone(),
            None => return,
        };
        if let Some(key) = self.pk_key(&row) {
            let bucket = self.pk_index.as_mut().unwrap().entry(key).or_default();
            if !bucket.contains(&id) {
                bucket.push(id);
            }
        }
        let keys: Vec<Vec<Value>> = self.indexes.iter().map(|ix| ix.key_of(&row)).collect();
        for (ix, key) in self.indexes.iter_mut().zip(keys) {
            ix.add(key, id);
        }
    }

    /// Remove `id` from the buckets of `row`'s keys unconditionally (used
    /// when the whole chain is going away).
    fn index_remove_row(&mut self, id: RowId, row: &Row) {
        if let Some(key) = self.pk_key(row) {
            if let Some(idx) = self.pk_index.as_mut() {
                if let Some(bucket) = idx.get_mut(&key) {
                    bucket.retain(|&r| r != id);
                    if bucket.is_empty() {
                        idx.remove(&key);
                    }
                }
            }
        }
        let keys: Vec<Vec<Value>> = self.indexes.iter().map(|ix| ix.key_of(row)).collect();
        for (ix, key) in self.indexes.iter_mut().zip(keys) {
            ix.remove(&key, id);
        }
    }

    /// After removing a version holding `row` from chain `id`, drop `id`
    /// from the buckets of keys no remaining version carries.
    fn index_remove_if_absent(&mut self, id: RowId, row: &Row) {
        if let Some(key) = self.pk_key(row) {
            let still = self.slots[id]
                .iter()
                .any(|v| self.pk_key(&v.row).as_ref() == Some(&key));
            if !still {
                if let Some(idx) = self.pk_index.as_mut() {
                    if let Some(bucket) = idx.get_mut(&key) {
                        bucket.retain(|&r| r != id);
                        if bucket.is_empty() {
                            idx.remove(&key);
                        }
                    }
                }
            }
        }
        let stale: Vec<(usize, Vec<Value>)> = self
            .indexes
            .iter()
            .enumerate()
            .filter_map(|(i, ix)| {
                let key = ix.key_of(row);
                let still = self.slots[id].iter().any(|v| ix.key_of(&v.row) == key);
                (!still).then_some((i, key))
            })
            .collect();
        for (i, key) in stale {
            self.indexes[i].remove(&key, id);
        }
    }

    // ---- MVCC write path -------------------------------------------------

    /// Install a new uncommitted row version. Visible only to `ctx.txid`
    /// until stamped by commit. Returns the chain id.
    pub fn insert_version(&mut self, row: Row, ctx: &WriteCtx) -> Result<RowId> {
        self.arity_check(&row)?;
        let row = self.prepare_row(row)?;
        self.check_insert_constraints(&row, ctx, None)?;
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(Vec::new());
                self.slots.len() - 1
            }
        };
        self.slots[id].push(Version {
            begin: TXN_MARK | ctx.txid,
            end: LIVE,
            row,
        });
        self.versions += 1;
        self.index_add_newest(id);
        Ok(id)
    }

    /// First-writer-wins gate: may `ctx` overwrite or delete chain `id`?
    fn check_write_conflict(&self, id: RowId, ctx: &WriteCtx) -> Result<&Version> {
        let newest =
            self.slots.get(id).and_then(|c| c.last()).ok_or_else(|| {
                Error::Eval(format!("row {id} not found in {}", self.schema.name))
            })?;
        let conflict = || Error::WriteConflict {
            table: self.schema.name.clone(),
        };
        if newest.end == LIVE {
            if is_txn_stamp(newest.begin) {
                if txn_of(newest.begin) != ctx.txid {
                    return Err(conflict());
                }
            } else if newest.begin > ctx.snapshot_lsn {
                // committed after our snapshot: we lost the race
                return Err(conflict());
            }
        } else if is_txn_stamp(newest.end) {
            if txn_of(newest.end) == ctx.txid {
                return Err(Error::Eval(format!(
                    "row {id} already deleted in this transaction in {}",
                    self.schema.name
                )));
            }
            return Err(conflict());
        } else {
            // committed delete we did not see: conflict
            return Err(conflict());
        }
        Ok(newest)
    }

    /// Supersede chain `id`'s newest version with `new_row` as an
    /// uncommitted version of `ctx.txid`. Returns the superseded row.
    pub fn update_version(&mut self, id: RowId, new_row: Row, ctx: &WriteCtx) -> Result<Row> {
        self.arity_check(&new_row)?;
        let new_row = self.prepare_row(new_row)?;
        let old = self.check_write_conflict(id, ctx)?.row.clone();
        let key_changed = self.pk_key(&old) != self.pk_key(&new_row)
            || self
                .indexes
                .iter()
                .any(|ix| ix.unique && ix.key_of(&old) != ix.key_of(&new_row));
        if key_changed {
            self.check_insert_constraints(&new_row, ctx, Some(id))?;
        }
        let mark = TXN_MARK | ctx.txid;
        let chain = &mut self.slots[id];
        chain.last_mut().unwrap().end = mark;
        chain.push(Version {
            begin: mark,
            end: LIVE,
            row: new_row,
        });
        self.versions += 1;
        self.index_add_newest(id);
        Ok(old)
    }

    /// Mark chain `id`'s newest version as deleted by `ctx.txid`.
    /// Returns the deleted row.
    pub fn delete_version(&mut self, id: RowId, ctx: &WriteCtx) -> Result<Row> {
        let old = self.check_write_conflict(id, ctx)?.row.clone();
        self.slots[id].last_mut().unwrap().end = TXN_MARK | ctx.txid;
        Ok(old)
    }

    // ---- commit / rollback / vacuum -------------------------------------

    /// Replace `txid`'s marks in chain `id` with the commit stamp.
    /// Idempotent: a chain touched by several undo ops stamps once.
    pub(crate) fn stamp_chain(&mut self, id: RowId, txid: u64, stamp: u64) {
        let mark = TXN_MARK | txid;
        if let Some(chain) = self.slots.get_mut(id) {
            for v in chain {
                if v.begin == mark {
                    v.begin = stamp;
                }
                if v.end == mark {
                    v.end = stamp;
                }
            }
        }
    }

    /// Adjust the committed-current row count (commit stamping: +1 per
    /// Inserted undo op, -1 per Deleted).
    pub(crate) fn adjust_live(&mut self, delta: isize) {
        self.live = (self.live as isize + delta) as usize;
    }

    /// Undo an uncommitted insert: pop the chain's own newest version.
    pub(crate) fn rollback_insert(&mut self, id: RowId, txid: u64) {
        let mark = TXN_MARK | txid;
        let popped = match self.slots.get_mut(id) {
            Some(chain) if chain.last().map(|v| v.begin) == Some(mark) => chain.pop().unwrap(),
            _ => return,
        };
        self.versions -= 1;
        self.index_remove_if_absent(id, &popped.row);
        if self.slots[id].is_empty() {
            self.free.push(id);
        }
    }

    /// Undo an uncommitted overwrite: pop the own newest version and
    /// revive the superseded one.
    pub(crate) fn rollback_update(&mut self, id: RowId, txid: u64) {
        let mark = TXN_MARK | txid;
        let popped = match self.slots.get_mut(id) {
            Some(chain) if chain.last().map(|v| v.begin) == Some(mark) => chain.pop().unwrap(),
            _ => return,
        };
        self.versions -= 1;
        if let Some(prev) = self.slots[id].last_mut() {
            if prev.end == mark {
                prev.end = LIVE;
            }
        }
        self.index_remove_if_absent(id, &popped.row);
    }

    /// Undo an uncommitted delete: clear the own end mark.
    pub(crate) fn rollback_delete(&mut self, id: RowId, txid: u64) {
        let mark = TXN_MARK | txid;
        if let Some(v) = self.slots.get_mut(id).and_then(|c| c.last_mut()) {
            if v.end == mark {
                v.end = LIVE;
            }
        }
    }

    /// Reclaim versions whose committed end stamp is at or below
    /// `low_water` — no live snapshot can see them. Returns the number of
    /// versions reclaimed; emptied chains free their slot.
    pub fn vacuum(&mut self, low_water: u64) -> usize {
        let mut reclaimed = 0;
        for id in 0..self.slots.len() {
            if self.slots[id].is_empty() {
                continue;
            }
            let mut removed: Vec<Row> = Vec::new();
            self.slots[id].retain(|v| {
                let dead = v.end != LIVE && !is_txn_stamp(v.end) && v.end <= low_water;
                if dead {
                    removed.push(v.row.clone());
                }
                !dead
            });
            if removed.is_empty() {
                continue;
            }
            reclaimed += removed.len();
            self.versions -= removed.len();
            for row in &removed {
                self.index_remove_if_absent(id, row);
            }
            if self.slots[id].is_empty() {
                self.free.push(id);
            }
        }
        reclaimed
    }

    // ---- committed-immediate compatibility paths -------------------------

    /// Insert a row, committed immediately (unit tests, bulk loads; never
    /// interleaved with live snapshots). Returns its id.
    pub fn insert(&mut self, row: Row) -> Result<RowId> {
        let ctx = WriteCtx::exclusive(IMMEDIATE_TXID);
        let id = self.insert_version(row, &ctx)?;
        self.stamp_chain(id, IMMEDIATE_TXID, 0);
        self.live += 1;
        Ok(id)
    }

    /// Physically place `row` at slot `id`, maintaining every index.
    ///
    /// This is the recovery/undo path: the row carries values that were
    /// already validated when it was first written, so constraints are
    /// **not** re-checked, defaults are not applied, and the slot is taken
    /// verbatim (overwriting any chain already there — which makes log
    /// replay idempotent). The auto-increment counter is bumped past any
    /// explicit key values, like [`Table::insert`] does.
    pub fn insert_at(&mut self, id: RowId, row: Row) -> Result<()> {
        self.arity_check(&row)?;
        if self.slots.len() <= id {
            self.slots.resize(id + 1, Vec::new());
        }
        if !self.slots[id].is_empty() {
            // drop the previous occupant from all indexes first
            self.delete(id);
        }
        // the slot is now vacant; make sure it is not also on the free list
        self.free.retain(|&f| f != id);
        for (i, col) in self.schema.columns.iter().enumerate() {
            if col.auto_increment {
                if let Value::Integer(v) = row[i] {
                    if v >= self.next_auto {
                        self.next_auto = v + 1;
                    }
                }
            }
        }
        self.slots[id].push(Version {
            begin: 0,
            end: LIVE,
            row,
        });
        self.versions += 1;
        self.index_add_newest(id);
        self.live += 1;
        Ok(())
    }

    /// Force the auto-increment counter (snapshot restore); never lowers it.
    pub fn set_next_auto(&mut self, v: i64) {
        if v > self.next_auto {
            self.next_auto = v;
        }
    }

    /// Physically remove a chain by id, returning its newest row (for the
    /// undo log / physical replay).
    pub fn delete(&mut self, id: RowId) -> Option<Row> {
        let chain = std::mem::take(self.slots.get_mut(id)?);
        if chain.is_empty() {
            return None;
        }
        let latest = Snapshot::latest();
        let had_current = chain.iter().any(|v| latest.visible(v));
        self.versions -= chain.len();
        for v in &chain {
            self.index_remove_row(id, &v.row);
        }
        self.free.push(id);
        if had_current {
            self.live -= 1;
        }
        chain.into_iter().next_back().map(|v| v.row)
    }

    /// Replace the committed-current row in place, maintaining all indexes
    /// (unit tests / single-version chains). Returns the old row.
    pub fn update(&mut self, id: RowId, new_row: Row) -> Result<Row> {
        if new_row.len() != self.schema.columns.len() {
            return Err(Error::Parameter("update arity mismatch".into()));
        }
        let new_row = self.prepare_row(new_row)?;
        let old = self
            .get(id)
            .cloned()
            .ok_or_else(|| Error::Eval(format!("row {id} not found in {}", self.schema.name)))?;
        // PK change: ensure uniqueness of the new key among current rows
        if let (Some(old_key), Some(new_key)) = (self.pk_key(&old), self.pk_key(&new_row)) {
            if old_key != new_key {
                if new_key.iter().any(Value::is_null) {
                    return Err(Error::NullViolation {
                        table: self.schema.name.clone(),
                        column: self.schema.primary_key_names().join(","),
                    });
                }
                if self
                    .get_by_pk(&new_key)
                    .is_some_and(|(other, _)| other != id)
                {
                    return Err(Error::UniqueViolation {
                        table: self.schema.name.clone(),
                        column: self.schema.primary_key_names().join(","),
                    });
                }
            }
        }
        for ixpos in 0..self.indexes.len() {
            let old_key = self.indexes[ixpos].key_of(&old);
            let new_key = self.indexes[ixpos].key_of(&new_row);
            if old_key != new_key && self.indexes[ixpos].unique {
                let ids = self.indexes[ixpos].lookup(&new_key).to_vec();
                for other in ids {
                    if other != id
                        && self
                            .get(other)
                            .is_some_and(|r| self.indexes[ixpos].key_of(r) == new_key)
                    {
                        return Err(Error::UniqueViolation {
                            table: self.schema.name.clone(),
                            column: self.indexes[ixpos].name.clone(),
                        });
                    }
                }
            }
        }
        self.slots[id].last_mut().unwrap().row = new_row;
        self.index_add_newest(id);
        self.index_remove_if_absent(id, &old);
        Ok(old)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Column;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            TableSchema::new("t")
                .column(Column::new("oid", DataType::Integer).not_null().auto())
                .column(Column::new("name", DataType::Text).not_null())
                .column(Column::new("score", DataType::Integer).with_default(Value::Integer(0)))
                .primary_key(&["oid"]),
        )
        .unwrap()
    }

    fn row(name: &str) -> Row {
        vec![Value::Null, Value::Text(name.into()), Value::Null]
    }

    #[test]
    fn auto_increment_assigns_sequential_keys() {
        let mut t = table();
        t.insert(row("a")).unwrap();
        t.insert(row("b")).unwrap();
        let (_, r) = t.get_by_pk(&[Value::Integer(2)]).unwrap();
        assert_eq!(r[1], Value::Text("b".into()));
    }

    #[test]
    fn default_applied_when_null() {
        let mut t = table();
        let id = t.insert(row("a")).unwrap();
        assert_eq!(t.get(id).unwrap()[2], Value::Integer(0));
    }

    #[test]
    fn explicit_pk_bumps_auto_counter() {
        let mut t = table();
        t.insert(vec![Value::Integer(10), "x".into(), Value::Null])
            .unwrap();
        let id = t.insert(row("y")).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Integer(11));
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        t.insert(vec![Value::Integer(1), "x".into(), Value::Null])
            .unwrap();
        let err = t
            .insert(vec![Value::Integer(1), "y".into(), Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::NullViolation { .. }));
    }

    #[test]
    fn delete_frees_slot_and_index() {
        let mut t = table();
        let id = t.insert(row("a")).unwrap();
        assert_eq!(t.len(), 1);
        t.delete(id).unwrap();
        assert_eq!(t.len(), 0);
        assert!(t.get_by_pk(&[Value::Integer(1)]).is_none());
        // slot is recycled
        let id2 = t.insert(row("b")).unwrap();
        assert_eq!(id, id2);
    }

    #[test]
    fn secondary_index_lookup_and_maintenance() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        let a = t.insert(row("dup")).unwrap();
        let b = t.insert(row("dup")).unwrap();
        let ix = t.find_index_on(&[1]).unwrap();
        let hits = ix.lookup(&[Value::Text("dup".into())]);
        assert_eq!(hits.len(), 2);
        assert!(hits.contains(&a) && hits.contains(&b));
        t.delete(a);
        let ix = t.find_index_on(&[1]).unwrap();
        assert_eq!(ix.lookup(&[Value::Text("dup".into())]), &[b]);
    }

    #[test]
    fn unique_index_rejected_on_duplicate() {
        let mut t = table();
        t.insert(row("a")).unwrap();
        t.insert(row("a")).unwrap();
        assert!(t.create_index("u", &["name".into()], true).is_err());
    }

    #[test]
    fn update_maintains_pk_and_secondary_indexes() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        let id = t.insert(row("old")).unwrap();
        t.update(id, vec![Value::Integer(1), "new".into(), Value::Integer(5)])
            .unwrap();
        let ix = t.find_index_on(&[1]).unwrap();
        assert!(ix.lookup(&[Value::Text("old".into())]).is_empty());
        assert_eq!(ix.lookup(&[Value::Text("new".into())]), &[id]);
    }

    #[test]
    fn update_pk_collision_rejected() {
        let mut t = table();
        t.insert(row("a")).unwrap();
        let b = t.insert(row("b")).unwrap();
        let err = t
            .update(b, vec![Value::Integer(1), "b".into(), Value::Null])
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }));
    }

    #[test]
    fn insert_at_places_row_and_maintains_indexes() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        // place a row physically at slot 5, leaving holes
        t.insert_at(5, vec![Value::Integer(9), "p".into(), Value::Integer(1)])
            .unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_by_pk(&[Value::Integer(9)]).unwrap().0, 5);
        let ix = t.find_index_on(&[1]).unwrap();
        assert_eq!(ix.lookup(&[Value::Text("p".into())]), &[5]);
        // auto counter is bumped past the explicit key
        let id = t.insert(row("next")).unwrap();
        assert_eq!(t.get(id).unwrap()[0], Value::Integer(10));
        // re-applying the same physical insert is idempotent
        t.insert_at(5, vec![Value::Integer(9), "p".into(), Value::Integer(1)])
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(ix_len(&t), 2);
    }

    fn ix_len(t: &Table) -> usize {
        let ix = t.find_index_on(&[1]).unwrap();
        ix.lookup(&[Value::Text("p".into())]).len() + ix.lookup(&[Value::Text("next".into())]).len()
    }

    #[test]
    fn insert_at_reclaims_freed_slot() {
        let mut t = table();
        let a = t.insert(row("a")).unwrap();
        t.delete(a).unwrap();
        // restore physically (the rollback path)
        t.insert_at(a, vec![Value::Integer(1), "a".into(), Value::Integer(0)])
            .unwrap();
        assert_eq!(t.len(), 1);
        // the slot is no longer on the free list: a new insert appends
        let b = t.insert(row("b")).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn coercion_happens_on_insert() {
        let mut t = table();
        let id = t
            .insert(vec![Value::Null, "a".into(), Value::Text("7".into())])
            .unwrap();
        assert_eq!(t.get(id).unwrap()[2], Value::Integer(7));
    }

    // ---- MVCC visibility -------------------------------------------------

    #[test]
    fn uncommitted_insert_visible_only_to_its_writer() {
        let mut t = table();
        let ctx = WriteCtx::exclusive(7);
        let id = t.insert_version(row("mine"), &ctx).unwrap();
        // own view sees it; plain readers and other txns do not
        assert!(t.visible_row(id, Snapshot::current(7)).is_some());
        assert!(t.visible_row(id, Snapshot::latest()).is_none());
        assert!(t.visible_row(id, Snapshot::current(9)).is_none());
        assert_eq!(t.len(), 0);
        // stamping commits it for everyone
        t.stamp_chain(id, 7, 5);
        t.adjust_live(1);
        assert!(t.visible_row(id, Snapshot::latest()).is_some());
        assert!(
            t.visible_row(id, Snapshot::at(4, 0)).is_none(),
            "older snapshot"
        );
        assert!(t.visible_row(id, Snapshot::at(5, 0)).is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn pinned_snapshot_sees_superseded_version_until_vacuum() {
        let mut t = table();
        let id = t.insert(row("v1")).unwrap(); // committed at stamp 0
        let ctx = WriteCtx::exclusive(3);
        t.update_version(id, vec![Value::Integer(1), "v2".into(), Value::Null], &ctx)
            .unwrap();
        t.stamp_chain(id, 3, 10);
        // a snapshot pinned before the update still reads v1
        assert_eq!(
            t.visible_row(id, Snapshot::at(5, 0)).unwrap()[1],
            Value::Text("v1".into())
        );
        assert_eq!(
            t.visible_row(id, Snapshot::latest()).unwrap()[1],
            Value::Text("v2".into())
        );
        // vacuum below the old version's end keeps it; at/above reclaims
        assert_eq!(t.vacuum(9), 0);
        assert_eq!(t.version_count(), 2);
        assert_eq!(t.vacuum(10), 1);
        assert_eq!(t.version_count(), 1);
        assert_eq!(
            t.visible_row(id, Snapshot::latest()).unwrap()[1],
            Value::Text("v2".into())
        );
    }

    #[test]
    fn foreign_uncommitted_write_is_a_conflict() {
        let mut t = table();
        let id = t.insert(row("base")).unwrap();
        let first = WriteCtx::exclusive(1);
        t.update_version(
            id,
            vec![Value::Integer(1), "w1".into(), Value::Null],
            &first,
        )
        .unwrap();
        // second writer loses: first-writer-wins
        let second = WriteCtx::exclusive(2);
        let err = t
            .update_version(
                id,
                vec![Value::Integer(1), "w2".into(), Value::Null],
                &second,
            )
            .unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }), "{err}");
        let err = t.delete_version(id, &second).unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }));
        // rollback of the first writer clears the way
        t.rollback_update(id, 1);
        t.update_version(
            id,
            vec![Value::Integer(1), "w2".into(), Value::Null],
            &second,
        )
        .unwrap();
        t.stamp_chain(id, 2, 4);
        assert_eq!(t.get(id).unwrap()[1], Value::Text("w2".into()));
    }

    #[test]
    fn committed_after_snapshot_is_a_conflict() {
        let mut t = table();
        let id = t.insert(row("base")).unwrap();
        let w = WriteCtx::exclusive(1);
        t.update_version(id, vec![Value::Integer(1), "new".into(), Value::Null], &w)
            .unwrap();
        t.stamp_chain(id, 1, 8);
        // a txn whose snapshot predates stamp 8 must not overwrite blindly
        let stale = WriteCtx {
            txid: 2,
            snapshot_lsn: 5,
        };
        let err = t
            .update_version(id, vec![Value::Integer(1), "x".into(), Value::Null], &stale)
            .unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }));
    }

    #[test]
    fn index_probe_respects_visibility() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        let id = t.insert(row("old")).unwrap();
        let ctx = WriteCtx::exclusive(4);
        t.update_version(id, vec![Value::Integer(1), "new".into(), Value::Null], &ctx)
            .unwrap();
        let ix = t.find_index_on(&[1]).unwrap();
        let old_key = [Value::Text("old".into())];
        let new_key = [Value::Text("new".into())];
        // the bucket lists the chain under both keys; probes filter
        assert_eq!(t.probe_visible(ix, &old_key, Snapshot::latest()), vec![id]);
        assert!(t.probe_visible(ix, &new_key, Snapshot::latest()).is_empty());
        assert_eq!(
            t.probe_visible(ix, &new_key, Snapshot::current(4)),
            vec![id]
        );
        assert!(t
            .probe_visible(ix, &old_key, Snapshot::current(4))
            .is_empty());
    }

    #[test]
    fn rollback_of_insert_frees_slot_and_indexes() {
        let mut t = table();
        t.create_index("ix_name", &["name".into()], false).unwrap();
        let ctx = WriteCtx::exclusive(6);
        let id = t.insert_version(row("ghost"), &ctx).unwrap();
        t.rollback_insert(id, 6);
        assert_eq!(t.version_count(), 0);
        let ix = t.find_index_on(&[1]).unwrap();
        assert!(ix.lookup(&[Value::Text("ghost".into())]).is_empty());
        // the slot is recycled
        let id2 = t.insert(row("solid")).unwrap();
        assert_eq!(id, id2);
    }

    #[test]
    fn uncommitted_duplicate_pk_from_foreign_txn_conflicts() {
        let mut t = table();
        let a = WriteCtx::exclusive(1);
        t.insert_version(vec![Value::Integer(5), "a".into(), Value::Null], &a)
            .unwrap();
        // another txn inserting the same PK: conflict, not unique violation
        let b = WriteCtx::exclusive(2);
        let err = t
            .insert_version(vec![Value::Integer(5), "b".into(), Value::Null], &b)
            .unwrap_err();
        assert!(matches!(err, Error::WriteConflict { .. }), "{err}");
        // the same txn re-inserting its own key is a plain unique violation
        let err = t
            .insert_version(vec![Value::Integer(5), "b".into(), Value::Null], &a)
            .unwrap_err();
        assert!(matches!(err, Error::UniqueViolation { .. }), "{err}");
    }
}
