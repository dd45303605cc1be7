//! The mutable heart of the engine: the table map plus DML execution with
//! foreign-key enforcement and an undo log for transactions.

use crate::error::{Error, Result};
use crate::exec::{dml_rows, SelectStats};
use crate::expr::{eval, Binding, EvalCtx, Params};
use crate::result::ExecResult;
use crate::sql::ast::{Delete, Expr, Insert, Statement, Update};
use crate::table::{Row, RowId, Snapshot, Table, WriteCtx};
use crate::value::Value;
use std::collections::BTreeMap;

/// All tables of one database.
#[derive(Debug, Default, Clone)]
pub struct Storage {
    pub(crate) tables: BTreeMap<String, Table>,
}

/// One reversible mutation, recorded newest-last.
#[derive(Debug, Clone)]
pub enum UndoOp {
    /// A row was inserted: undo by deleting it.
    Inserted { table: String, row_id: RowId },
    /// A row was deleted: undo by re-inserting its values at its old slot.
    Deleted {
        table: String,
        row_id: RowId,
        row: Row,
    },
    /// A row was updated in place: undo by restoring the old values.
    Updated {
        table: String,
        row_id: RowId,
        old: Row,
    },
}

/// Undo log captured by a transaction; empty in autocommit mode.
pub type UndoLog = Vec<UndoOp>;

/// Coerce an FK probe key to the column types of `table` at `cols`.
/// `None` when a component cannot be coerced — the caller falls back to
/// the scan path, whose `sql_eq` rejects incomparable values itself.
fn coerce_key(table: &Table, cols: &[usize], key: &[Value]) -> Option<Vec<Value>> {
    let mut out = Vec::with_capacity(key.len());
    for (v, &c) in key.iter().zip(cols) {
        out.push(v.clone().coerce(table.schema.columns[c].data_type).ok()?);
    }
    Some(out)
}

impl Storage {
    pub fn require_table(&self, name: &str) -> Result<&Table> {
        // table names are case-insensitive
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    pub fn require_table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::UnknownTable(name.to_string()))
    }

    pub fn create_table(&mut self, table: Table) -> Result<()> {
        let key = table.schema.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(Error::DuplicateTable(table.schema.name.clone()));
        }
        self.tables.insert(key, table);
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str, if_exists: bool) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.remove(&key).is_none() && !if_exists {
            return Err(Error::UnknownTable(name.to_string()));
        }
        Ok(())
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables
            .values()
            .map(|t| t.schema.name.clone())
            .collect()
    }

    // ---- foreign keys ----------------------------------------------------

    /// Check every FK of `table_name` against the given row values, from
    /// the writer's view `snap` (own uncommitted parents count).
    fn check_outgoing_fks(&self, table_name: &str, row: &Row, snap: Snapshot) -> Result<()> {
        let table = self.require_table(table_name)?;
        for fk in &table.schema.foreign_keys {
            let mut key = Vec::with_capacity(fk.columns.len());
            let mut any_null = false;
            for c in &fk.columns {
                let i = table.schema.require_column(c)?;
                if row[i].is_null() {
                    any_null = true;
                }
                key.push(row[i].clone());
            }
            if any_null {
                continue; // SQL semantics: NULL FK components opt out
            }
            let referenced = self.require_table(&fk.referenced_table)?;
            if !self.referenced_row_exists(referenced, &fk.referenced_columns, &key, snap)? {
                return Err(Error::ForeignKeyViolation {
                    table: table.schema.name.clone(),
                    constraint: fk.name.clone(),
                });
            }
        }
        Ok(())
    }

    fn referenced_row_exists(
        &self,
        referenced: &Table,
        ref_cols: &[String],
        key: &[Value],
        snap: Snapshot,
    ) -> Result<bool> {
        // fast path: the referenced columns are the primary key
        let pk_names = referenced.schema.primary_key_names();
        if pk_names.len() == ref_cols.len()
            && pk_names
                .iter()
                .zip(ref_cols)
                .all(|(a, b)| a.eq_ignore_ascii_case(b))
        {
            // coerce key components to the referenced column types so that
            // e.g. Integer/Text comparisons behave
            let mut coerced = Vec::with_capacity(key.len());
            for (v, c) in key.iter().zip(&referenced.schema.primary_key) {
                coerced.push(v.clone().coerce(referenced.schema.columns[*c].data_type)?);
            }
            return Ok(referenced.get_by_pk_visible(&coerced, snap).is_some());
        }
        let mut idxs = Vec::with_capacity(ref_cols.len());
        for c in ref_cols {
            idxs.push(referenced.schema.require_column(c)?);
        }
        // secondary-index path: an index whose columns are exactly the
        // referenced columns answers the existence probe directly (the
        // deploy-time derivation creates these for every role traversal)
        if let Some(ix) = referenced.find_index_on(&idxs) {
            if ix.columns.len() == idxs.len() {
                if let Some(coerced) = coerce_key(referenced, &idxs, key) {
                    return Ok(!referenced.probe_visible(ix, &coerced, snap).is_empty());
                }
            }
        }
        // slow path: scan
        Ok(referenced.iter_visible(snap).any(|(_, row)| {
            idxs.iter()
                .zip(key)
                .all(|(&i, v)| row[i].sql_eq(v) == Some(true))
        }))
    }

    /// Rows in other tables that reference `(table, row)` through some FK.
    /// Returns `(referencing_table, fk_index, row_ids)` triples.
    fn referencing_rows(
        &self,
        table_name: &str,
        row: &Row,
        snap: Snapshot,
    ) -> Result<Vec<(String, usize, Vec<RowId>)>> {
        let target = self.require_table(table_name)?;
        let mut out = Vec::new();
        for other in self.tables.values() {
            for (fk_i, fk) in other.schema.foreign_keys.iter().enumerate() {
                if !fk
                    .referenced_table
                    .eq_ignore_ascii_case(&target.schema.name)
                {
                    continue;
                }
                // the referenced values of this row
                let mut ref_vals = Vec::with_capacity(fk.referenced_columns.len());
                for c in &fk.referenced_columns {
                    let i = target.schema.require_column(c)?;
                    ref_vals.push(row[i].clone());
                }
                let mut col_idxs = Vec::with_capacity(fk.columns.len());
                for c in &fk.columns {
                    col_idxs.push(other.schema.require_column(c)?);
                }
                // index path: probe the FK columns instead of scanning the
                // referencing table (NULL components can never match, so
                // they are only valid on the scan path, which rejects them
                // through sql_eq)
                let by_index = if ref_vals.iter().any(|v| matches!(v, Value::Null)) {
                    None
                } else {
                    other
                        .find_index_on(&col_idxs)
                        .filter(|ix| ix.columns.len() == col_idxs.len())
                        .and_then(|ix| {
                            coerce_key(other, &col_idxs, &ref_vals).map(|key| {
                                let mut ids = other.probe_visible(ix, &key, snap);
                                ids.sort_unstable(); // match scan (slot) order
                                ids
                            })
                        })
                };
                let hits: Vec<RowId> = match by_index {
                    Some(ids) => ids,
                    None => other
                        .iter_visible(snap)
                        .filter(|(_, r)| {
                            col_idxs
                                .iter()
                                .zip(&ref_vals)
                                .all(|(&i, v)| r[i].sql_eq(v) == Some(true))
                        })
                        .map(|(id, _)| id)
                        .collect(),
                };
                if !hits.is_empty() {
                    out.push((other.schema.name.clone(), fk_i, hits));
                }
            }
        }
        Ok(out)
    }

    // ---- DML --------------------------------------------------------------

    /// Execute one INSERT, UPDATE or DELETE into the transaction whose undo
    /// log is `undo`. UPDATE and DELETE report how they located their rows
    /// into `stats`.
    pub fn run_dml(
        &mut self,
        stmt: &Statement,
        params: &Params,
        undo: &mut UndoLog,
        ctx: &WriteCtx,
        stats: &mut SelectStats,
    ) -> Result<ExecResult> {
        match stmt {
            Statement::Insert(ins) => self.run_insert(ins, params, undo, ctx),
            Statement::Update(upd) => self
                .run_update(upd, params, undo, ctx, stats)
                .map(ExecResult::Affected),
            Statement::Delete(del) => self
                .run_delete(del, params, undo, ctx, stats)
                .map(ExecResult::Affected),
            _ => Err(Error::Unsupported("not a DML statement".into())),
        }
    }

    /// Execute INSERT, reporting the rows' AUTOINCREMENT keys. New versions
    /// are txn-marked with `ctx.txid` until commit stamps them.
    fn run_insert(
        &mut self,
        ins: &Insert,
        params: &Params,
        undo: &mut UndoLog,
        ctx: &WriteCtx,
    ) -> Result<ExecResult> {
        let snap = Snapshot::current(ctx.txid);
        let table = self.require_table(&ins.table)?;
        let schema = table.schema.clone();
        let n_cols = schema.columns.len();
        // map provided columns to schema positions
        let positions: Vec<usize> = if ins.columns.is_empty() {
            (0..n_cols).collect()
        } else {
            let mut v = Vec::with_capacity(ins.columns.len());
            for c in &ins.columns {
                v.push(schema.require_column(c)?);
            }
            v
        };
        let empty: [Binding<'_>; 0] = [];
        let eval_ctx = EvalCtx {
            bindings: &empty,
            params,
        };
        let auto_col = schema.columns.iter().position(|c| c.auto_increment);
        let mut keys = Vec::new();
        for row_exprs in &ins.rows {
            if row_exprs.len() != positions.len() {
                return Err(Error::Parameter(format!(
                    "INSERT supplies {} values for {} columns",
                    row_exprs.len(),
                    positions.len()
                )));
            }
            let mut row: Row = vec![Value::Null; n_cols];
            for (pos, e) in positions.iter().zip(row_exprs) {
                row[*pos] = eval(e, &eval_ctx)?;
            }
            let table = self.require_table_mut(&ins.table)?;
            let id = table.insert_version(row, ctx)?;
            let stored = table.latest_row(id).unwrap().clone();
            // FK check after defaults/auto-increment are applied
            if let Err(e) = self.check_outgoing_fks(&ins.table, &stored, snap) {
                self.require_table_mut(&ins.table)?
                    .rollback_insert(id, ctx.txid);
                return Err(e);
            }
            undo.push(UndoOp::Inserted {
                table: ins.table.to_ascii_lowercase(),
                row_id: id,
            });
            if let Some(Value::Integer(k)) = auto_col.map(|c| &stored[c]) {
                keys.push(*k);
            }
        }
        Ok(ExecResult::Inserted {
            count: ins.rows.len(),
            keys,
        })
    }

    /// Execute UPDATE; returns number of rows changed.
    fn run_update(
        &mut self,
        upd: &Update,
        params: &Params,
        undo: &mut UndoLog,
        ctx: &WriteCtx,
        stats: &mut SelectStats,
    ) -> Result<usize> {
        let snap = Snapshot::current(ctx.txid);
        let table = self.require_table(&upd.table)?;
        let schema = table.schema.clone();
        let binding_name = schema.name.clone();
        // resolve assignment targets
        let mut targets = Vec::with_capacity(upd.assignments.len());
        for (c, e) in &upd.assignments {
            targets.push((schema.require_column(c)?, e));
        }
        // select affected rows first (snapshot ids), then mutate
        let affected: Vec<(RowId, Row)> =
            dml_rows(table, upd.where_clause.as_ref(), params, snap, stats)?
                .into_iter()
                .filter_map(|id| Some((id, table.visible_row(id, snap)?.clone())))
                .collect();
        let mut count = 0;
        for (id, old_row) in affected {
            let mut new_row = old_row.clone();
            {
                let bindings = [Binding {
                    name: &binding_name,
                    schema: &schema,
                    row: Some(&old_row),
                }];
                let eval_ctx = EvalCtx {
                    bindings: &bindings,
                    params,
                };
                for (pos, e) in &targets {
                    new_row[*pos] = eval(e, &eval_ctx)?;
                }
            }
            // if the row's referenced-key columns change, enforce RESTRICT
            let pk_changed = schema
                .primary_key
                .iter()
                .any(|&i| old_row[i].sql_eq(&new_row[i]) != Some(true));
            if pk_changed
                && !self
                    .referencing_rows(&upd.table, &old_row, snap)?
                    .is_empty()
            {
                return Err(Error::ForeignKeyViolation {
                    table: upd.table.clone(),
                    constraint: "update of referenced key".into(),
                });
            }
            let table = self.require_table_mut(&upd.table)?;
            let old = table.update_version(id, new_row, ctx)?;
            let stored = table.latest_row(id).unwrap().clone();
            if let Err(e) = self.check_outgoing_fks(&upd.table, &stored, snap) {
                // restore: pop the uncommitted version we just installed
                self.require_table_mut(&upd.table)?
                    .rollback_update(id, ctx.txid);
                return Err(e);
            }
            undo.push(UndoOp::Updated {
                table: upd.table.to_ascii_lowercase(),
                row_id: id,
                old,
            });
            count += 1;
        }
        Ok(count)
    }

    /// Execute DELETE; returns number of rows removed (including cascades).
    fn run_delete(
        &mut self,
        del: &Delete,
        params: &Params,
        undo: &mut UndoLog,
        ctx: &WriteCtx,
        stats: &mut SelectStats,
    ) -> Result<usize> {
        let snap = Snapshot::current(ctx.txid);
        let table = self.require_table(&del.table)?;
        let victims = dml_rows(table, del.where_clause.as_ref(), params, snap, stats)?;
        let mut count = 0;
        for id in victims {
            count += self.delete_row(&del.table, id, undo, ctx)?;
        }
        Ok(count)
    }

    /// Delete one row honouring referential actions; counts cascaded rows.
    pub fn delete_row(
        &mut self,
        table_name: &str,
        id: RowId,
        undo: &mut UndoLog,
        ctx: &WriteCtx,
    ) -> Result<usize> {
        let snap = Snapshot::current(ctx.txid);
        let Some(row) = self
            .require_table(table_name)?
            .visible_row(id, snap)
            .cloned()
        else {
            return Ok(0); // already gone via an earlier cascade
        };
        let mut count = 0;
        let refs = self.referencing_rows(table_name, &row, snap)?;
        for (ref_table, fk_i, ids) in refs {
            let action = {
                let t = self.require_table(&ref_table)?;
                t.schema.foreign_keys[fk_i].on_delete
            };
            match action {
                crate::schema::ReferentialAction::Restrict => {
                    let t = self.require_table(&ref_table)?;
                    return Err(Error::ForeignKeyViolation {
                        table: ref_table.clone(),
                        constraint: t.schema.foreign_keys[fk_i].name.clone(),
                    });
                }
                crate::schema::ReferentialAction::Cascade => {
                    for rid in ids {
                        count += self.delete_row(&ref_table, rid, undo, ctx)?;
                    }
                }
                crate::schema::ReferentialAction::SetNull => {
                    let (cols, nullable_ok) = {
                        let t = self.require_table(&ref_table)?;
                        let fk = &t.schema.foreign_keys[fk_i];
                        let mut cols = Vec::new();
                        let mut ok = true;
                        for c in &fk.columns {
                            let i = t.schema.require_column(c)?;
                            if !t.schema.columns[i].nullable {
                                ok = false;
                            }
                            cols.push(i);
                        }
                        (cols, ok)
                    };
                    if !nullable_ok {
                        return Err(Error::ForeignKeyViolation {
                            table: ref_table.clone(),
                            constraint: "SET NULL on NOT NULL column".into(),
                        });
                    }
                    for rid in ids {
                        let t = self.require_table_mut(&ref_table)?;
                        if let Some(r) = t.visible_row(rid, snap).cloned() {
                            let mut new_r = r.clone();
                            for &c in &cols {
                                new_r[c] = Value::Null;
                            }
                            let old = t.update_version(rid, new_r, ctx)?;
                            undo.push(UndoOp::Updated {
                                table: ref_table.to_ascii_lowercase(),
                                row_id: rid,
                                old,
                            });
                        }
                    }
                }
            }
        }
        let t = self.require_table_mut(table_name)?;
        let old = t.delete_version(id, ctx)?;
        undo.push(UndoOp::Deleted {
            table: table_name.to_ascii_lowercase(),
            row_id: id,
            row: old,
        });
        count += 1;
        Ok(count)
    }

    // ---- commit / rollback / vacuum ---------------------------------------

    /// Replace `txid`'s uncommitted marks with the commit stamp and adjust
    /// the committed-row counts. Called under the write lock at commit.
    pub fn stamp_commit(&mut self, undo: &UndoLog, txid: u64, stamp: u64) {
        for op in undo {
            match op {
                UndoOp::Inserted { table, row_id } => {
                    if let Some(t) = self.tables.get_mut(table) {
                        t.stamp_chain(*row_id, txid, stamp);
                        t.adjust_live(1);
                    }
                }
                UndoOp::Updated { table, row_id, .. } => {
                    if let Some(t) = self.tables.get_mut(table) {
                        t.stamp_chain(*row_id, txid, stamp);
                    }
                }
                UndoOp::Deleted { table, row_id, .. } => {
                    if let Some(t) = self.tables.get_mut(table) {
                        t.stamp_chain(*row_id, txid, stamp);
                        t.adjust_live(-1);
                    }
                }
            }
        }
    }

    /// Apply an undo log in reverse, removing `txid`'s uncommitted
    /// versions and reviving the ones they superseded.
    pub fn rollback(&mut self, undo: UndoLog, txid: u64) {
        for op in undo.into_iter().rev() {
            match op {
                UndoOp::Inserted { table, row_id } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.rollback_insert(row_id, txid);
                    }
                }
                UndoOp::Deleted { table, row_id, .. } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.rollback_delete(row_id, txid);
                    }
                }
                UndoOp::Updated { table, row_id, .. } => {
                    if let Some(t) = self.tables.get_mut(&table) {
                        t.rollback_update(row_id, txid);
                    }
                }
            }
        }
    }

    /// Reclaim versions no snapshot at or above `low_water` can see.
    /// Returns the number of versions reclaimed across all tables.
    pub fn vacuum(&mut self, low_water: u64) -> usize {
        self.tables.values_mut().map(|t| t.vacuum(low_water)).sum()
    }

    /// Total stored versions across all tables (the `db_versions_live`
    /// gauge).
    pub fn version_count(&self) -> usize {
        self.tables.values().map(|t| t.version_count()).sum()
    }

    /// Evaluate a constant expression (used by DDL paths needing literals).
    pub fn eval_const(&self, e: &Expr, params: &Params) -> Result<Value> {
        let empty: [Binding<'_>; 0] = [];
        eval(
            e,
            &EvalCtx {
                bindings: &empty,
                params,
            },
        )
    }
}
