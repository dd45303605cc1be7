//! SELECT execution: scans, index probes, hash joins, grouping, ordering
//! with Top-K pushdown. UPDATE and DELETE locate their rows here too.

use crate::error::{Error, Result};
use crate::expr::{
    contains_aggregate, eval, is_aggregate, resolve_column, Binding, EvalCtx, Params,
};
use crate::result::ResultSet;
use crate::schema::TableSchema;
use crate::sql::ast::*;
use crate::storage::Storage;
use crate::table::{Row, RowId, Snapshot, Table};
use crate::value::{DataType, Value};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

struct Source<'a> {
    binding: String,
    table: &'a Table,
    /// Visibility horizon every read through this source honours: scans,
    /// index probes, and hash builds all filter version chains by it.
    snap: Snapshot,
}

/// Executor work statistics for one SELECT, or for the row location of
/// one UPDATE or DELETE: how the planner answered each table access, and
/// how many candidate rows it examined doing so. These are the figures
/// behind the `db_*` planner counters in the observability registry —
/// they measure work done, not rows returned.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SelectStats {
    /// Candidate rows examined: base-scan/probe results, hash-build
    /// passes, and join candidates fed to the ON filter.
    pub scanned: u64,
    /// Accesses answered through a PK or secondary index probe (one per
    /// probed prefix combo on joins, one per query on the base table).
    pub index_probes: u64,
    /// Joins executed with a build/probe hash table instead of the
    /// nested-loop scan fallback.
    pub hash_joins: u64,
    /// ORDER BY + LIMIT orderings answered by the bounded Top-K heap
    /// instead of a full sort.
    pub topk_shortcuts: u64,
    /// Table accesses that fell back to a full scan (no usable index, no
    /// hashable equi-conjunct).
    pub scan_fallbacks: u64,
}

impl SelectStats {
    /// Fold another query's stats into this accumulator.
    pub fn absorb(&mut self, other: &SelectStats) {
        self.scanned += other.scanned;
        self.index_probes += other.index_probes;
        self.hash_joins += other.hash_joins;
        self.topk_shortcuts += other.topk_shortcuts;
        self.scan_fallbacks += other.scan_fallbacks;
    }
}

/// Execute a SELECT against the latest committed state.
pub fn run_select(storage: &Storage, sel: &Select, params: &Params) -> Result<ResultSet> {
    let mut stats = SelectStats::default();
    run_select_with_stats(storage, sel, params, Snapshot::latest(), &mut stats)
}

/// Like [`run_select`], but additionally reports how many candidate rows the
/// executor examined (base-scan/probe results plus join candidates) into
/// `scanned`. Compatibility wrapper over [`run_select_with_stats`].
pub fn run_select_counted(
    storage: &Storage,
    sel: &Select,
    params: &Params,
    scanned: &mut u64,
) -> Result<ResultSet> {
    let mut stats = SelectStats::default();
    let out = run_select_with_stats(storage, sel, params, Snapshot::latest(), &mut stats)?;
    *scanned += stats.scanned;
    Ok(out)
}

/// Like [`run_select`], but reads at an explicit MVCC snapshot and reports
/// full executor statistics (rows scanned, access-path choices, Top-K
/// shortcuts) into `stats`.
pub fn run_select_with_stats<'a>(
    storage: &'a Storage,
    sel: &Select,
    params: &Params,
    snap: Snapshot,
    stats: &mut SelectStats,
) -> Result<ResultSet> {
    // SELECT without FROM: a single constant row.
    let Some(from) = &sel.from else {
        let bindings: [Binding<'_>; 0] = [];
        let ctx = EvalCtx {
            bindings: &bindings,
            params,
        };
        let mut names = Vec::new();
        let mut row = Vec::new();
        for (i, item) in sel.items.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => {
                    names.push(alias.clone().unwrap_or_else(|| format!("col{}", i + 1)));
                    row.push(eval(expr, &ctx)?);
                }
                _ => return Err(Error::Unsupported("wildcard without FROM".into())),
            }
        }
        return Ok(ResultSet::new(names, vec![row]));
    };

    // Resolve sources.
    let mut sources: Vec<Source<'a>> = Vec::with_capacity(1 + from.joins.len());
    sources.push(Source {
        binding: from.base.binding().to_string(),
        table: storage.require_table(&from.base.table)?,
        snap,
    });
    for j in &from.joins {
        sources.push(Source {
            binding: j.table.binding().to_string(),
            table: storage.require_table(&j.table.table)?,
            snap,
        });
    }
    let mut scope = Scope::new(&sources);

    // Split WHERE into conjuncts for pushdown.
    let where_conjuncts = sel
        .where_clause
        .as_ref()
        .map(|w| conjuncts(w))
        .unwrap_or_default();

    let base = locate_rows(&sources[0], &where_conjuncts, params, stats)?;
    let mut combos = Combos {
        width: 1,
        rows: base.into_iter().map(|(_, row)| Some(row)).collect(),
    };

    // Build the join product left to right. Per join, pick one access
    // path for the whole prefix set: index nested-loop when a covering
    // index exists, a build/probe hash table for plain equi-conjuncts,
    // and a single hoisted scan list otherwise (shared across combos
    // instead of re-collected per prefix).
    for (jpos, join) in from.joins.iter().enumerate() {
        if combos.is_empty() {
            // inner and left joins both preserve emptiness
            break;
        }
        let cur = &sources[jpos + 1];
        let prev_sources = &sources[..jpos + 1];
        let on_conjuncts = conjuncts(&join.on);
        let prev_names: Vec<&str> = prev_sources.iter().map(|s| s.binding.as_str()).collect();
        let probes = extract_probes(cur, &on_conjuncts, &prev_names);
        let probe_cols: Vec<usize> = probes.iter().map(|(c, _)| *c).collect();

        enum JoinPlan<'a> {
            /// One candidate list per prefix combo (index probe / hash join).
            PerCombo(Vec<Vec<&'a Row>>),
            /// One shared candidate list (full-scan fallback).
            Scan(Vec<&'a Row>),
        }

        let plan = if !probes.is_empty() && has_covering_index(cur.table, &probe_cols) {
            let mut lists = Vec::with_capacity(combos.len());
            for combo in combos.iter() {
                stats.index_probes += 1;
                let ctx = scope.ctx(combo, params);
                let found = try_index_probe(cur.table, &probes, &ctx, cur.snap)?;
                lists.push(found.into_iter().flatten().map(|(_, r)| r).collect());
            }
            JoinPlan::PerCombo(lists)
        } else if !probes.is_empty() {
            stats.hash_joins += 1;
            JoinPlan::PerCombo(hash_join_candidates(
                cur,
                &probes,
                &mut scope,
                &combos,
                params,
                &mut stats.scanned,
            )?)
        } else {
            stats.scan_fallbacks += 1;
            JoinPlan::Scan(cur.table.iter_visible(cur.snap).map(|(_, r)| r).collect())
        };

        let mut next = Combos {
            width: jpos + 2,
            rows: Vec::new(),
        };
        let mut extend = |combo: &[Option<&'a Row>], cands: &[&'a Row]| -> Result<()> {
            stats.scanned += cands.len() as u64;
            let mut matched = false;
            for &cand in cands {
                let start = next.rows.len();
                next.rows.extend_from_slice(combo);
                next.rows.push(Some(cand));
                let ctx = scope.ctx(&next.rows[start..], params);
                if eval(&join.on, &ctx)?.is_truthy() {
                    matched = true;
                } else {
                    next.rows.truncate(start);
                }
            }
            if !matched && join.kind == JoinKind::Left {
                next.rows.extend_from_slice(combo);
                next.rows.push(None);
            }
            Ok(())
        };
        match plan {
            JoinPlan::PerCombo(lists) => {
                for (combo, cands) in combos.iter().zip(&lists) {
                    extend(combo, cands)?;
                }
            }
            JoinPlan::Scan(rows) => {
                for combo in combos.iter() {
                    extend(combo, &rows)?;
                }
            }
        }
        combos = next;
    }
    combos.width = sources.len();

    // Residual WHERE filter.
    if let Some(w) = &sel.where_clause {
        combos.retain(|combo| Ok(eval(w, &scope.ctx(combo, params))?.is_truthy()))?;
    }

    let grouped = !sel.group_by.is_empty()
        || sel
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if contains_aggregate(expr)));

    let (names, mut items) = expand_items(sel, &sources)?;
    // Rows projected before ordering, and per row the `n_extra` ORDER BY
    // keys that are neither a source cell nor an output cell.
    let mut projected: Vec<Vec<Value>> = Vec::new();
    let mut extras: Vec<Value> = Vec::new();
    let (keys, n_extra, early) = if grouped {
        (projected, extras) = project_grouped(sel, &items, &names, &combos, &mut scope, params)?;
        let keys = (0..sel.order_by.len()).map(SortKey::Extra).collect();
        (keys, sel.order_by.len(), false)
    } else {
        let mut unresolved = false;
        for item in &mut items {
            if let Item::Expr(Expr::Column { table, name }) = *item {
                match resolve_column(scope.names(), table.as_deref(), name) {
                    Ok((source, column)) => *item = Item::Cell { source, column },
                    // left to `eval`, which raises the resolution error
                    // at the first row projected (none on an empty result)
                    Err(_) => unresolved = true,
                }
            }
        }
        let (keys, computed) = sort_keys(sel, &names, &items, &scope);
        // Ordering before projecting needs every key in a source row and a
        // projection that cannot fail to resolve: then rows cut by LIMIT
        // or OFFSET are never copied. Otherwise project every row first.
        let early = !unresolved && keys.iter().all(|k| matches!(k, SortKey::Cell { .. }));
        if !early {
            projected.reserve_exact(combos.len());
            for combo in combos.iter() {
                projected.push(project_row(&items, combo, &mut scope, params)?);
                for e in &computed {
                    extras.push(computed_key(e, combo, &mut scope, params)?);
                }
            }
        }
        (keys, computed.len(), early)
    };
    let n = if early { combos.len() } else { projected.len() };

    // LIMIT / OFFSET are row-independent, so evaluate them up front: they
    // bound the Top-K heap and, when rows are ordered before projecting,
    // how many rows are projected at all.
    let empty: [Binding<'_>; 0] = [];
    let const_ctx = EvalCtx {
        bindings: &empty,
        params,
    };
    let offset = match &sel.offset {
        Some(e) => eval_usize(e, &const_ctx, "OFFSET")?,
        None => 0,
    };
    let limit = match &sel.limit {
        Some(e) => Some(eval_usize(e, &const_ctx, "LIMIT")?),
        None => None,
    };

    // Row order: the ORDER BY keys first, then the original row position —
    // which makes the Top-K heap selection exactly equivalent to a stable
    // sort followed by a slice.
    let order: Vec<usize> = {
        let key = |row: usize, k: &SortKey| -> &Value {
            match *k {
                SortKey::Cell { source, column } => {
                    combos.get(row)[source].map_or(&NULL, |r| &r[column])
                }
                SortKey::Output(pos) => &projected[row][pos],
                SortKey::Extra(i) => &extras[row * n_extra + i],
            }
        };
        let cmp_rows = |a: usize, b: usize| -> std::cmp::Ordering {
            for (k, item) in keys.iter().zip(&sel.order_by) {
                let ord = key(a, k).total_cmp(key(b, k));
                let ord = if item.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            a.cmp(&b)
        };
        let top_k = limit
            .map(|l| l.saturating_add(offset))
            .filter(|&k| !sel.order_by.is_empty() && !sel.distinct && k < n);
        if let Some(k) = top_k {
            // Top-K pushdown: with ORDER BY + a constant LIMIT (and no
            // DISTINCT, which dedupes *after* ordering), only the first
            // `offset + limit` rows in sort order can survive — select
            // them with a bounded heap, O(n log k), instead of sorting all.
            stats.topk_shortcuts += 1;
            top_k_indices(n, k, &cmp_rows)
        } else {
            let mut idx: Vec<usize> = (0..n).collect();
            if !sel.order_by.is_empty() {
                idx.sort_by(|&a, &b| cmp_rows(a, b));
            }
            idx
        }
    };

    // Emit in order: DISTINCT, then OFFSET, then LIMIT. Early-ordered rows
    // are projected here, only those that survive.
    let limit = limit.unwrap_or(usize::MAX);
    let mut out = Vec::with_capacity(order.len().saturating_sub(offset).min(limit));
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut skip = offset;
    for i in order {
        if out.len() >= limit {
            break;
        }
        if skip > 0 && !sel.distinct {
            skip -= 1;
            continue;
        }
        let row = if early {
            project_row(&items, combos.get(i), &mut scope, params)?
        } else {
            std::mem::take(&mut projected[i])
        };
        if sel.distinct && !seen.insert(row.clone()) {
            continue;
        }
        if skip > 0 {
            skip -= 1;
            continue;
        }
        out.push(row);
    }
    Ok(ResultSet::new(names, out))
}

/// The cell an ORDER BY key reads on the null-extended side of a LEFT JOIN.
static NULL: Value = Value::Null;

/// The join product, flattened: `width` row slots per position, one per
/// source in FROM order (None for the null-extended side of a LEFT JOIN).
/// Each source's visible version is found once, when the position is
/// formed; filters, sort keys and the projection then read it in place.
/// A single-table SELECT thus carries one bare row reference per row.
struct Combos<'a> {
    width: usize,
    rows: Vec<Option<&'a Row>>,
}

impl<'a> Combos<'a> {
    fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn get(&self, i: usize) -> &[Option<&'a Row>] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    fn iter(&self) -> std::slice::ChunksExact<'_, Option<&'a Row>> {
        self.rows.chunks_exact(self.width)
    }

    /// Keep the positions `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&[Option<&'a Row>]) -> Result<bool>) -> Result<()> {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len() {
            if keep(self.get(i))? {
                self.rows.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.rows.truncate(kept * w);
        Ok(())
    }
}

/// Expression bindings for one statement: one per source, built once and
/// re-pointed at a combo's rows for each evaluation.
struct Scope<'s> {
    bindings: Vec<Binding<'s>>,
}

impl<'s> Scope<'s> {
    fn new(sources: &'s [Source<'_>]) -> Scope<'s> {
        let bindings = sources
            .iter()
            .map(|s| Binding {
                name: &s.binding,
                schema: &s.table.schema,
                row: None,
            })
            .collect();
        Scope { bindings }
    }

    /// The sources as [`resolve_column`] scopes.
    fn names(&self) -> impl Iterator<Item = (&'s str, &'s TableSchema)> + '_ {
        self.bindings.iter().map(|b| (b.name, b.schema))
    }

    /// An evaluation context over `combo`, the rows of the first
    /// `combo.len()` sources.
    fn ctx<'x>(&'x mut self, combo: &[Option<&'s Row>], params: &'x Params) -> EvalCtx<'x> {
        let bindings = &mut self.bindings[..combo.len()];
        for (b, row) in bindings.iter_mut().zip(combo) {
            b.row = *row;
        }
        EvalCtx { bindings, params }
    }
}

/// Indices of the `k` smallest rows under `cmp`, in sorted order, selected
/// with a bounded binary max-heap (`O(n log k)` instead of `O(n log n)`).
/// `cmp` must be a total order (the caller ties on the original index), so
/// the result equals `sort-then-truncate` exactly.
fn top_k_indices(
    n: usize,
    k: usize,
    cmp: &dyn Fn(usize, usize) -> std::cmp::Ordering,
) -> Vec<usize> {
    use std::cmp::Ordering;
    if k == 0 {
        return Vec::new();
    }
    // max-heap: the root is the worst row currently kept
    let mut heap: Vec<usize> = Vec::with_capacity(k);
    for i in 0..n {
        if heap.len() < k {
            heap.push(i);
            let mut c = heap.len() - 1;
            while c > 0 {
                let p = (c - 1) / 2;
                if cmp(heap[c], heap[p]) == Ordering::Greater {
                    heap.swap(c, p);
                    c = p;
                } else {
                    break;
                }
            }
        } else if cmp(i, heap[0]) == Ordering::Less {
            heap[0] = i;
            let mut p = 0;
            loop {
                let (l, r) = (2 * p + 1, 2 * p + 2);
                let mut m = p;
                if l < heap.len() && cmp(heap[l], heap[m]) == Ordering::Greater {
                    m = l;
                }
                if r < heap.len() && cmp(heap[r], heap[m]) == Ordering::Greater {
                    m = r;
                }
                if m == p {
                    break;
                }
                heap.swap(p, m);
                p = m;
            }
        }
    }
    heap.sort_by(|&a, &b| cmp(a, b));
    heap
}

fn eval_usize(e: &Expr, ctx: &EvalCtx<'_>, what: &str) -> Result<usize> {
    match eval(e, ctx)? {
        Value::Integer(i) if i >= 0 => Ok(i as usize),
        other => Err(Error::Eval(format!(
            "{what} must be a non-negative integer, got {other:?}"
        ))),
    }
}

/// Split an expression into AND-ed conjuncts.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary {
            left,
            op: BinaryOp::And,
            right,
        } => {
            let mut v = conjuncts(left);
            v.extend(conjuncts(right));
            v
        }
        other => vec![other],
    }
}

/// Does `e` reference any column of the given binding set?
fn references_binding(e: &Expr, names: &[&str]) -> bool {
    let mut hit = false;
    e.walk(&mut |n| {
        if let Expr::Column { table, name: _ } = n {
            match table {
                Some(t) => {
                    if names.iter().any(|b| b.eq_ignore_ascii_case(t)) {
                        hit = true;
                    }
                }
                // unqualified columns could belong to anything: be
                // conservative and treat them as referencing the binding
                None => hit = true,
            }
        }
    });
    hit
}

/// From conjuncts, extract equality probes `cur.col = <expr independent of
/// cur>` usable for an index lookup on `cur`.
fn extract_probes<'e>(
    cur: &Source<'_>,
    conjs: &[&'e Expr],
    other_names: &[&str],
) -> Vec<(usize, &'e Expr)> {
    let mut probes = Vec::new();
    for c in conjs {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, val_side) in [(left, right), (right, left)] {
            let Expr::Column { table, name } = col_side.as_ref() else {
                continue;
            };
            // the column must belong to `cur`
            let belongs = match table {
                Some(t) => t.eq_ignore_ascii_case(&cur.binding),
                None => cur.table.schema.column_index(name).is_some() && !other_names.is_empty(),
            };
            if !belongs {
                continue;
            }
            let Some(col_idx) = cur.table.schema.column_index(name) else {
                continue;
            };
            // the value side must not reference `cur`
            if references_binding(val_side, &[&cur.binding]) {
                continue;
            }
            // if the value side has unqualified columns they must be
            // resolvable from the other bindings — `references_binding`
            // above is conservative, so double-check for pure literals and
            // params when there are no other bindings
            if other_names.is_empty() && references_binding(val_side, &[]) {
                continue;
            }
            probes.push((col_idx, val_side.as_ref()));
            break;
        }
    }
    probes
}

/// Would [`try_index_probe`] find a usable index for equality probes on
/// exactly these columns? (PK fully bound, or a secondary index whose
/// every column is bound.)
fn has_covering_index(table: &Table, probe_cols: &[usize]) -> bool {
    let pk = &table.schema.primary_key;
    if !pk.is_empty() && pk.iter().all(|c| probe_cols.contains(c)) {
        return true;
    }
    table
        .indexes()
        .iter()
        .any(|ix| ix.columns.iter().all(|c| probe_cols.contains(c)))
}

/// Hash equi-join between the prefix combos and `cur`: one pass over the
/// table, one key evaluation per combo, candidates grouped per combo. The
/// build side is the smaller of the two inputs; either direction produces
/// candidate lists in table-scan order, so results are identical to the
/// nested-loop fallback. Keys are coerced to the joined column types by
/// [`probe_key_part`], as in [`try_index_probe`]; NULL or uncoercible keys
/// never match, like `=` under SQL three-valued logic. Over-inclusive
/// matches are filtered by the caller's full ON evaluation.
fn hash_join_candidates<'a, 's>(
    cur: &Source<'a>,
    probes: &[(usize, &Expr)],
    scope: &mut Scope<'s>,
    combos: &Combos<'s>,
    params: &Params,
    scanned: &mut u64,
) -> Result<Vec<Vec<&'a Row>>> {
    let col_types: Vec<DataType> = probes
        .iter()
        .map(|(c, _)| cur.table.schema.columns[*c].data_type)
        .collect();
    // Probe key for one prefix combo; None ⇒ can never match.
    let mut combo_key = |combo: &[Option<&'s Row>]| -> Result<Option<Vec<Value>>> {
        let ctx = scope.ctx(combo, params);
        let mut key = Vec::with_capacity(probes.len());
        for ((_, e), ty) in probes.iter().zip(&col_types) {
            match probe_key_part(eval(e, &ctx)?, *ty) {
                Some(v) => key.push(v),
                None => return Ok(None),
            }
        }
        Ok(Some(key))
    };
    // Build key for one stored row; None ⇒ holds a NULL join column.
    let row_key = |row: &Row| -> Option<Vec<Value>> {
        let mut key = Vec::with_capacity(probes.len());
        for (c, _) in probes {
            let v = &row[*c];
            if v.is_null() {
                return None;
            }
            key.push(v.clone());
        }
        Some(key)
    };
    // Either direction makes exactly one pass over the table.
    *scanned += cur.table.len() as u64;
    let mut out: Vec<Vec<&'a Row>> = vec![Vec::new(); combos.len()];
    if combos.len() < cur.table.len() {
        // build over the smaller prefix side, stream the table past it
        let mut by_key: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(combos.len());
        for (i, combo) in combos.iter().enumerate() {
            if let Some(key) = combo_key(combo)? {
                by_key.entry(key).or_default().push(i);
            }
        }
        for (_, row) in cur.table.iter_visible(cur.snap) {
            if let Some(key) = row_key(row) {
                if let Some(targets) = by_key.get(&key) {
                    for &i in targets {
                        out[i].push(row);
                    }
                }
            }
        }
    } else {
        // build over the table, probe once per prefix combo
        let mut by_key: HashMap<Vec<Value>, Vec<&'a Row>> =
            HashMap::with_capacity(cur.table.len().min(1024));
        for (_, row) in cur.table.iter_visible(cur.snap) {
            if let Some(key) = row_key(row) {
                by_key.entry(key).or_default().push(row);
            }
        }
        for (i, combo) in combos.iter().enumerate() {
            if let Some(key) = combo_key(combo)? {
                if let Some(rows) = by_key.get(&key) {
                    out[i] = rows.clone();
                }
            }
        }
    }
    Ok(out)
}

/// The rows a single-table UPDATE or DELETE touches under `snap`, in
/// chain order: the [`locate_rows`] candidates that satisfy the full WHERE.
/// Keyed writes (`WHERE oid = :oid`) thus examine one row, not the table.
pub(crate) fn dml_rows(
    table: &Table,
    where_clause: Option<&Expr>,
    params: &Params,
    snap: Snapshot,
    stats: &mut SelectStats,
) -> Result<Vec<RowId>> {
    let source = Source {
        binding: table.schema.name.clone(),
        table,
        snap,
    };
    let where_conjuncts = where_clause.map(conjuncts).unwrap_or_default();
    let mut ids = Vec::new();
    for (id, row) in locate_rows(&source, &where_conjuncts, params, stats)? {
        if let Some(w) = where_clause {
            let bindings = [Binding {
                name: &source.binding,
                schema: &table.schema,
                row: Some(row),
            }];
            let ctx = EvalCtx {
                bindings: &bindings,
                params,
            };
            if !eval(w, &ctx)?.is_truthy() {
                continue;
            }
        }
        ids.push(id);
    }
    Ok(ids)
}

/// The one row locator for a table with no previous bindings — SELECT's
/// base table and the WHERE of UPDATE and DELETE. Uses a PK or secondary
/// index probe when the WHERE conjuncts bind one to row-independent
/// values, and a scan otherwise. Returns the candidates with their visible
/// versions in chain (scan) order and counts them into `stats`. Candidates
/// may include rows the WHERE rejects; callers re-check it.
fn locate_rows<'a>(
    base: &Source<'a>,
    where_conjuncts: &[&Expr],
    params: &Params,
    stats: &mut SelectStats,
) -> Result<Vec<(RowId, &'a Row)>> {
    // for the base table, unqualified columns in WHERE do belong to it when
    // it is the only source; extract_probes handles qualification, so try
    // both qualified and unqualified forms here
    let mut probes = Vec::new();
    for c in where_conjuncts {
        let Expr::Binary {
            left,
            op: BinaryOp::Eq,
            right,
        } = c
        else {
            continue;
        };
        for (col_side, val_side) in [(left, right), (right, left)] {
            let Expr::Column { table, name } = col_side.as_ref() else {
                continue;
            };
            let belongs = match table {
                Some(t) => t.eq_ignore_ascii_case(&base.binding),
                None => base.table.schema.column_index(name).is_some(),
            };
            if !belongs {
                continue;
            }
            let Some(col_idx) = base.table.schema.column_index(name) else {
                continue;
            };
            // value side must be row-independent: literals/params/functions
            if references_any_column(val_side) {
                continue;
            }
            probes.push((col_idx, val_side.as_ref()));
            break;
        }
    }
    let probed = if probes.is_empty() {
        None
    } else {
        let bindings: [Binding<'_>; 0] = [];
        let ctx = EvalCtx {
            bindings: &bindings,
            params,
        };
        try_index_probe(base.table, &probes, &ctx, base.snap)?
    };
    let ids = match probed {
        Some(mut ids) => {
            stats.index_probes += 1;
            ids.sort_unstable_by_key(|&(id, _)| id);
            ids
        }
        None => {
            stats.scan_fallbacks += 1;
            let mut ids = Vec::with_capacity(base.table.len());
            ids.extend(base.table.iter_visible(base.snap));
            ids
        }
    };
    stats.scanned += ids.len() as u64;
    Ok(ids)
}

fn references_any_column(e: &Expr) -> bool {
    let mut hit = false;
    e.walk(&mut |n| {
        if matches!(n, Expr::Column { .. }) {
            hit = true;
        }
    });
    hit
}

/// A probe key component as stored in a column of type `ty`, or `None`
/// when no stored value can equal it under `=`: NULL, or a value that
/// does not coerce to `ty` (`oid = 'abc'`, `oid = 2.5`).
fn probe_key_part(v: Value, ty: DataType) -> Option<Value> {
    match (v, ty) {
        (Value::Null, _) => None,
        // `=` compares Real and Timestamp by value; `coerce` has no
        // conversion between them
        (Value::Timestamp(t), DataType::Real) => Some(Value::Real(t as f64)),
        (Value::Real(r), DataType::Timestamp) if r.fract() == 0.0 => {
            Some(Value::Timestamp(r as i64))
        }
        (v, ty) => v.coerce(ty).ok(),
    }
}

/// Attempt a PK or secondary-index probe with the extracted equalities.
/// Returns `None` when no usable index exists, and an empty candidate list
/// when a key component can never match ([`probe_key_part`]). Index
/// buckets cover every version holding the key, so each candidate is
/// re-checked against the snapshot's visible version before it is
/// returned with that version.
fn try_index_probe<'t>(
    table: &'t Table,
    probes: &[(usize, &Expr)],
    ctx: &EvalCtx<'_>,
    snap: Snapshot,
) -> Result<Option<Vec<(RowId, &'t Row)>>> {
    // primary key: all PK columns must be bound
    let pk = &table.schema.primary_key;
    if !pk.is_empty() && pk.iter().all(|c| probes.iter().any(|(p, _)| p == c)) {
        let cols: Vec<&(usize, &Expr)> = pk
            .iter()
            .map(|c| {
                probes
                    .iter()
                    .find(|(p, _)| p == c)
                    .expect("every PK column is bound")
            })
            .collect();
        let Some(key) = probe_key(table, &cols, ctx)? else {
            return Ok(Some(Vec::new()));
        };
        return Ok(Some(
            table.get_by_pk_visible(&key, snap).into_iter().collect(),
        ));
    }
    // secondary index: find one whose full prefix is covered
    for ix in table.indexes() {
        let covered: Vec<&(usize, &Expr)> = ix
            .columns
            .iter()
            .map_while(|c| probes.iter().find(|(p, _)| p == c))
            .collect();
        if covered.len() == ix.columns.len() {
            let Some(key) = probe_key(table, &covered, ctx)? else {
                return Ok(Some(Vec::new()));
            };
            return Ok(Some(table.probe_visible_rows(ix, &key, snap).collect()));
        }
    }
    Ok(None)
}

/// Evaluate the probe key for `cols`; `None` when some component can never
/// match.
fn probe_key(
    table: &Table,
    cols: &[&(usize, &Expr)],
    ctx: &EvalCtx<'_>,
) -> Result<Option<Vec<Value>>> {
    let mut key = Vec::with_capacity(cols.len());
    for (c, e) in cols {
        match probe_key_part(eval(e, ctx)?, table.schema.columns[*c].data_type) {
            Some(v) => key.push(v),
            None => return Ok(None),
        }
    }
    Ok(Some(key))
}

// ---- projection ---------------------------------------------------------

/// One output column, resolved once per statement.
#[derive(Clone, Copy)]
enum Item<'e> {
    /// A source column: the cell is copied straight out of its row.
    Cell { source: usize, column: usize },
    /// Anything else, computed by [`eval`] per row.
    Expr(&'e Expr),
}

/// Where an ORDER BY key is read when two rows are compared.
#[derive(Clone, Copy)]
enum SortKey {
    /// A source column, read in place in the combo's row.
    Cell { source: usize, column: usize },
    /// A computed output column, read in place in the projected row.
    Output(usize),
    /// A key that is no column: materialised per row beside it.
    Extra(usize),
}

/// Expand wildcards into concrete output column names and items.
/// Wildcard columns are source cells; expression items stay expressions
/// (the plain projection resolves column references among them).
fn expand_items<'e>(
    sel: &'e Select,
    sources: &[Source<'_>],
) -> Result<(Vec<String>, Vec<Item<'e>>)> {
    let mut names = Vec::new();
    let mut items = Vec::new();
    for item in &sel.items {
        let wild = match item {
            SelectItem::Wildcard => 0..sources.len(),
            SelectItem::QualifiedWildcard(t) => {
                let s = sources
                    .iter()
                    .position(|s| s.binding.eq_ignore_ascii_case(t))
                    .ok_or_else(|| Error::UnknownTable(t.clone()))?;
                s..s + 1
            }
            SelectItem::Expr { expr, alias } => {
                names.push(alias.clone().unwrap_or_else(|| default_name(expr)));
                items.push(Item::Expr(expr));
                continue;
            }
        };
        for source in wild {
            for (column, c) in sources[source].table.schema.columns.iter().enumerate() {
                names.push(c.name.clone());
                items.push(Item::Cell { source, column });
            }
        }
    }
    Ok((names, items))
}

fn default_name(e: &Expr) -> String {
    match e {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.to_lowercase(),
        _ => "expr".to_string(),
    }
}

/// Resolve the ORDER BY of a plain (ungrouped) SELECT once per statement.
/// A select-list alias, a 1-based ordinal or an unqualified output name
/// reads its output column; any other column reference reads its source
/// column. Both read a source cell in place when the output column is one.
/// Everything else — expressions, out-of-range ordinals, unresolvable
/// columns — is returned among the computed keys, materialised per row.
fn sort_keys<'e>(
    sel: &'e Select,
    names: &[String],
    items: &[Item<'_>],
    scope: &Scope<'_>,
) -> (Vec<SortKey>, Vec<&'e Expr>) {
    let output = |pos: usize| match items[pos] {
        Item::Cell { source, column } => SortKey::Cell { source, column },
        Item::Expr(_) => SortKey::Output(pos),
    };
    let mut keys = Vec::with_capacity(sel.order_by.len());
    let mut computed = Vec::new();
    for o in &sel.order_by {
        let key = match &o.expr {
            Expr::Literal(Value::Integer(i)) if *i >= 1 && (*i as usize) <= items.len() => {
                Some(output(*i as usize - 1))
            }
            Expr::Column { table, name } => table
                .is_none()
                .then(|| names.iter().position(|n| n.eq_ignore_ascii_case(name)))
                .flatten()
                .map(output)
                .or_else(|| {
                    resolve_column(scope.names(), table.as_deref(), name)
                        .ok()
                        .map(|(source, column)| SortKey::Cell { source, column })
                }),
            _ => None,
        };
        keys.push(key.unwrap_or_else(|| {
            computed.push(&o.expr);
            SortKey::Extra(computed.len() - 1)
        }));
    }
    (keys, computed)
}

/// A computed ORDER BY key for one row.
fn computed_key<'s>(
    e: &Expr,
    combo: &[Option<&'s Row>],
    scope: &mut Scope<'s>,
    params: &Params,
) -> Result<Value> {
    match e {
        // in-range ordinals read their output column (`sort_keys`)
        Expr::Literal(Value::Integer(i)) => {
            Err(Error::Eval(format!("ORDER BY ordinal {i} out of range")))
        }
        _ => eval(e, &scope.ctx(combo, params)),
    }
}

/// The one projection loop: each output cell of one combo, source cells
/// copied once, expressions evaluated.
fn project_row<'s>(
    items: &[Item<'_>],
    combo: &[Option<&'s Row>],
    scope: &mut Scope<'s>,
    params: &Params,
) -> Result<Vec<Value>> {
    let mut row = Vec::with_capacity(items.len());
    for item in items {
        row.push(match *item {
            Item::Cell { source, column } => {
                combo[source].map_or(Value::Null, |r| r[column].clone())
            }
            Item::Expr(e) => eval(e, &scope.ctx(combo, params))?,
        });
    }
    Ok(row)
}

/// Resolve a grouped ORDER BY expression to a key value, honouring
/// select-list aliases and 1-based ordinals.
fn order_key(item: &Expr, names: &[String], out_row: &[Value], ctx: &EvalCtx<'_>) -> Result<Value> {
    match item {
        Expr::Literal(Value::Integer(i)) => {
            let idx = *i as usize;
            if idx >= 1 && idx <= out_row.len() {
                Ok(out_row[idx - 1].clone())
            } else {
                Err(Error::Eval(format!("ORDER BY ordinal {i} out of range")))
            }
        }
        Expr::Column { table: None, name } => {
            if let Some(pos) = names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
                Ok(out_row[pos].clone())
            } else {
                eval(item, ctx)
            }
        }
        _ => eval(item, ctx),
    }
}

/// Replace every aggregate call in `e` with its value over `group`.
fn rewrite_aggregates<'s>(
    e: &Expr,
    combos: &Combos<'s>,
    group: &[usize],
    scope: &mut Scope<'s>,
    params: &Params,
) -> Result<Expr> {
    let mut re = |e: &Expr| rewrite_aggregates(e, combos, group, scope, params);
    Ok(match e {
        Expr::Function { name, args, star } if is_aggregate(name) => Expr::Literal(
            compute_aggregate(name, args, *star, combos, group, scope, params)?,
        ),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: Box::new(re(expr)?),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(re(left)?),
            op: *op,
            right: Box::new(re(right)?),
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(re(expr)?),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(re(expr)?),
            pattern: Box::new(re(pattern)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(re(expr)?),
            list: list.iter().map(&mut re).collect::<Result<Vec<_>>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            lo,
            hi,
            negated,
        } => Expr::Between {
            expr: Box::new(re(expr)?),
            lo: Box::new(re(lo)?),
            hi: Box::new(re(hi)?),
            negated: *negated,
        },
        Expr::Function { name, args, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(&mut re).collect::<Result<Vec<_>>>()?,
            star: *star,
        },
        other => other.clone(),
    })
}

fn compute_aggregate<'s>(
    name: &str,
    args: &[Expr],
    star: bool,
    combos: &Combos<'s>,
    group: &[usize],
    scope: &mut Scope<'s>,
    params: &Params,
) -> Result<Value> {
    if name == "COUNT" && star {
        return Ok(Value::Integer(group.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| Error::Eval(format!("{name} requires an argument")))?;
    let mut vals: Vec<Value> = Vec::with_capacity(group.len());
    for &i in group {
        let v = eval(arg, &scope.ctx(combos.get(i), params))?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    match name {
        "COUNT" => Ok(Value::Integer(vals.len() as i64)),
        "MIN" => Ok(vals.into_iter().min().unwrap_or(Value::Null)),
        "MAX" => Ok(vals.into_iter().max().unwrap_or(Value::Null)),
        "SUM" | "AVG" => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let all_int = vals.iter().all(|v| matches!(v, Value::Integer(_)));
            let n = vals.len() as f64;
            let sum: f64 = vals
                .iter()
                .map(|v| match v {
                    Value::Integer(i) => Ok(*i as f64),
                    Value::Real(r) => Ok(*r),
                    other => Err(Error::Eval(format!("{name} of non-number {other:?}"))),
                })
                .collect::<Result<Vec<f64>>>()?
                .iter()
                .sum();
            if name == "SUM" {
                if all_int {
                    Ok(Value::Integer(sum as i64))
                } else {
                    Ok(Value::Real(sum))
                }
            } else {
                Ok(Value::Real(sum / n))
            }
        }
        other => Err(Error::Unsupported(format!("aggregate {other}"))),
    }
}

/// Project a grouped SELECT: one row per group that passes HAVING, and
/// beside each its ORDER BY keys, `sel.order_by.len()` per row.
fn project_grouped<'s>(
    sel: &Select,
    items: &[Item<'_>],
    names: &[String],
    combos: &Combos<'s>,
    scope: &mut Scope<'s>,
    params: &Params,
) -> Result<(Vec<Vec<Value>>, Vec<Value>)> {
    // Grouped items are evaluated as expressions over the group's first
    // combo; a wildcard cell is its qualified column reference.
    let exprs: Vec<Cow<'_, Expr>> = items
        .iter()
        .map(|item| match *item {
            Item::Expr(e) => Cow::Borrowed(e),
            Item::Cell { source, column } => {
                let b = &scope.bindings[source];
                Cow::Owned(Expr::Column {
                    table: Some(b.name.to_string()),
                    name: b.schema.columns[column].name.clone(),
                })
            }
        })
        .collect();

    // Partition combos into groups by the GROUP BY key (implicit single
    // group when GROUP BY is absent but aggregates are present).
    let mut groups: Vec<Vec<usize>> = Vec::new();
    if sel.group_by.is_empty() {
        groups.push((0..combos.len()).collect());
    } else {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for (i, combo) in combos.iter().enumerate() {
            let key = sel
                .group_by
                .iter()
                .map(|e| eval(e, &scope.ctx(combo, params)))
                .collect::<Result<Vec<_>>>()?;
            match index.get(&key) {
                Some(&g) => groups[g].push(i),
                None => {
                    index.insert(key, groups.len());
                    groups.push(vec![i]);
                }
            }
        }
    }

    let mut rows = Vec::with_capacity(groups.len());
    let mut keys = Vec::with_capacity(groups.len() * sel.order_by.len());
    for group in &groups {
        // an empty group is the implicit one over empty input: its
        // aggregates still produce a row, evaluated with no bindings
        let first: &[Option<&Row>] = group.first().map_or(&[], |&i| combos.get(i));
        // HAVING
        if let Some(h) = &sel.having {
            let rewritten = rewrite_aggregates(h, combos, group, scope, params)?;
            if !eval(&rewritten, &scope.ctx(first, params))?.is_truthy() {
                continue;
            }
        }
        let mut row = Vec::with_capacity(exprs.len());
        for e in &exprs {
            let rewritten = rewrite_aggregates(e, combos, group, scope, params)?;
            row.push(eval(&rewritten, &scope.ctx(first, params))?);
        }
        for o in &sel.order_by {
            let rewritten = rewrite_aggregates(&o.expr, combos, group, scope, params)?;
            keys.push(order_key(
                &rewritten,
                names,
                &row,
                &scope.ctx(first, params),
            )?);
        }
        rows.push(row);
    }
    Ok((rows, keys))
}
