//! Per-layer measurements for traced runs: counter deltas read from the
//! program's own counter blocks before and after the measured phases and
//! around each write-probe slice, span joins, and replays that time the benchmark's own calls into one
//! layer's public functions.

use crate::load::Log;
use crate::sched::Req;
use crate::site::{self, Site};
use crate::stats::{self, Hist};
use crate::trace::{Span, CLIENT_WRITE, HANDLER, MVC};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use webratio::httpd::HttpServer;
use webratio::mvc::{compute_page, to_value, ParamMap, ServiceRegistry, WebRequest};
use webratio::relstore::{Database, Params, Value};

/// Counter readings at one instant, or the counts between two.
#[derive(Debug, Clone, Copy, Default)]
pub struct Snap {
    stmts: u64,
    rows_scanned: u64,
    index_probes: u64,
    scan_fallbacks: u64,
    write_conflicts: u64,
    flushes: u64,
    wal_bytes: u64,
    flush_errors: u64,
    batch_sum: u64,
    batch_count: u64,
    patches: u64,
    fallbacks: u64,
    rerenders: u64,
    bean_hits: u64,
    bean_misses: u64,
    bean_evictions: u64,
    frag_hits: u64,
    frag_misses: u64,
    lock_contended: u64,
    conns: u64,
    vectored_writes: u64,
    ko_flows: u64,
    ops: u64,
}

impl Snap {
    fn zip(self, other: Snap, op: fn(u64, u64) -> u64) -> Snap {
        Snap {
            stmts: op(self.stmts, other.stmts),
            rows_scanned: op(self.rows_scanned, other.rows_scanned),
            index_probes: op(self.index_probes, other.index_probes),
            scan_fallbacks: op(self.scan_fallbacks, other.scan_fallbacks),
            write_conflicts: op(self.write_conflicts, other.write_conflicts),
            flushes: op(self.flushes, other.flushes),
            wal_bytes: op(self.wal_bytes, other.wal_bytes),
            flush_errors: op(self.flush_errors, other.flush_errors),
            batch_sum: op(self.batch_sum, other.batch_sum),
            batch_count: op(self.batch_count, other.batch_count),
            patches: op(self.patches, other.patches),
            fallbacks: op(self.fallbacks, other.fallbacks),
            rerenders: op(self.rerenders, other.rerenders),
            bean_hits: op(self.bean_hits, other.bean_hits),
            bean_misses: op(self.bean_misses, other.bean_misses),
            bean_evictions: op(self.bean_evictions, other.bean_evictions),
            frag_hits: op(self.frag_hits, other.frag_hits),
            frag_misses: op(self.frag_misses, other.frag_misses),
            lock_contended: op(self.lock_contended, other.lock_contended),
            conns: op(self.conns, other.conns),
            vectored_writes: op(self.vectored_writes, other.vectored_writes),
            ko_flows: op(self.ko_flows, other.ko_flows),
            ops: op(self.ops, other.ops),
        }
    }

    /// The counts from `earlier` to `self`.
    pub fn since(self, earlier: Snap) -> Snap {
        self.zip(earlier, u64::saturating_sub)
    }

    pub fn take(site: &Site, server: &HttpServer) -> Snap {
        let o = &site.d.obs;
        let bean = site.d.controller.bean_cache().map(|c| c.stats());
        let frag = site.d.controller.fragment_cache().map(|c| c.stats());
        let http = server.http_counters();
        Snap {
            stmts: o.db.statements_executed.get(),
            rows_scanned: o.db.rows_scanned.get(),
            index_probes: o.db.index_probes.get(),
            scan_fallbacks: o.db.scan_fallbacks.get(),
            write_conflicts: o.db.write_conflicts.get(),
            flushes: o.wal.flushes.get(),
            wal_bytes: o.wal.bytes_written.get(),
            flush_errors: o.wal.flush_errors.get(),
            batch_sum: o.wal.group_batch_size.sum(),
            batch_count: o.wal.group_batch_size.count(),
            patches: o.maint.patches_applied.get(),
            fallbacks: o.maint.fallbacks_total(),
            rerenders: o.maint.fragment_rerenders.get(),
            bean_hits: bean.map_or(0, |s| s.hits),
            bean_misses: bean.map_or(0, |s| s.misses),
            bean_evictions: bean.map_or(0, |s| s.evictions),
            frag_hits: frag.map_or(0, |s| s.hits),
            frag_misses: frag.map_or(0, |s| s.misses),
            lock_contended: bean.map_or(0, |s| s.lock_contended)
                + frag.map_or(0, |s| s.lock_contended),
            conns: http.connections.get(),
            vectored_writes: http.vectored_writes.get(),
            ko_flows: o.ko_flows.get(),
            ops: o.operation_requests.get(),
        }
    }
}

impl std::ops::AddAssign for Snap {
    fn add_assign(&mut self, other: Snap) {
        *self = self.zip(other, u64::saturating_add);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn p50_us(h: &Hist) -> f64 {
    h.summary().map_or(0.0, |s| us(s.p50))
}

fn tail_us(h: &Hist) -> f64 {
    h.summary().map_or(0.0, |s| us(s.tail))
}

/// Median of signed nanosecond residuals, in µs.
fn signed_p50_us(mut v: Vec<i64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mid = stats::rank(v.len() as u64, 500) as usize - 1;
    *v.select_nth_unstable(mid).1 as f64 / 1e3
}

/// Inputs to the per-layer computation.
pub struct Traced<'a> {
    pub site: &'a Site,
    /// The measured phases, merged, and the write-probe slices among them.
    pub measured: &'a Log,
    pub probe: &'a Log,
    /// How late the open-loop generator sent each request, ns.
    pub late_ns: &'a Hist,
    pub server_spans: &'a [Span],
    /// Counts over the measured phases, and over the write-probe slices
    /// among them.
    pub counts: Snap,
    pub probe_counts: Snap,
    /// Closed-loop requests per server CPU-second with spans off and on.
    pub untraced_rate: f64,
    pub traced_rate: f64,
    /// Read targets to replay.
    pub sample: Vec<u32>,
    /// Where the fresh durable deployment of the statement replay lives.
    pub fresh_dir: PathBuf,
    pub generate_s: f64,
    pub deploy_s: f64,
    pub seed_s: f64,
    /// Create forwards of the race probe that showed another client's row.
    pub race_wrong_rows: f64,
    /// Closed-loop read p99, write p99 and open-loop read p99, in ms.
    pub tails: [f64; 3],
}

/// Every per-layer metric and its unit, in report order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("httpd.self_us_p50", "us"),
    ("httpd.self_us_p99", "us"),
    ("httpd.vectored_writes_per_req", "count/req"),
    ("httpd.bytes_per_resp", "bytes"),
    ("httpd.conns_opened", "count"),
    ("mvc.handle_us_p50", "us"),
    ("mvc.handle_us_p99", "us"),
    ("mvc.op_us_p50", "us"),
    ("mvc.op_us_p99", "us"),
    ("mvc.page_us_p50", "us"),
    ("mvc.not_modified_frac", "frac"),
    ("mvc.ko_frac", "frac"),
    ("mvc.create_race_wrong_rows", "count"),
    ("presentation.render_us_p50", "us"),
    ("cache.bean_hit_ratio", "frac"),
    ("cache.fragment_hit_ratio", "frac"),
    ("cache.bean_evictions", "count"),
    ("cache.lock_contended", "count"),
    ("cache.patches_per_write", "count/write"),
    ("cache.fallbacks_per_write", "count/write"),
    ("cache.rerenders_per_write", "count/write"),
    ("relstore.stmts_per_req", "count/req"),
    ("relstore.rows_scanned_per_req", "count/req"),
    ("relstore.index_probes_per_req", "count/req"),
    ("relstore.scan_fallbacks_per_req", "count/req"),
    ("relstore.query_us_p50", "us"),
    ("relstore.exec_us_p50", "us"),
    ("relstore.write_conflicts", "count"),
    ("wal.flushes_per_write", "count/write"),
    ("wal.bytes_per_write", "bytes/write"),
    ("wal.group_batch_mean", "count"),
    ("wal.flush_errors", "count"),
    ("wal.commit_overhead_us_p50", "us"),
    ("codegen.generate_s", "s"),
    ("core.deploy_s", "s"),
    ("core.seed_s", "s"),
    ("tail.read_p99_ms", "ms"),
    ("tail.write_p99_ms", "ms"),
    ("tail.open_read_p99_ms", "ms"),
    ("trace.unattributed_frac", "frac"),
    ("trace.overhead_frac", "frac"),
    ("loadgen.late_p99_ms", "ms"),
];

/// Every per-layer metric, `(name, value)` in [`PER_LAYER`] order.
pub fn compute(t: &Traced<'_>) -> Result<Vec<(&'static str, f64)>, String> {
    // per-request figures leave the write probe out: they describe the
    // workload's own traffic; per-write figures count every write, the
    // probe's included, since on read-only workloads those are all there are
    let (all, m) = (t.counts, t.measured);
    let own = all.since(t.probe_counts);
    let reqs = m.attempted - t.probe.attempted;
    let writes = m.writes;

    // join client round trips with the handler spans of the same request
    let mut server: HashMap<u64, (u64, u64)> = HashMap::new();
    for s in t.server_spans {
        let e = server.entry(s.req).or_default();
        match s.name {
            HANDLER => e.0 = s.dur_ns(),
            MVC => e.1 = s.dur_ns(),
            _ => {}
        }
    }
    let (mut httpd_self, mut handle, mut op) = (Hist::default(), Hist::default(), Hist::default());
    let (mut rt_sum, mut attributed) = (0u64, 0u64);
    for c in &m.spans {
        let Some(&(h, mvc)) = server.get(&c.req) else {
            continue;
        };
        let rt = c.dur_ns();
        let own = rt.saturating_sub(h);
        httpd_self.record(own);
        if c.name == CLIENT_WRITE {
            op.record(mvc);
        } else {
            handle.record(mvc);
        }
        rt_sum += rt;
        attributed += own + mvc;
    }
    if httpd_self.len() == 0 {
        return Err("no client span matched a server span".into());
    }

    let replay = replay(t.site, &t.sample, &t.fresh_dir)?;
    let late_p99 = t.late_ns.summary().map_or(0.0, |s| s.tail as f64 / 1e6);

    Ok(vec![
        ("httpd.self_us_p50", p50_us(&httpd_self)),
        ("httpd.self_us_p99", tail_us(&httpd_self)),
        (
            "httpd.vectored_writes_per_req",
            ratio(own.vectored_writes, reqs),
        ),
        (
            "httpd.bytes_per_resp",
            ratio(m.wire_bytes - t.probe.wire_bytes, reqs),
        ),
        ("httpd.conns_opened", (all.conns) as f64),
        ("mvc.handle_us_p50", p50_us(&handle)),
        ("mvc.handle_us_p99", tail_us(&handle)),
        ("mvc.op_us_p50", p50_us(&op)),
        ("mvc.op_us_p99", tail_us(&op)),
        ("mvc.page_us_p50", replay.page_us_p50),
        ("mvc.not_modified_frac", ratio(m.not_modified, m.reads)),
        ("mvc.ko_frac", ratio(all.ko_flows, all.ops)),
        ("mvc.create_race_wrong_rows", t.race_wrong_rows),
        ("presentation.render_us_p50", replay.render_us_p50),
        (
            "cache.bean_hit_ratio",
            ratio(all.bean_hits, all.bean_hits + all.bean_misses),
        ),
        (
            "cache.fragment_hit_ratio",
            ratio(all.frag_hits, all.frag_hits + all.frag_misses),
        ),
        ("cache.bean_evictions", (all.bean_evictions) as f64),
        ("cache.lock_contended", (all.lock_contended) as f64),
        ("cache.patches_per_write", ratio(all.patches, writes)),
        ("cache.fallbacks_per_write", ratio(all.fallbacks, writes)),
        ("cache.rerenders_per_write", ratio(all.rerenders, writes)),
        ("relstore.stmts_per_req", ratio(own.stmts, reqs)),
        (
            "relstore.rows_scanned_per_req",
            ratio(own.rows_scanned, reqs),
        ),
        (
            "relstore.index_probes_per_req",
            ratio(own.index_probes, reqs),
        ),
        (
            "relstore.scan_fallbacks_per_req",
            ratio(own.scan_fallbacks, reqs),
        ),
        ("relstore.query_us_p50", replay.query_us_p50),
        ("relstore.exec_us_p50", replay.exec_us_p50),
        ("relstore.write_conflicts", (all.write_conflicts) as f64),
        ("wal.flushes_per_write", ratio(all.flushes, writes)),
        ("wal.bytes_per_write", ratio(all.wal_bytes, writes)),
        (
            "wal.group_batch_mean",
            ratio(all.batch_sum, all.batch_count),
        ),
        ("wal.flush_errors", (all.flush_errors) as f64),
        (
            "wal.commit_overhead_us_p50",
            replay.exec_us_p50 - replay.twin_exec_us_p50,
        ),
        ("codegen.generate_s", t.generate_s),
        ("core.deploy_s", t.deploy_s),
        ("core.seed_s", t.seed_s),
        ("tail.read_p99_ms", t.tails[0]),
        ("tail.write_p99_ms", t.tails[1]),
        ("tail.open_read_p99_ms", t.tails[2]),
        ("trace.unattributed_frac", 1.0 - ratio(attributed, rt_sum)),
        ("trace.overhead_frac", 1.0 - t.traced_rate / t.untraced_rate),
        ("loadgen.late_p99_ms", late_p99),
    ])
}

struct Replay {
    page_us_p50: f64,
    render_us_p50: f64,
    query_us_p50: f64,
    exec_us_p50: f64,
    twin_exec_us_p50: f64,
}

/// Statement replays per sampled request.
const EXEC_REPLAYS: usize = 300;

fn replay(site: &Site, sample: &[u32], fresh_dir: &Path) -> Result<Replay, String> {
    let d = &site.d;
    let set = &d.generated.descriptors;
    let registry = ServiceRegistry::standard();
    let bean_cache = d.controller.bean_cache();
    let (mut page_ns, mut residual, mut query_ns) = (Hist::default(), Vec::new(), Hist::default());
    for &t in sample {
        let target = &site.targets[t as usize];
        let page = &set.pages[target.page];
        let params: ParamMap = target
            .params
            .iter()
            .map(|(k, v)| (k.clone(), to_value(v)))
            .collect();
        let t0 = Instant::now();
        compute_page(
            set,
            page,
            &params,
            &ParamMap::new(),
            &registry,
            &d.db,
            bean_cache,
        )
        .map_err(|e| format!("compute_page {}: {e}", page.name))?;
        let computed = t0.elapsed().as_nanos() as i64;
        let mut req = WebRequest::get(&page.url);
        for (k, v) in &target.params {
            req = req.with_param(k, v);
        }
        let t1 = Instant::now();
        let resp = d.controller.handle_parts(&req);
        let handled = t1.elapsed().as_nanos() as i64;
        if resp.status != 200 {
            return Err(format!(
                "replay of {} answered {}",
                target.path, resp.status
            ));
        }
        page_ns.record(computed as u64);
        residual.push(handled - computed);

        for unit in page.units.iter().filter_map(|u| set.unit(u)) {
            for q in &unit.queries {
                let mut bound = Params::new();
                let mut all = true;
                for input in &q.inputs {
                    match params.get(input) {
                        Some(v) => bound.set(input.clone(), v.clone()),
                        None => all = false,
                    }
                }
                if !all {
                    continue;
                }
                let stmt = d.db.pin_plan(&q.sql).map_err(|e| e.to_string())?;
                let t2 = Instant::now();
                d.db.query_prepared(&stmt, &bound)
                    .map_err(|e| format!("{}: {e}", q.sql))?;
                query_ns.record(t2.elapsed().as_nanos() as u64);
            }
        }
    }

    // the edit statement on a fresh durable deployment and on a fresh
    // in-memory twin, seeded alike: the measured deployment has grown
    // during the run, so it would not compare like with like
    let (fresh, _) = site::build(site.workload, site.seed, fresh_dir.to_path_buf())?;
    let exec = exec_replay(site, &fresh.d.db, "d")?;
    drop(fresh);
    let twin = site
        .app
        .deploy(site::runtime_options())
        .map_err(|e| format!("twin deploy: {e}"))?;
    site::seed(site.workload, &site.app, &twin.db);
    let twin_exec = exec_replay(site, &twin.db, "t")?;
    Ok(Replay {
        page_us_p50: p50_us(&page_ns),
        render_us_p50: signed_p50_us(residual),
        query_us_p50: p50_us(&query_ns),
        exec_us_p50: p50_us(&exec),
        twin_exec_us_p50: p50_us(&twin_exec),
    })
}

fn exec_replay(site: &Site, db: &Database, tag: &str) -> Result<Hist, String> {
    let op = &site.edit;
    let mut rng = crate::sched::Rng::new(site.seed ^ 0xE7EC);
    let mut out = Hist::default();
    for i in 0..EXEC_REPLAYS {
        let oid = 1 + rng.below(u64::from(site.edit_rows)) as i64;
        let params = Params::new()
            .bind("oid", Value::Integer(oid))
            .bind(op.value_field, format!("r{tag}{i}z"));
        let t = Instant::now();
        let r = db
            .execute(&op.sql, &params)
            .map_err(|e| format!("{}: {e}", op.sql))?;
        out.record(t.elapsed().as_nanos() as u64);
        if r.affected() != 1 {
            return Err(format!("replayed edit of row {oid} touched no row"));
        }
    }
    Ok(out)
}

/// Read targets of the first `n` reads of the open-loop schedule.
pub fn sample(open: &[Vec<Vec<(u64, Req)>>], n: usize) -> Vec<u32> {
    open.iter()
        .flatten()
        .flatten()
        .filter_map(|(_, r)| match r {
            Req::Read(t) => Some(*t),
            _ => None,
        })
        .take(n)
        .collect()
}
