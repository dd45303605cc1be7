//! The deployed system under test: app model, durable deployment, seeded
//! data, and the list of requests a client may make of it.

use crate::check::{cell, title};
use crate::sched::Shape;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use webratio::httpd::{Handler, HttpRequest, HttpServer, ServerConfig};
use webratio::mvc::{Controller, RuntimeOptions};
use webratio::relstore::{Params, Value};
use webratio::webml::{CacheSpec, Condition, LinkEnd, OperationKind};
use webratio::{
    adapt_request, app::adapt_response_parts, fixtures, seed_data, synthesize, Application,
    Deployment, DurabilityConfig, SynthSpec,
};

use crate::trace::Spans;
use serde_json::json;

/// ACM DL size: volumes × issues per volume × papers per issue.
const ACM_DIMS: (usize, usize, usize) = (20, 8, 20);
/// Rows per entity in the synthetic Acer-Euro catalog.
const CATALOG_ROWS: usize = 200;
/// Seed of the catalog's generated rows (foreign keys, attribute values).
const CATALOG_DATA_SEED: u64 = 2003;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BrowseRevisit,
    CatalogCrawl,
    EditMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BrowseRevisit,
        Workload::CatalogCrawl,
        Workload::EditMix,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::BrowseRevisit => "browse_revisit",
            Workload::CatalogCrawl => "catalog_crawl",
            Workload::EditMix => "edit_mix",
        }
    }

    /// Open-loop offered rate, requests per second over all connections.
    /// Fixed, so later programs are offered the same load: well below
    /// what two connections can carry when each request waits out the
    /// thread wake-ups of a small virtual machine.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::BrowseRevisit => 2000.0,
            Workload::CatalogCrawl => 120.0,
            Workload::EditMix => 1000.0,
        }
    }

    /// Closed-loop requests per second the closed-loop slices are sized
    /// for: each slice sends a fixed count, this rate times its planned
    /// length, so every run leaves the same state behind.
    pub fn closed_rate(self) -> f64 {
        match self {
            Workload::BrowseRevisit => 28_000.0,
            Workload::CatalogCrawl => 1_300.0,
            Workload::EditMix => 3_000.0,
        }
    }

    /// Writes in each round's write-probe slice, over all connections.
    /// Read-only workloads measure `write_p50_ms` on these; edit_mix
    /// measures it on its own writes and needs no probe.
    pub fn probe_writes(self) -> usize {
        match self {
            Workload::BrowseRevisit => 80,
            Workload::CatalogCrawl => 16,
            Workload::EditMix => 0,
        }
    }

    /// Returning browsers keep their session and validators; fresh
    /// visitors send neither.
    pub fn returning(self) -> bool {
        self != Workload::CatalogCrawl
    }
}

/// One page a client may request, and how to recognise a right answer.
#[derive(Debug, Clone)]
pub struct Target {
    /// Path and query string.
    pub path: String,
    /// Index into the deployment's page descriptors.
    pub page: usize,
    /// Decoded request parameters.
    pub params: Vec<(String, String)>,
    /// `<title>` of the page.
    pub title: String,
    /// The requested row's marker.
    pub marker: String,
    /// The row an edit of which this page must show, if any.
    pub row: Option<u32>,
}

/// An operation the generator invokes.
#[derive(Debug, Clone)]
pub struct OpSpec {
    pub url: String,
    /// The statement the operation runs (replayed in traced runs).
    pub sql: String,
    /// Form field carrying the new value.
    pub value_field: &'static str,
    /// `<title>` of the OK forward page.
    pub forward: String,
    /// Whether the forward page lists the written row.
    pub shows_value: bool,
}

/// Deploy-plus-seed timings of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub deploy_s: f64,
    pub seed_s: f64,
}

/// Removes a run's WAL directory when the site is dropped.
struct DirGuard(PathBuf);

impl Drop for DirGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Site {
    pub workload: Workload,
    pub app: Application,
    pub d: Deployment,
    pub targets: Vec<Target>,
    pub edit: OpSpec,
    pub submit: Option<OpSpec>,
    pub edit_rows: u32,
    pub parents: u32,
    /// Rows edits leave alone (see [`Shape::pinned_rows`]).
    pub pinned_rows: Vec<u32>,
    pub seed: u64,
    // declared last: the deployment (and its WAL) closes before removal
    _dir: DirGuard,
}

/// The deployment switches every workload runs with: the full
/// configuration.
pub fn runtime_options() -> RuntimeOptions {
    RuntimeOptions {
        bean_cache: true,
        fragment_cache: true,
        fragment_ttl: Duration::from_secs(600),
        conditional_get: true,
        ..RuntimeOptions::default()
    }
}

fn durability(dir: &Path) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    d.incremental_maintenance = true;
    d
}

/// The switches, for result stamps.
pub fn switches(workers: usize) -> serde_json::Value {
    let o = runtime_options();
    let d = durability(Path::new("."));
    json!({
        "durable_wal": true,
        "strict_commit": d.strict_commit,
        "group_commit_window_ms": d.group_commit_window.as_millis() as u64,
        "incremental_maintenance": d.incremental_maintenance,
        "bean_cache": o.bean_cache,
        "bean_cache_capacity": o.bean_cache_capacity,
        "fragment_cache": o.fragment_cache,
        "fragment_capacity": o.fragment_capacity,
        "fragment_ttl_s": o.fragment_ttl.as_secs(),
        "conditional_get": o.conditional_get,
        "httpd_workers": workers,
        "keep_alive": ServerConfig::default().keep_alive,
    })
}

/// The ACM DL app of Fig. 1/2 with §6 cache tags on every cacheable unit,
/// plus two operations of the benchmark's own: `EditPaper` (modify,
/// forwards to Volumes) and `SubmitPaper` (create, forwards to a page
/// keyed on the new `oid`).
pub fn acm_app() -> Application {
    let mut app = fixtures::acm_library();
    let cacheable = [
        "TODS volumes",
        "Volume data",
        "Paper data",
        "Matching papers",
    ];
    let ids: Vec<_> = app
        .hypertext
        .units()
        .filter(|(_, u)| cacheable.contains(&u.name.as_str()))
        .map(|(id, _)| id)
        .collect();
    assert_eq!(ids.len(), cacheable.len(), "ACM fixture units renamed");
    for id in ids {
        app.hypertext.set_cache(id, CacheSpec::model_driven());
    }
    let (paper, _) = app.er.entity_by_name("Paper").expect("Paper entity");
    let page = |app: &Application, name: &str| {
        app.hypertext
            .pages()
            .find(|(_, p)| p.name == name)
            .unwrap_or_else(|| panic!("ACM fixture lost page {name}"))
            .0
    };
    let volumes = page(&app, "Volumes");
    let details = page(&app, "Paper Details");
    let ht = &mut app.hypertext;
    let edit = ht.add_operation(
        "EditPaper",
        OperationKind::Modify { entity: paper },
        vec!["oid".into(), "pages".into()],
    );
    ht.link_ok(edit, LinkEnd::Page(volumes));
    // a KO forward renders another page than the OK one, so the checker
    // can tell a failed edit from a good one
    ht.link_ko(edit, LinkEnd::Page(details));

    let sv = ht.site_views().next().expect("ACM site view").0;
    let submitted = ht.add_page(sv, None, "Submitted Paper");
    let unit = ht.add_data_unit(submitted, "Submitted data", paper);
    ht.add_condition(
        unit,
        Condition::KeyEq {
            param: "oid".into(),
        },
    );
    let submit = ht.add_operation(
        "SubmitPaper",
        OperationKind::Create { entity: paper },
        vec!["title".into(), "pages".into(), "issue_oid".into()],
    );
    ht.link_ok(submit, LinkEnd::Page(submitted));
    ht.link_ko(submit, LinkEnd::Page(details));
    app
}

fn model(w: Workload) -> Application {
    match w {
        Workload::CatalogCrawl => synthesize(&SynthSpec::acer_euro()),
        _ => acm_app(),
    }
}

/// Seed the database of a deployment of `app` for workload `w`. The data
/// is the same for every run; `--seed` varies the traffic.
pub fn seed(w: Workload, app: &Application, db: &webratio::relstore::Database) {
    match w {
        Workload::CatalogCrawl => seed_data(app, db, CATALOG_ROWS, CATALOG_DATA_SEED),
        _ => fixtures::seed_acm(db, ACM_DIMS.0, ACM_DIMS.1, ACM_DIMS.2),
    }
}

/// Deploy and seed one fresh site in `dir` (which must not exist yet).
pub fn build(w: Workload, seed_value: u64, dir: PathBuf) -> Result<(Site, SetupTimes), String> {
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let guard = DirGuard(dir);
    let app = model(w);
    let t0 = Instant::now();
    let d = app
        .deploy_durable(runtime_options(), &durability(&guard.0))
        .map_err(|e| format!("deploy: {e}"))?;
    let t1 = Instant::now();
    seed(w, &app, &d.db);
    d.wal
        .as_ref()
        .expect("durable deployment")
        .flush_and_notify();
    let times = SetupTimes {
        deploy_s: (t1 - t0).as_secs_f64(),
        seed_s: t1.elapsed().as_secs_f64(),
    };
    let (targets, edit, submit, edit_rows, parents, pinned_rows) = match w {
        Workload::CatalogCrawl => catalog_targets(&d)?,
        _ => acm_targets(&d)?,
    };
    Ok((
        Site {
            workload: w,
            app,
            d,
            targets,
            edit,
            submit,
            edit_rows,
            parents,
            pinned_rows,
            seed: seed_value,
            _dir: guard,
        },
        times,
    ))
}

/// Read targets, the edit and create operations, the number of rows the
/// edit may target and of parents a create may attach to, and the rows
/// edits must leave alone.
type Targets = (Vec<Target>, OpSpec, Option<OpSpec>, u32, u32, Vec<u32>);

fn query(d: &Deployment, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    d.db.query(sql, &Params::new())
        .map(|rs| rs.into_rows())
        .map_err(|e| format!("{sql}: {e}"))
}

fn text(v: &Value) -> String {
    match v {
        Value::Text(s) => s.clone(),
        other => other.to_string(),
    }
}

fn page_index(d: &Deployment, name: &str) -> Result<usize, String> {
    d.generated
        .descriptors
        .pages
        .iter()
        .position(|p| p.name == name)
        .ok_or_else(|| format!("no page named {name}"))
}

fn op<'a>(
    d: &'a Deployment,
    name: &str,
) -> Result<&'a webratio::descriptors::OperationDescriptor, String> {
    d.generated
        .descriptors
        .operations
        .iter()
        .find(|o| o.name == name)
        .ok_or_else(|| format!("no operation named {name}"))
}

fn acm_targets(d: &Deployment) -> Result<Targets, String> {
    let pages = &d.generated.descriptors.pages;
    let target = |page: usize, params: Vec<(String, String)>, marker: String, row| {
        let p = &pages[page];
        let query: Vec<String> = params
            .iter()
            .map(|(k, v)| format!("{k}={}", webratio::mvc::url_encode(v)))
            .collect();
        Target {
            path: if query.is_empty() {
                p.url.clone()
            } else {
                format!("{}?{}", p.url, query.join("&"))
            },
            page,
            params,
            title: title(&p.name),
            marker,
            row,
        }
    };
    let (home, volume, paper, search) = (
        page_index(d, "Volumes")?,
        page_index(d, "Volume Page")?,
        page_index(d, "Paper Details")?,
        page_index(d, "Search Results")?,
    );
    let volumes = query(d, "SELECT oid, title FROM volume ORDER BY oid")?;
    let papers = query(d, "SELECT oid, title FROM paper ORDER BY oid")?;
    let newest = volumes.first().ok_or("no volumes seeded")?;
    let mut targets = vec![target(home, vec![], text(&newest[1]), None)];
    for v in &volumes {
        targets.push(target(
            volume,
            vec![("volume".into(), text(&v[0]))],
            cell(&text(&v[1])),
            None,
        ));
        // a keyword search per volume: the papers of its first issue
        let first = papers
            .iter()
            .map(|p| text(&p[1]))
            .find(|t| t.starts_with(&format!("Paper {}.1.", text(&v[0]))))
            .ok_or("volume without papers")?;
        let kw = format!("{}%", first.trim_end_matches(|c: char| c.is_ascii_digit()));
        targets.push(target(search, vec![("kw".into(), kw)], first, None));
    }
    for p in &papers {
        let Value::Integer(oid) = p[0] else {
            return Err("non-integer paper oid".into());
        };
        targets.push(target(
            paper,
            vec![("paper".into(), oid.to_string())],
            cell(&text(&p[1])),
            Some(oid as u32),
        ));
    }
    let edit = op(d, "EditPaper")?;
    let submit = op(d, "SubmitPaper")?;
    let spec = |o: &webratio::descriptors::OperationDescriptor, field, forward: &str| OpSpec {
        url: o.url.clone(),
        sql: o.sql.clone().unwrap_or_default(),
        value_field: field,
        forward: title(forward),
        shows_value: false,
    };
    let issues = query(d, "SELECT COUNT(*) AS n FROM issue")?;
    let Some(Value::Integer(issues)) = issues.first().and_then(|r| r.first()).cloned() else {
        return Err("cannot count issues".into());
    };
    Ok((
        targets,
        spec(edit, "pages", "Volumes"),
        Some(spec(submit, "title", "Submitted Paper")),
        papers.len() as u32,
        issues as u32,
        Vec::new(),
    ))
}

fn catalog_targets(d: &Deployment) -> Result<Targets, String> {
    let set = &d.generated.descriptors;
    let mut targets = Vec::with_capacity(set.pages.len());
    for (i, p) in set.pages.iter().enumerate() {
        // the page's first unit is an index over its primary entity; its
        // first row (by the unit's own query) is the page's marker
        let unit = p
            .units
            .first()
            .and_then(|u| set.unit(u))
            .ok_or_else(|| format!("{}: no units", p.name))?;
        let q = unit
            .queries
            .first()
            .filter(|q| q.inputs.is_empty())
            .ok_or_else(|| format!("{}: first unit is not a plain index", p.name))?;
        let rs =
            d.db.query(&q.sql, &Params::new())
                .map_err(|e| e.to_string())?;
        let marker = rs
            .first("name")
            .map(text)
            .ok_or_else(|| format!("{}: empty index", p.name))?;
        targets.push(Target {
            path: p.url.clone(),
            page: i,
            params: vec![],
            title: title(&p.name),
            marker,
            row: None,
        });
    }
    // the first modify operation whose forward page lists its entity
    let edit = set
        .operations
        .iter()
        .filter(|o| o.op_type == "modify")
        .find_map(|o| {
            let fwd = set
                .pages
                .iter()
                .find(|p| Some(&p.url) == o.ok_forward.as_ref())?;
            let lists = fwd
                .units
                .first()
                .and_then(|u| set.unit(u))
                .is_some_and(|u| u.entity_table == o.entity_table);
            lists.then(|| OpSpec {
                url: o.url.clone(),
                sql: o.sql.clone().unwrap_or_default(),
                value_field: "name",
                forward: title(&fwd.name),
                shows_value: true,
            })
        })
        .ok_or("no modify operation forwards to a page listing its rows")?;
    // rows whose value is a page's marker: edits leave them alone, or the
    // page would rightly stop showing its marker
    let table = set
        .operations
        .iter()
        .find(|o| o.url == edit.url)
        .and_then(|o| o.entity_table.clone())
        .ok_or("the edit operation names no table")?;
    let mut pinned = Vec::new();
    for t in &targets {
        let name = t.marker.clone();
        let rs =
            d.db.query(
                &format!("SELECT oid FROM {table} WHERE name = :name"),
                &Params::new().bind("name", name),
            )
            .map_err(|e| format!("{table}: {e}"))?;
        for row in rs.into_rows() {
            if let Some(Value::Integer(oid)) = row.first() {
                pinned.push(*oid as u32);
            }
        }
    }
    pinned.sort_unstable();
    pinned.dedup();
    Ok((targets, edit, None, CATALOG_ROWS as u32, 0, pinned))
}

impl Site {
    /// The generator's traffic shape for this site.
    pub fn shape(&self, conns: usize, rounds: usize, open_secs: f64, probe_writes: usize) -> Shape {
        let w = self.workload;
        Shape {
            conns,
            // a target's page is its type
            strata: self.targets.iter().map(|t| t.page as u32).collect(),
            zipf: w != Workload::CatalogCrawl,
            write_permille: if w == Workload::EditMix { 100 } else { 0 },
            edit_rows: self.edit_rows,
            pinned_rows: self.pinned_rows.clone(),
            parents: self.parents,
            open_rate: w.open_rate(),
            rounds,
            open_secs,
            probe_writes,
        }
    }

    /// Serve over HTTP with `workers` threads and the shipped serving
    /// configuration. The handler is the shipped adapter chain; when
    /// `spans` is given and switched on it also records the benchmark's
    /// spans around it.
    pub fn serve(&self, workers: usize, spans: Option<Arc<Spans>>) -> std::io::Result<HttpServer> {
        let controller = Arc::clone(&self.d.controller);
        HttpServer::start_with(
            0,
            workers,
            handler(controller, spans),
            ServerConfig::default(),
        )
    }
}

/// `adapt_request` → `Controller::handle_parts` → `adapt_response_parts`,
/// with an `httpd.handler` span around the chain and an `mvc.handle`
/// span around the controller call when tracing is on.
fn handler(controller: Arc<Controller>, spans: Option<Arc<Spans>>) -> Handler {
    Arc::new(move |req: HttpRequest| {
        let Some(spans) = spans.as_ref().filter(|s| s.on()) else {
            let web = adapt_request(&req);
            return adapt_response_parts(controller.handle_parts(&web));
        };
        let t0 = spans.now_ns();
        let id = req
            .header("x-bench-id")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let web = adapt_request(&req);
        let t1 = spans.now_ns();
        let parts = controller.handle_parts(&web);
        let t2 = spans.now_ns();
        let resp = adapt_response_parts(parts);
        let t3 = spans.now_ns();
        spans.record_server(id, (t0, t3), (t1, t2));
        resp
    })
}
