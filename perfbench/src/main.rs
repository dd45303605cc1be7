//! Full-stack HTTP benchmark of the generated WebML applications.
//!
//! Deploys the full configuration (durable WAL, incremental maintenance,
//! bean and fragment caches, conditional GET, `nproc` httpd workers),
//! drives one named workload over real keep-alive HTTP from `nproc`
//! client threads, checks every response, and prints every metric by
//! name with its unit. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse_revisit --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
//! workload with the benchmark's spans on and reports the per-layer
//! metrics instead. Results, stamped with host and settings, also land
//! in `.bench_out/`; traced runs write their spans there too.

mod check;
mod client;
mod host;
mod layers;
mod load;
mod sched;
mod site;
mod stats;
mod trace;

use load::{Client, Ctx, Log};
use sched::Req;
use serde_json::{json, Map, Value};
use site::{Site, Workload};
use stats::Hist;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// The seed kept out of every tuning run, for confirming later claims.
const HELD_OUT_SEED: u64 = 20_031_017;
/// Set-ups per run: at least `MIN_SETUPS`, then more while the set-ups
/// so far took under `SETUP_BUDGET_S`, up to `MAX_SETUPS`; `setup_s` is
/// their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 5.0;
/// Measurement rounds. Each is an open-loop slice, a closed-loop slice
/// and, on read-only workloads, a write-probe slice; the gated figures
/// pool the samples of every round.
const ROUNDS: usize = 16;
/// Share of a round's planned time spent in its open-loop slice.
const OPEN_SHARE: f64 = 0.25;
/// A closed-loop slice still running at this multiple of its planned
/// length stops early, so a starved host cannot stall the run.
const SLICE_DEADLINE: f64 = 4.0;
/// Sampled page requests replayed layer by layer in traced runs.
const REPLAY_SAMPLE: usize = 400;
/// Create operations each client sends in the race probe of traced runs.
const RACE_SUBMITS: usize = 200;
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: perfbench --workload <browse_revisit|catalog_crawl|edit_mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke [--seed <n>]";

/// The end-to-end metrics: name, unit.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_cpu_s", "1/cpu-s"),
    ("read_p50_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            a.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !a.smoke && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
        return Err(format!("--seconds out of range: {}", a.seconds));
    }
    Ok(a)
}

/// Timings of one set-up.
struct SetupSample {
    /// Deploy + seed + server start.
    total_s: f64,
    deploy_s: f64,
    seed_s: f64,
    /// `Application::generate` alone, timed after the set-up.
    generate_s: f64,
    /// CPU ticks over deploy + seed + server start.
    ticks: host::Ticks,
}

/// One figure as reported.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
        Metric {
            name,
            value,
            unit,
            note,
        }
    }
}

struct Report {
    workload: Workload,
    stamp: Value,
    correct: bool,
    attempted: u64,
    failed: u64,
    failures: Vec<(&'static str, u64, bool, String)>,
    metrics: Vec<Metric>,
    /// Printed and saved beside the metrics but gated by nothing: wall
    /// clock throughput, latency tails and open-loop latencies, which
    /// the host's scheduling noise moves too much to hold to a bound.
    diagnostics: Vec<Metric>,
    /// Per-round figures, saved for inspection.
    rounds: Vec<Value>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        return smoke(args.seed);
    }
    let w = args.workload.expect("checked by parse_args");
    match run(w, args.seed, args.seconds, args.trace, MIN_SETUPS) {
        Ok(report) => {
            report.print();
            if let Err(e) = report.save(args.seed, args.trace) {
                eprintln!("perfbench: cannot write result file: {e}");
                return ExitCode::from(1);
            }
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Every workload briefly, untraced and traced, with checking on.
fn smoke(seed: u64) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        for trace in [false, true] {
            match run(w, seed, 1.0, trace, 1) {
                Ok(r) => {
                    println!(
                        "smoke {} trace={}: correct={} attempted={} failed={} metrics={}",
                        w.name(),
                        u8::from(trace),
                        r.correct,
                        r.attempted,
                        r.failed,
                        r.metrics.len()
                    );
                    for (reason, n, known, example) in &r.failures {
                        println!("  {reason}={n} known_defect={known} first: {example}");
                    }
                    // catalog_crawl has no create operation to race
                    let race = r
                        .metrics
                        .iter()
                        .find(|m| m.name == "mvc.create_race_wrong_rows");
                    if let (Some(m), false) = (race, w == Workload::CatalogCrawl) {
                        println!(
                            "  race probe: {} wrong-row forwards (known defect)",
                            m.value
                        );
                    }
                    ok &= r.correct;
                }
                Err(e) => {
                    println!("smoke {} trace={}: error: {e}", w.name(), u8::from(trace));
                    ok = false;
                }
            }
        }
    }
    println!("smoke: {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured, when run from a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// What one measurement round saw.
struct Round {
    open: Log,
    closed: Log,
    /// The write-probe slice; empty on workloads that write themselves.
    probe: Log,
    /// Share of the CPU time the guest wanted during the round that the
    /// hypervisor gave to other guests.
    steal: f64,
    /// CPU time of every thread but the generator's during the closed
    /// slice, ns.
    server_cpu_ns: u64,
}

impl Round {
    /// Closed-loop requests completed per second of server CPU time.
    fn per_cpu_s(&self) -> f64 {
        self.closed.ok as f64 / (self.server_cpu_ns.max(1) as f64 / 1e9)
    }

    /// Closed-loop requests completed per second of wall-clock time.
    fn rps(&self) -> f64 {
        self.closed.ok as f64 / (self.closed.elapsed_ns.max(1) as f64 / 1e9)
    }

    /// The edits whose latency the round reports as its write latency:
    /// the probe's when there is one, else the closed slice's own.
    fn edits(&self) -> &Hist {
        if self.probe.attempted > 0 {
            &self.probe.edit_ns
        } else {
            &self.closed.edit_ns
        }
    }

    fn record(&self) -> Value {
        let p50 = |h: &Hist| h.summary().map(|s| ms(s.p50));
        json!({
            "steal_frac": self.steal,
            "closed_s": self.closed.elapsed_ns as f64 / 1e9,
            "throughput_rps": self.rps(),
            "throughput_per_cpu_s": self.per_cpu_s(),
            "read_p50_ms": p50(&self.closed.read_ns),
            "write_p50_ms": p50(self.edits()),
            "submit_p50_ms": p50(&self.closed.submit_ns),
        })
    }
}

/// Set up the site at least `min_setups` times (the first one stays up),
/// run the measured rounds, and compute the metrics.
fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    min_setups: usize,
) -> Result<Report, String> {
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let workers = nproc();
    let conns = workers;
    let spans = trace.then(|| Arc::new(trace::Spans::new(Instant::now())));

    let set_up = |i: usize| -> Result<(Site, webratio::httpd::HttpServer, SetupSample), String> {
        let dir: PathBuf = out.join(format!("wal-{}-{}-{i}", w.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (t0, ticks0) = (Instant::now(), host::Ticks::now());
        let (s, times) = site::build(w, seed, dir)?;
        let server = s
            .serve(workers, spans.clone())
            .map_err(|e| format!("serve: {e}"))?;
        let total_s = t0.elapsed().as_secs_f64();
        let ticks = host::Ticks::now().since(ticks0);
        let t = Instant::now();
        s.app.generate().map_err(|e| format!("generate: {e}"))?;
        let sample = SetupSample {
            total_s,
            deploy_s: times.deploy_s,
            seed_s: times.seed_s,
            generate_s: t.elapsed().as_secs_f64(),
            ticks,
        };
        Ok((s, server, sample))
    };
    let (site, server, first) = set_up(0)?;
    let mut setups = vec![first];

    let round_secs = seconds / ROUNDS as f64;
    let open_secs = round_secs * OPEN_SHARE;
    let closed_secs = round_secs - open_secs;
    // a fixed count per closed slice: every run leaves the same writes,
    // and so the same state, behind at every round
    let closed_count = ((w.closed_rate() * closed_secs) as usize / conns).max(1);
    let probe_writes = w.probe_writes();
    let schedule = sched::build(&site.shape(conns, ROUNDS, open_secs, probe_writes), seed);

    let ctx = Ctx {
        addr: server.addr(),
        site: &site,
        spans: spans.as_deref(),
        submit_prefix: format!("sub{seed}c"),
        create_turn: Some(Default::default()),
    };
    let mut clients: Vec<Client> = (0..conns)
        .map(|i| Client::new(i, ctx.addr, w.returning()))
        .collect();

    let warm = load::sequence(&mut clients, &schedule.warm, &ctx);
    let before = layers::Snap::take(&site, &server);
    let set_spans = |on: bool| {
        if let Some(s) = &spans {
            s.set(on);
        }
    };
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut probe_counts = layers::Snap::default();
    for r in 0..ROUNDS {
        let t0 = host::Ticks::now();
        set_spans(true);
        let open = load::open_loop(&mut clients, &schedule.open[r], &ctx);
        // traced runs switch spans off in the closed slice of every
        // other round, to measure what the spans cost
        set_spans(r % 2 == 1);
        let cpu0 = host::process_cpu_ns();
        let closed = load::closed_loop(
            &mut clients,
            &schedule.closed,
            closed_count,
            closed_secs * SLICE_DEADLINE,
            &ctx,
        );
        let server_cpu_ns = host::process_cpu_ns()
            .saturating_sub(cpu0)
            .saturating_sub(closed.gen_cpu_ns);
        // traced runs count what the probe does apart, so that the
        // per-request layer figures describe the workload's own traffic
        set_spans(true);
        let snap = trace.then(|| layers::Snap::take(&site, &server));
        let probe = load::sequence(&mut clients, &schedule.probe[r], &ctx);
        if let Some(s) = snap {
            probe_counts += layers::Snap::take(&site, &server).since(s);
        }
        rounds.push(Round {
            open,
            closed,
            probe,
            steal: host::Ticks::now().since(t0).steal_share(),
            server_cpu_ns,
        });
    }
    set_spans(false);
    let after = layers::Snap::take(&site, &server);
    let server_spans = spans.as_ref().map(|s| s.take_server()).unwrap_or_default();
    // traced runs end with the race probe: every client submits at once,
    // and the forwards that show another client's row are counted apart
    let mut race = Log::default();
    if trace && site.submit.is_some() {
        let plan: Vec<Vec<Req>> = (0..conns)
            .map(|c| {
                (0..RACE_SUBMITS)
                    .map(|i| Req::Submit(1 + ((c + i * conns) as u32 % site.parents.max(1))))
                    .collect()
            })
            .collect();
        let race_ctx = Ctx {
            submit_prefix: format!("race{seed}c"),
            create_turn: None,
            ..ctx
        };
        race = load::sequence(&mut clients, &plan, &race_ctx);
    }
    let race_wrong_rows = race
        .failures
        .remove(&check::Reason::WrongRowForward)
        .unwrap_or(0);
    server.stop();
    // peak memory of the measured deployment, before further set-ups
    let peak_rss = host::peak_rss_mb()?;
    let spent = |v: &[SetupSample]| v.iter().map(|s| s.total_s).sum::<f64>();
    while setups.len() < MAX_SETUPS
        && (setups.len() < min_setups || (min_setups > 1 && spent(&setups) < SETUP_BUDGET_S))
    {
        let (s, srv, sample) = set_up(setups.len())?;
        srv.stop();
        drop(s);
        setups.push(sample);
    }
    let setup_median =
        |f: fn(&SetupSample) -> f64| stats::median_f64(&setups.iter().map(f).collect::<Vec<_>>());
    let mut setup_ticks = host::Ticks::default();
    setups.iter().for_each(|s| setup_ticks += s.ticks);

    // The gated figures pool every round: per-CPU throughput is the
    // closed slices' requests over their server CPU time, and the p50s
    // are taken over every closed-loop sample of the run. Pooling
    // averages out both the host's noise and the run's own drift (the
    // tables grow under edit_mix), where a median over rounds of a
    // drifting figure is the figure of one middle round. None of them
    // is scaled for hypervisor steal: CPU time excludes stolen time, and
    // a stall hits the few requests in flight, not the median one.
    let pooled = |on: &dyn Fn(usize) -> bool| {
        let (ok, cpu) = rounds
            .iter()
            .enumerate()
            .filter(|(i, _)| on(*i))
            .fold((0u64, 0u64), |(ok, cpu), (_, r)| {
                (ok + r.closed.ok, cpu + r.server_cpu_ns)
            });
        ok as f64 / (cpu.max(1) as f64 / 1e9)
    };
    let p50 = |h: &Hist| h.summary().map(|s| ms(s.p50));
    let tail = |h: &Hist| h.summary().map(|s| ms(s.tail));
    let (mut closed_reads, mut all_edits, mut submits) =
        (Hist::default(), Hist::default(), Hist::default());
    let (mut open_reads, mut open_edits, mut late) =
        (Hist::default(), Hist::default(), Hist::default());
    let (mut closed_ok, mut closed_ns) = (0u64, 0u64);
    for r in &rounds {
        closed_reads.merge(&r.closed.read_ns);
        all_edits.merge(r.edits());
        submits.merge(&r.closed.submit_ns);
        open_reads.merge(&r.open.read_ns);
        open_edits.merge(&r.open.edit_ns);
        late.merge(&r.open.late_ns);
        closed_ok += r.closed.ok;
        closed_ns += r.closed.elapsed_ns;
    }
    let closed_read_p99 = tail(&closed_reads);
    let open_read_p99 = tail(&open_reads);
    let write_p99 = tail(&all_edits);
    let steals: Vec<f64> = rounds.iter().map(|r| r.steal).collect();

    let mut metrics = Vec::new();
    let mut diagnostics = Vec::new();
    let round_records: Vec<Value> = rounds.iter().map(Round::record).collect();
    let measured = Log::merge(
        rounds
            .iter()
            .flat_map(|r| [r.open.clone(), r.closed.clone(), r.probe.clone()])
            .collect(),
    );
    if trace {
        let t = layers::Traced {
            site: &site,
            measured: &measured,
            late_ns: &late,
            server_spans: &server_spans,
            probe: &Log::merge(rounds.iter().map(|r| r.probe.clone()).collect()),
            counts: after.since(before),
            probe_counts,
            // closed-loop rate in the rounds with spans off (even) and on (odd)
            untraced_rate: pooled(&|i| i % 2 == 0),
            traced_rate: pooled(&|i| i % 2 == 1),
            sample: layers::sample(&schedule.open, REPLAY_SAMPLE),
            fresh_dir: out.join(format!("wal-{}-{}-replay", w.name(), std::process::id())),
            generate_s: setup_median(|s| s.generate_s),
            deploy_s: setup_median(|s| s.deploy_s),
            seed_s: setup_median(|s| s.seed_s),
            race_wrong_rows: race_wrong_rows as f64,
            tails: [
                closed_read_p99.unwrap_or(0.0),
                write_p99.unwrap_or(0.0),
                open_read_p99.unwrap_or(0.0),
            ],
        };
        for ((name, value), (listed, unit)) in
            layers::compute(&t)?.into_iter().zip(layers::PER_LAYER)
        {
            assert_eq!(name, listed, "per-layer metrics out of order");
            metrics.push(Metric::new(name, value, unit, String::new()));
        }
        let mut all_spans = server_spans;
        all_spans.extend(measured.spans.iter().copied());
        all_spans.sort_by_key(|s| (s.req, s.start_ns));
        let path = out.join(format!("{}-seed{seed}-spans.csv", w.name()));
        trace::write_csv(&path, &all_spans).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        let no_sample = || "the run completed no read or no edit".to_string();
        let failed = warm.failed() + measured.failed();
        let attempted = warm.attempted + measured.attempted;
        let pooled_note =
            |h: &Hist| format!("p50 of n={} over {ROUNDS} closed-loop slices", h.len());
        let e2e = [
            (
                setup_median(|s| s.total_s),
                format!("median of {} set-ups", setups.len()),
            ),
            (
                pooled(&|_| true),
                format!(
                    "{} requests in {ROUNDS} closed-loop slices over their server CPU time",
                    closed_count * conns * ROUNDS
                ),
            ),
            (
                p50(&closed_reads).ok_or_else(no_sample)?,
                pooled_note(&closed_reads),
            ),
            (
                p50(&all_edits).ok_or_else(no_sample)?,
                format!(
                    "EditPaper; p50 of n={} over {ROUNDS} {}",
                    all_edits.len(),
                    if probe_writes > 0 {
                        "write-probe slices"
                    } else {
                        "closed-loop slices"
                    },
                ),
            ),
            (
                1.0 - failed as f64 / attempted.max(1) as f64,
                format!("{failed} failed of {attempted} attempted"),
            ),
            (
                peak_rss,
                "VmHWM of the process (server and generator)".into(),
            ),
        ];
        for ((value, note), (name, unit)) in e2e.into_iter().zip(END_TO_END) {
            metrics.push(Metric::new(name, value, unit, note));
        }
        // reported, not gated (see README)
        let mut diag = |name, value: Option<f64>, unit, note: String| {
            if let Some(v) = value {
                diagnostics.push(Metric::new(name, v, unit, note));
            }
        };
        let tail_note = |h: &Hist| {
            h.summary()
                .map(|s| format!("p{:.1} of n={}", s.tail_q * 100.0, s.n))
                .unwrap_or_default()
        };
        diag(
            "throughput_rps",
            Some(closed_ok as f64 / (closed_ns.max(1) as f64 / 1e9)),
            "1/s",
            format!("{ROUNDS} closed-loop slices, wall clock"),
        );
        diag(
            "read_p99_ms",
            closed_read_p99,
            "ms",
            tail_note(&closed_reads),
        );
        diag(
            "write_p99_ms",
            write_p99,
            "ms",
            format!("EditPaper; {}", tail_note(&all_edits)),
        );
        diag(
            "submit_p50_ms",
            p50(&submits),
            "ms",
            format!("SubmitPaper; n={}", submits.len()),
        );
        diag(
            "open_read_p50_ms",
            p50(&open_reads),
            "ms",
            format!(
                "from due; {} req/s offered; n={}",
                w.open_rate(),
                open_reads.len()
            ),
        );
        diag(
            "open_read_p99_ms",
            open_read_p99,
            "ms",
            tail_note(&open_reads),
        );
        diag(
            "open_write_p50_ms",
            p50(&open_edits),
            "ms",
            format!("EditPaper from due; n={}", open_edits.len()),
        );
        diag(
            "open_write_p99_ms",
            tail(&open_edits),
            "ms",
            tail_note(&open_edits),
        );
        diag("open_late_p99_ms", tail(&late), "ms", tail_note(&late));
        diag(
            "steal_frac",
            Some(stats::median_f64(&steals)),
            "frac",
            format!(
                "median over {ROUNDS} rounds; set-ups {:.4}",
                setup_ticks.steal_share()
            ),
        );
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a number: {}", m.name, m.value));
    }

    let all = Log::merge(vec![warm, measured]);
    let failures = all
        .failures
        .iter()
        .map(|(r, n)| {
            (
                r.name(),
                *n,
                r.known_defect(),
                all.examples.get(r).cloned().unwrap_or_default(),
            )
        })
        .collect();
    let stamp = json!({
        "workload": w.name(),
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": trace,
        "seconds": seconds,
        "nproc": nproc(),
        "client_connections": conns,
        "commit": commit(),
        "schedule_fnv64": format!("{:016x}", schedule.digest()),
        "rounds": ROUNDS,
        "open_rate_rps": w.open_rate(),
        "closed_requests_per_slice": closed_count * conns,
        "probe_writes_per_round": probe_writes,
        "switches": site::switches(workers),
    });
    Ok(Report {
        workload: w,
        stamp,
        // the race probe's other failures are not excused
        correct: all.unexplained() + race.unexplained() == 0,
        attempted: all.attempted,
        failed: all.failed(),
        failures,
        metrics,
        diagnostics,
        rounds: round_records,
    })
}

/// `{name: {"value", "unit"[, "note"]}}` for a list of figures.
fn figures(list: &[Metric], notes: bool) -> Value {
    let mut map = Map::new();
    for m in list {
        let mut v = json!({"value": m.value, "unit": m.unit});
        if let (true, Value::Object(o)) = (notes, &mut v) {
            o.insert("note".into(), json!(m.note.as_str()));
        }
        map.insert(m.name.into(), v);
    }
    Value::Object(map)
}

impl Report {
    fn print(&self) {
        println!("# perfbench {} {}", self.workload.name(), self.stamp);
        for m in &self.metrics {
            println!("{:<34} {:>14.6} {:<12} {}", m.name, m.value, m.unit, m.note);
        }
        for d in &self.diagnostics {
            println!(
                "  ({:<32} {:>14.6} {:<10} {})",
                d.name, d.value, d.unit, d.note
            );
        }
        for (reason, n, known, example) in &self.failures {
            let tag = if *known {
                "known defect: create forwards to SELECT MAX(oid)"
            } else {
                "UNEXPLAINED"
            };
            println!("failed {reason}={n} ({tag}); first: {example}");
        }
        println!(
            "{}",
            json!({
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": figures(&self.metrics, false),
            })
        );
    }

    fn save(&self, seed: u64, trace: bool) -> std::io::Result<()> {
        let mut failures = Map::new();
        for (r, n, known, _) in &self.failures {
            failures.insert((*r).into(), json!({"count": n, "known_defect": known}));
        }
        let body = json!({
            "stamp": &self.stamp,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": Value::Object(failures),
            "metrics": figures(&self.metrics, true),
            "diagnostics": figures(&self.diagnostics, true),
            "rounds": Value::Array(self.rounds.clone()),
        });
        let path = Path::new(OUT_DIR).join(format!(
            "{}-seed{seed}-trace{}.json",
            self.workload.name(),
            u8::from(trace)
        ));
        std::fs::write(path, format!("{body}\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &Value, key: &str) -> Vec<(String, String)> {
        v.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this program prints, with the same units, and only workloads it
    /// knows.
    #[test]
    fn benchmark_json_names_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let v = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        assert_eq!(names(&v, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(names(&v, "per_layer"), pairs(&layers::PER_LAYER));
        let workloads = names(&v, "workloads");
        assert!(workloads.len() >= 2, "at least two workloads");
        for (name, _) in workloads {
            assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
        }
    }
}
