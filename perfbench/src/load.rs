//! The load generator: one thread and one keep-alive connection per
//! client, replaying a pre-generated schedule and checking every
//! response.

use crate::check::{self, EditCheck, ReadCheck, Reason, SubmitCheck};
use crate::client::Conn;
use crate::sched::Req;
use crate::site::Site;
use crate::stats::Hist;
use crate::trace::{Span, Spans, CLIENT_READ, CLIENT_WRITE};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// What one client saw during one phase.
#[derive(Debug, Clone, Default)]
pub struct Log {
    /// Latency of successful page GETs / operations, ns. In the open
    /// loop a request is timed from its due time, otherwise from its
    /// send time.
    pub read_ns: Hist,
    /// Modify operations (`EditPaper`) and create operations
    /// (`SubmitPaper`) apart: their latencies differ several-fold, so a
    /// median over both would sit in the gap between them.
    pub edit_ns: Hist,
    pub submit_ns: Hist,
    /// Open loop: how late each request was sent, ns.
    pub late_ns: Hist,
    pub attempted: u64,
    pub ok: u64,
    pub reads: u64,
    pub writes: u64,
    pub not_modified: u64,
    pub failures: BTreeMap<Reason, u64>,
    /// First failure of each reason, for the report.
    pub examples: BTreeMap<Reason, String>,
    /// Client spans, when tracing.
    pub spans: Vec<Span>,
    pub wire_bytes: u64,
    /// Phase time as this client saw it, ns.
    pub elapsed_ns: u64,
    /// CPU time the generator's own threads spent in the phase, ns.
    pub gen_cpu_ns: u64,
}

impl Log {
    pub fn merge(logs: Vec<Log>) -> Log {
        let mut out = Log::default();
        for l in logs {
            out.read_ns.merge(&l.read_ns);
            out.edit_ns.merge(&l.edit_ns);
            out.submit_ns.merge(&l.submit_ns);
            out.late_ns.merge(&l.late_ns);
            out.attempted += l.attempted;
            out.ok += l.ok;
            out.reads += l.reads;
            out.writes += l.writes;
            out.not_modified += l.not_modified;
            for (r, n) in l.failures {
                *out.failures.entry(r).or_default() += n;
            }
            for (r, e) in l.examples {
                out.examples.entry(r).or_insert(e);
            }
            out.spans.extend(l.spans);
            out.wire_bytes += l.wire_bytes;
            out.elapsed_ns = out.elapsed_ns.max(l.elapsed_ns);
            out.gen_cpu_ns += l.gen_cpu_ns;
        }
        out
    }

    /// Where a successful `req`'s latency is recorded.
    fn latencies(&mut self, req: Req) -> &mut Hist {
        match req {
            Req::Read(_) => &mut self.read_ns,
            Req::Edit(_) => &mut self.edit_ns,
            Req::Submit(_) => &mut self.submit_ns,
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.values().sum()
    }

    /// Failures not attributed to a known defect.
    pub fn unexplained(&self) -> u64 {
        self.failures
            .iter()
            .filter(|(r, _)| !r.known_defect())
            .map(|(_, n)| n)
            .sum()
    }
}

/// Everything the clients share, read-only.
pub struct Ctx<'a> {
    pub addr: SocketAddr,
    pub site: &'a Site,
    /// Present in traced runs: client spans are recorded while it is on.
    pub spans: Option<&'a Spans>,
    /// Unique values of this run's submissions start with this.
    pub submit_prefix: String,
    /// When present, clients take turns for it so that one create
    /// operation at a time is in flight. The create's forward page finds
    /// the new row by `SELECT MAX(oid)`, so two creates in flight at once
    /// may each be shown the other's row (a known defect of the program).
    /// Measured traffic serialises its creates so that no request fails by
    /// chance; the race probe of traced runs lets them overlap to count
    /// the defect.
    pub create_turn: Option<Mutex<()>>,
}

/// One simulated browser.
pub struct Client {
    id: usize,
    conn: Conn,
    returning: bool,
    cookie: Option<String>,
    /// Read target → (validator, own-write epoch of its row when fetched).
    etags: HashMap<u32, (String, u32)>,
    /// Row → (latest value this client wrote, epoch of that write).
    own: HashMap<u32, (String, u32)>,
    seq: u64,
    /// Position in the closed-loop sequence.
    cursor: usize,
}

impl Client {
    pub fn new(id: usize, addr: SocketAddr, returning: bool) -> Client {
        Client {
            id,
            conn: Conn::new(addr),
            returning,
            cookie: None,
            etags: HashMap::new(),
            own: HashMap::new(),
            seq: 0,
            cursor: 0,
        }
    }

    /// Issue one request and check its response. Returns whether it
    /// succeeded.
    fn issue(&mut self, req: Req, ctx: &Ctx<'_>, log: &mut Log) -> bool {
        self.seq += 1;
        let rid = ((self.id as u64 + 1) << 48) | self.seq;
        let rid_text = rid.to_string();
        let mut headers: Vec<(&str, &str)> = vec![("X-Bench-Id", &rid_text)];
        if let Some(c) = &self.cookie {
            headers.push(("Cookie", c));
        }
        let site = ctx.site;
        let sent = Instant::now();
        let (verdict, write) = match req {
            Req::Read(t) => {
                let target = &site.targets[t as usize];
                let cached = self.etags.get(&t);
                if let Some((tag, _)) = cached {
                    headers.push(("If-None-Match", tag));
                }
                let validator_sent = cached.is_some();
                let cached_epoch = cached.map(|c| c.1);
                let resp = self.conn.send(&target.path, &headers, None);
                let own = target.row.and_then(|r| self.own.get(&r));
                let verdict = resp.map_err(|_| Reason::Io).and_then(|head| {
                    let own_write = own.map(|(v, e)| (v.as_str(), cached_epoch == Some(*e)));
                    let c = ReadCheck {
                        validator_sent,
                        title: &target.title,
                        marker: &target.marker,
                        own_write,
                    };
                    check::check_read(head.status, self.conn.body(), &c)?;
                    if head.status == 304 {
                        log.not_modified += 1;
                    }
                    if self.returning {
                        if self.cookie.is_none() {
                            self.cookie = head.set_cookie;
                        }
                        if let Some(tag) = head.etag {
                            self.etags.insert(t, (tag, own.map_or(0, |o| o.1)));
                        }
                    }
                    Ok(())
                });
                log.reads += 1;
                (verdict, false)
            }
            Req::Edit(oid) => {
                let op = &site.edit;
                let value = format!("e{}c{}n{}z", site.seed, self.id, self.seq);
                let form = format!("oid={oid}&{}={value}", op.value_field);
                let resp = self.conn.send(&op.url, &headers, Some(&form));
                let c = EditCheck {
                    forward: &op.forward,
                    shows: op.shows_value.then_some(value.as_str()),
                };
                let verdict = resp
                    .map_err(|_| Reason::Io)
                    .and_then(|h| check::check_edit(h.status, self.conn.body(), &c));
                match verdict {
                    Ok(()) => {
                        let epoch = self.own.get(&oid).map_or(0, |o| o.1) + 1;
                        self.own.insert(oid, (value, epoch));
                    }
                    // the row's state is unknown now: stop asserting on it
                    Err(_) => {
                        self.own.remove(&oid);
                    }
                }
                log.writes += 1;
                (verdict, true)
            }
            Req::Submit(parent) => {
                let op = site
                    .submit
                    .as_ref()
                    .expect("workload has a create operation");
                let own = format!("{}{}n{}z", ctx.submit_prefix, self.id, self.seq);
                let form = format!("{}={own}&pages=1-2&issue_oid={parent}", op.value_field);
                let _turn = ctx
                    .create_turn
                    .as_ref()
                    .map(|t| t.lock().unwrap_or_else(|e| e.into_inner()));
                let resp = self.conn.send(&op.url, &headers, Some(&form));
                let c = SubmitCheck {
                    forward: &op.forward,
                    own: &own,
                    prefix: &ctx.submit_prefix,
                };
                let verdict = resp
                    .map_err(|_| Reason::Io)
                    .and_then(|h| check::check_submit(h.status, self.conn.body(), &c));
                log.writes += 1;
                (verdict, true)
            }
        };
        let done = Instant::now();
        if let Some(spans) = ctx.spans.filter(|s| s.on()) {
            log.spans.push(Span {
                name: if write { CLIENT_WRITE } else { CLIENT_READ },
                parent: None,
                req: rid,
                start_ns: spans.ns_of(sent),
                end_ns: spans.ns_of(done),
            });
        }
        log.attempted += 1;
        match verdict {
            Ok(()) => {
                log.ok += 1;
                true
            }
            Err(r) => {
                *log.failures.entry(r).or_default() += 1;
                log.examples
                    .entry(r)
                    .or_insert_with(|| format!("{req:?} (client {})", self.id));
                false
            }
        }
    }

    /// [`Client::issue`], recording a success's latency from its send
    /// time.
    fn timed(&mut self, req: Req, ctx: &Ctx<'_>, log: &mut Log) {
        let t = Instant::now();
        if self.issue(req, ctx, log) {
            log.latencies(req).record(t.elapsed().as_nanos() as u64);
        }
    }

    fn finish(&mut self, mut log: Log, start: Instant) -> Log {
        log.elapsed_ns = start.elapsed().as_nanos() as u64;
        log.wire_bytes = std::mem::take(&mut self.conn.wire_bytes);
        log
    }
}

/// Run `f` on every client in its own thread and merge their logs.
fn each<F>(clients: &mut [Client], f: F) -> Log
where
    F: Fn(usize, &mut Client) -> Log + Sync,
{
    let logs = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| {
                let f = &f;
                s.spawn(move || f(i, c))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Log::merge(logs)
}

/// Send each client's sequence once, each request as soon as the
/// previous one returns.
pub fn sequence(clients: &mut [Client], seqs: &[Vec<Req>], ctx: &Ctx<'_>) -> Log {
    let start = Instant::now();
    each(clients, |i, c| {
        let mut log = Log::default();
        for &req in &seqs[i] {
            c.timed(req, ctx, &mut log);
        }
        c.finish(log, start)
    })
}

/// Open loop: each request is sent at its due time (or as soon as the
/// client's previous one returns, if that is later) and timed from when
/// it was due.
pub fn open_loop(clients: &mut [Client], plan: &[Vec<(u64, Req)>], ctx: &Ctx<'_>) -> Log {
    let start = Instant::now() + Duration::from_millis(5);
    each(clients, |i, c| {
        precise_sleeps();
        let mut log = Log::default();
        for &(due_ns, req) in &plan[i] {
            let due = start + Duration::from_nanos(due_ns);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            log.late_ns
                .record(sent.saturating_duration_since(due).as_nanos() as u64);
            if c.issue(req, ctx, &mut log) {
                log.latencies(req).record(due.elapsed().as_nanos() as u64);
            }
        }
        c.finish(log, start)
    })
}

/// Closed loop: each client sends the next `count` requests of its
/// cyclic sequence, each as soon as the previous one returns, resuming
/// where its last closed-loop slice stopped. A fixed count leaves the
/// same state behind in every run, however fast the slice went; a client
/// that is still busy at `deadline_secs` stops early.
pub fn closed_loop(
    clients: &mut [Client],
    seqs: &[Vec<Req>],
    count: usize,
    deadline_secs: f64,
    ctx: &Ctx<'_>,
) -> Log {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(deadline_secs);
    each(clients, |i, c| {
        let cpu0 = crate::host::thread_cpu_ns();
        let seq = &seqs[i];
        let mut log = Log::default();
        for _ in 0..count {
            if Instant::now() >= deadline {
                break;
            }
            let req = seq[c.cursor % seq.len()];
            c.cursor += 1;
            c.timed(req, ctx, &mut log);
        }
        log.gen_cpu_ns = crate::host::thread_cpu_ns().saturating_sub(cpu0);
        c.finish(log, start)
    })
}

/// Ask the kernel for sleep wake-ups without the default 50 µs timer
/// slack, so the open-loop generator is not late by construction.
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes the calling thread's timer slack; no memory is passed.
    // A failure leaves the default slack, which is harmless.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1usize);
    }
}
