//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! Nothing inside the program is instrumented: the client times each
//! request's round trip, and the benchmark's HTTP handler times the
//! adapter chain and the controller call it wraps. Spans stay in memory
//! and are written out when the run ends.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Client round trip of a page GET.
pub const CLIENT_READ: &str = "client.read";
/// Client round trip of an operation (including its forward page).
pub const CLIENT_WRITE: &str = "client.write";
/// The whole server handler: adapt request, controller, adapt response.
pub const HANDLER: &str = "httpd.handler";
/// `Controller::handle_parts` inside the handler.
pub const MVC: &str = "mvc.handle";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// Request id (the `X-Bench-Id` header the client sent).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Spans {
    epoch: Instant,
    on: AtomicBool,
    server: Mutex<Vec<Span>>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            on: AtomicBool::new(false),
            server: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    pub fn on(&self) -> bool {
        // a statistic-style switch: it publishes no other data
        self.on.load(Ordering::Relaxed)
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// The handler span and its controller child for request `req`.
    pub fn record_server(&self, req: u64, handler: (u64, u64), mvc: (u64, u64)) {
        let mut v = self.server.lock().expect("span buffer lock poisoned");
        v.push(Span {
            name: HANDLER,
            parent: None,
            req,
            start_ns: handler.0,
            end_ns: handler.1,
        });
        v.push(Span {
            name: MVC,
            parent: Some(HANDLER),
            req,
            start_ns: mvc.0,
            end_ns: mvc.1,
        });
    }

    pub fn take_server(&self) -> Vec<Span> {
        std::mem::take(&mut *self.server.lock().expect("span buffer lock poisoned"))
    }
}

/// Write spans as CSV: `req,name,parent,start_ns,end_ns`.
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "req,name,parent,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            w,
            "{},{},{},{},{}",
            s.req,
            s.name,
            s.parent.unwrap_or(""),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}
