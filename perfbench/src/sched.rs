//! Seeded request schedules.
//!
//! Everything random about a run — page choice, Zipf ranks, Poisson
//! arrival times, write targets — is drawn here from the `--seed`
//! argument before the server sees its first request. The load
//! generator then replays the schedule verbatim, so the program only
//! ever receives generated inputs and two runs with one seed send the
//! same requests.

use std::collections::BTreeMap;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_2003_C1D2_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<u32> {
        let mut p: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// GET of read target `i` (an index into the site's target list).
    Read(u32),
    /// The workload's modify operation on row `oid`.
    Edit(u32),
    /// The workload's create operation under parent row `oid`.
    Submit(u32),
}

/// What a workload's traffic looks like; the site fills in the sizes.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Client connections (and generator threads).
    pub conns: usize,
    /// The stratum (page type) of each read target; their number is the
    /// number of targets.
    pub strata: Vec<u32>,
    /// Zipf(1) popularity over a seeded, stratified ranking of the
    /// targets (see [`rank_targets`]); uniform when `false`.
    pub zipf: bool,
    /// Writes per thousand requests, split evenly between edits and
    /// submissions.
    pub write_permille: u64,
    /// Rows the edit operation may target: oids `1..=edit_rows`...
    pub edit_rows: u32,
    /// ...except these, sorted: rows some page shows as its marker.
    pub pinned_rows: Vec<u32>,
    /// Parent rows a submission may attach to: oids `1..=parents`.
    pub parents: u32,
    /// Open-loop offered rate (requests per second, all connections).
    pub open_rate: f64,
    /// Open-loop slices (one per measurement round) and the length of
    /// each in seconds.
    pub rounds: usize,
    pub open_secs: f64,
    /// Writes in each round's write-probe slice, over all connections.
    pub probe_writes: usize,
}

/// Requests per connection in the (cyclic) closed-loop sequences.
const CLOSED_LEN: usize = 1 << 16;

/// A run's whole input, generated up front.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Per connection: every read target once, in seeded order, so both
    /// server caches and the client's validators are warm before timing.
    pub warm: Vec<Vec<Req>>,
    /// Per round, per connection: `(due time in ns from the start of the
    /// round's open-loop slice, request)`, Poisson arrivals at the offered
    /// rate split at random over the connections.
    pub open: Vec<Vec<Vec<(u64, Req)>>>,
    /// Per connection: the closed-loop sequence, replayed cyclically.
    pub closed: Vec<Vec<Req>>,
    /// Per round, per connection: the write probe's edits, cycling
    /// through the connection's share of the rows.
    pub probe: Vec<Vec<Vec<Req>>>,
}

struct Mix<'a> {
    shape: &'a Shape,
    perm: Vec<u32>,
    reads: Option<Zipf>,
}

impl Mix<'_> {
    fn draw(&self, rng: &mut Rng, conn: usize) -> Req {
        let s = self.shape;
        if s.write_permille > 0 && rng.below(1000) < s.write_permille {
            if rng.below(2) == 0 {
                return Req::Edit(self.edit_target(rng, conn));
            }
            return Req::Submit(1 + rng.below(u64::from(s.parents.max(1))) as u32);
        }
        let t = match &self.reads {
            Some(z) => self.perm[z.sample(rng)],
            None => rng.below(s.strata.len() as u64) as u32,
        };
        Req::Read(t)
    }

    /// Edits are uniform over the rows, and each connection edits only
    /// rows with `oid % conns == conn`: the client that wrote a row is
    /// then the only writer of it, so "my next read shows my write" is
    /// exact. Uniform rather than Zipf-popular, so that the cost of a run
    /// does not hang on which few rows a seed would make hot.
    fn edit_target(&self, rng: &mut Rng, conn: usize) -> u32 {
        let conns = self.shape.conns as u32;
        for _ in 0..64 {
            let oid = 1 + rng.below(u64::from(self.shape.edit_rows.max(1))) as u32;
            if oid % conns == conn as u32 && self.shape.pinned_rows.binary_search(&oid).is_err() {
                return oid;
            }
        }
        // vanishingly rare: the first row of this connection's share
        conn as u32 + if conn == 0 { conns } else { 0 }
    }
}

/// The read targets in popularity order, most popular first. Each
/// stratum holds the same ranks in every run, spread evenly through the
/// ranking in proportion to its size; the seed decides which target of a
/// stratum takes which of the stratum's ranks. Under Zipf(1) the first
/// few ranks carry a large share of the traffic, so leaving the page
/// type at those ranks to chance would make one seed's mix far costlier
/// than another's.
pub fn rank_targets(strata: &[u32], rng: &mut Rng) -> Vec<u32> {
    let mut groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for (t, &s) in strata.iter().enumerate() {
        groups.entry(s).or_default().push(t as u32);
    }
    let groups: Vec<Vec<u32>> = groups
        .into_values()
        .map(|g| {
            rng.permutation(g.len())
                .iter()
                .map(|&i| g[i as usize])
                .collect()
        })
        .collect();
    let n = strata.len() as i64;
    let mut taken = vec![0usize; groups.len()];
    let mut out = Vec::with_capacity(strata.len());
    for k in 1..=n {
        // the stratum furthest behind its share of the first k ranks
        let g = (0..groups.len())
            .filter(|&g| taken[g] < groups[g].len())
            .max_by_key(|&g| k * groups[g].len() as i64 - taken[g] as i64 * n)
            .expect("a stratum has targets left");
        out.push(groups[g][taken[g]]);
        taken[g] += 1;
    }
    out
}

/// Generate the schedule of one run from `seed`.
pub fn build(shape: &Shape, seed: u64) -> Schedule {
    let targets = shape.strata.len();
    assert!(shape.conns > 0 && targets > 0, "empty workload shape");
    let mut rng = Rng::new(seed);
    let mix = Mix {
        shape,
        perm: rank_targets(&shape.strata, &mut rng),
        reads: shape.zipf.then(|| Zipf::new(targets, 1.0)),
    };
    let warm = (0..shape.conns)
        .map(|_| {
            rng.permutation(targets)
                .into_iter()
                .map(Req::Read)
                .collect()
        })
        .collect();

    let mean_gap_s = 1.0 / shape.open_rate;
    let open = (0..shape.rounds)
        .map(|_| {
            let mut slice: Vec<Vec<(u64, Req)>> = vec![Vec::new(); shape.conns];
            let mut t = 0.0;
            loop {
                t += -mean_gap_s * rng.unit().ln();
                if t >= shape.open_secs {
                    break;
                }
                let conn = rng.below(shape.conns as u64) as usize;
                let req = mix.draw(&mut rng, conn);
                slice[conn].push(((t * 1e9) as u64, req));
            }
            slice
        })
        .collect();

    let closed = (0..shape.conns)
        .map(|conn| (0..CLOSED_LEN).map(|_| mix.draw(&mut rng, conn)).collect())
        .collect();
    // the probe does not depend on the seed: each connection cycles
    // through every row of its share in order, so every run edits the
    // same rows and the rows a seed draws cannot set the edit latency
    let probe_rows: Vec<Vec<u32>> = (0..shape.conns as u32)
        .map(|conn| {
            (1..=shape.edit_rows.max(1))
                .filter(|oid| {
                    oid % shape.conns as u32 == conn
                        && shape.pinned_rows.binary_search(oid).is_err()
                })
                .collect()
        })
        .collect();
    let per_conn = shape.probe_writes / shape.conns;
    let probe = (0..shape.rounds)
        .map(|round| {
            probe_rows
                .iter()
                .map(|share| {
                    (0..per_conn)
                        .filter_map(|i| share.get((round * per_conn + i) % share.len().max(1)))
                        .map(|&oid| Req::Edit(oid))
                        .collect()
                })
                .collect()
        })
        .collect();
    Schedule {
        warm,
        open,
        closed,
        probe,
    }
}

impl Schedule {
    /// A canonical byte encoding of the whole schedule.
    pub fn encode(&self) -> Vec<u8> {
        fn req(out: &mut Vec<u8>, r: &Req) {
            let (tag, v) = match *r {
                Req::Read(v) => (0u8, v),
                Req::Edit(v) => (1, v),
                Req::Submit(v) => (2, v),
            };
            out.push(tag);
            out.extend_from_slice(&v.to_le_bytes());
        }
        let mut out = Vec::new();
        for seq in self.warm.iter().chain(&self.closed) {
            out.extend_from_slice(&(seq.len() as u64).to_le_bytes());
            seq.iter().for_each(|r| req(&mut out, r));
        }
        for seq in self.open.iter().flatten() {
            out.extend_from_slice(&(seq.len() as u64).to_le_bytes());
            for (due, r) in seq {
                out.extend_from_slice(&due.to_le_bytes());
                req(&mut out, r);
            }
        }
        self.probe
            .iter()
            .flatten()
            .flatten()
            .for_each(|r| req(&mut out, r));
        out
    }

    /// FNV-1a digest of [`Schedule::encode`], stamped into results.
    pub fn digest(&self) -> u64 {
        self.encode().iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> Shape {
        Shape {
            conns: 2,
            strata: (0..500).map(|t| u32::from(t % 50 == 0)).collect(),
            zipf: true,
            write_permille: 100,
            edit_rows: 300,
            pinned_rows: vec![2, 3],
            parents: 40,
            open_rate: 2000.0,
            rounds: 2,
            open_secs: 0.25,
            probe_writes: 100,
        }
    }

    #[test]
    fn same_seed_gives_byte_identical_schedules() {
        let a = build(&shape(), 42).encode();
        let b = build(&shape(), 42).encode();
        assert_eq!(a, b);
        assert_ne!(a, build(&shape(), 43).encode(), "seed must matter");
    }

    #[test]
    fn arrivals_are_poisson_at_the_offered_rate() {
        let s = build(&shape(), 9);
        let n: usize = s.open.iter().flatten().map(Vec::len).sum();
        // 1000 expected; a Poisson count is within ±5σ (≈ ±160)
        assert!((840..=1160).contains(&n), "{n} arrivals");
        for seq in s.open.iter().flatten() {
            assert!(seq.windows(2).all(|w| w[0].0 <= w[1].0), "due times sorted");
            assert!(
                seq.iter().all(|(due, _)| *due < 250_000_000),
                "due within slice"
            );
        }
    }

    #[test]
    fn writes_follow_the_mix_and_partition_edits_by_connection() {
        let s = build(&shape(), 5);
        for (conn, seq) in s.closed.iter().enumerate() {
            let writes = seq.iter().filter(|r| !matches!(r, Req::Read(_))).count();
            let frac = writes as f64 / seq.len() as f64;
            assert!((0.09..0.11).contains(&frac), "write fraction {frac}");
            for r in seq {
                if let Req::Edit(oid) = r {
                    assert_eq!(*oid as usize % 2, conn, "edit outside partition");
                }
            }
        }
    }

    #[test]
    fn probe_edits_stay_in_their_connection_share() {
        let s = build(&shape(), 3);
        assert_eq!(s.probe.len(), 2, "a probe slice per round");
        for (conn, seq) in s.probe.iter().flat_map(|r| r.iter().enumerate()) {
            assert_eq!(seq.len(), 50, "100 writes a round over 2 connections");
            for r in seq {
                let Req::Edit(oid) = *r else {
                    panic!("probe sends only edits")
                };
                assert!((1..=300).contains(&oid), "oid {oid} out of range");
                assert!(![2, 3].contains(&oid), "pinned row {oid} edited");
                assert_eq!(oid as usize % 2, conn);
            }
        }
        // the same rows for every seed, each edited once before any twice
        assert_eq!(s.probe, build(&shape(), 4).probe);
        let conn0: Vec<Req> = s.probe.iter().flat_map(|r| r[0].clone()).collect();
        let mut firsts: Vec<Req> = conn0[..50].to_vec();
        firsts.sort_by_key(|r| format!("{r:?}"));
        firsts.dedup();
        assert_eq!(firsts.len(), 50, "no row twice before the share is covered");
    }

    #[test]
    fn strata_keep_their_ranks_across_seeds() {
        let strata: Vec<u32> = (0..300)
            .map(|t| [0, 1, 1, 2][t % 4] * (t as u32 % 7))
            .collect();
        let a = rank_targets(&strata, &mut Rng::new(1));
        let b = rank_targets(&strata, &mut Rng::new(2));
        assert_ne!(a, b, "the seed picks which target takes a rank");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..300).collect::<Vec<u32>>(), "a permutation");
        let kinds = |r: &[u32]| r.iter().map(|&t| strata[t as usize]).collect::<Vec<_>>();
        assert_eq!(kinds(&a), kinds(&b), "each rank keeps its stratum");
        // the largest stratum takes rank 1; a small one is spread out
        let big = (0..7).max_by_key(|s| strata.iter().filter(|&&x| x == *s).count());
        assert_eq!(Some(strata[a[0] as usize]), big);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(1);
        let mut hits = [0usize; 2];
        for _ in 0..20_000 {
            match z.sample(&mut rng) {
                0 => hits[0] += 1,
                999 => hits[1] += 1,
                _ => {}
            }
        }
        // rank 1 is 1000× as popular as rank 1000
        assert!(hits[0] > 50 * hits[1].max(1), "{hits:?}");
    }
}
