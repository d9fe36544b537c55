//! Phase `forward`: closed-loop forwarding at the smallest packet size
//! (Fig. 5's 100 B case) on two worker threads.
//!
//! Set-up generates a seeded, interleaved stream of 100 B-payload
//! packets — Hummingbird flyovers over a Zipf-popular reservation
//! population, plain SCION best-effort packets, and a small share of
//! flyovers stamped with a forged key — and pre-steers it with
//! [`ShardMap::shard_of`]. Each worker owns one hop-0 engine and feeds it
//! its share through [`Datapath::process_batch`] in 32-packet bursts,
//! re-arming each packet's header before the engine sees it. The bursts
//! walk the whole share in stream order, so the per-engine key cache
//! sees the stream's working set (hits on popular reservations, misses
//! on the tail) rather than one burst's reservations.
//!
//! One round is both workers walking their whole share once, started
//! together; its time is the slower worker's. Each cycle of a run starts
//! fresh engines and warms them up before its rounds count. `fwd_mpps`
//! is the median over all measured rounds of the packets forwarded per
//! second.

use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use hummingbird_crypto::{AuthKey, ResInfo, SecretValue};
use hummingbird_dataplane::router::stages::{self, HopKind};
use hummingbird_dataplane::{
    forge_path, BeaconHop, Datapath, DatapathBuilder, DatapathStats, DropReason, NullEngine,
    PacketBuf, RouterConfig, ShardMap, SourceGenerator, SourceReservation, Steering, Verdict,
};
use hummingbird_wire::scion_mac::HopMacKey;
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// The fixed clock every packet is stamped against and processed at.
const EPOCH_S: u64 = 1_700_000_000;
const EPOCH_MS: u64 = EPOCH_S * 1000;
const EPOCH_NS: u64 = EPOCH_MS * 1_000_000;
/// Hops on the forged path; the engine under test is hop 0.
const HOPS: usize = 4;
/// L4 payload per packet (Fig. 5's smallest size).
pub const PAYLOAD: usize = 100;
/// Packets per `process_batch` call.
pub const BURST: usize = 32;
/// Worker threads (one engine each).
pub const WORKERS: usize = 2;
/// Packets in the whole stream (both shards).
const STREAM_LEN: usize = 1 << 17;
/// Stream shares: forged flyovers, then plain best effort; the rest are
/// valid flyovers.
const FORGED_SHARE: f64 = 0.02;
const PLAIN_SHARE: f64 = 0.23;
/// Zipf exponent of reservation popularity.
const ZIPF_S: f64 = 1.0;
/// Bandwidth class of every reservation: large enough that policing at
/// the fixed clock never demotes a packet.
const BW_ENCODED: u16 = 1000;
/// Rounds run before measuring (fills the key caches).
const WARMUP_ROUNDS: usize = 2;
/// Stream packets the per-stage ladder times.
const LADDER_SAMPLE: usize = 4096;
/// Repetitions of each ladder loop (the median is kept).
const LADDER_REPS: usize = 15;

/// The forwarding inputs of one run.
pub struct Stream {
    sv: SecretValue,
    hop_key: HopMacKey,
    /// Per shard: the packets, in stream order.
    shares: Vec<Vec<PacketBuf>>,
    /// Per shard: the verdict each packet must get.
    expected: Vec<Vec<Verdict>>,
    /// Per shard: forged packets in one pass over the share.
    forged: Vec<u64>,
    /// The first stream packets, unsteered, for the stage ladder.
    sample: Vec<Vec<u8>>,
    /// Distinct reservations in the stream.
    pub reservations: usize,
}

fn interfaces(i: usize) -> (u16, u16) {
    let ingress = if i == 0 { 0 } else { 2 * i as u16 };
    let egress = if i == HOPS - 1 { 0 } else { 2 * i as u16 + 1 };
    (ingress, egress)
}

fn key16(rng: &mut StdRng) -> [u8; 16] {
    let mut k = [0u8; 16];
    rng.fill(&mut k);
    k
}

/// Builds the stream for `seed` over a Zipf population of `population`
/// reservations. Rank `r` lives on shard `r % 2` at a seeded random
/// ResID of that shard's range, so popularity is split evenly and the
/// shard skew does not depend on the seed.
pub fn build_stream(seed: u64, population: u32) -> Stream {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0F0F_5EED_F0F0_0001);
    let sv = SecretValue::new(key16(&mut rng));
    let forger = SecretValue::new(key16(&mut rng));
    let hop_keys: Vec<HopMacKey> = (0..HOPS).map(|_| HopMacKey::new(key16(&mut rng))).collect();
    let hops: Vec<BeaconHop> = (0..HOPS)
        .map(|i| {
            let (cons_ingress, cons_egress) = interfaces(i);
            BeaconHop { key: hop_keys[i].clone(), cons_ingress, cons_egress }
        })
        .collect();
    let path = forge_path(&hops, EPOCH_S as u32 - 100, rng.gen_range(0..=u16::MAX));
    let (src, dst) = (IsdAs::new(1, 0x10), IsdAs::new(2, 0x20));
    let mut reserved = SourceGenerator::new(src, dst, path.clone());
    let mut plain = SourceGenerator::new(src, dst, path);

    let slots = RouterConfig::default().policer_slots;
    let map = ShardMap::new(WORKERS, slots, Steering::ByReservation);
    let per_shard = (population as usize).div_ceil(WORKERS);
    let res_ids: Vec<Vec<u32>> = (0..WORKERS)
        .map(|s| {
            let mut ids: Vec<u32> = map.res_id_range(s).collect();
            assert!(ids.len() >= per_shard, "population exceeds the policer's ResIDs");
            // Partial Fisher-Yates: the first `per_shard` ids, shuffled.
            for i in 0..per_shard {
                let j = rng.gen_range(i..ids.len());
                ids.swap(i, j);
            }
            ids.truncate(per_shard);
            ids
        })
        .collect();
    let mut cdf: Vec<f64> = Vec::with_capacity(population as usize);
    let mut acc = 0.0;
    for r in 0..population {
        acc += 1.0 / f64::from(r + 1).powf(ZIPF_S);
        cdf.push(acc);
    }

    let (ingress, egress) = interfaces(0);
    let res_info = |res_id: u32| ResInfo {
        ingress,
        egress,
        res_id,
        bw_encoded: BW_ENCODED,
        res_start: EPOCH_S as u32 - 50,
        duration: 36_000,
    };
    let mut keys: HashMap<u32, AuthKey> = HashMap::new();
    let mut stream = Stream {
        sv: sv.clone(),
        hop_key: hop_keys[0].clone(),
        shares: vec![Vec::new(); WORKERS],
        expected: vec![Vec::new(); WORKERS],
        forged: vec![0; WORKERS],
        sample: Vec::with_capacity(LADDER_SAMPLE),
        reservations: 0,
    };
    let payload = [0u8; PAYLOAD];
    for _ in 0..STREAM_LEN {
        let kind: f64 = rng.gen();
        let at_ms = EPOCH_MS - rng.gen_range(0..500u64);
        let (bytes, verdict) = if kind < 1.0 - PLAIN_SHARE {
            let u = rng.gen::<f64>() * acc;
            let rank = cdf.partition_point(|&c| c < u).min(population as usize - 1);
            let res_id = res_ids[rank % WORKERS][rank / WORKERS];
            let info = res_info(res_id);
            let forged = kind < FORGED_SHARE;
            let key = if forged {
                forger.derive_key(&info)
            } else {
                keys.entry(res_id).or_insert_with(|| sv.derive_key(&info)).clone()
            };
            reserved
                .attach_reservation(0, SourceReservation { res_info: info, key })
                .expect("hop 0 interfaces match the path");
            let verdict = if forged {
                Verdict::Drop(DropReason::BadMac)
            } else {
                Verdict::Flyover { egress }
            };
            (reserved.generate(&payload, at_ms).expect("flyover generation"), verdict)
        } else {
            (
                plain.generate(&payload, at_ms).expect("plain generation"),
                Verdict::BestEffort { egress },
            )
        };
        if stream.sample.len() < LADDER_SAMPLE {
            stream.sample.push(bytes.clone());
        }
        let shard = map.shard_of(&bytes);
        if matches!(verdict, Verdict::Drop(_)) {
            stream.forged[shard] += 1;
        }
        stream.shares[shard].push(PacketBuf::new(bytes));
        stream.expected[shard].push(verdict);
    }
    stream.reservations = keys.len();
    stream
}

/// One worker's record of one cycle.
struct WorkerRun {
    /// Per measured round: ns to walk the share once.
    round_ns: Vec<u64>,
    /// Busy ns inside `process_batch` over the measured rounds (traced).
    batch_ns: u64,
    /// Packets fed over all rounds, warm-up included.
    fed: u64,
    /// Forged packets fed.
    forged_fed: u64,
    /// Verdicts that differed from the expected class.
    mismatches: u64,
    stats: DatapathStats,
    tracer: Option<Tracer>,
}

/// Walks `share` once through `engine` in bursts; returns mismatches.
fn walk<D: Datapath>(
    engine: &mut D,
    share: &mut [PacketBuf],
    expected: &[Verdict],
    out: &mut Vec<Verdict>,
    mut tracer: Option<&mut Tracer>,
    batch_ns: &mut u64,
) -> u64 {
    let mut mismatches = 0;
    for (i, (burst, want)) in share.chunks_mut(BURST).zip(expected.chunks(BURST)).enumerate() {
        let id = i as u64;
        if let Some(t) = tracer.as_deref_mut() {
            t.enter("bench.feed", id);
        }
        for p in burst.iter_mut() {
            p.reset();
        }
        out.clear();
        if let Some(t) = tracer.as_deref_mut() {
            t.exit();
            t.enter("runtime.process_batch", id);
        }
        engine.process_batch(burst, EPOCH_NS, out);
        if let Some(t) = tracer.as_deref_mut() {
            *batch_ns += t.exit();
        }
        mismatches += out.iter().zip(want).filter(|(got, want)| got != want).count() as u64;
        mismatches += want.len().abs_diff(out.len()) as u64;
    }
    mismatches
}

/// One cycle: fresh engines on both workers, warm-up rounds, then
/// measured rounds until `seconds` have passed.
fn run_workers(
    stream: &mut Stream,
    seconds: f64,
    tracers: &mut [Option<Tracer>],
) -> Vec<WorkerRun> {
    let barrier = Barrier::new(WORKERS);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let (sv, hop_key) = (&stream.sv, &stream.hop_key);
    std::thread::scope(|scope| {
        let handles: Vec<_> = stream
            .shares
            .iter_mut()
            .zip(&stream.expected)
            .zip(&stream.forged)
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(w, (((share, expected), &forged), tracer))| {
                let (barrier, stop) = (&barrier, &stop);
                let mut tracer = tracer.take();
                scope.spawn(move || {
                    let mut engine = DatapathBuilder::new(sv.clone(), hop_key.clone()).build();
                    let mut out = Vec::with_capacity(BURST);
                    let mut run = WorkerRun {
                        round_ns: Vec::new(),
                        batch_ns: 0,
                        fed: 0,
                        forged_fed: 0,
                        mismatches: 0,
                        stats: DatapathStats::default(),
                        tracer: None,
                    };
                    for round in 0.. {
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        let measured = round >= WARMUP_ROUNDS;
                        let mut batch_ns = 0;
                        if let Some(t) = tracer.as_mut() {
                            t.enter("fwd.round", round as u64);
                        }
                        let t0 = Instant::now();
                        run.mismatches += walk(
                            &mut engine,
                            share,
                            expected,
                            &mut out,
                            tracer.as_mut(),
                            &mut batch_ns,
                        );
                        let ns = t0.elapsed().as_nanos() as u64;
                        if let Some(t) = tracer.as_mut() {
                            t.exit();
                        }
                        run.fed += share.len() as u64;
                        run.forged_fed += forged;
                        if measured {
                            run.round_ns.push(ns);
                            run.batch_ns += batch_ns;
                        }
                        // Worker 0 decides; the next barrier publishes it.
                        if w == 0 && measured && start.elapsed().as_secs_f64() >= seconds {
                            stop.store(true, Ordering::SeqCst);
                        }
                    }
                    run.stats = engine.stats();
                    run.tracer = tracer;
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("forward worker panicked")).collect()
    })
}

/// Harness floor: the same walk with [`NullEngine`], ns per packet.
fn feed_floor(stream: &mut Stream) -> f64 {
    let mut engine = NullEngine::new();
    let mut out = Vec::with_capacity(BURST);
    let (share, expected) = (&mut stream.shares[0], &stream.expected[0]);
    let mut per_pkt = Vec::new();
    for _ in 0..LADDER_REPS {
        let t0 = Instant::now();
        black_box(walk(&mut engine, share, expected, &mut out, None, &mut 0));
        per_pkt.push(t0.elapsed().as_nanos() as f64 / share.len() as f64);
    }
    stats::median(&per_pkt).expect("repetitions ran")
}

/// Median over repetitions of `f`'s time, per stream packet of `n`.
fn per_pkt_ns(n: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let reps: Vec<f64> = (0..LADDER_REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    stats::median(&reps).expect("repetitions ran")
}

/// The Table 3 ladder on the stream sample: each public `router::stages`
/// function timed on its own, in ns per stream packet (a stage that only
/// flyovers run is spread over every packet, as in the engine).
fn stage_ladder(stream: &Stream, report: &mut Report) -> f64 {
    let sample = &stream.sample;
    let n = sample.len();
    let parsed: Vec<stages::Parsed> =
        sample.iter().map(|p| stages::parse(p).expect("stream packets parse")).collect();
    let fly: Vec<(usize, stages::FlyoverInputs)> = parsed
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_flyover())
        .map(|(i, p)| (i, stages::flyover_inputs(p).expect("flyover inputs")))
        .collect();
    let keys: Vec<AuthKey> = fly.iter().map(|(_, i)| stream.sv.derive_key(&i.res_info)).collect();
    let mut candidates: Vec<[u8; 6]> = parsed
        .iter()
        .map(|p| match p.hop {
            HopKind::Plain(hf) => hf.mac,
            HopKind::Flyover(_) => [0; 6],
        })
        .collect();
    for ((i, inputs), key) in fly.iter().zip(&keys) {
        candidates[*i] = stages::candidate_hop_mac(key, inputs);
    }
    // Forged packets fail verification and never reach `advance`.
    let verified: Vec<(usize, [u8; 6])> = parsed
        .iter()
        .zip(&candidates)
        .enumerate()
        .filter_map(|(i, (p, c))| {
            stages::verify_hop_mac(&stream.hop_key, p, c, EPOCH_S).ok().map(|t| (i, t))
        })
        .collect();
    let mut bufs: Vec<PacketBuf> = sample.iter().map(|p| PacketBuf::new(p.clone())).collect();

    let parse_ns = per_pkt_ns(n, || {
        for p in sample {
            let _ = black_box(stages::parse(black_box(p)));
        }
    });
    let inputs_ns = per_pkt_ns(n, || {
        for (i, _) in &fly {
            let _ = black_box(stages::flyover_inputs(black_box(&parsed[*i])));
        }
    });
    let candidate_ns = per_pkt_ns(n, || {
        for ((_, inputs), key) in fly.iter().zip(&keys) {
            black_box(stages::candidate_hop_mac(black_box(key), black_box(inputs)));
        }
    });
    let verify_ns = per_pkt_ns(n, || {
        for (p, c) in parsed.iter().zip(&candidates) {
            let _ = black_box(stages::verify_hop_mac(&stream.hop_key, black_box(p), c, EPOCH_S));
        }
    });
    let rearm_ns = per_pkt_ns(n, || {
        for (i, _) in &verified {
            bufs[*i].reset();
        }
        black_box(&mut bufs);
    });
    let rearm_advance_ns = per_pkt_ns(n, || {
        for (i, tag) in &verified {
            bufs[*i].reset();
            let _ = black_box(stages::advance(bufs[*i].bytes_mut(), &parsed[*i], tag));
        }
    });
    let advance_ns = (rearm_advance_ns - rearm_ns).max(0.0);
    let derive_ns = per_pkt_ns(fly.len(), || {
        for (_, inputs) in &fly {
            black_box(stream.sv.derive_key(black_box(&inputs.res_info)));
        }
    });
    report.set("router.parse_ns", parse_ns);
    report.set("router.flyover_inputs_ns", inputs_ns);
    report.set("router.candidate_hop_mac_ns", candidate_ns);
    report.set("router.verify_hop_mac_ns", verify_ns);
    report.set("router.advance_ns", advance_ns);
    report.set("crypto.derive_key_ns", derive_ns);
    let sum = parse_ns + inputs_ns + candidate_ns + verify_ns + advance_ns;
    report.set("router.stage_sum_ns", sum);
    sum
}

/// The forward phase across a run's cycles.
pub struct Forward {
    stream: Stream,
    traced: bool,
    tracers: Vec<Option<Tracer>>,
    /// Per measured round: packets over both shares and the slower
    /// worker's ns.
    work: Vec<f64>,
    wall: Vec<u64>,
    idle: Vec<f64>,
    /// Per shard: busy ns in `process_batch` and packets measured.
    batch_ns: Vec<u64>,
    batch_pkts: Vec<u64>,
    fed: u64,
    mismatches: u64,
    cache: (u64, u64),
    bad_mac: u64,
}

impl Forward {
    /// The phase over `stream`; with `epoch` set it records spans.
    pub fn new(stream: Stream, epoch: Option<Instant>) -> Self {
        Forward {
            stream,
            traced: epoch.is_some(),
            tracers: (0..WORKERS).map(|_| epoch.map(|e| Tracer::new(e, "forward"))).collect(),
            work: Vec::new(),
            wall: Vec::new(),
            idle: Vec::new(),
            batch_ns: vec![0; WORKERS],
            batch_pkts: vec![0; WORKERS],
            fed: 0,
            mismatches: 0,
            cache: (0, 0),
            bad_mac: 0,
        }
    }

    /// Runs one cycle of about `seconds` and checks it: every verdict of
    /// its expected class, every fed packet processed, exactly the forged
    /// packets dropped for a bad MAC.
    pub fn cycle(&mut self, seconds: f64, report: &mut Report) {
        let runs = run_workers(&mut self.stream, seconds, &mut self.tracers);
        let lens: Vec<usize> = self.stream.shares.iter().map(Vec::len).collect();
        for (w, r) in runs.iter().enumerate() {
            report.check(r.stats.processed == r.fed, || {
                format!("forward: shard {w} processed {} of {} fed", r.stats.processed, r.fed)
            });
            report.check(r.stats.dropped == r.forged_fed, || {
                format!("forward: shard {w} dropped {} of {} forged", r.stats.dropped, r.forged_fed)
            });
            self.fed += r.fed;
            self.mismatches += r.mismatches;
            self.cache.0 += r.stats.key_cache_hits;
            self.cache.1 += r.stats.key_cache_misses;
            self.bad_mac += r.stats.dropped;
            self.batch_ns[w] += r.batch_ns;
            self.batch_pkts[w] += (r.round_ns.len() * lens[w]) as u64;
        }
        let rounds = runs.iter().map(|r| r.round_ns.len()).min().unwrap_or(0);
        let total = lens.iter().sum::<usize>() as f64;
        for i in 0..rounds {
            let slowest = runs.iter().map(|r| r.round_ns[i]).max().unwrap_or(0);
            let waited: u64 = runs.iter().map(|r| slowest - r.round_ns[i]).sum();
            self.work.push(total);
            self.wall.push(slowest);
            self.idle.push(waited as f64 / (slowest.max(1) * runs.len() as u64) as f64);
        }
        for (slot, r) in self.tracers.iter_mut().zip(runs) {
            *slot = r.tracer;
        }
    }

    /// Records the phase's metrics; returns its tracers.
    pub fn finish(mut self, report: &mut Report) -> Vec<Tracer> {
        report.count(self.fed, self.mismatches);
        if self.mismatches > 0 {
            report
                .violations
                .push(format!("forward: {} verdicts differ from their class", self.mismatches));
        }
        let rounds = self.wall.len();
        report.check(rounds >= 5, || format!("forward: only {rounds} measured rounds"));
        let mpps = stats::window_median_rate(&self.work, &self.wall).unwrap_or(f64::NAN) / 1e6;
        report.set(if self.traced { "traced.fwd_mpps" } else { "fwd_mpps" }, mpps);
        println!(
            "forward: {rounds} rounds of {} packets over {} reservations, {mpps:.3} Mpps",
            self.work.first().copied().unwrap_or(0.0),
            self.stream.reservations
        );
        if self.traced {
            let per_shard: Vec<f64> = self
                .batch_ns
                .iter()
                .zip(&self.batch_pkts)
                .map(|(&ns, &pkts)| ns as f64 / pkts.max(1) as f64)
                .collect();
            let batch = stats::median(&per_shard).unwrap_or(f64::NAN);
            report.set("runtime.batch_ns_per_pkt", batch);
            let lens: Vec<usize> = self.stream.shares.iter().map(Vec::len).collect();
            let (lo, hi) = (lens.iter().min().copied(), lens.iter().max().copied());
            let skew = hi.unwrap_or(0) as f64 / lo.unwrap_or(0).max(1) as f64;
            report.set("runtime.shard_skew", skew);
            report.set("runtime.worker_idle_share", stats::median(&self.idle).unwrap_or(f64::NAN));
            let (hits, misses) = self.cache;
            report.set("router.key_cache_hit_ratio", hits as f64 / (hits + misses).max(1) as f64);
            report.set("router.drops_bad_mac", self.bad_mac as f64);
            report.set("bench.feed_ns_per_pkt", feed_floor(&mut self.stream));
            let sum = stage_ladder(&self.stream, report);
            report.set("router.stage_residue_ns", batch - sum);
        }
        self.tracers.into_iter().flatten().collect()
    }
}
