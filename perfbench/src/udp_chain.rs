//! Phase `udp_chain`: an open-loop gateway → one Hummingbird
//! [`SocketRouter`] → sink chain exchanging real UDP datagrams over
//! loopback through credit-windowed links.
//!
//! Each cycle of a run stands the chain up afresh and drives one segment
//! of a seeded schedule of due times: reserved and best-effort base
//! flows at a fixed rate well below saturation and, in the `surge`
//! workload, a best-effort crowd that doubles the offered rate during the
//! middle half of the segment. The gateway sleeps until each due time and
//! never spins, so no more than two threads are runnable: the router and
//! the sink block in `recv`. Every packet carries its due time and the
//! sink measures latency from it, so the gateway's wake-up lag and any
//! stall count as latency; how late the gateway ran is reported beside
//! it. Percentiles are nearest-rank over the sink's raw samples, one set
//! per segment; each metric is the median over segments.

use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use hummingbird_dataplane::{
    Datapath, DatapathStats, RouterConfig, ShardedRouter, SourceGenerator, Verdict, WaitStrategy,
};
use hummingbird_netsim::{EngineFamily, LinearTopology, LinkSpec};
use hummingbird_testbed::{
    now_unix_ms, now_unix_ns, AckSender, CreditedSender, NodeStats, PayloadHeader, SocketRouter,
    BEST_EFFORT, KIND_DATA, KIND_FIN, RESERVED, RESERVED_BW_KBPS,
};
use hummingbird_wire::{IsdAs, PacketView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::UdpSocket;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Reserved base flows.
const RESERVED_FLOWS: usize = 4;
/// Best-effort base flows.
const BE_FLOWS: usize = 4;
/// Best-effort crowd flows (`surge` only): as many as all base flows.
const CROWD_FLOWS: usize = RESERVED_FLOWS + BE_FLOWS;
/// Mean packets per second of each flow.
const FLOW_PPS: u64 = 1_000;
/// L4 payload per packet.
const PAYLOAD: usize = 200;
const _: () = assert!(PAYLOAD >= hummingbird_testbed::PAYLOAD_HDR_LEN);
/// Credit window and ack cadence of every link (the testbed's defaults).
const WINDOW: usize = 64;
const ACK_EVERY: u64 = 16;
/// A socket or link silent this long fails the phase.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Destination AS of every flow.
const DST: IsdAs = IsdAs::new(2, 0xB);
/// Largest datagram the sink accepts.
const MAX_DATAGRAM: usize = 2048;

/// The chain's inputs, generated at set-up.
pub struct Chain {
    topo: LinearTopology,
    generators: Vec<SourceGenerator>,
    flow_reserved: Vec<bool>,
    /// `(due ns after the segment start, flow)`, ascending.
    schedule: Vec<(u64, u32)>,
}

fn flow_src(f: usize) -> IsdAs {
    IsdAs::new(1, 0x100 + f as u64)
}

/// Builds the one-router topology, per-flow generators with reserved
/// credentials, and the seeded send schedule of one `segment_s`-long
/// segment.
pub fn setup(seed: u64, surge: bool, segment_s: f64) -> Chain {
    let cfg = RouterConfig::default();
    let start_ns = now_unix_ns();
    let mut topo = LinearTopology::build_seeded(1, LinkSpec::default(), start_ns, cfg, seed as u8);
    let flows = RESERVED_FLOWS + BE_FLOWS + if surge { CROWD_FLOWS } else { 0 };
    let flow_reserved: Vec<bool> = (0..flows).map(|f| f < RESERVED_FLOWS).collect();
    let now_s = start_ns / 1_000_000_000;
    let generators = flow_reserved
        .iter()
        .enumerate()
        .map(|(f, &reserved)| {
            let mut gen = topo.make_generator(flow_src(f), DST);
            if reserved {
                let cred = topo.make_family_credential(
                    EngineFamily::Hummingbird,
                    0,
                    flow_src(f),
                    RESERVED_BW_KBPS,
                    now_s,
                );
                gen.attach_reservation(0, cred).expect("hop 0 interfaces match");
            }
            gen
        })
        .collect();

    // Poisson arrivals per flow: with exponential gaps, how often a packet
    // falls due while the gateway is still waking for an earlier one is a
    // property of the rates, not of a seed's particular phase offsets.
    // Crowd flows send only during the middle half of the segment.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0DD5_C4ED_0000_0002);
    let mean_gap_ns = 1e9 / FLOW_PPS as f64;
    let mut gap = || (-(1.0 - rng.gen::<f64>()).ln() * mean_gap_ns) as u64;
    let end_ns = (segment_s * 1e9) as u64;
    let mut schedule = Vec::new();
    for f in 0..flows {
        let (from, to) = if f < RESERVED_FLOWS + BE_FLOWS {
            (0, end_ns)
        } else {
            (end_ns / 4, end_ns - end_ns / 4)
        };
        let mut due = from + gap();
        while due < to {
            schedule.push((due, f as u32));
            due += gap();
        }
    }
    schedule.sort_unstable();
    Chain { topo, generators, flow_reserved, schedule }
}

/// Where a [`TimedEngine`] leaves its counters and tracer when dropped.
type EngineSlot = Arc<Mutex<Option<(DatapathStats, Option<Tracer>)>>>;

/// Engine wrapper handed to the [`SocketRouter`]: forwards every call,
/// optionally times `process`, and hands its counters and tracer back
/// when the router drops it at the end of a segment.
struct TimedEngine {
    inner: Box<dyn Datapath + Send>,
    tracer: Option<Tracer>,
    done: EngineSlot,
}

fn flow_seq_id(flow: u32, seq: u64) -> u64 {
    (u64::from(flow) << 40) | seq
}

fn payload_header(pkt: &[u8]) -> Option<PayloadHeader> {
    let view = PacketView::new_checked(pkt).ok()?;
    if view.wire_len().ok()? != pkt.len() {
        return None;
    }
    PayloadHeader::read(view.payload().ok()?)
}

impl Datapath for TimedEngine {
    fn process(&mut self, pkt: &mut [u8], now_ns: u64) -> Verdict {
        match self.tracer.as_mut() {
            None => self.inner.process(pkt, now_ns),
            Some(t) => {
                let id = payload_header(pkt).map_or(u64::MAX, |h| flow_seq_id(h.flow_id, h.seq));
                t.enter("router.process", id);
                let verdict = self.inner.process(pkt, now_ns);
                t.exit();
                verdict
            }
        }
    }
    fn engine_name(&self) -> &'static str {
        self.inner.engine_name()
    }
    fn stats(&self) -> DatapathStats {
        self.inner.stats()
    }
}

impl Drop for TimedEngine {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.done.lock() {
            *slot = Some((self.inner.stats(), self.tracer.take()));
        }
    }
}

/// What the benchmark's sink measured in one segment.
struct SinkOut {
    /// Raw latencies, due time → receipt, ns, per class.
    latency: [Vec<u64>; 2],
    flow_delivered: Vec<u64>,
    parse_drops: u64,
    tracer: Option<Tracer>,
}

fn sink(
    data: UdpSocket,
    mut acks: AckSender,
    flow_reserved: &[bool],
    epoch: Instant,
    mut tracer: Option<Tracer>,
) -> std::io::Result<SinkOut> {
    let mut out = SinkOut {
        latency: [Vec::new(), Vec::new()],
        flow_delivered: vec![0; flow_reserved.len()],
        parse_drops: 0,
        tracer: None,
    };
    let mut buf = [0u8; MAX_DATAGRAM];
    data.set_read_timeout(Some(TIMEOUT))?;
    loop {
        let n = data.recv(&mut buf)?;
        let now_ns = epoch.elapsed().as_nanos() as u64;
        if n >= 1 && buf[0] == KIND_FIN {
            acks.flush()?;
            break;
        }
        acks.on_data()?;
        let hdr = (n >= 1 && buf[0] == KIND_DATA).then(|| payload_header(&buf[1..n])).flatten();
        let Some(hdr) = hdr else {
            out.parse_drops += 1;
            continue;
        };
        let Some(&reserved) = flow_reserved.get(hdr.flow_id as usize) else {
            out.parse_drops += 1;
            continue;
        };
        let class = if reserved { RESERVED } else { BEST_EFFORT };
        out.latency[class].push(now_ns.saturating_sub(hdr.stamp_ns));
        out.flow_delivered[hdr.flow_id as usize] += 1;
        if let Some(t) = tracer.as_mut() {
            t.record("udp.packet", flow_seq_id(hdr.flow_id, hdr.seq), hdr.stamp_ns, now_ns);
        }
    }
    out.tracer = tracer;
    Ok(out)
}

/// What the gateway did in one segment.
struct GatewayOut {
    sent: Vec<u64>,
    late_ns: Vec<u64>,
    inflight_max: u64,
    tracer: Option<Tracer>,
}

/// Sends one segment: each packet is generated and sent at its due time
/// (`base_ns` + schedule offset on `epoch`'s clock), sleeping in between.
fn gateway(
    chain: &mut Chain,
    seqs: &mut [u64],
    mut tx: CreditedSender,
    epoch: Instant,
    base_ns: u64,
    mut tracer: Option<Tracer>,
) -> Result<GatewayOut, String> {
    let mut out = GatewayOut {
        sent: vec![0; chain.generators.len()],
        late_ns: Vec::with_capacity(chain.schedule.len()),
        inflight_max: 0,
        tracer: None,
    };
    let mut payload = vec![0u8; PAYLOAD];
    let mut frame = Vec::with_capacity(1 + PAYLOAD + 256);
    for &(offset, f) in &chain.schedule {
        let due = base_ns + offset;
        let now = epoch.elapsed().as_nanos() as u64;
        if due > now {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        let fi = f as usize;
        out.late_ns.push((epoch.elapsed().as_nanos() as u64).saturating_sub(due));
        PayloadHeader { flow_id: f, seq: seqs[fi], stamp_ns: due }.write(&mut payload);
        let id = flow_seq_id(f, seqs[fi]);
        let span =
            if chain.flow_reserved[fi] { "source.generate.rsv" } else { "source.generate.be" };
        if let Some(t) = tracer.as_mut() {
            t.enter(span, id);
        }
        let pkt = chain.generators[fi]
            .generate(&payload, now_unix_ms())
            .map_err(|e| format!("flow {f}: generate failed: {e:?}"))?;
        if let Some(t) = tracer.as_mut() {
            t.exit();
        }
        frame.clear();
        frame.push(KIND_DATA);
        frame.extend_from_slice(&pkt);
        if let Some(t) = tracer.as_mut() {
            t.enter("link.send_data", id);
        }
        tx.send_data(&frame).map_err(|e| format!("gateway send: {e}"))?;
        if let Some(t) = tracer.as_mut() {
            t.exit();
        }
        seqs[fi] += 1;
        out.sent[fi] += 1;
        out.inflight_max = out.inflight_max.max(tx.sent - tx.acked);
    }
    tx.send_fin().map_err(|e| format!("gateway FIN: {e}"))?;
    tx.drain().map_err(|e| format!("gateway drain: {e}"))?;
    out.tracer = tracer;
    Ok(out)
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// The udp_chain phase across a run's cycles.
pub struct UdpChain {
    chain: Chain,
    /// The phase clock; the run's trace clock when tracing.
    epoch: Instant,
    traced: bool,
    /// Next sequence number per flow, across segments.
    seqs: Vec<u64>,
    /// Per segment: reserved p50, reserved p99, best-effort p99 (µs).
    rsv_p50: Vec<f64>,
    rsv_p99: Vec<f64>,
    be_p99: Vec<f64>,
    samples: [usize; 2],
    late_ns: Vec<u64>,
    inflight_max: u64,
    parse_drops: u64,
    engine_drops: u64,
    cache: (u64, u64),
    tracers: [Option<Tracer>; 3],
}

impl UdpChain {
    /// The phase over `chain`; with `epoch` set it records spans.
    pub fn new(chain: Chain, epoch: Option<Instant>) -> Self {
        let tracer = |name| epoch.map(|e| Tracer::new(e, name));
        UdpChain {
            seqs: vec![0; chain.generators.len()],
            chain,
            epoch: epoch.unwrap_or_else(Instant::now),
            traced: epoch.is_some(),
            rsv_p50: Vec::new(),
            rsv_p99: Vec::new(),
            be_p99: Vec::new(),
            samples: [0; 2],
            late_ns: Vec::new(),
            inflight_max: 0,
            parse_drops: 0,
            engine_drops: 0,
            cache: (0, 0),
            tracers: [tracer("udp_gateway"), tracer("udp_router"), tracer("udp_sink")],
        }
    }

    /// Runs one segment on a freshly built chain and checks exact
    /// conservation.
    pub fn cycle(&mut self, report: &mut Report) {
        if let Err(e) = self.segment(report) {
            report.violation(format!("udp_chain: {e}"));
        }
    }

    fn segment(&mut self, report: &mut Report) -> Result<(), String> {
        let err = |e: std::io::Error| e.to_string();
        let cfg = RouterConfig::default();
        let router_sock = UdpSocket::bind("127.0.0.1:0").map_err(err)?;
        let sink_sock = UdpSocket::bind("127.0.0.1:0").map_err(err)?;
        let link = |peer: &UdpSocket| -> Result<CreditedSender, String> {
            let addr = peer.local_addr().map_err(err)?;
            CreditedSender::new(addr, WINDOW, WaitStrategy::Backoff, TIMEOUT).map_err(err)
        };
        let gw_tx = link(&router_sock)?;
        let router_tx = link(&sink_sock)?;
        let router_acks =
            AckSender::new(gw_tx.ctrl_addr().map_err(err)?, ACK_EVERY).map_err(err)?;
        let sink_acks =
            AckSender::new(router_tx.ctrl_addr().map_err(err)?, ACK_EVERY).map_err(err)?;
        let engine = self.chain.topo.make_family_hop_engine(EngineFamily::Hummingbird, 0, cfg);
        let done: EngineSlot = Arc::new(Mutex::new(None));
        let [gw_tracer, router_tracer, sink_tracer] = std::mem::take(&mut self.tracers);
        let router = SocketRouter {
            data: router_sock,
            engine: Box::new(TimedEngine {
                inner: Box::new(ShardedRouter::new(
                    vec![engine],
                    cfg.policer_slots,
                    EngineFamily::Hummingbird.steering(),
                )),
                tracer: router_tracer,
                done: Arc::clone(&done),
            }),
            next: router_tx,
            acks: router_acks,
            flow_reserved: self.chain.flow_reserved.clone(),
            timeout: TIMEOUT,
        };
        let flow_reserved = self.chain.flow_reserved.clone();
        let epoch = self.epoch;
        let base_ns = epoch.elapsed().as_nanos() as u64 + 2_000_000;
        let (chain, seqs) = (&mut self.chain, &mut self.seqs);
        let (gw, router_stats, sink_out) = std::thread::scope(|scope| {
            let router = scope.spawn(move || router.run());
            let sink =
                scope.spawn(|| sink(sink_sock, sink_acks, &flow_reserved, epoch, sink_tracer));
            let gw = gateway(chain, seqs, gw_tx, epoch, base_ns, gw_tracer);
            let router = router.join().map_err(|_| "router panicked".to_string());
            let sink = sink.join().map_err(|_| "sink panicked".to_string());
            (gw, router, sink)
        });
        let gw = gw?;
        let router_stats: NodeStats = router_stats?.map_err(|e| format!("router: {e}"))?;
        let sink_out = sink_out?.map_err(|e| format!("sink: {e}"))?;
        let (engine_stats, router_tracer) = done
            .lock()
            .map_err(|_| "engine slot poisoned".to_string())?
            .take()
            .ok_or_else(|| "router never released its engine".to_string())?;
        self.tracers = [gw.tracer, router_tracer, sink_out.tracer];

        // Exact conservation: globally, per class and per flow.
        let parse_drops = router_stats.parse_drops + sink_out.parse_drops;
        let engine_drops = router_stats.engine_dropped();
        report.count(gw.sent.iter().sum(), 0);
        for v in conservation_violations(
            &gw.sent,
            &sink_out.flow_delivered,
            &router_stats.flow_drops,
            &self.chain.flow_reserved,
            parse_drops,
        ) {
            report.violation(format!("udp_chain: {v}"));
        }
        report.check(engine_drops == 0, || format!("udp_chain: {engine_drops} engine drops"));
        self.parse_drops += parse_drops;
        self.engine_drops += engine_drops;
        self.cache.0 += engine_stats.key_cache_hits;
        self.cache.1 += engine_stats.key_cache_misses;
        self.inflight_max = self.inflight_max.max(gw.inflight_max);
        self.late_ns.extend(gw.late_ns);

        // Per-segment percentiles from the raw samples.
        let [mut rsv, mut be] = sink_out.latency;
        rsv.sort_unstable();
        be.sort_unstable();
        self.samples[RESERVED] += rsv.len();
        self.samples[BEST_EFFORT] += be.len();
        for (name, samples, p, out) in [
            ("reserved p50", &rsv, 0.50, &mut self.rsv_p50),
            ("reserved p99", &rsv, 0.99, &mut self.rsv_p99),
            ("best-effort p99", &be, 0.99, &mut self.be_p99),
        ] {
            match stats::percentile(samples, p) {
                Some(v) => out.push(us(v)),
                None => report.violation(format!(
                    "udp_chain: {name} has fewer than {} of {} samples beyond it",
                    stats::MIN_BEYOND,
                    samples.len()
                )),
            }
        }
        Ok(())
    }

    /// Records the phase's metrics; returns its tracers.
    pub fn finish(mut self, report: &mut Report) -> Vec<Tracer> {
        let traced = self.traced;
        let mut metric = |name: &'static str, traced_name: &'static str, per_segment: &[f64]| {
            let v = stats::median(per_segment).unwrap_or(f64::NAN);
            report.set(if traced { traced_name } else { name }, v);
            v
        };
        let rsv_p50 = metric("udp_rsv_p50_us", "traced.udp_rsv_p50_us", &self.rsv_p50);
        let rsv_p99 = stats::median(&self.rsv_p99).unwrap_or(f64::NAN);
        let be_p99 = stats::median(&self.be_p99).unwrap_or(f64::NAN);
        report.set("udp_rsv_p99_us", rsv_p99);
        report.set("udp_be_p99_us", be_p99);
        let [n_rsv, n_be] = self.samples;
        println!(
            "udp_chain: {} segments; reserved p50 {rsv_p50:.3} us and p99 {rsv_p99:.3} us \
             (n={n_rsv}), best-effort p99 {be_p99:.3} us (n={n_be}); medians over segments",
            self.rsv_p50.len()
        );
        self.late_ns.sort_unstable();
        if traced {
            let [Some(gw_t), Some(router_t), _] = &self.tracers else {
                report.violation("udp_chain: a segment failed before returning its spans".into());
                return self.tracers.into_iter().flatten().collect();
            };
            let gen_rsv = gw_t.agg("source.generate.rsv").mean_ns();
            let gen_be = gw_t.agg("source.generate.be").mean_ns();
            let send = gw_t.agg("link.send_data").mean_ns();
            let process = router_t.agg("router.process").mean_ns();
            let late_p50 = stats::percentile(&self.late_ns, 0.5).map_or(f64::NAN, us);
            report.set("source.generate_rsv_ns", gen_rsv);
            report.set("source.generate_be_ns", gen_be);
            report.set("link.send_ns", send);
            report.set("link.inflight_max", self.inflight_max as f64);
            report.set("router.process_ns", process);
            let (h, m) = self.cache;
            report.set("router.udp_key_cache_hit_ratio", h as f64 / (h + m).max(1) as f64);
            report
                .set("node.hop_residue_us", rsv_p50 - late_p50 - (gen_rsv + send + process) / 1e3);
            report.set("node.parse_drops", self.parse_drops as f64);
            report.set("node.engine_drops", self.engine_drops as f64);
            report.set("bench.gen_late_p50_us", late_p50);
            let late_p99 = stats::percentile(&self.late_ns, 0.99).map_or(f64::NAN, us);
            report.set("bench.gen_late_p99_us", late_p99);
            report.set("bench.udp_rsv_samples", n_rsv as f64);
            report.set("bench.udp_be_samples", n_be as f64);
        }
        self.tracers.into_iter().flatten().collect()
    }
}

/// Exact packet conservation over one chain run: for every flow, its
/// class and the whole run, `sent = delivered + engine drops`, and no
/// datagram failed to parse (parse drops are classless, so any makes the
/// per-class identities unprovable).
pub fn conservation_violations(
    sent: &[u64],
    delivered: &[u64],
    engine_drops: &[u64],
    reserved: &[bool],
    parse_drops: u64,
) -> Vec<String> {
    let mut v = Vec::new();
    if parse_drops != 0 {
        v.push(format!("{parse_drops} datagrams failed to parse"));
    }
    let (mut class_sent, mut class_accounted) = ([0u64; 2], [0u64; 2]);
    for (f, &s) in sent.iter().enumerate() {
        let (d, e) = (delivered.get(f).copied(), engine_drops.get(f).copied());
        let accounted = d.unwrap_or(0) + e.unwrap_or(0);
        if d.is_none() || e.is_none() || s != accounted {
            v.push(format!("flow {f}: sent {s} != delivered {d:?} + engine drops {e:?}"));
        }
        let class = if reserved.get(f).copied().unwrap_or(false) { RESERVED } else { BEST_EFFORT };
        class_sent[class] += s;
        class_accounted[class] += accounted;
    }
    for class in [RESERVED, BEST_EFFORT] {
        if class_sent[class] != class_accounted[class] {
            v.push(format!(
                "class {class}: sent {} != delivered + engine drops {}",
                class_sent[class], class_accounted[class]
            ));
        }
    }
    let total_sent: u64 = sent.iter().sum();
    let total_accounted: u64 = delivered.iter().chain(engine_drops).sum::<u64>() + parse_drops;
    if total_sent != total_accounted {
        v.push(format!(
            "global: sent {total_sent} != delivered + engine drops + parse drops {total_accounted}"
        ));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_holds_for_a_clean_run() {
        let v = conservation_violations(&[10, 5], &[9, 5], &[1, 0], &[true, false], 0);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn conservation_catches_a_lost_packet() {
        // Flow 1 sent 5, the sink saw 4, no engine drop: one packet lost.
        let v = conservation_violations(&[10, 5], &[9, 4], &[1, 0], &[true, false], 0);
        assert!(v.iter().any(|s| s.starts_with("flow 1:")), "{v:?}");
        assert!(v.iter().any(|s| s.starts_with("class 1:")), "{v:?}");
        assert!(v.iter().any(|s| s.starts_with("global:")), "{v:?}");
        assert!(!v.iter().any(|s| s.starts_with("flow 0:")), "{v:?}");
    }

    #[test]
    fn conservation_rejects_parse_drops_and_missing_flows() {
        let v = conservation_violations(&[3], &[3], &[0], &[true], 1);
        assert!(v.iter().any(|s| s.contains("failed to parse")), "{v:?}");
        let v = conservation_violations(&[3, 2], &[3], &[0, 2], &[true, true], 0);
        assert!(v.iter().any(|s| s.starts_with("flow 1:")), "{v:?}");
    }
}
