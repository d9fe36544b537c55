//! The repository benchmark.
//!
//! One command runs four phases on inputs generated from `--seed` and
//! checks each phase's outputs:
//!
//! * `forward` — closed-loop forwarding of a 100 B packet stream on two
//!   worker engines (router, crypto and runtime layers);
//! * `udp_chain` — an open-loop gateway → one `SocketRouter` → sink
//!   chain over real loopback UDP (testbed link and node layers, source);
//! * `market` — admission, renewal and auction clearing on the control
//!   plane (control, ledger and coloring layers);
//! * `netsim_churn` — the churned QoS/DoS simulation on a generated
//!   backbone (netsim's event core with real engines per hop).
//!
//! `--workload` picks the input regime all four phases run under
//! (`steady` or `surge`, see [`cli::Workload`]). An untraced run prints
//! every end-to-end metric; a traced run (`--trace 1`) times calls into
//! each layer, prints every per-layer metric and writes its spans under
//! `perfbench/traces/`. The last line of standard output is one JSON
//! object with the keys `correct`, `attempted`, `failed` and `metrics`;
//! any failed check makes the exit code nonzero.
//!
//! Run from the repository root:
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload steady --seed 1`

mod cli;
mod forward;
mod host;
mod market;
mod netsim_churn;
mod report;
mod stats;
mod trace;
mod udp_chain;

use cli::Workload;
use report::{Report, END_TO_END, PER_LAYER};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;
use trace::Tracer;

/// A run is a number of cycles, each running every phase for its share
/// of the cycle, so each phase samples the whole run rather than one
/// stretch of it.
const CYCLE_S: f64 = 2.5;
const MAX_CYCLES: u64 = 24;
const SHARE_FORWARD: f64 = 0.20;
const SHARE_UDP: f64 = 0.25;
const SHARE_MARKET: f64 = 0.20;
const SHARE_NETSIM: f64 = 0.35;
/// netsim_churn's share of a cycle is run in this many slices, one after
/// each of the other three phases. The host's speed for it drifts over
/// about a second, so slices spread over the cycle sample more of that
/// drift than one block would.
const NETSIM_SLICES: u32 = 3;

/// The inputs of the phases that use set-up state.
struct Inputs {
    stream: forward::Stream,
    chain: udp_chain::Chain,
    world: market::World,
}

/// Builds every phase's inputs; returns them and the seconds each phase's
/// set-up took (forward, udp_chain, market). The netsim_churn scenario
/// builds its own topology inside every repetition, so it has no set-up
/// here.
fn set_up(seed: u64, surge: bool, udp_segment_s: f64) -> (Inputs, [f64; 3]) {
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = Instant::now();
        let v = f();
        (v, t0.elapsed().as_secs_f64())
    }
    let population = if surge { 100_000 } else { 4_096 };
    let (stream, fwd_s) = timed(|| forward::build_stream(seed, population));
    let (chain, udp_s) = timed(|| udp_chain::setup(seed, surge, udp_segment_s));
    let (world, market_s) = timed(|| market::setup(seed));
    (Inputs { stream, chain, world }, [fwd_s, udp_s, market_s])
}

/// Runs `f` while a second thread spins on the other hardware thread.
///
/// On a 2-thread host an idle hardware thread is lent to other tenants,
/// whose load on the shared core swung single-threaded phases by up to a
/// third from one second to the next. Holding it makes that contention
/// constant, so the phases measure their own code rather than the
/// neighbours' duty cycle. The spinner runs only around single-threaded
/// work; it never overlaps the two forward workers or the three threads of
/// the UDP chain.
fn with_sibling_held<T>(f: impl FnOnce() -> T) -> T {
    struct Release<'a>(&'a AtomicBool);
    impl Drop for Release<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        // Released on return and on unwind, so the scope can join.
        let _release = Release(&stop);
        f()
    })
}

fn write_traces(workload: Workload, seed: u64, tracers: &[Tracer]) -> std::io::Result<String> {
    use std::io::Write;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{seed}.jsonl", workload.name()));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for t in tracers {
        t.write_jsonl(&mut out)?;
    }
    out.flush()?;
    Ok(path.display().to_string())
}

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let stamp = host::HostStamp::collect();
    // Measured, not modeled: a phase that needs more worker threads than
    // the host has is refused, never estimated.
    if stamp.hardware_threads < forward::WORKERS {
        eprintln!(
            "perfbench: the forward phase needs {} hardware threads, this host has {}",
            forward::WORKERS,
            stamp.hardware_threads
        );
        std::process::exit(3);
    }
    println!(
        "perfbench: workload {}, seed {}, {} s",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    println!("host: {}", stamp.json());

    let cycles = ((args.seconds as f64 / CYCLE_S) as u64).clamp(1, MAX_CYCLES);
    let cycle_s = args.seconds as f64 / cycles as f64;
    let epoch = args.trace.then(Instant::now);
    let surge = args.workload == Workload::Surge;
    let mut report = Report::default();

    // Set-up is timed once before the first cycle and once more in every
    // cycle, with the repeat's inputs discarded: `setup_s` is the median
    // of these, so like the phases it samples the whole run.
    let udp_segment_s = cycle_s * SHARE_UDP;
    let (inputs, first) = with_sibling_held(|| set_up(args.seed, surge, udp_segment_s));
    let mut setup_secs = vec![first];
    let mut forward = forward::Forward::new(inputs.stream, epoch);
    let mut udp = udp_chain::UdpChain::new(inputs.chain, epoch);
    let mut market = market::Market::new(inputs.world, epoch);
    let mut netsim = netsim_churn::Netsim::new(netsim_churn::specs(args.seed, surge), epoch);
    let netsim_slice_s = cycle_s * SHARE_NETSIM / f64::from(NETSIM_SLICES);
    for _ in 0..cycles {
        forward.cycle(cycle_s * SHARE_FORWARD, &mut report);
        with_sibling_held(|| netsim.cycle(netsim_slice_s));
        udp.cycle(&mut report);
        with_sibling_held(|| {
            netsim.cycle(netsim_slice_s);
            market.cycle(cycle_s * SHARE_MARKET, &mut report);
            netsim.cycle(netsim_slice_s);
            let (spare, secs) = set_up(args.seed, surge, udp_segment_s);
            setup_secs.push(secs);
            drop(spare);
        });
    }
    let column = |i: usize| {
        stats::median(&setup_secs.iter().map(|s| s[i]).collect::<Vec<_>>()).expect("set up")
    };
    report.set("bench.setup_forward_s", column(0));
    report.set("bench.setup_udp_chain_s", column(1));
    report.set("bench.setup_market_s", column(2));
    let totals: Vec<f64> = setup_secs.iter().map(|s| s.iter().sum()).collect();
    report.set("setup_s", stats::median(&totals).expect("set up"));
    let mut tracers = forward.finish(&mut report);
    tracers.extend(udp.finish(&mut report));
    tracers.extend(market.finish(&mut report));
    tracers.extend(netsim.finish(&mut report));

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        match write_traces(args.workload, args.seed, &tracers) {
            Ok(path) => println!(
                "{} spans written to {path}",
                tracers.iter().map(Tracer::span_count).sum::<u64>()
            ),
            Err(e) => report.violation(format!("writing spans: {e}")),
        }
    }
    print!("{}", report.table(names));
    let line = report.result_line(names);
    for v in report.violations.iter().take(20) {
        eprintln!("perfbench: FAIL {v}");
    }
    if report.violations.len() > 20 {
        eprintln!("perfbench: ... {} violations in all", report.violations.len());
    }
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}
