//! Phase `netsim_churn`: the churned QoS/DoS simulation
//! ([`run_churn_scenario`]) for the Hummingbird family on generated
//! ~100-router ring-of-PoPs backbones — a credentialed victim, a
//! credentialed background mesh, 3 link failures on the victim's path, a
//! reroute and an on-path reboot, plus a best-effort flood on the
//! victim's route in the `surge` workload.
//!
//! A run's seed picks [`BACKBONES`] backbones, the first from the seed
//! itself, and the repetitions take them in turn. One backbone's paths
//! make its events cheaper or dearer, and its victim's reroute longer or
//! shorter, than another's; a run over several varies less from seed to
//! seed in both `sim_mev_per_s` and the victim's metrics, which are means
//! over the backbones.
//! Every cycle of a run repeats the scenario in slices between the other
//! phases, for its share of the time; each repetition is one window of
//! `sim_mev_per_s`, and every repetition must reproduce its backbone's
//! first outcome exactly. `run_churn_scenario` builds its backbone,
//! engines and flows itself, so each window includes that set-up as well
//! as the event processing.

use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use hummingbird_dataplane::RouterConfig;
use hummingbird_netsim::{
    run_churn_scenario, ChurnScenarioOutcome, ChurnSpec, EngineFamily, EngineScenario,
};
use std::time::Instant;

const START_NS: u64 = 1_700_000_000 * 1_000_000_000;
/// 25 PoPs × 4 routers.
const POPS: usize = 25;
const ROUTERS_PER_POP: usize = 4;
const BACKGROUND_FLOWS: usize = 256;
const BACKGROUND_CREDENTIAL_KBPS: u64 = 128;
/// Best-effort flood on the victim's route (`surge` only), kbps.
const FLOOD_KBPS: u64 = 20_000;

/// Backbones per run, each from its own seed.
pub const BACKBONES: u64 = 4;

/// The scenarios of a run with `seed`: one per backbone.
pub fn specs(seed: u64, surge: bool) -> Vec<ChurnSpec> {
    (0..BACKBONES).map(|k| spec(seed ^ (k << 56), surge)).collect()
}

/// The scenario's knobs for `seed`.
fn spec(seed: u64, surge: bool) -> ChurnSpec {
    let mut spec = ChurnSpec::new(EngineScenario { family: EngineFamily::Hummingbird, shards: 1 });
    if surge {
        spec = spec.with_flood(FLOOD_KBPS);
    }
    spec.pops = POPS;
    spec.routers_per_pop = ROUTERS_PER_POP;
    spec.seed = seed;
    spec.background_flows = BACKGROUND_FLOWS;
    spec.background_credential_kbps = Some(BACKGROUND_CREDENTIAL_KBPS);
    spec
}

/// The netsim_churn phase across a run's cycles.
pub struct Netsim {
    specs: Vec<ChurnSpec>,
    traced: bool,
    tracer: Option<Tracer>,
    events: Vec<f64>,
    nanos: Vec<u64>,
    /// Each backbone's first outcome, in `specs` order.
    first: Vec<ChurnScenarioOutcome>,
    diverged: u64,
}

impl Netsim {
    /// The phase over `specs`, taken in turn; with `epoch` set it records
    /// spans.
    pub fn new(specs: Vec<ChurnSpec>, epoch: Option<Instant>) -> Self {
        assert!(!specs.is_empty(), "netsim_churn needs a scenario");
        Netsim {
            specs,
            traced: epoch.is_some(),
            tracer: epoch.map(|e| Tracer::new(e, "netsim")),
            events: Vec::new(),
            nanos: Vec::new(),
            first: Vec::new(),
            diverged: 0,
        }
    }

    /// Repeats the scenario for about `seconds` (at least once); every
    /// repetition must reproduce its backbone's first outcome exactly. It
    /// stops once another repetition would overrun `seconds` by more than
    /// stopping falls short of it, so slices do not add up to more than
    /// the phase's share.
    pub fn cycle(&mut self, seconds: f64) {
        let cfg = RouterConfig::default();
        let start = Instant::now();
        loop {
            let rep = self.events.len();
            let backbone = rep % self.specs.len();
            if let Some(t) = self.tracer.as_mut() {
                t.enter("netsim.run_churn_scenario", rep as u64);
            }
            let t0 = Instant::now();
            let out = run_churn_scenario(cfg, &self.specs[backbone], START_NS);
            let rep_s = t0.elapsed().as_secs_f64();
            self.nanos.push((rep_s * 1e9) as u64);
            if let Some(t) = self.tracer.as_mut() {
                t.exit();
            }
            self.events.push(out.events as f64);
            match self.first.get(backbone) {
                None => self.first.push(out),
                Some(first) => self.diverged += u64::from(*first != out),
            }
            if start.elapsed().as_secs_f64() + rep_s / 2.0 >= seconds {
                break;
            }
        }
    }

    /// Checks the outcomes and records the phase's metrics; returns its
    /// tracer. The victim's metrics are means, and the counts sums, over
    /// the backbones.
    pub fn finish(self, report: &mut Report) -> Vec<Tracer> {
        let reps = self.events.len() as u64;
        let backbones = self.specs.len();
        if self.first.len() < backbones {
            report.violation(format!(
                "netsim_churn: {} of {backbones} backbones ran",
                self.first.len()
            ));
            return Vec::new();
        }
        report.count(reps, self.diverged);
        report.check(self.diverged == 0, || {
            format!("netsim_churn: {} of {reps} repetitions differ from the first", self.diverged)
        });
        let (mut stranded, mut rerouted, mut events, mut hits, mut misses) = (0, 0, 0, 0, 0);
        for (k, out) in self.first.iter().enumerate() {
            let failures = out.report.link_failures();
            report.check(failures >= 3, || {
                format!("netsim_churn: backbone {k}: only {failures} link failures")
            });
            let r = out.report.total_rerouted();
            report.check(r > 0, || format!("netsim_churn: backbone {k}: no flow was rerouted"));
            stranded += out.report.total_stranded();
            rerouted += r;
            events += out.events;
            hits += out.entry_stats.key_cache_hits;
            misses += out.entry_stats.key_cache_misses;
        }
        report.check(stranded == 0, || format!("netsim_churn: {stranded} flows stranded"));

        let mev = stats::window_median_rate(&self.events, &self.nanos).unwrap_or(f64::NAN) / 1e6;
        report.set(if self.traced { "traced.sim_mev_per_s" } else { "sim_mev_per_s" }, mev);
        let mean = |f: fn(&ChurnScenarioOutcome) -> f64| {
            self.first.iter().map(f).sum::<f64>() / backbones as f64
        };
        let delivery = mean(|o| o.victim_recovery.delivery_ratio());
        report.set("victim_delivery", delivery);
        report.set("victim_recovery_ms", mean(|o| o.victim_recovery.mean_latency_ms()));
        println!(
            "netsim_churn: {reps} runs over {backbones} backbones of {} routers, {events} events \
             per pass, {mev:.3} Mev/s, victim delivery {delivery:.4} after the reroute",
            self.first[0].routers
        );
        if self.traced {
            report.set("netsim.events", events as f64);
            report.set("netsim.rerouted", rerouted as f64);
            report.set("netsim.stranded", stranded as f64);
            report.set(
                "router.netsim_key_cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
            );
        }
        self.tracer.into_iter().collect()
    }
}
