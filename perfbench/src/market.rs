//! Phase `market`: the asset-based control plane, one client thread, no
//! data plane. Every cycle of a run adds admission waves, renewal
//! windows and clearing rounds to one ledger; each rate is the median
//! over all of its windows in the run.
//!
//! * admit — issue an ingress/egress asset pair, list both, buy and
//!   redeem the path, let the AS process the requests, collect the
//!   sealed deliveries and sweep them; every 8th purchase is a
//!   time-split of a wider asset. One wave of reservations per client is
//!   one window of `admit_per_s`.
//! * renew — the O(1) renewal path: each client posts its whole
//!   portfolio in one request transaction and the AS serves it in one
//!   `process_renewals` transaction (one window of `renew_per_s`).
//! * clear — rounds of sealed-bid auctions (create, commit, close,
//!   reveal) settled by one `ClearingEngine::clear_epoch` per round (one
//!   window of `clear_per_s`).
//!
//! Reservations are admitted in eras. An era's reservations all start at
//! the era's base time. When an era holds half the ResID space, its
//! clients retire and a new era begins after the last of its renewals
//! ends. The new era's reservations overlap none of the old ones, so the
//! allocator may reuse their ResIDs, and the expired ones are pruned from
//! it. The ResIDs a run needs therefore do not grow with its length or
//! with the admission rate.
//!
//! Every delivery and renewal is key-checked against the border
//! router's independent `A_K` derivation, off the clock; at the end the
//! whole ledger is scanned for bandwidth×time and coin conservation.

use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use hummingbird_control::auction::{TAG_AUCTION, TAG_BID};
use hummingbird_control::pki::TrustAnchors;
use hummingbird_control::types::TAG_ASSET;
use hummingbird_control::{
    bid_commitment, AsService, BandwidthAsset, ClearingEngine, Client, ControlPlane, Direction,
    PurchaseSpec,
};
use hummingbird_crypto::sig::SecretKey;
use hummingbird_dataplane::{ShardMap, Steering};
use hummingbird_ledger::{Address, ObjectId};
use hummingbird_wire::IsdAs;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::Instant;

const HOUR: u64 = 3600;
/// Purchased bandwidth per reservation, kbps.
const BW_KBPS: u64 = 1000;
/// Reservations per admission wave (one client each).
const WAVE: u64 = 250;
/// Renewal fee per renewal, MIST.
const RENEW_FEE: u64 = 100;
/// Auctions per clearing round and their reserve price.
const AUCTIONS: u64 = 32;
const RESERVE_PRICE: u64 = 500;
/// Bidders per auction.
const BIDDERS: usize = 4;
/// ResID space of the ingress interface, split over `SHARDS` ranges.
const RES_ID_CAP: u32 = 1 << 18;
/// The first era's base time, s: an hour boundary in 2023. Every base
/// time a run reaches has ten digits, like this one, so the gas of an
/// admission, which grows with the digits its asset's display text
/// needs, is the same in every era.
const FIRST_ERA: u64 = 1_700_006_400;
/// Auction assets start this long after an era's base time.
const AUCTION_OFFSET: u64 = 3 * HOUR;
const SHARDS: usize = 8;
const INGRESS_IF: u16 = 1;
const EGRESS_IF: u16 = 2;
/// Sub-phase shares of the phase's seconds.
const SHARE_ADMIT: f64 = 0.5;
const SHARE_RENEW: f64 = 0.25;

/// The control plane after set-up: a registered AS with a marketplace.
pub struct World {
    cp: ControlPlane,
    service: AsService,
    market: ObjectId,
    rng: StdRng,
    bidders: Vec<Address>,
    res_id_cap: u32,
}

fn asset(dir: Direction, interface: u16, start: u64, end: u64) -> BandwidthAsset {
    BandwidthAsset {
        as_id: IsdAs::new(1, 0x1_0001),
        bandwidth_kbps: BW_KBPS,
        start_time: start,
        expiry_time: end,
        interface,
        direction: dir,
        time_granularity: 60,
        min_bandwidth_kbps: 100,
    }
}

fn bwt(a: &BandwidthAsset) -> u128 {
    u128::from(a.bandwidth_kbps) * u128::from(a.expiry_time - a.start_time)
}

/// Registers the AS (certificate, steering-aligned ResID ranges), opens
/// its marketplace and funds the bidders.
pub fn setup(seed: u64) -> World {
    setup_with_res_ids(seed, RES_ID_CAP)
}

/// [`setup`] with `res_id_cap` ResIDs on the ingress interface.
fn setup_with_res_ids(seed: u64, res_id_cap: u32) -> World {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3A2C_E700_0000_0003);
    let as_id = IsdAs::new(1, 0x1_0001);
    let cert_key = SecretKey::from_seed(&seed.to_be_bytes());
    let mut anchors = TrustAnchors::new();
    anchors.install(as_id, cert_key.public());
    let mut cp = ControlPlane::new(anchors);
    let mut sv = [0u8; 16];
    sv[..8].copy_from_slice(&seed.to_le_bytes());
    let mut service = AsService::new(as_id, cert_key, sv, res_id_cap);
    service.align_with_shard_map(&ShardMap::new(SHARDS, res_id_cap, Steering::ByReservation));
    cp.faucet(service.account, 1_000_000_000);
    service.register(&mut cp, &mut rng).expect("AS registration");
    let market = cp.create_marketplace(service.account).expect("marketplace").value;
    cp.register_seller(service.account, market).expect("seller registration");
    let bidders: Vec<Address> =
        (0..BIDDERS).map(|i| Address::from_label(&format!("bidder-{i}"))).collect();
    for b in &bidders {
        cp.faucet(*b, 1_000_000_000);
    }
    World { cp, service, market, rng, bidders, res_id_cap }
}

/// Times `f` as span `name` when tracing.
fn span<T>(t: &mut Option<Tracer>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    match t.as_mut() {
        None => f(),
        Some(tr) => {
            tr.enter(name, id);
            let v = f();
            tr.exit();
            v
        }
    }
}

/// The market phase across a run's cycles: one ledger, admission waves,
/// renewal windows and clearing rounds in every cycle.
pub struct Market {
    w: World,
    tracer: Option<Tracer>,
    /// Start of the current era's reservations, s, and how many it holds.
    era_base: u64,
    era_admitted: u64,
    eras: u64,
    /// Accounts of the clients of earlier eras, for the coin audit.
    retired: Vec<Address>,
    /// The current era's clients.
    clients: Vec<Client>,
    /// Per client: its admitted `(ingress, res_id) → res_start`, and the
    /// generation its next renewal asks for.
    originals: Vec<HashMap<(u16, u32), u32>>,
    next_generation: Vec<u32>,
    renew_cursor: usize,
    engine: ClearingEngine,
    rounds: u64,
    admit: Windows,
    renew: Windows,
    clear: Windows,
    issued_bwt: u128,
    redeemed_bwt: u128,
    gas: i128,
    admitted: u64,
    renewed: u64,
    settled: u64,
    /// Ledger growth over the admission waves alone.
    admit_txs: u64,
    admit_objects: i64,
    admit_bytes: i64,
}

/// Work and duration of each window of one sub-phase.
#[derive(Default)]
struct Windows {
    work: Vec<f64>,
    nanos: Vec<u64>,
}

impl Windows {
    fn push(&mut self, work: u64, t0: Instant) {
        self.nanos.push(t0.elapsed().as_nanos() as u64);
        self.work.push(work as f64);
    }

    fn median_rate(&self) -> f64 {
        stats::window_median_rate(&self.work, &self.nanos).unwrap_or(f64::NAN)
    }
}

impl Market {
    /// The phase over `w`; with `epoch` set it records spans.
    pub fn new(w: World, epoch: Option<Instant>) -> Self {
        Market {
            w,
            tracer: epoch.map(|e| Tracer::new(e, "market")),
            era_base: FIRST_ERA,
            era_admitted: 0,
            eras: 1,
            retired: Vec::new(),
            clients: Vec::new(),
            originals: Vec::new(),
            next_generation: Vec::new(),
            renew_cursor: 0,
            engine: ClearingEngine::new(),
            rounds: 0,
            admit: Windows::default(),
            renew: Windows::default(),
            clear: Windows::default(),
            issued_bwt: 0,
            redeemed_bwt: 0,
            gas: 0,
            admitted: 0,
            renewed: 0,
            settled: 0,
            admit_txs: 0,
            admit_objects: 0,
            admit_bytes: 0,
        }
    }

    /// One cycle of about `seconds`: admission waves, then renewal
    /// windows, then clearing rounds, each for its share of the time and
    /// at least once.
    pub fn cycle(&mut self, seconds: f64, report: &mut Report) {
        let start = Instant::now();
        while self.admit_wave(report) && start.elapsed().as_secs_f64() < seconds * SHARE_ADMIT {}
        let start = Instant::now();
        while self.renew_window(report) && start.elapsed().as_secs_f64() < seconds * SHARE_RENEW {}
        let start = Instant::now();
        let share_clear = 1.0 - SHARE_ADMIT - SHARE_RENEW;
        while self.clear_round(report) && start.elapsed().as_secs_f64() < seconds * share_clear {}
    }

    /// Starts a new era after every reservation of the current one has
    /// ended: retires its clients and prunes their expired ResIDs.
    fn next_era(&mut self) {
        let generations = self.next_generation.iter().copied().max().unwrap_or(0);
        // A reservation renewed `g` times ends `g + 1` hours after its era's
        // base time.
        self.era_base += (u64::from(generations) + 1) * HOUR;
        self.w.service.expire_reservations(self.era_base);
        self.retired.extend(self.clients.drain(..).map(|c| c.account));
        self.originals.clear();
        self.next_generation.clear();
        self.renew_cursor = 0;
        self.era_admitted = 0;
        self.eras += 1;
    }

    /// One wave of [`WAVE`] reservations for a new client: issue, list,
    /// buy and redeem each, then process, collect and sweep the wave.
    /// Moves to the next era first when this one holds half the ResIDs.
    fn admit_wave(&mut self, report: &mut Report) -> bool {
        if self.era_admitted + WAVE > u64::from(self.w.res_id_cap) / 2 {
            self.next_era();
        }
        let base = self.era_base;
        let w = &mut self.w;
        let tracer = &mut self.tracer;
        let wave_id = self.admitted / WAVE;
        let mut client = Client::new(Address::from_label(&format!("client-{wave_id}")));
        w.cp.faucet(client.account, 1_000_000_000);
        let (txs, objects, bytes) =
            (w.cp.ledger.tx_count(), w.cp.ledger.object_count(), w.cp.ledger.total_object_bytes());
        let t0 = Instant::now();
        for i in 0..WAVE {
            let id = self.admitted + i;
            // Every 8th purchase slices the first hour out of a 2-hour
            // asset (a time split with a live remainder).
            let end = base + if id.is_multiple_of(8) { 2 * HOUR } else { HOUR };
            let a_in = asset(Direction::Ingress, INGRESS_IF, base, end);
            let a_eg = asset(Direction::Egress, EGRESS_IF, base, end);
            self.issued_bwt += bwt(&a_in) + bwt(&a_eg);
            let (svc, cp) = (&mut w.service, &mut w.cp);
            let ing = span(tracer, "control.issue_asset", id, || svc.issue_asset(cp, a_in));
            let eg = span(tracer, "control.issue_asset", id, || svc.issue_asset(cp, a_eg));
            let (ing, eg) = (ing.expect("issue ingress").value, eg.expect("issue egress").value);
            let (acct, market) = (w.service.account, w.market);
            let l_in = span(tracer, "control.create_listing", id, || {
                w.cp.create_listing(acct, market, ing, 1)
            });
            let l_eg = span(tracer, "control.create_listing", id, || {
                w.cp.create_listing(acct, market, eg, 1)
            });
            let (l_in, l_eg) = (l_in.expect("list").value, l_eg.expect("list").value);
            let spec = PurchaseSpec { start: base, end: base + HOUR, bandwidth_kbps: BW_KBPS };
            let receipt = span(tracer, "control.buy_and_redeem_path", id, || {
                client.buy_and_redeem_path(&mut w.cp, market, &[(l_in, l_eg, spec)], &mut w.rng)
            })
            .expect("buy and redeem");
            self.gas += receipt.gas.total_mist();
            self.redeemed_bwt += 2 * u128::from(BW_KBPS) * u128::from(HOUR);
        }
        let (svc, cp, rng) = (&mut w.service, &mut w.cp, &mut w.rng);
        span(tracer, "control.process_requests", wave_id, || svc.process_requests(cp, rng))
            .expect("process requests");
        let got = span(tracer, "control.collect_deliveries", wave_id, || {
            client.collect_deliveries(&w.cp)
        })
        .expect("collect deliveries");
        client.sweep_collected(&mut w.cp).expect("sweep deliveries");
        self.admit.push(WAVE, t0);
        self.admit_txs += w.cp.ledger.tx_count() - txs;
        self.admit_objects += w.cp.ledger.object_count() as i64 - objects as i64;
        self.admit_bytes += w.cp.ledger.total_object_bytes() as i64 - bytes as i64;

        // Off the clock: every delivered key is the router's derivation.
        let sv = w.service.secret_value();
        let bad =
            client.reservations().iter().filter(|g| g.key != sv.derive_key(&g.res_info)).count()
                as u64;
        let missing = WAVE.saturating_sub(got as u64);
        report.count(WAVE, bad + missing);
        report.check(bad + missing == 0, || {
            format!("market: wave {wave_id} delivered {got}/{WAVE}, {bad} keys differ")
        });
        self.originals.push(
            client
                .reservations()
                .iter()
                .map(|g| ((g.res_info.ingress, g.res_info.res_id), g.res_info.res_start))
                .collect(),
        );
        self.next_generation.push(0);
        self.clients.push(client);
        self.admitted += WAVE;
        self.era_admitted += WAVE;
        true
    }

    /// One renewal window: the next client (round robin) renews its whole
    /// portfolio one generation further in one request transaction,
    /// served by one `process_renewals` transaction. Returns false when
    /// no client holds reservations yet.
    fn renew_window(&mut self, report: &mut Report) -> bool {
        if self.clients.is_empty() {
            return false;
        }
        let ci = self.renew_cursor % self.clients.len();
        self.renew_cursor += 1;
        let generation = self.next_generation[ci];
        self.next_generation[ci] += 1;
        let (w, tracer, client) = (&mut self.w, &mut self.tracer, &mut self.clients[ci]);
        let mut targets: Vec<(u16, u32, u32)> =
            self.originals[ci].keys().map(|&(ing, res_id)| (ing, res_id, generation)).collect();
        targets.sort_unstable();
        let wave_id = (self.admitted - self.era_admitted) / WAVE + ci as u64;
        let id = (u64::from(generation) << 32) | wave_id;
        let as_acct = w.service.account;
        let t0 = Instant::now();
        span(tracer, "control.request_renewals", id, || {
            client.request_renewals(&mut w.cp, as_acct, &targets, RENEW_FEE)
        })
        .expect("renewal requests");
        let (svc, cp, rng) = (&mut w.service, &mut w.cp, &mut w.rng);
        let served = span(tracer, "control.process_renewals", id, || svc.process_renewals(cp, rng))
            .expect("process renewals");
        self.renew.push(served.delivered.len() as u64, t0);

        // Off the clock: unwrap, key-check and window-check every renewal,
        // then sweep the deliveries.
        let before = client.reservations().len();
        let got = client.collect_renewals(&w.cp).expect("collect renewals");
        let sv = w.service.secret_value();
        let originals = &self.originals[ci];
        let bad = client.reservations()[before..]
            .iter()
            .filter(|g| {
                let start = originals.get(&(g.res_info.ingress, g.res_info.res_id));
                let want = start.map(|s| s + (generation + 1) * HOUR as u32);
                g.key != sv.derive_key(&g.res_info) || want != Some(g.res_info.res_start)
            })
            .count() as u64;
        let n = targets.len() as u64;
        let missing =
            n.saturating_sub(got as u64) + n.saturating_sub(served.delivered.len() as u64);
        report.count(n, bad + missing);
        report.check(bad + missing == 0 && served.rejected == 0, || {
            format!(
                "market: renewal of client {ci} generation {generation}: {got}/{n} collected, \
                 {} rejected, {bad} wrong",
                served.rejected
            )
        });
        self.renewed += served.delivered.len() as u64;
        client.sweep_collected(&mut w.cp).expect("sweep renewals");
        true
    }

    /// One clearing round: [`AUCTIONS`] sealed-bid auctions created, bid
    /// on by every bidder, closed, revealed and settled by one
    /// `clear_epoch`.
    fn clear_round(&mut self, report: &mut Report) -> bool {
        let (w, tracer, engine) = (&mut self.w, &mut self.tracer, &mut self.engine);
        let round = self.rounds;
        self.rounds += 1;
        let epoch_id = round + 1;
        let as_acct = w.service.account;
        let t0 = Instant::now();
        let mut reveals = Vec::new();
        for a in 0..AUCTIONS {
            let start = self.era_base + AUCTION_OFFSET;
            let tmpl = asset(Direction::Ingress, INGRESS_IF, start, start + HOUR);
            self.issued_bwt += bwt(&tmpl);
            let asset_id = w.service.issue_asset(&mut w.cp, tmpl).expect("auction asset").value;
            let auction = engine
                .create_auction(&mut w.cp, as_acct, asset_id, RESERVE_PRICE, epoch_id)
                .expect("create auction")
                .value;
            for (bi, bidder) in w.bidders.iter().enumerate() {
                let amount = RESERVE_PRICE + (round * 7 + a * 31 + bi as u64 * 17) % 1000;
                let mut salt = [0u8; 32];
                salt[..8].copy_from_slice(&(round * 1_000_000 + a * 16 + bi as u64).to_be_bytes());
                let commitment = bid_commitment(amount, &salt, *bidder);
                let bid =
                    w.cp.commit_bid(*bidder, auction, commitment, amount + 50)
                        .expect("commit bid")
                        .value;
                reveals.push((auction, bid, *bidder, amount, salt));
            }
            w.cp.close_bidding(as_acct, auction).expect("close bidding");
        }
        for &(auction, bid, bidder, amount, salt) in &reveals {
            w.cp.reveal_bid(bidder, auction, bid, amount, salt).expect("reveal bid");
        }
        let outcomes = span(tracer, "control.clear_epoch", epoch_id, || {
            engine.clear_epoch(&mut w.cp, as_acct, epoch_id)
        })
        .expect("clear epoch")
        .value;
        self.clear.push(outcomes.len() as u64, t0);
        let wrong =
            outcomes.iter().filter(|(_, o)| o.winner.is_none() || o.price < RESERVE_PRICE).count()
                as u64;
        let missing = AUCTIONS.saturating_sub(outcomes.len() as u64);
        report.count(AUCTIONS, wrong + missing);
        report.check(wrong + missing == 0, || {
            format!("market: round {round} settled {} of {AUCTIONS}, {wrong} wrong", outcomes.len())
        });
        self.settled += outcomes.len() as u64;
        true
    }

    /// Audits the ledger, records the phase's metrics; returns its tracer.
    pub fn finish(self, report: &mut Report) -> Vec<Tracer> {
        self.audit(report);
        let skew = self.w.service.shard_skew(INGRESS_IF).unwrap_or(f64::INFINITY);
        report.check(skew <= 1.1, || format!("market: ResID shard skew {skew:.4} > 1.1"));
        let (admit, renew, clear) =
            (self.admit.median_rate(), self.renew.median_rate(), self.clear.median_rate());
        report.set("admit_per_s", admit);
        report.set("renew_per_s", renew);
        report.set("clear_per_s", clear);
        let admitted = self.admitted.max(1);
        report.set("admit_gas_mist", self.gas as f64 / admitted as f64);
        println!(
            "market: {} admitted ({admit:.0}/s) in {} eras, {} renewed ({renew:.0}/s), {} \
             auctions settled ({clear:.0}/s)",
            self.admitted, self.eras, self.renewed, self.settled
        );
        if let Some(t) = self.tracer.as_ref() {
            let per = |name: &str, ops: u64| t.agg(name).total_ns as f64 / 1e3 / ops.max(1) as f64;
            report.set("control.issue_asset_us", per("control.issue_asset", 2 * admitted));
            report.set("control.create_listing_us", per("control.create_listing", 2 * admitted));
            report.set("control.buy_and_redeem_us", per("control.buy_and_redeem_path", admitted));
            report.set("control.process_requests_us", per("control.process_requests", admitted));
            report
                .set("control.collect_deliveries_us", per("control.collect_deliveries", admitted));
            report
                .set("control.request_renewals_us", per("control.request_renewals", self.renewed));
            report
                .set("control.process_renewals_us", per("control.process_renewals", self.renewed));
            report.set("control.clear_epoch_us", per("control.clear_epoch", self.settled));
            report.set("ledger.txs_per_admit", self.admit_txs as f64 / admitted as f64);
            report.set("ledger.objects_per_admit", self.admit_objects as f64 / admitted as f64);
            report.set("ledger.bytes_per_reservation", self.admit_bytes as f64 / admitted as f64);
            report.set("coloring.shard_skew", skew);
        }
        self.tracer.into_iter().collect()
    }

    /// Bandwidth×time and coin conservation over every committed object
    /// and account.
    fn audit(&self, report: &mut Report) {
        let (w, clients) = (&self.w, &self.clients);
        let mut live_bwt: u128 = 0;
        let mut auction_objects = 0u64;
        for e in w.cp.ledger.objects() {
            if e.meta.type_tag == TAG_ASSET {
                live_bwt += bwt(&BandwidthAsset::decode(&e.data).expect("asset decodes"));
            } else if e.meta.type_tag == TAG_AUCTION || e.meta.type_tag == TAG_BID {
                auction_objects += 1;
            }
        }
        report.check(self.issued_bwt == live_bwt + self.redeemed_bwt, || {
            format!(
                "market: bandwidth x time issued {} != live {live_bwt} + redeemed {}",
                self.issued_bwt, self.redeemed_bwt
            )
        });
        let minted = w.cp.ledger.total_minted() as i128;
        let supply = w.cp.ledger.total_supply() as i128;
        let burned = w.cp.ledger.gas_burned();
        report.check(minted == supply + burned, || {
            format!("market: minted {minted} != supply {supply} + burned gas {burned}")
        });
        let known: u128 = std::iter::once(w.service.account)
            .chain(clients.iter().map(|c| c.account))
            .chain(self.retired.iter().copied())
            .chain(w.bidders.iter().copied())
            .map(|a| u128::from(w.cp.ledger.balance(a)))
            .sum();
        report.check(auction_objects == 0 && known == w.cp.ledger.total_supply(), || {
            format!(
                "market: {auction_objects} auction objects left, balances {known} vs supply {}",
                w.cp.ledger.total_supply()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_recycles_res_ids_across_eras() {
        // 8 shards of 64 ResIDs hold one wave per era. Six waves need six
        // times the space, so the run stays correct only if every era
        // reuses the ResIDs of the one before.
        let mut m = Market::new(setup_with_res_ids(7, 512), None);
        let mut report = Report::default();
        let mut wave_gas = Vec::new();
        for _ in 0..6 {
            let before = m.gas;
            assert!(m.admit_wave(&mut report));
            wave_gas.push(m.gas - before);
            assert!(m.renew_window(&mut report));
            assert!(m.renew_window(&mut report));
        }
        assert!(m.clear_round(&mut report));
        assert_eq!(m.eras, 6);
        // Waves 0 and 4 start 1,000 purchases apart, so they hold the same
        // time splits; a later era must not make them cost more.
        assert_eq!(wave_gas[0], wave_gas[4]);
        m.finish(&mut report);
        assert!(report.correct(), "{:?}", report.violations);
    }
}
