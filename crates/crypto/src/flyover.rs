//! Reservation authentication (paper §4.1, §4.3, Appendix A.4/A.6).
//!
//! This module implements the three cryptographic derivations at the heart
//! of the Hummingbird data plane:
//!
//! 1. the **reservation authentication key** `A_K = PRF_SV(ResInfo_K)`
//!    (Eq. 2), derived by the granting AS from its secret value `SV_K` over
//!    the exact 16-byte layout of Fig. 12;
//! 2. the **per-packet flyover MAC**
//!    `V_K = PRF_A(DstAddr ∥ PktLen ∥ TS)[:ℓ_tag]` (Eq. 3 / Eq. 7a) over the
//!    16-byte layout of Fig. 11, truncated to [`TAG_LEN`] = 6 bytes;
//! 3. the **aggregate MAC** `AggMAC = HopFieldMAC ⊕ FlyoverMAC` (Eq. 6),
//!    which folds the flyover tag into the SCION hop-field MAC so the tag
//!    costs no extra header bytes.
//!
//! Both PRF inputs are exactly one AES block, so the PRF costs a single
//! AES-128 invocation — this is what makes the paper's 308 ns border-router
//! budget possible.

use crate::aes::Aes128;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash};

/// Tag length ℓ_tag in bytes (§5.4: 6 bytes ⇒ ~2^47 online brute-force work).
pub const TAG_LEN: usize = 6;

/// A 6-byte truncated MAC tag as carried in the packet header.
pub type Tag = [u8; TAG_LEN];

/// The static description of one flyover reservation (Eq. 1).
///
/// `ResInfo_K = (In, Eg, ResID, BW, StrT, Dur)`. The granting AS is implied
/// by the key used to authenticate it, not stored in the packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ResInfo {
    /// Ingress interface ID (`ConsIngress`).
    pub ingress: u16,
    /// Egress interface ID (`ConsEgress`).
    pub egress: u16,
    /// Reservation ID, unique per interface pair within the validity period.
    /// 22-bit field on the wire (≈4 M concurrent reservations).
    pub res_id: u32,
    /// Reserved bandwidth in the 10-bit wire encoding (see
    /// `hummingbird_wire::bwcls`). The *encoded* value is authenticated.
    pub bw_encoded: u16,
    /// Absolute reservation start time (Unix seconds).
    pub res_start: u32,
    /// Reservation duration in seconds (16-bit on the wire).
    pub duration: u16,
}

/// Maximum encodable ResID (22 bits).
pub const RES_ID_MAX: u32 = (1 << 22) - 1;
/// Maximum encodable bandwidth class (10 bits).
pub const BW_ENC_MAX: u16 = (1 << 10) - 1;

impl ResInfo {
    /// Serializes to the 16-byte key-derivation input of Fig. 12:
    ///
    /// ```text
    ///  0..2  ConsIngress      2..4  ConsEgress
    ///  4..8  ResID(22) ∥ BW(10)
    ///  8..12 ResStart
    /// 12..14 ResDuration     14..16 zero padding
    /// ```
    pub fn to_kdf_block(&self) -> [u8; 16] {
        debug_assert!(self.res_id <= RES_ID_MAX, "ResID exceeds 22 bits");
        debug_assert!(self.bw_encoded <= BW_ENC_MAX, "BW exceeds 10 bits");
        let mut b = [0u8; 16];
        b[0..2].copy_from_slice(&self.ingress.to_be_bytes());
        b[2..4].copy_from_slice(&self.egress.to_be_bytes());
        let packed: u32 = (self.res_id << 10) | u32::from(self.bw_encoded & BW_ENC_MAX);
        b[4..8].copy_from_slice(&packed.to_be_bytes());
        b[8..12].copy_from_slice(&self.res_start.to_be_bytes());
        b[12..14].copy_from_slice(&self.duration.to_be_bytes());
        // b[14..16] stays zero (Fig. 12 "0 ∥ Padding").
        b
    }

    /// Absolute expiration time (`ResStart + ResDuration`).
    pub fn expiry(&self) -> u32 {
        self.res_start.saturating_add(u32::from(self.duration))
    }

    /// Whether `now` (Unix seconds) falls within `[ResStart, ResExp]`.
    ///
    /// Per Appendix A.7, the clock skew is deliberately *not* applied here to
    /// avoid double-counting traffic across adjacent reservations that share
    /// a ResID.
    pub fn is_active_at(&self, now: u32) -> bool {
        now >= self.res_start && now <= self.expiry()
    }
}

/// The AS-local secret value `SV_K` shared among its border routers.
///
/// Both PRF inputs in Hummingbird (Fig. 11 and Fig. 12) are exactly one
/// AES block, so the PRF is instantiated as a single raw AES-128
/// invocation — a PRP used as a PRF, which is what the paper's DPDK
/// implementation does ("Compute authentication key (A_i): 43 ns" = one
/// AES-NI block). [`crate::cmac`] remains available for variable-length
/// inputs elsewhere in the system.
#[derive(Clone)]
pub struct SecretValue {
    cipher: Aes128,
}

impl std::fmt::Debug for SecretValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretValue {{ .. }}")
    }
}

impl SecretValue {
    /// Creates a secret value from 16 raw bytes.
    pub fn new(key: [u8; 16]) -> Self {
        SecretValue { cipher: Aes128::new(&key) }
    }

    /// Derives the reservation authentication key `A_K` (Eq. 2),
    /// including the AES key extension of the result.
    pub fn derive_key(&self, info: &ResInfo) -> AuthKey {
        AuthKey::new(self.derive_key_bytes(info))
    }

    /// Derives only the raw key bytes without the AES key extension — the
    /// "Compute authentication key" step of Table 3 in isolation.
    #[inline]
    pub fn derive_key_bytes(&self, info: &ResInfo) -> [u8; 16] {
        self.cipher.encrypt(&info.to_kdf_block())
    }

    /// Derives the authentication keys of a whole burst in one AES sweep.
    ///
    /// The PRF inputs are serialized first, then encrypted together via
    /// [`Aes128::encrypt_blocks`] (round-major over the batch), then
    /// key-extended — the per-burst amortization the paper's DPDK router
    /// performs when it derives every `A_i` of a packet burst back to
    /// back. Appends one key per `ResInfo`, in order, to `out`; the
    /// result is element-wise identical to calling
    /// [`derive_key`](SecretValue::derive_key) per reservation.
    ///
    /// `scratch` holds the intermediate KDF blocks so hot loops can reuse
    /// one allocation across bursts (it is cleared on entry).
    pub fn derive_keys_batch(
        &self,
        infos: &[ResInfo],
        scratch: &mut Vec<[u8; 16]>,
        out: &mut Vec<AuthKey>,
    ) {
        scratch.clear();
        scratch.extend(infos.iter().map(ResInfo::to_kdf_block));
        self.cipher.encrypt_blocks(scratch);
        out.reserve(infos.len());
        out.extend(scratch.iter().map(|bytes| AuthKey::new(*bytes)));
    }
}

/// A reservation authentication key `A_K`, expanded and ready to MAC packets.
#[derive(Clone)]
pub struct AuthKey {
    key: [u8; 16],
    cipher: Aes128,
}

impl std::fmt::Debug for AuthKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("AuthKey {{ .. }}")
    }
}

impl PartialEq for AuthKey {
    fn eq(&self, other: &Self) -> bool {
        crate::hmac::ct_eq(&self.key, &other.key)
    }
}
impl Eq for AuthKey {}

impl AuthKey {
    /// Wraps raw key bytes (e.g. received through the control plane) and
    /// performs the AES key expansion ("AES-extend" step of Table 3).
    pub fn new(key: [u8; 16]) -> Self {
        AuthKey { key, cipher: Aes128::new(&key) }
    }

    /// Raw key bytes, for control-plane delivery (always sent sealed).
    pub fn to_bytes(&self) -> [u8; 16] {
        self.key
    }

    /// Computes the flyover MAC `V_K` (Eq. 7a) over the per-packet input:
    /// one AES invocation (the input of Fig. 11 is a single block),
    /// truncated to [`TAG_LEN`] bytes.
    #[inline]
    pub fn flyover_mac(&self, input: &FlyoverMacInput) -> Tag {
        let full = self.cipher.encrypt(&input.to_block());
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        tag
    }
}

/// Computes the flyover tags `V_K` of a whole burst in one multi-block
/// AES pass: `keys[i]` authenticates `inputs[i]`.
///
/// Each packet of a burst carries its own reservation key, so this is a
/// *multi-key* sweep — [`Aes128::encrypt_blocks_per_key`] still keeps
/// 4-8 independent blocks in flight (the per-block keys change which
/// round key each lane loads, not the data-flow shape), which is how the
/// paper's DPDK router amortizes the per-packet tag computation across a
/// burst. Appends one tag per input, in order, to `out`; the result is
/// element-wise identical to calling [`AuthKey::flyover_mac`] per packet.
///
/// `scratch` holds the intermediate MAC-input blocks so hot loops reuse
/// one allocation across bursts (it is cleared on entry).
///
/// # Panics
///
/// If `keys.len() != inputs.len()`.
pub fn flyover_tags_batch(
    keys: &[&AuthKey],
    inputs: &[FlyoverMacInput],
    scratch: &mut Vec<[u8; 16]>,
    out: &mut Vec<Tag>,
) {
    assert_eq!(keys.len(), inputs.len(), "one key per MAC input");
    flyover_tags_batch_with(|i| keys[i], inputs, scratch, out);
}

/// [`flyover_tags_batch`] with the per-packet key resolved through
/// `key_at(i)` instead of a materialized slice, so batch paths that
/// already index their keys (e.g. the router's per-burst dedupe table)
/// compute a whole burst's tags without allocating. `key_at` must be a
/// pure index lookup — it may be called more than once per input (the
/// interleave kernels probe each group's backends first), in ascending
/// order within each group.
pub fn flyover_tags_batch_with<'a>(
    key_at: impl Fn(usize) -> &'a AuthKey,
    inputs: &[FlyoverMacInput],
    scratch: &mut Vec<[u8; 16]>,
    out: &mut Vec<Tag>,
) {
    scratch.clear();
    scratch.extend(inputs.iter().map(FlyoverMacInput::to_block));
    Aes128::encrypt_blocks_with(|i| &key_at(i).cipher, scratch);
    out.reserve(inputs.len());
    out.extend(scratch.iter().map(|full| {
        let mut tag = [0u8; TAG_LEN];
        tag.copy_from_slice(&full[..TAG_LEN]);
        tag
    }));
}

/// Ways per [`AuthKeyCache`] set: a lookup compares at most this many
/// tags, whatever the keys.
pub const AUTH_KEY_CACHE_WAYS: usize = 4;

/// A per-engine cache of expanded [`AuthKey`]s, so a reservation's AES
/// key schedule is computed once per epoch instead of once per packet.
///
/// The border router's per-packet budget (Table 3) charges one AES block
/// for deriving `A_i` *and* a full AES-128 key expansion for extending
/// it — but `ResInfo` is stable for a reservation's whole validity
/// period, so every packet after the first can reuse the expanded
/// schedule. Engines hold one cache each (hence per-shard under the
/// worker-ring runtime: no locking, and a reservation's entry lives
/// exactly where its packets are steered). Keys default to
/// [`ResInfo`]; the baseline engines instantiate the same cache over
/// their own key-hierarchy identifiers.
///
/// The cache is set-associative with [`AUTH_KEY_CACHE_WAYS`] ways per
/// set and LRU replacement within each set. A lookup hashes the key
/// once with the keyed std hasher (keys come from packet bytes, so an
/// attacker must not be able to aim them at one set), picks the set,
/// and compares at most `AUTH_KEY_CACHE_WAYS` 32-bit tags before one
/// full key compare. The ways index an entry slab that grows on insert,
/// so construction allocates only the zeroed way array and an idle
/// engine holds no key memory. Expired reservations age out through
/// the LRU without a sweeper. Hit/miss counters are exposed for
/// `DatapathStats`-style reporting.
///
/// # Example
///
/// The second packet of a reservation reuses the expanded schedule — the
/// closure passed to [`get_or_derive`](AuthKeyCache::get_or_derive) runs
/// only on a miss:
///
/// ```
/// use hummingbird_crypto::{AuthKeyCache, ResInfo, SecretValue};
///
/// let sv = SecretValue::new([6; 16]);
/// let info = ResInfo {
///     ingress: 0,
///     egress: 1,
///     res_id: 7,
///     bw_encoded: 700,
///     res_start: 1_700_000_000,
///     duration: 600,
/// };
///
/// let mut cache: AuthKeyCache = AuthKeyCache::new(1024);
/// let first = cache.get_or_derive(&info, || sv.derive_key(&info)).to_bytes();
/// let again = cache.get_or_derive(&info, || unreachable!("second lookup hits")).to_bytes();
/// assert_eq!(first, again);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Clone, Debug)]
pub struct AuthKeyCache<K = ResInfo> {
    /// Keyed hasher: its output picks a key's set and tag.
    hasher: RandomState,
    /// Ways in use per set (`AUTH_KEY_CACHE_WAYS`, fewer only when the
    /// capacity is smaller than one set).
    ways: usize,
    /// Per set, its ways in most- to least-recently-used order, empty
    /// ways last. A way is `0` when empty, else `tag << 32 | (slot + 1)`
    /// where `slot` indexes `entries`.
    sets: Vec<[u64; AUTH_KEY_CACHE_WAYS]>,
    /// The resident entries. Each is referenced by exactly one way; an
    /// eviction overwrites the victim's slot in place, so the slab only
    /// grows while empty ways remain.
    entries: Vec<(K, AuthKey)>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash> AuthKeyCache<K> {
    /// Creates a cache holding at most `capacity` expanded keys (minimum
    /// 1): `capacity / AUTH_KEY_CACHE_WAYS` sets, or one smaller set
    /// below that. The remainder of a capacity that is not a multiple of
    /// the ways goes unused.
    ///
    /// # Panics
    ///
    /// If `capacity` does not fit a 32-bit slot index.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity < u32::MAX as usize, "AuthKeyCache capacity exceeds 32-bit slots");
        let capacity = capacity.max(1);
        let n_sets = (capacity / AUTH_KEY_CACHE_WAYS).max(1);
        AuthKeyCache {
            hasher: RandomState::new(),
            ways: capacity.min(AUTH_KEY_CACHE_WAYS),
            // All-zero ways come from the zeroing allocator, with no
            // per-slot initialisation; entries are allocated on insert.
            sets: vec![[0; AUTH_KEY_CACHE_WAYS]; n_sets],
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up, counting a hit or miss; a hit becomes its set's
    /// most recently used way.
    pub fn lookup(&mut self, key: &K) -> Option<&AuthKey> {
        let hash = self.hasher.hash_one(key);
        let slot = self.probe(hash, key);
        match slot {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        slot.map(|slot| &self.entries[slot].1)
    }

    /// The cached key for `key`, deriving (and caching) it on a miss.
    pub fn get_or_derive(&mut self, key: &K, derive: impl FnOnce() -> AuthKey) -> &AuthKey
    where
        K: Clone,
    {
        let hash = self.hasher.hash_one(key);
        let slot = match self.probe(hash, key) {
            Some(slot) => {
                self.hits += 1;
                slot
            }
            None => {
                self.misses += 1;
                self.insert(hash, key.clone(), derive())
            }
        };
        &self.entries[slot].1
    }

    /// Records a hit that bypassed [`lookup`](AuthKeyCache::lookup):
    /// [`BurstKeyResolver`] counts a repeat of a key that missed earlier
    /// in the same burst this way, because processed sequentially the
    /// repeat would have hit the key its first packet inserted.
    ///
    /// Counter semantics under batching: a batch path looks up a whole
    /// burst against the cache state at burst start and inserts the
    /// burst's misses afterwards, while sequential processing
    /// interleaves inserts between lookups. The counts therefore match
    /// exactly unless a sequential mid-burst insert evicts a key that a
    /// later packet of the same burst looks up — which needs the burst's
    /// misses to overflow one set — or the two orders leave a set's LRU
    /// order different, which can change a later burst's count. With the
    /// default capacity either is rare, and counters are diagnostics:
    /// derivation is deterministic, so verdicts never depend on them.
    pub fn record_burst_hit(&mut self) {
        self.hits += 1;
    }

    /// The slot holding `key`, made its set's most recently used way.
    /// Counts nothing.
    fn probe(&mut self, hash: u64, key: &K) -> Option<usize> {
        let set = set_index(hash, self.sets.len());
        let ways = &mut self.sets[set][..self.ways];
        let tag = hash & 0xffff_ffff;
        for w in 0..ways.len() {
            let way = ways[w];
            if way == 0 {
                return None; // empty ways trail the used ones
            }
            let slot = way_slot(way);
            if way >> 32 == tag && self.entries[slot].0 == *key {
                ways[..=w].rotate_right(1);
                return Some(slot);
            }
        }
        None
    }

    /// Inserts an absent key as its set's most recently used way,
    /// evicting the least recently used one when the set is full, and
    /// returns its slot. Counts nothing; every earlier slot of the
    /// victim's entry is invalid afterwards.
    fn insert(&mut self, hash: u64, key: K, value: AuthKey) -> usize {
        let set = set_index(hash, self.sets.len());
        let ways = &mut self.sets[set][..self.ways];
        let victim = ways[ways.len() - 1];
        let slot = if victim == 0 {
            self.entries.push((key, value));
            self.entries.len() - 1
        } else {
            let slot = way_slot(victim);
            self.entries[slot] = (key, value);
            slot
        };
        ways.rotate_right(1);
        ways[0] = (hash & 0xffff_ffff) << 32 | (slot as u64 + 1);
        slot
    }

    /// Cache hits since creation / the last counter reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Cache misses since creation / the last counter reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets the hit/miss counters (entries are kept).
    pub fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of currently cached keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The set a hash selects: multiply-shift range reduction over the high
/// bits, leaving the low 32 bits to the tag.
fn set_index(hash: u64, n_sets: usize) -> usize {
    ((u128::from(hash) * n_sets as u128) >> 64) as usize
}

/// The entry slot of a non-empty way.
fn way_slot(way: u64) -> usize {
    (way as u32 - 1) as usize
}

/// Where a visited packet's key lives until the burst ends.
#[derive(Clone, Copy, Debug)]
enum BurstKey {
    /// A cache slot found at visit time; valid until
    /// [`BurstKeyResolver::finish`] inserts, the burst's first insert.
    Cached(usize),
    /// An index into the burst's derived keys.
    Derived(usize),
}

/// Per-burst key resolution shared by every batched engine
/// (`BorderRouter::process_batch`, `EpicDatapath::process_batch`),
/// generic over the cache key so the counter-parity invariant lives in
/// one place.
///
/// Protocol, per burst:
///
/// 1. [`visit`](BurstKeyResolver::visit) resolves each keyed packet's
///    identity in burst order: a cache hit records the slot, a miss is
///    queued once for the derive sweep and its repeats share that entry;
/// 2. the engine runs its batch derive sweep over
///    [`pending`](BurstKeyResolver::pending) and hands the keys back in
///    the same order via [`fill_pending`](BurstKeyResolver::fill_pending);
/// 3. [`key_of`](BurstKeyResolver::key_of) serves the tag sweep with the
///    resolved key of the `i`-th visited packet — a borrow from the
///    cache or from the derived keys, never a copy;
/// 4. [`finish`](BurstKeyResolver::finish) moves the derived keys into
///    the cache and clears the burst.
///
/// Inserts wait for `finish` so that no insert can evict a slot an
/// earlier packet of the burst resolved to. Processed sequentially, a
/// burst's first packet on an absent identity would miss (derive +
/// insert) and every repeat would hit, so a repeat of a pending miss
/// counts as a hit via [`AuthKeyCache::record_burst_hit`] (see there
/// for when batch and sequential counters can differ). The resolver
/// holds no map: a miss scans the burst's pending misses, which a burst
/// bounds.
#[derive(Clone, Debug)]
pub struct BurstKeyResolver<K> {
    /// The burst's distinct cache misses, in miss order.
    pending: Vec<K>,
    /// The cache hash of each `pending` entry (`0` without a cache).
    pending_hashes: Vec<u64>,
    /// One derived key per `pending` entry, once filled.
    derived: Vec<AuthKey>,
    /// Per visited packet: where its key lives.
    key_of_pkt: Vec<BurstKey>,
}

impl<K> Default for BurstKeyResolver<K> {
    fn default() -> Self {
        BurstKeyResolver {
            pending: Vec::new(),
            pending_hashes: Vec::new(),
            derived: Vec::new(),
            key_of_pkt: Vec::new(),
        }
    }
}

impl<K: Eq + Hash> BurstKeyResolver<K> {
    /// Creates an empty resolver (reusable across bursts; steady-state
    /// bursts allocate nothing once the vectors reach burst size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves the identity of the next keyed packet of the burst
    /// against `cache`, counting one hit or miss exactly as a
    /// sequential lookup would: a resident key is a hit, a repeat of
    /// this burst's pending miss is a hit, and anything else is a miss
    /// queued for the engine's derive sweep.
    pub fn visit(&mut self, id: K, mut cache: Option<&mut AuthKeyCache<K>>) {
        let mut hash = 0;
        if let Some(cache) = cache.as_deref_mut() {
            hash = cache.hasher.hash_one(&id);
            if let Some(slot) = cache.probe(hash, &id) {
                cache.hits += 1;
                self.key_of_pkt.push(BurstKey::Cached(slot));
                return;
            }
        }
        let repeat = (self.pending_hashes.iter().zip(&self.pending))
            .position(|(&h, k)| h == hash && *k == id);
        let index = match repeat {
            Some(index) => {
                if let Some(cache) = cache {
                    cache.record_burst_hit();
                }
                index
            }
            None => {
                if let Some(cache) = cache {
                    cache.misses += 1;
                }
                self.pending.push(id);
                self.pending_hashes.push(hash);
                self.pending.len() - 1
            }
        };
        self.key_of_pkt.push(BurstKey::Derived(index));
    }

    /// The identities that missed the cache, in miss order — the input
    /// of the engine's batch derive sweep.
    pub fn pending(&self) -> &[K] {
        &self.pending
    }

    /// Installs the derive sweep's keys, one per
    /// [`pending`](BurstKeyResolver::pending) identity in the same order.
    ///
    /// # Panics
    ///
    /// If `keys` does not yield exactly one key per pending identity —
    /// an engine bug the later [`key_of`](BurstKeyResolver::key_of)
    /// would otherwise surface confusingly.
    pub fn fill_pending(&mut self, keys: impl IntoIterator<Item = AuthKey>) {
        self.derived.extend(keys);
        assert_eq!(self.derived.len(), self.pending.len(), "one derived key per pending identity");
    }

    /// The resolved key of the `i`-th visited packet of the burst;
    /// `cache` must be the one passed to [`visit`](BurstKeyResolver::visit).
    ///
    /// # Panics
    ///
    /// If the key is still unresolved (the engine skipped
    /// [`fill_pending`](BurstKeyResolver::fill_pending)) or `cache` is
    /// missing for a packet that hit it.
    pub fn key_of<'a>(&'a self, i: usize, cache: Option<&'a AuthKeyCache<K>>) -> &'a AuthKey {
        match self.key_of_pkt[i] {
            BurstKey::Cached(slot) => &cache.expect("a cache hit needs its cache").entries[slot].1,
            BurstKey::Derived(index) => self.derived.get(index).expect("every burst key resolved"),
        }
    }

    /// Ends the burst: moves each derived key into `cache` (its miss was
    /// counted by [`visit`](BurstKeyResolver::visit)) and clears the
    /// burst-local state. Call it after the last
    /// [`key_of`](BurstKeyResolver::key_of): an insert may evict a slot
    /// the burst resolved to.
    pub fn finish(&mut self, cache: Option<&mut AuthKeyCache<K>>) {
        if let Some(cache) = cache {
            let new = self.pending.drain(..).zip(self.pending_hashes.drain(..));
            for ((id, hash), key) in new.zip(self.derived.drain(..)) {
                cache.insert(hash, id, key);
            }
        }
        self.pending.clear();
        self.pending_hashes.clear();
        self.derived.clear();
        self.key_of_pkt.clear();
    }
}

/// The per-packet MAC input of Fig. 11 (exactly one AES block):
///
/// ```text
///  0..4   DstISD (16-bit value in a 32-bit slot)
///  4..8   DstAS (low 32 bits)
///  8..10  PktLen          10..12 ResStartOffset
/// 12..14  MillisTimestamp 14..16 Counter
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlyoverMacInput {
    /// Destination ISD identifier.
    pub dst_isd: u16,
    /// Destination AS number (SCION ASes are 48-bit; the MAC input carries
    /// the low 32 bits so the whole input fits one AES block).
    pub dst_as: u64,
    /// Total packet length (Eq. 7d: `PayloadLen + 4·HdrLen`).
    pub pkt_len: u16,
    /// Offset of the reservation start from `BaseTimestamp` (seconds).
    pub res_start_offset: u16,
    /// Millisecond-granularity timestamp offset from `BaseTimestamp`.
    pub millis_ts: u16,
    /// Per-packet counter making `(BaseTS, MillisTS, Counter)` unique.
    pub counter: u16,
}

impl FlyoverMacInput {
    /// Serializes to the 16-byte block of Fig. 11.
    pub fn to_block(&self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[2..4].copy_from_slice(&self.dst_isd.to_be_bytes());
        b[4..8].copy_from_slice(&((self.dst_as & 0xffff_ffff) as u32).to_be_bytes());
        b[8..10].copy_from_slice(&self.pkt_len.to_be_bytes());
        b[10..12].copy_from_slice(&self.res_start_offset.to_be_bytes());
        b[12..14].copy_from_slice(&self.millis_ts.to_be_bytes());
        b[14..16].copy_from_slice(&self.counter.to_be_bytes());
        b
    }
}

/// Aggregates (or strips) a flyover MAC into a hop-field MAC (Eq. 6).
///
/// XOR is an involution, so the same function both combines at the source
/// and recovers the plain hop-field MAC at the router.
pub fn aggregate_mac(hop_field_mac: &Tag, flyover_mac: &Tag) -> Tag {
    let mut out = [0u8; TAG_LEN];
    for i in 0..TAG_LEN {
        out[i] = hop_field_mac[i] ^ flyover_mac[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_info() -> ResInfo {
        ResInfo {
            ingress: 2,
            egress: 7,
            res_id: 1234,
            bw_encoded: 321,
            res_start: 1_700_000_000,
            duration: 300,
        }
    }

    #[test]
    fn kdf_block_layout() {
        let info = ResInfo {
            ingress: 0x0102,
            egress: 0x0304,
            res_id: 0x3F_FFFF, // max 22-bit
            bw_encoded: 0x3FF, // max 10-bit
            res_start: 0xAABBCCDD,
            duration: 0x1122,
        };
        let b = info.to_kdf_block();
        assert_eq!(&b[0..2], &[0x01, 0x02]);
        assert_eq!(&b[2..4], &[0x03, 0x04]);
        // (0x3FFFFF << 10) | 0x3FF = 0xFFFFFFFF
        assert_eq!(&b[4..8], &[0xFF, 0xFF, 0xFF, 0xFF]);
        assert_eq!(&b[8..12], &[0xAA, 0xBB, 0xCC, 0xDD]);
        assert_eq!(&b[12..14], &[0x11, 0x22]);
        assert_eq!(&b[14..16], &[0, 0]);
    }

    #[test]
    fn derive_key_deterministic_per_sv() {
        let sv1 = SecretValue::new([1u8; 16]);
        let sv2 = SecretValue::new([2u8; 16]);
        let info = sample_info();
        assert_eq!(sv1.derive_key(&info), sv1.derive_key(&info));
        assert_ne!(sv1.derive_key(&info), sv2.derive_key(&info));
    }

    #[test]
    fn key_changes_with_any_resinfo_field() {
        let sv = SecretValue::new([3u8; 16]);
        let base = sample_info();
        let k = sv.derive_key(&base);
        let variations = [
            ResInfo { ingress: 3, ..base },
            ResInfo { egress: 8, ..base },
            ResInfo { res_id: 1235, ..base },
            ResInfo { bw_encoded: 322, ..base },
            ResInfo { res_start: base.res_start + 1, ..base },
            ResInfo { duration: 301, ..base },
        ];
        for v in variations {
            assert_ne!(sv.derive_key(&v), k, "field change must alter key: {v:?}");
        }
    }

    #[test]
    fn flyover_mac_is_6_bytes_and_input_sensitive() {
        let sv = SecretValue::new([4u8; 16]);
        let key = sv.derive_key(&sample_info());
        let input = FlyoverMacInput {
            dst_isd: 1,
            dst_as: 0xff00_0000_0110,
            pkt_len: 1500,
            res_start_offset: 60,
            millis_ts: 345,
            counter: 9,
        };
        let tag = key.flyover_mac(&input);
        assert_eq!(tag.len(), TAG_LEN);
        let tag2 = key.flyover_mac(&FlyoverMacInput { counter: 10, ..input });
        assert_ne!(tag, tag2, "counter must be authenticated");
        let tag3 = key.flyover_mac(&FlyoverMacInput { pkt_len: 1501, ..input });
        assert_ne!(tag, tag3, "packet length must be authenticated");
        let tag4 = key.flyover_mac(&FlyoverMacInput { dst_isd: 2, ..input });
        assert_ne!(tag, tag4, "destination must be authenticated (anti-stealing)");
    }

    #[test]
    fn aggregate_mac_is_involution() {
        let hf = [1, 2, 3, 4, 5, 6];
        let fly = [9, 9, 9, 9, 9, 9];
        let agg = aggregate_mac(&hf, &fly);
        assert_eq!(aggregate_mac(&agg, &fly), hf);
        assert_eq!(aggregate_mac(&agg, &hf), fly);
    }

    #[test]
    fn auth_key_roundtrips_via_bytes() {
        let sv = SecretValue::new([5u8; 16]);
        let k = sv.derive_key(&sample_info());
        let k2 = AuthKey::new(k.to_bytes());
        let input = FlyoverMacInput {
            dst_isd: 1,
            dst_as: 2,
            pkt_len: 100,
            res_start_offset: 0,
            millis_ts: 0,
            counter: 0,
        };
        assert_eq!(k.flyover_mac(&input), k2.flyover_mac(&input));
    }

    #[test]
    fn derive_keys_batch_matches_sequential() {
        let sv = SecretValue::new([6u8; 16]);
        let base = sample_info();
        let infos: Vec<ResInfo> = (0..17).map(|i| ResInfo { res_id: 100 + i, ..base }).collect();
        let mut scratch = Vec::new();
        let mut batch = Vec::new();
        sv.derive_keys_batch(&infos, &mut scratch, &mut batch);
        assert_eq!(batch.len(), infos.len());
        for (info, key) in infos.iter().zip(&batch) {
            assert_eq!(sv.derive_key(info), *key);
        }
        // Appends without clearing `out`, so bursts can be accumulated.
        sv.derive_keys_batch(&infos[..2], &mut scratch, &mut batch);
        assert_eq!(batch.len(), infos.len() + 2);
        // Empty bursts are a no-op.
        sv.derive_keys_batch(&[], &mut scratch, &mut batch);
        assert_eq!(batch.len(), infos.len() + 2);
    }

    #[test]
    fn flyover_tags_batch_matches_per_packet_macs() {
        let sv = SecretValue::new([7u8; 16]);
        let base = sample_info();
        // Distinct keys per packet — the multi-key sweep shape.
        let keys: Vec<AuthKey> =
            (0..13).map(|i| sv.derive_key(&ResInfo { res_id: 500 + i, ..base })).collect();
        let inputs: Vec<FlyoverMacInput> = (0..13)
            .map(|i| FlyoverMacInput {
                dst_isd: 1,
                dst_as: 0x20,
                pkt_len: 100 + i,
                res_start_offset: 50,
                millis_ts: i,
                counter: i,
            })
            .collect();
        let refs: Vec<&AuthKey> = keys.iter().collect();
        let mut scratch = Vec::new();
        let mut tags = Vec::new();
        flyover_tags_batch(&refs, &inputs, &mut scratch, &mut tags);
        assert_eq!(tags.len(), inputs.len());
        for ((key, input), tag) in refs.iter().zip(&inputs).zip(&tags) {
            assert_eq!(key.flyover_mac(input), *tag);
        }
        // Appends without clearing; empty bursts are a no-op.
        flyover_tags_batch(&refs[..1], &inputs[..1], &mut scratch, &mut tags);
        assert_eq!(tags.len(), 14);
        flyover_tags_batch(&[], &[], &mut scratch, &mut tags);
        assert_eq!(tags.len(), 14);
    }

    #[test]
    #[should_panic(expected = "one key per MAC input")]
    fn flyover_tags_batch_checks_lengths() {
        let key = AuthKey::new([1u8; 16]);
        flyover_tags_batch(&[&key], &[], &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn auth_key_cache_counts_and_derives_once() {
        let sv = SecretValue::new([8u8; 16]);
        let info = sample_info();
        let mut cache: AuthKeyCache = AuthKeyCache::new(64);
        let mut derivations = 0;
        for _ in 0..5 {
            let key = cache.get_or_derive(&info, || {
                derivations += 1;
                sv.derive_key(&info)
            });
            assert_eq!(*key, sv.derive_key(&info));
        }
        assert_eq!(derivations, 1, "schedule expanded once per reservation");
        assert_eq!((cache.hits(), cache.misses()), (4, 1));
        cache.record_burst_hit();
        assert_eq!(cache.hits(), 5);
        cache.reset_counters();
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn auth_key_cache_len_bounded_by_capacity() {
        let sv = SecretValue::new([9u8; 16]);
        let base = sample_info();
        for capacity in [1, 3, AUTH_KEY_CACHE_WAYS, 6, 64, 100] {
            let mut cache: AuthKeyCache = AuthKeyCache::new(capacity);
            for i in 0..10 * capacity as u32 {
                let info = ResInfo { res_id: i, ..base };
                cache.get_or_derive(&info, || sv.derive_key(&info));
                assert!(cache.len() <= capacity, "capacity {capacity}: len {}", cache.len());
            }
            assert_eq!(cache.misses(), 10 * capacity as u64, "every key was distinct");
            // Whatever stayed resident still maps to its own key.
            for i in 0..10 * capacity as u32 {
                let info = ResInfo { res_id: i, ..base };
                if let Some(key) = cache.lookup(&info) {
                    assert_eq!(*key, sv.derive_key(&info));
                }
            }
        }
    }

    #[test]
    fn auth_key_cache_lru_keeps_a_key_touched_every_ways_minus_one_inserts() {
        let sv = SecretValue::new([10u8; 16]);
        let base = sample_info();
        let mut cache: AuthKeyCache = AuthKeyCache::new(64);
        let n_sets = cache.sets.len();
        let set_of =
            |cache: &AuthKeyCache, info: &ResInfo| set_index(cache.hasher.hash_one(info), n_sets);
        let hot = ResInfo { res_id: 0, ..base };
        let hot_set = set_of(&cache, &hot);
        let cold: Vec<ResInfo> = (1..)
            .map(|i| ResInfo { res_id: i, ..base })
            .filter(|info| set_of(&cache, info) == hot_set)
            .take(8 * AUTH_KEY_CACHE_WAYS)
            .collect();
        cache.get_or_derive(&hot, || sv.derive_key(&hot));
        for round in cold.chunks(AUTH_KEY_CACHE_WAYS - 1) {
            for info in round {
                cache.get_or_derive(info, || sv.derive_key(info));
            }
            let misses = cache.misses();
            let key = cache.get_or_derive(&hot, || unreachable!("touched key was evicted"));
            assert_eq!(*key, sv.derive_key(&hot));
            assert_eq!(cache.misses(), misses);
        }
        // One cold insert more than the set holds evicts the hot key.
        for info in &cold[..AUTH_KEY_CACHE_WAYS] {
            cache.get_or_derive(info, || sv.derive_key(info));
        }
        assert!(cache.lookup(&hot).is_none(), "least recently used way is evicted");
    }

    #[test]
    fn auth_key_cache_counts_hits_and_misses() {
        let sv = SecretValue::new([11u8; 16]);
        let base = sample_info();
        let info = |i: u32| ResInfo { res_id: i, ..base };
        // One set of four ways: residency is exactly the last four keys.
        let mut cache: AuthKeyCache = AuthKeyCache::new(AUTH_KEY_CACHE_WAYS);
        assert!(cache.is_empty());
        for i in 0..4 {
            cache.get_or_derive(&info(i), || sv.derive_key(&info(i)));
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 4));
        for i in 0..4 {
            assert!(cache.lookup(&info(i)).is_some());
        }
        assert_eq!((cache.hits(), cache.misses()), (4, 4));
        assert!(cache.lookup(&info(4)).is_none(), "a failed lookup inserts nothing");
        assert_eq!((cache.hits(), cache.misses()), (4, 5));
        // Key 0 is least recently used, so deriving key 4 evicts it.
        cache.get_or_derive(&info(4), || sv.derive_key(&info(4)));
        assert!(cache.lookup(&info(0)).is_none());
        assert!(cache.lookup(&info(1)).is_some());
        assert_eq!((cache.hits(), cache.misses()), (5, 7));
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn burst_resolver_defers_inserts_and_counts_like_sequential() {
        let sv = SecretValue::new([12u8; 16]);
        let base = sample_info();
        let info = |i: u32| ResInfo { res_id: i, ..base };
        let mut cache: AuthKeyCache = AuthKeyCache::new(AUTH_KEY_CACHE_WAYS);
        for i in 0..2 {
            cache.get_or_derive(&info(i), || sv.derive_key(&info(i)));
        }
        cache.reset_counters();
        // Two hits, then eight distinct misses (more than the set
        // holds) with repeats of both kinds.
        let burst: Vec<u32> = vec![0, 1, 2, 3, 4, 2, 5, 6, 7, 8, 9, 0, 9, 1];
        let mut resolver = BurstKeyResolver::new();
        for &i in &burst {
            resolver.visit(info(i), Some(&mut cache));
        }
        let pending = resolver.pending().to_vec();
        assert_eq!(pending, (2..10).map(info).collect::<Vec<_>>());
        assert_eq!((cache.hits(), cache.misses()), (6, 8));
        assert_eq!(cache.len(), 2, "no insert before finish");
        resolver.fill_pending(pending.iter().map(|p| sv.derive_key(p)));
        for (i, &id) in burst.iter().enumerate() {
            assert_eq!(*resolver.key_of(i, Some(&cache)), sv.derive_key(&info(id)));
        }
        resolver.finish(Some(&mut cache));
        assert_eq!(cache.len(), AUTH_KEY_CACHE_WAYS);
        for i in 6..10 {
            assert!(cache.lookup(&info(i)).is_some(), "last inserts are resident");
        }

        // Without a cache, repeats still derive once.
        let mut resolver = BurstKeyResolver::new();
        for &i in &burst {
            resolver.visit(info(i), None);
        }
        assert_eq!(resolver.pending().len(), 10);
        let keys: Vec<AuthKey> = resolver.pending().iter().map(|p| sv.derive_key(p)).collect();
        resolver.fill_pending(keys);
        for (i, &id) in burst.iter().enumerate() {
            assert_eq!(*resolver.key_of(i, None), sv.derive_key(&info(id)));
        }
        resolver.finish(None);
        assert!(resolver.pending().is_empty());
    }

    #[test]
    fn activity_window_inclusive() {
        let info = sample_info();
        assert!(!info.is_active_at(info.res_start - 1));
        assert!(info.is_active_at(info.res_start));
        assert!(info.is_active_at(info.expiry()));
        assert!(!info.is_active_at(info.expiry() + 1));
    }
}
