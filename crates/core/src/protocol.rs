//! The trusted-processor side of the SecNDP protocol (Algorithms 4 and 5).
//!
//! [`TrustedProcessor`] models the SecNDP engine inside the TEE (paper §V):
//! it owns the secret key and the software version manager, encrypts tables
//! (`ArithEnc`), regenerates OTP shares on demand (the encryption engine +
//! OTP PU), reconstructs results with one final ring addition (`SecNDPLd`),
//! and verifies tags in the verification engine.
//!
//! The division of labour mirrors Figure 4(a):
//!
//! ```text
//! processor (trusted)                      NDP (untrusted)
//! ───────────────────                      ───────────────
//! T0  C ← Arith-E(K, P)      ──C, C_T──►   stores ciphertext + tags
//! T1  E_res ← Σ aₖ·E_{iₖ}    ◄─C_res───    C_res ← Σ aₖ·C_{iₖ}
//!     res  ← C_res + E_res   ◄─C_T_res─    C_T_res ← Σ aₖ·C_{T_iₖ}
//!     verify: h(res) =? C_T_res + E_T_res
//! ```

use crate::checksum::{
    combine_weighted, plan_secrets, row_checksum, secrets_from_plan, ChecksumScheme,
};
use crate::device::NdpDevice;
use crate::encrypt::{
    check_shape, decrypt_elements, encrypt_elements, encrypt_tags, EncryptedTable,
};
use crate::endpoint::{Endpoint, Link, RequestId};
use crate::error::Error;
use crate::keys::SecretKey;
use crate::layout::TableLayout;
use crate::version::{RegionId, VersionManager};
use secndp_arith::mersenne::Fq;
use secndp_arith::ring::{words_from_le_bytes, RingWord};
use secndp_cipher::aes::{BlockCipher, BLOCK_BYTES};
use secndp_cipher::aes_fast::Aes128Fast;
use secndp_cipher::otp::{Domain, OtpGenerator, PadPlanner, PadRange};
use secndp_cipher::PadCache;
use secndp_telemetry::trace;
use std::collections::VecDeque;
use std::sync::Arc;

/// A reference to a published table: everything the processor needs to
/// regenerate its share and verify results. Handles are cheap to copy and
/// contain no secrets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableHandle {
    layout: TableLayout,
    region: RegionId,
    version: u64,
    has_tags: bool,
    scheme: ChecksumScheme,
}

impl TableHandle {
    /// The table's physical layout.
    pub fn layout(&self) -> TableLayout {
        self.layout
    }

    /// The version the table was encrypted under.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The OTP region the table occupies in the version manager.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Whether verification tags were generated for this table.
    pub fn has_tags(&self) -> bool {
        self.has_tags
    }

    /// The checksum scheme used for this table's tags.
    pub fn scheme(&self) -> ChecksumScheme {
        self.scheme
    }
}

/// The most cipher blocks a `len`-byte range can touch: it may start at the
/// last byte of its first block. Sizes planners before their requests.
fn max_blocks(len: usize) -> usize {
    (len + BLOCK_BYTES - 1).div_ceil(BLOCK_BYTES)
}

/// The most cipher blocks the plans of `queries` queries over `refs` row
/// references of `handle`'s table can hold: every reference's data blocks
/// and, when verifying, its tag block, plus each query's secrets.
fn plan_blocks(handle: &TableHandle, refs: usize, queries: usize, verify: bool) -> usize {
    if verify {
        refs * (max_blocks(handle.layout.row_bytes()) + 1) + queries * handle.scheme.num_secrets()
    } else {
        refs * max_blocks(handle.layout.row_bytes())
    }
}

/// `acc[j] += a · eⱼ` over the pad words `e` packed little-endian in `pads`
/// (Alg 4 lines 8–14 for one row): one pass over one contiguous slice of
/// the planner's pad buffer. A trailing partial word is ignored.
///
/// # Panics
///
/// Panics if `pads` holds more whole elements than `acc`.
pub(crate) fn accumulate_pads<W: RingWord>(pads: &[u8], a: W, acc: &mut [W]) {
    assert!(
        pads.len() / W::BYTES <= acc.len(),
        "pad range longer than the accumulator"
    );
    for (x, e) in acc.iter_mut().zip(pads.chunks_exact(W::BYTES)) {
        *x = x.wadd(a.wmul(W::from_le_slice(e)));
    }
}

/// The pad plan of one query at a time: a planner and the ranges it handed
/// out, reset and refilled per query so a packet of queries allocates once
/// and works in a cache-resident scratch (~26 KB for a verified PF-80
/// query on 128-byte rows) instead of a packet-sized one.
#[derive(Default)]
struct QueryPads {
    planner: PadPlanner,
    /// The query's data ranges in index order; when it is verified, its
    /// tag blocks in the same order and then the checksum secrets.
    ranges: Vec<PadRange>,
    /// A verified query's tag pads `E_{T_iₖ}`, in index order.
    tag_pads: Vec<Fq>,
    /// Executes skip the pad cache: set for the queries of a packet with
    /// more blocks than the cache holds (see `admit_batch`).
    scan: bool,
}

impl QueryPads {
    /// Scratch for one query of `refs` rows: at most `blocks` cipher blocks.
    fn for_query(refs: usize, blocks: usize) -> Self {
        Self {
            planner: PadPlanner::with_capacity(blocks),
            ranges: Vec::with_capacity(2 * refs + 1),
            tag_pads: Vec::with_capacity(refs),
            scan: false,
        }
    }

    /// Starts a new plan with the data pads of rows `indices`.
    fn request_rows(&mut self, layout: &TableLayout, version: u64, indices: &[usize]) {
        self.planner.reset();
        self.ranges.clear();
        self.ranges.extend(indices.iter().map(|&i| {
            self.planner.request_bytes(
                Domain::Data,
                layout.row_addr(i),
                layout.row_bytes(),
                version,
            )
        }));
    }

    /// `acc += Σₖ aₖ · E_{iₖ}` over the executed plan's rows (Alg 4 lines
    /// 8–14).
    fn accumulate_rows<W: RingWord>(&self, weights: &[W], acc: &mut [W]) {
        for (range, &a) in self.ranges.iter().zip(weights) {
            accumulate_pads(self.planner.pad_slice(range), a, acc);
        }
    }
}

/// A pipelined packet's requests that are sent and not yet waited on,
/// oldest first. Whatever is left when the packet ends — it failed at an
/// earlier query — is abandoned, so a device that spoils one reply cannot
/// make the trusted side keep the others' slots, frames and replies.
struct Outstanding<'a, L: Link> {
    endpoint: &'a Endpoint<L>,
    ids: VecDeque<RequestId>,
}

impl<L: Link> Drop for Outstanding<'_, L> {
    fn drop(&mut self) {
        // `abandon` takes the table lock, which panics when poisoned; an
        // unwinding thread must not panic again.
        if std::thread::panicking() {
            return;
        }
        for &id in &self.ids {
            self.endpoint.abandon(id);
        }
    }
}

/// The processor's half of one query — everything Algorithms 4 and 5 let
/// it compute before the device has answered. Made by
/// [`TrustedProcessor::prepare`], consumed by [`TrustedProcessor::finish`].
struct Prepared<W> {
    /// `E_res = Σₖ aₖ·E_{iₖ}` (Alg 4 lines 8–14), in the buffer that
    /// becomes the query's result.
    res: Vec<W>,
    /// For a verified query: `E_T_res = Σₖ aₖ·E_{T_iₖ}` (Alg 5 lines
    /// 11–14) and the checksum secrets.
    tag: Option<(Fq, Vec<Fq>)>,
}

/// The TEE-resident SecNDP engine: key, version manager, encryption and
/// verification logic.
pub struct TrustedProcessor<C: BlockCipher = Aes128Fast> {
    /// The keyed pad generator; the raw key is consumed at construction and
    /// never retained or exposed.
    otp: OtpGenerator<C>,
    versions: VersionManager,
    scheme: ChecksumScheme,
    /// Cross-query pad cache, shared with the version manager's retire
    /// hook so bumped/released versions are evicted eagerly. One cache per
    /// key domain: [`rotate_key`](Self::rotate_key) clears it.
    pad_cache: Arc<PadCache>,
}

impl<C: BlockCipher> std::fmt::Debug for TrustedProcessor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedProcessor")
            .field("live_regions", &self.versions.live_regions())
            .field("scheme", &self.scheme)
            .field("pad_cache_blocks", &self.pad_cache.capacity_blocks())
            .finish_non_exhaustive()
    }
}

impl TrustedProcessor<Aes128Fast> {
    /// Creates a processor with the paper's defaults: AES-128 pads,
    /// single-`s` checksums and a 64-region version manager.
    pub fn new(key: SecretKey) -> Self {
        Self::with_options(key, ChecksumScheme::SingleS, VersionManager::new())
    }

    /// Creates a processor with an explicit checksum scheme and version
    /// manager.
    pub fn with_options(
        key: SecretKey,
        scheme: ChecksumScheme,
        mut versions: VersionManager,
    ) -> Self {
        crate::health::register_protocol_health();
        let pad_cache = Arc::new(PadCache::with_default_capacity());
        versions.add_retire_hook(pad_cache.clone());
        Self {
            otp: key.otp_generator_fast(),
            versions,
            scheme,
            pad_cache,
        }
    }
}

impl<C: BlockCipher> TrustedProcessor<C> {
    /// Builds a processor around an arbitrary keyed block cipher (e.g.
    /// [`secndp_cipher::Aes256`] for a 256-bit security level, or the
    /// byte-oriented reference AES).
    pub fn from_cipher(cipher: C, scheme: ChecksumScheme, mut versions: VersionManager) -> Self {
        crate::health::register_protocol_health();
        let pad_cache = Arc::new(PadCache::with_default_capacity());
        versions.add_retire_hook(pad_cache.clone());
        Self {
            otp: OtpGenerator::new(cipher),
            versions,
            scheme,
            pad_cache,
        }
    }

    /// Rotates to a fresh cipher (key rotation), keeping the version
    /// manager so existing regions continue to advance monotonically.
    ///
    /// Tables encrypted under the old key must be decrypted *before*
    /// rotating (via [`decrypt_table`](Self::decrypt_table)) and
    /// re-encrypted afterwards with
    /// [`reencrypt_table`](Self::reencrypt_table); their old handles stop
    /// verifying, which is exactly the point — a replayed pre-rotation
    /// ciphertext is rejected.
    pub fn rotate_key<C2: BlockCipher>(self, new_cipher: C2) -> TrustedProcessor<C2> {
        // Cached pads are keyed only by the counter tuple, not the key —
        // everything derived under the old key must go. The Arc itself is
        // kept so the version manager's retire hook stays wired.
        self.pad_cache.clear();
        TrustedProcessor {
            otp: OtpGenerator::new(new_cipher),
            versions: self.versions,
            scheme: self.scheme,
            pad_cache: self.pad_cache,
        }
    }

    /// The active checksum scheme.
    pub fn scheme(&self) -> ChecksumScheme {
        self.scheme
    }

    /// The version manager (inspectable for tests and tooling).
    pub fn version_manager(&self) -> &VersionManager {
        &self.versions
    }

    /// The cross-query pad cache (inspectable for tests, tooling and
    /// benchmarks).
    pub fn pad_cache(&self) -> &PadCache {
        &self.pad_cache
    }

    /// Resizes the pad cache to hold `blocks` 16-byte pads (`0` disables
    /// caching entirely). Drops all cached contents.
    pub fn set_pad_cache_blocks(&self, blocks: usize) {
        self.pad_cache.set_capacity_blocks(blocks);
    }

    /// Encrypts a `rows × cols` plaintext and generates per-row tags —
    /// the `ArithEnc` instruction with the verification bit set (§V-E1).
    ///
    /// # Errors
    ///
    /// Propagates layout errors, shape mismatches, and version exhaustion.
    pub fn encrypt_table<W: RingWord>(
        &mut self,
        plaintext: &[W],
        rows: usize,
        cols: usize,
        base_addr: u64,
    ) -> Result<EncryptedTable<W>, Error> {
        self.encrypt_table_opts(plaintext, rows, cols, base_addr, true)
    }

    /// Encrypts without generating tags (encryption-only mode, `Enc-only`
    /// in Figure 9).
    ///
    /// # Errors
    ///
    /// Propagates layout errors, shape mismatches, and version exhaustion.
    pub fn encrypt_table_untagged<W: RingWord>(
        &mut self,
        plaintext: &[W],
        rows: usize,
        cols: usize,
        base_addr: u64,
    ) -> Result<EncryptedTable<W>, Error> {
        self.encrypt_table_opts(plaintext, rows, cols, base_addr, false)
    }

    fn encrypt_table_opts<W: RingWord>(
        &mut self,
        plaintext: &[W],
        rows: usize,
        cols: usize,
        base_addr: u64,
        with_tags: bool,
    ) -> Result<EncryptedTable<W>, Error> {
        let mut sp = trace::span(trace::names::ENCRYPT).timed(crate::metrics::stage_encrypt());
        sp.attr_u64("base_addr", base_addr);
        sp.attr_u64("rows", rows as u64);
        sp.attr_u64("cols", cols as u64);
        let layout = TableLayout::new::<W>(base_addr, rows, cols)?;
        // Before the version manager: a refused plaintext takes no region.
        check_shape(plaintext.len(), &layout)?;
        let (region, version) = self.versions.register()?;
        sp.attr_u64("version", version);
        let ciphertext = encrypt_elements(&self.otp, plaintext, &layout, version)?;
        let tags =
            with_tags.then(|| encrypt_tags(&self.otp, plaintext, &layout, version, self.scheme));
        Ok(EncryptedTable::from_parts(
            layout, region, version, ciphertext, tags,
        ))
    }

    /// Re-encrypts new contents for an existing table under a bumped
    /// version (a region rewrite, §V-A). The old ciphertext becomes
    /// undecryptable and replay of it is detected by verification.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches and version exhaustion.
    pub fn reencrypt_table<W: RingWord>(
        &mut self,
        table: &EncryptedTable<W>,
        plaintext: &[W],
    ) -> Result<EncryptedTable<W>, Error> {
        let layout = table.layout();
        // Before the bump: a refused plaintext must not retire the live
        // table's version (and sweep its pads).
        check_shape(plaintext.len(), &layout)?;
        let version = self.versions.bump(table.region())?;
        let ciphertext = encrypt_elements(&self.otp, plaintext, &layout, version)?;
        let tags = table
            .tags()
            .is_some()
            .then(|| encrypt_tags(&self.otp, plaintext, &layout, version, self.scheme));
        Ok(EncryptedTable::from_parts(
            layout,
            table.region(),
            version,
            ciphertext,
            tags,
        ))
    }

    /// Ships an encrypted table to an NDP device (the `T0` initialization
    /// transfer of Figure 4) and returns the handle used for later queries.
    ///
    /// # Errors
    ///
    /// Propagates the device's load rejection — [`Error::ShapeMismatch`]
    /// for a bad row size, or [`Error::MalformedResponse`] from wire-backed
    /// devices whose reply is not a valid acknowledgement.
    pub fn publish<W: RingWord, D: NdpDevice>(
        &self,
        table: &EncryptedTable<W>,
        device: &mut D,
    ) -> Result<TableHandle, Error> {
        let mut sp = trace::span("publish");
        sp.attr_u64("base_addr", table.layout().base_addr());
        sp.attr_u64("version", table.version());
        device.load(
            table.layout().base_addr(),
            table.ciphertext_bytes(),
            table.layout().row_bytes(),
            table.tags().map(<[Fq]>::to_vec),
        )?;
        Ok(TableHandle {
            layout: table.layout(),
            region: table.region(),
            version: table.version(),
            has_tags: table.tags().is_some(),
            scheme: self.scheme,
        })
    }

    /// Computes `res = Σₖ aₖ · P_{iₖ}` (a weighted summation of rows) using
    /// the untrusted device — Algorithm 4, optionally verified per
    /// Algorithm 5.
    ///
    /// The device works on ciphertext; this method regenerates the OTP
    /// share, reconstructs, and (if `verify`) checks the tag. With `verify`
    /// the result is also guaranteed not to have overflowed ℤ(2^wₑ) in the
    /// unsigned residue sense (Theorem A.2).
    ///
    /// # Errors
    ///
    /// - [`Error::VerificationFailed`] if the reconstructed tag mismatches —
    ///   tampering or overflow.
    /// - [`Error::TagsUnavailable`] if `verify` is requested on an untagged
    ///   table.
    /// - Query-shape errors for bad indices/weights.
    pub fn weighted_sum<W: RingWord, D: NdpDevice>(
        &self,
        handle: &TableHandle,
        device: &D,
        indices: &[usize],
        weights: &[W],
        verify: bool,
    ) -> Result<Vec<W>, Error> {
        let mut sp = trace::span("weighted_sum");
        sp.attr_u64("base_addr", handle.layout.base_addr());
        sp.attr_u64("rows", indices.len() as u64);
        let _cost = secndp_telemetry::profile::begin_query("weighted_sum");
        self.validate_query(handle, indices, weights)?;
        if verify && !handle.has_tags {
            return Err(Error::TagsUnavailable);
        }
        let layout = handle.layout;
        crate::metrics::queries().inc();
        let response = {
            let _s =
                trace::span(trace::names::NDP_COMPUTE).timed(crate::metrics::stage_ndp_compute());
            device.weighted_sum::<W>(layout.base_addr(), indices, weights, verify)?
        };
        self.reconstruct_response(handle, indices, weights, &response, verify)
    }

    /// Reconstructs (and optionally verifies) a raw
    /// [`NdpResponse`](crate::device::NdpResponse) —
    /// Algorithm 4 lines 8–15 plus Algorithm 5. This is the verification
    /// oracle `ws-Verify` of Algorithm 7: callers that obtained a response
    /// out-of-band (a replay, a forgery attempt, a stored transcript) can
    /// submit it here and learn only pass/fail plus the reconstructed
    /// value.
    ///
    /// # Errors
    ///
    /// Same as [`weighted_sum`](Self::weighted_sum), plus
    /// [`Error::MalformedResponse`] for shape violations.
    pub fn reconstruct_response<W: RingWord>(
        &self,
        handle: &TableHandle,
        indices: &[usize],
        weights: &[W],
        response: &crate::device::NdpResponse<W>,
        verify: bool,
    ) -> Result<Vec<W>, Error> {
        self.validate_query(handle, indices, weights)?;
        let mut pads =
            QueryPads::for_query(indices.len(), plan_blocks(handle, indices.len(), 1, verify));
        self.reconstruct(handle, indices, weights, response, verify, &mut pads)
    }

    /// Executes a batch of weighted summations against one table — the
    /// software view of an NDP packet (up to `NDP_reg` queries in flight;
    /// the timing consequences live in `secndp-sim`). Each query is
    /// independently verified; the first failure aborts the batch.
    ///
    /// Every query is reconstructed exactly as a single
    /// [`weighted_sum`](Self::weighted_sum) is — its data pads, tag pads
    /// and secrets through one [`PadPlanner`] execute — with one planner
    /// reused across the packet; only the pad cache's admission is decided
    /// for the packet as a whole (see DESIGN.md "Pad cache").
    ///
    /// # Errors
    ///
    /// Same as [`weighted_sum`](Self::weighted_sum), for the first failing
    /// query.
    pub fn weighted_sum_batch<W: RingWord, D: NdpDevice>(
        &self,
        handle: &TableHandle,
        device: &D,
        queries: &[(Vec<usize>, Vec<W>)],
        verify: bool,
    ) -> Result<Vec<Vec<W>>, Error> {
        let mut sp = trace::span("weighted_sum_batch");
        sp.attr_u64("base_addr", handle.layout.base_addr());
        sp.attr_u64("queries", queries.len() as u64);
        let _cost = secndp_telemetry::profile::begin_query("weighted_sum_batch");
        let mut pads = self.admit_batch(handle, queries, verify)?;
        let layout = handle.layout;

        let mut out = Vec::with_capacity(queries.len());
        for (idx, weights) in queries {
            crate::metrics::queries().inc();
            let response = {
                let _s = trace::span(trace::names::NDP_COMPUTE)
                    .timed(crate::metrics::stage_ndp_compute());
                device.weighted_sum::<W>(layout.base_addr(), idx, weights, verify)?
            };
            out.push(self.reconstruct(handle, idx, weights, &response, verify, &mut pads)?);
        }
        Ok(out)
    }

    /// [`weighted_sum_batch`](Self::weighted_sum_batch) over an
    /// [`Endpoint`] on any link, with the OTP PU working beside the NDP PUs
    /// (§V-C): all queries are validated, then for each query in submission
    /// order the caller tops its own outstanding requests up to the
    /// endpoint's window (once they have drained to half of it), prepares
    /// the query — its pads, `E_res` and `E_T_res` are made while the ranks
    /// serve it and the requests behind it — waits for its reply and
    /// finishes it: reconstruct, verify. Prepared state is held for one
    /// query at a time and nothing is sized by the packet but the returned
    /// vector, which is identical to the blocking batch's.
    ///
    /// The caller bounds only its *own* requests, so as the endpoint's one
    /// submitter it never blocks in `submit`; beside other submitters it
    /// may, as any of them. If the packet fails part-way, the requests
    /// still outstanding are abandoned: their slots, retained frames and
    /// window credits are returned, and their replies are counted late.
    ///
    /// # Errors
    ///
    /// Same as [`weighted_sum_batch`](Self::weighted_sum_batch), plus
    /// [`Error::DeviceTimeout`] when a rank stalls past its deadline (and
    /// retries are exhausted).
    pub fn weighted_sum_batch_pipelined<W: RingWord, L: Link>(
        &self,
        handle: &TableHandle,
        endpoint: &Endpoint<L>,
        queries: &[(Vec<usize>, Vec<W>)],
        verify: bool,
    ) -> Result<Vec<Vec<W>>, Error> {
        use crate::wire::{sum_from_response, Request};
        let mut sp = trace::span("weighted_sum_batch");
        sp.attr_u64("base_addr", handle.layout.base_addr());
        sp.attr_u64("queries", queries.len() as u64);
        sp.attr_u64("ranks", endpoint.ranks() as u64);
        let _cost = secndp_telemetry::profile::begin_query("weighted_sum_batch_pipelined");
        // Nothing is sent for a packet that holds an invalid query.
        let mut pads = self.admit_batch(handle, queries, verify)?;
        let layout = handle.layout;

        let _wire = trace::span(trace::names::WIRE_ROUND_TRIP);
        let window = endpoint.window();
        let mut unsent = queries.iter();
        let mut outstanding = Outstanding {
            endpoint,
            ids: VecDeque::with_capacity(window.min(queries.len())),
        };
        let mut out = Vec::with_capacity(queries.len());
        for (idx, weights) in queries {
            // Top up to the window once half of it has been reaped — the
            // endpoint's own low-water idea: the ranks outrun a caller that
            // is making pads and sleep between bursts, so a refill per
            // reaped query would pay a futex wake-up per frame. Query k is
            // always among the sent: an empty queue is under any mark.
            if outstanding.ids.len() <= window / 2 {
                for (idx, weights) in unsent.by_ref().take(window - outstanding.ids.len()) {
                    crate::metrics::queries().inc();
                    let req = Request::WeightedSum {
                        table_addr: layout.base_addr(),
                        elem_bytes: W::BYTES as u8,
                        indices: idx.iter().map(|&i| i as u64).collect(),
                        weights: weights.iter().map(|w| w.as_u64()).collect(),
                        with_tag: verify,
                    };
                    outstanding.ids.push_back(endpoint.submit(&req)?);
                }
            }
            let prepared = self.prepare(handle, idx, weights, verify, &mut pads);
            let response = {
                let _s = trace::span(trace::names::NDP_COMPUTE)
                    .timed(crate::metrics::stage_ndp_compute());
                let id = outstanding.ids.pop_front().ok_or_else(|| {
                    crate::metrics::malformed("pipelined query was never submitted")
                })?;
                sum_from_response::<W>(endpoint.wait(id)?, layout.base_addr())?
            };
            out.push(self.finish(handle, prepared, &response)?);
        }
        Ok(out)
    }

    /// Validates every query of a packet — before anything is computed or
    /// sent — and returns the scratch its queries are reconstructed in,
    /// with the packet's pad-cache admission decided: a packet that may
    /// need more blocks than the cache holds is a scan (CLOCK would evict
    /// its first queries' pads before a later packet could reuse them), so
    /// its queries execute uncached and leave the resident hot set alone.
    fn admit_batch<W: RingWord>(
        &self,
        handle: &TableHandle,
        queries: &[(Vec<usize>, Vec<W>)],
        verify: bool,
    ) -> Result<QueryPads, Error> {
        for (idx, w) in queries {
            self.validate_query(handle, idx, w)?;
        }
        if verify && !handle.has_tags {
            return Err(Error::TagsUnavailable);
        }
        let refs: usize = queries.iter().map(|(idx, _)| idx.len()).sum();
        let blocks = plan_blocks(handle, refs, queries.len(), verify);
        Ok(QueryPads {
            scan: blocks > self.pad_cache.capacity_blocks(),
            ..QueryPads::default()
        })
    }

    /// Algorithm 4 lines 8–15 and Algorithm 5 for one validated query, shared
    /// by every entry point: [`prepare`](Self::prepare), which needs no
    /// reply, then [`finish`](Self::finish), the one place a device reply
    /// becomes a result.
    fn reconstruct<W: RingWord>(
        &self,
        handle: &TableHandle,
        indices: &[usize],
        weights: &[W],
        response: &crate::device::NdpResponse<W>,
        verify: bool,
        pads: &mut QueryPads,
    ) -> Result<Vec<W>, Error> {
        let prepared = self.prepare(handle, indices, weights, verify, pads);
        self.finish(handle, prepared, response)
    }

    /// The OTP PU's half of one validated query (Alg 4 lines 8–14, Alg 5
    /// lines 11–14): its data pads and — when verifying — its tag pads and
    /// the checksum secrets are planned into `pads` and generated by one
    /// execute, then folded into `E_res`, `E_T_res` and the secrets.
    ///
    /// There is no reply among the parameters, and that is the point: the
    /// paper's processor computes its share *while* the NDP computes
    /// `C_res` (§V-C), so this may run before the reply exists, and no
    /// byte from the untrusted side can reach it.
    fn prepare<W: RingWord>(
        &self,
        handle: &TableHandle,
        indices: &[usize],
        weights: &[W],
        verify: bool,
        pads: &mut QueryPads,
    ) -> Prepared<W> {
        let _s = trace::span(trace::names::DECRYPT).timed(crate::metrics::stage_decrypt());
        let layout = handle.layout;
        pads.request_rows(&layout, handle.version, indices);
        if verify {
            let planner = &mut pads.planner;
            pads.ranges.extend(
                indices.iter().map(|&i| {
                    planner.request_block(Domain::Tag, layout.row_addr(i), handle.version)
                }),
            );
            pads.ranges.extend(plan_secrets(
                planner,
                layout.base_addr(),
                handle.version,
                handle.scheme,
            ));
        }
        if pads.scan {
            pads.planner.execute(self.otp.cipher());
            self.pad_cache.note_bypassed(pads.planner.planned_blocks());
        } else {
            pads.planner
                .execute_cached(self.otp.cipher(), Some(&self.pad_cache));
        }
        let mut res = vec![W::ZERO; layout.cols()];
        pads.accumulate_rows(weights, &mut res);
        let tag = verify.then(|| {
            let (tags, secrets) = pads.ranges[indices.len()..].split_at(indices.len());
            pads.tag_pads.clear();
            pads.tag_pads.extend(
                tags.iter()
                    .map(|range| Fq::new(pads.planner.pad_first_127_bits(range))),
            );
            let e_t_res = combine_weighted(weights, &pads.tag_pads);
            (e_t_res, secrets_from_plan(&pads.planner, secrets))
        });
        Prepared { res, tag }
    }

    /// `SecNDPLd` and the verification engine (Alg 4 line 15, Alg 5 lines
    /// 15–17): the first and only place a reply to a weighted summation is
    /// read. Each field is checked where it is first used.
    fn finish<W: RingWord>(
        &self,
        handle: &TableHandle,
        prepared: Prepared<W>,
        response: &crate::device::NdpResponse<W>,
    ) -> Result<Vec<W>, Error> {
        let Prepared { mut res, tag } = prepared;
        if response.c_res.len() != handle.layout.cols() {
            return Err(crate::metrics::malformed(
                "result width differs from table columns",
            ));
        }
        // res = C_res + E_res.
        for (x, &c) in res.iter_mut().zip(&response.c_res) {
            *x = x.wadd(c);
        }
        if let Some((e_t_res, secrets)) = tag {
            let _s = trace::span(trace::names::VERIFY).timed(crate::metrics::stage_verify());
            let c_t_res = response.c_t_res.ok_or_else(|| {
                crate::metrics::malformed("verification requested but no tag returned")
            })?;
            // Retrieved MAC = C_T_res + E_T_res (see mac.rs on the paper's
            // sign typo in Alg 5 line 16).
            if row_checksum(&res, &secrets) != c_t_res + e_t_res {
                return Err(crate::metrics::verification_failed(
                    handle.layout.base_addr(),
                    handle.region.0,
                    handle.version,
                    handle.scheme.name(),
                ));
            }
        }
        Ok(res)
    }

    /// The processor's share `E_res` of a weighted summation (public for
    /// tests and the simulator's OTP-PU accounting).
    ///
    /// Pads for all referenced rows are planned and encrypted in one
    /// batched, cache-probed pass; a repeated index is planned again.
    pub fn otp_share<W: RingWord>(
        &self,
        layout: &TableLayout,
        version: u64,
        indices: &[usize],
        weights: &[W],
    ) -> Vec<W> {
        let blocks = indices.len() * max_blocks(layout.row_bytes());
        let mut pads = QueryPads::for_query(indices.len(), blocks);
        pads.request_rows(layout, version, indices);
        pads.planner
            .execute_cached(self.otp.cipher(), Some(&self.pad_cache));
        let mut e_res = vec![W::ZERO; layout.cols()];
        pads.accumulate_rows(weights, &mut e_res);
        e_res
    }

    /// Fetches one row back from the device and decrypts it (a plain
    /// protected-memory read; no NDP computation involved).
    ///
    /// # Errors
    ///
    /// Propagates device errors; returns [`Error::MalformedResponse`] if the
    /// returned row has the wrong size.
    pub fn read_row<W: RingWord, D: NdpDevice>(
        &self,
        handle: &TableHandle,
        device: &D,
        row: usize,
    ) -> Result<Vec<W>, Error> {
        let mut sp = trace::span("read_row");
        sp.attr_u64("base_addr", handle.layout.base_addr());
        sp.attr_u64("row", row as u64);
        let layout = handle.layout;
        if row >= layout.rows() {
            return Err(Error::RowOutOfBounds {
                index: row,
                rows: layout.rows(),
            });
        }
        let bytes = device.read_row(layout.base_addr(), row)?;
        if bytes.len() != layout.row_bytes() {
            return Err(crate::metrics::malformed("row size differs from layout"));
        }
        let mut plain = words_from_le_bytes::<W>(&bytes);
        let mut planner = PadPlanner::with_capacity(max_blocks(layout.row_bytes()));
        let range = planner.request_bytes(
            Domain::Data,
            layout.row_addr(row),
            layout.row_bytes(),
            handle.version,
        );
        planner.execute_cached(self.otp.cipher(), Some(&self.pad_cache));
        // p = c + 1·e.
        accumulate_pads(planner.pad_slice(&range), W::ONE, &mut plain);
        Ok(plain)
    }

    /// A **verified** single-row read: fetches the row as the weighted
    /// summation `1 · row` so the device must return a combinable tag, and
    /// the usual checksum comparison (Algorithm 5) authenticates the
    /// bytes. A plain [`read_row`](Self::read_row) trusts whatever
    /// ciphertext the device returns — fine for throughput, but a
    /// tampering device can silently swap or corrupt rows there; this
    /// path closes that gap at the cost of one tag combination.
    ///
    /// # Errors
    ///
    /// As for [`weighted_sum`](Self::weighted_sum), including
    /// [`Error::VerificationFailed`] when the row was tampered with and
    /// [`Error::TagsUnavailable`] when the table was published untagged.
    pub fn read_row_verified<W: RingWord, D: NdpDevice>(
        &self,
        handle: &TableHandle,
        device: &D,
        row: usize,
    ) -> Result<Vec<W>, Error> {
        self.weighted_sum(handle, device, &[row], &[W::from_u64(1)], true)
    }

    /// Element-granular offload: `Σₖ aₖ · P[iₖ][jₖ]` over individual
    /// elements — the fully general form of Algorithm 4 (Appendix A), which
    /// indexes by `(iₖ, jₖ)` pairs instead of whole rows.
    ///
    /// This path is **encryption-only**: the per-row tags of Algorithms 2/3
    /// authenticate whole-row linear combinations, so element selections
    /// cannot be verified with them (the paper's verification, Alg 5, is
    /// likewise defined over row-level weighted summations).
    ///
    /// # Errors
    ///
    /// Query-shape and device errors.
    pub fn weighted_sum_elements<W: RingWord, D: NdpDevice>(
        &self,
        handle: &TableHandle,
        device: &D,
        coords: &[(usize, usize)],
        weights: &[W],
    ) -> Result<W, Error> {
        let mut sp = trace::span("weighted_sum_elements");
        sp.attr_u64("base_addr", handle.layout.base_addr());
        sp.attr_u64("elements", coords.len() as u64);
        if coords.len() != weights.len() {
            return Err(Error::QueryLengthMismatch {
                indices: coords.len(),
                weights: weights.len(),
            });
        }
        let layout = handle.layout;
        for &(i, j) in coords {
            if i >= layout.rows() {
                return Err(Error::RowOutOfBounds {
                    index: i,
                    rows: layout.rows(),
                });
            }
            if j >= layout.cols() {
                return Err(Error::ColOutOfBounds {
                    index: j,
                    cols: layout.cols(),
                });
            }
        }
        let c_res = device.weighted_sum_elements::<W>(layout.base_addr(), coords, weights)?;
        // OTP PU: Σₖ aₖ · E_{iₖ,jₖ} (Alg 4 lines 8–12), planned as one
        // batch.
        let mut planner = PadPlanner::with_capacity(coords.len() * max_blocks(W::BYTES));
        let ranges: Vec<PadRange> = coords
            .iter()
            .map(|&(i, j)| {
                planner.request_bytes(
                    Domain::Data,
                    layout.element_addr(i, j),
                    W::BYTES,
                    handle.version,
                )
            })
            .collect();
        planner.execute_cached(self.otp.cipher(), Some(&self.pad_cache));
        let mut res = c_res;
        for (range, &a) in ranges.iter().zip(weights) {
            accumulate_pads(planner.pad_slice(range), a, std::slice::from_mut(&mut res));
        }
        Ok(res)
    }

    /// Decrypts a full table image held locally (used for round-trip tests
    /// and the initialization path).
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn decrypt_table<W: RingWord>(&self, table: &EncryptedTable<W>) -> Result<Vec<W>, Error> {
        decrypt_elements(
            &self.otp,
            table.ciphertext(),
            &table.layout(),
            table.version(),
        )
    }

    /// Releases the version-manager region backing `handle`, freeing a slot.
    ///
    /// The region's version is bumped past its last-used value first (and
    /// the manager's global high-water mark preserves it after release), so
    /// a later registration reusing the slot — possibly at the same base
    /// address — can never resume an old `(addr, version)` OTP stream.
    pub fn release(&mut self, handle: &TableHandle) {
        let _ = self.versions.bump(handle.region);
        self.versions.release(handle.region);
    }

    fn validate_query<W: RingWord>(
        &self,
        handle: &TableHandle,
        indices: &[usize],
        weights: &[W],
    ) -> Result<(), Error> {
        if indices.len() != weights.len() {
            return Err(Error::QueryLengthMismatch {
                indices: indices.len(),
                weights: weights.len(),
            });
        }
        let rows = handle.layout.rows();
        if let Some(&bad) = indices.iter().find(|&&i| i >= rows) {
            return Err(Error::RowOutOfBounds { index: bad, rows });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{HonestNdp, Tamper, TamperingNdp};
    use proptest::prelude::*;

    fn setup() -> (TrustedProcessor, HonestNdp) {
        (
            TrustedProcessor::new(SecretKey::from_bytes([0xAB; 16])),
            HonestNdp::new(),
        )
    }

    #[test]
    fn accumulate_pads_matches_materialised_loop() {
        // The in-place accumulate against the loop it replaced
        // (materialise the pad words — here straight from the generator,
        // not the planner — then add), at every width: block-aligned rows,
        // rows starting mid-block (elements straddle cipher blocks when
        // the lead is odd) and row lengths that are not a multiple of 16
        // bytes.
        fn check<W: RingWord>() {
            let otp = OtpGenerator::new(Aes128Fast::new(&[0x6B; 16]));
            for (addr, cols) in [
                (0x1000u64, 16usize),
                (0x1003, 16),
                (0x1009, 5),
                (0x100f, 13),
            ] {
                let row_addr = |r: usize| addr + (r * cols * W::BYTES) as u64;
                let mut planner = PadPlanner::new();
                let ranges: Vec<PadRange> = (0..3)
                    .map(|r| planner.request_bytes(Domain::Data, row_addr(r), cols * W::BYTES, 9))
                    .collect();
                planner.execute(otp.cipher());
                let seed: Vec<W> = (0..cols as u64).map(|j| W::from_u64(j * 77 + 1)).collect();
                let (mut got, mut want) = (seed.clone(), seed);
                for (k, range) in ranges.iter().enumerate() {
                    let a = W::from_u64(0x9E37_79B9_7F4A_7C15 >> k);
                    accumulate_pads(planner.pad_slice(range), a, &mut got);
                    let pads = words_from_le_bytes::<W>(&otp.data_pad_bytes(
                        row_addr(k),
                        cols * W::BYTES,
                        9,
                    ));
                    for (acc, &e) in want.iter_mut().zip(&pads) {
                        *acc = acc.wadd(a.wmul(e));
                    }
                }
                assert_eq!(got, want, "width {} addr {addr:#x} cols {cols}", W::BITS);
            }
        }
        check::<u8>();
        check::<u16>();
        check::<u32>();
        check::<u64>();
    }

    /// xorshift64*: the seeded stream behind the split differential — its
    /// own, so the pinned digest does not hang on the `rand` shim's stream.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// One validated query through the two halves, as every entry point
    /// composes them — `prepare` returning before the reply is looked at.
    fn via_split<W: RingWord>(
        cpu: &TrustedProcessor,
        handle: &TableHandle,
        indices: &[usize],
        weights: &[W],
        reply: &crate::device::NdpResponse<W>,
        verify: bool,
    ) -> Result<Vec<W>, Error> {
        let blocks = plan_blocks(handle, indices.len(), 1, verify);
        let mut pads = QueryPads::for_query(indices.len(), blocks);
        let prepared = cpu.prepare(handle, indices, weights, verify, &mut pads);
        cpu.finish(handle, prepared, reply)
    }

    /// The seeded cases of [`split_matches_the_unsplit_reconstruct`] at one
    /// width and scheme. Every outcome is checked against the plaintext (or
    /// the error the mutation must raise), against `reconstruct_response`,
    /// and folded, as its `Debug` text, into the FNV-1a `digest`.
    fn split_cases<W: RingWord>(scheme: ChecksumScheme, digest: &mut u64) {
        const ROWS: usize = 24;
        const ADDR: u64 = 0x1003; // rows start mid-block
        let width = Error::MalformedResponse {
            reason: "result width differs from table columns",
        };
        let no_tag = Error::MalformedResponse {
            reason: "verification requested but no tag returned",
        };
        let rejected = Error::VerificationFailed { table_addr: ADDR };
        let mut rng = Rng(0x5EC0_4D90 ^ u64::from(W::BITS) ^ ((scheme.num_secrets() as u64) << 8));
        // 5, 13 and 16 columns: at every width but u8 × 16 a row is not a
        // whole number of cipher blocks.
        for cols in [5usize, 13, 16] {
            let mut cpu = TrustedProcessor::with_options(
                SecretKey::from_bytes([0x5C; 16]),
                scheme,
                VersionManager::new(),
            );
            let mut ndp = HonestNdp::new();
            let pt: Vec<W> = (0..ROWS * cols)
                .map(|_| W::from_u64(rng.next() % 4))
                .collect();
            let table = cpu.encrypt_table(&pt, ROWS, cols, ADDR).unwrap();
            let handle = cpu.publish(&table, &mut ndp).unwrap();
            for pf in [1usize, 8, 80] {
                let mut idx: Vec<usize> = (0..pf).map(|_| rng.next() as usize % ROWS).collect();
                idx[pf - 1] = idx[0]; // a repeated index at every PF > 1
                let small: Vec<W> = (0..pf).map(|_| W::from_u64(1 + rng.next() % 3)).collect();
                let huge: Vec<W> = (0..pf)
                    .map(|_| W::from_u64(u64::MAX - rng.next() % 7))
                    .collect();
                for verify in [true, false] {
                    let mut case = |w: &[W],
                                    what: &str,
                                    want: Option<Result<Vec<W>, Error>>,
                                    spoil: &dyn Fn(&mut crate::device::NdpResponse<W>)| {
                        // The plaintext sum over the integers, and whether
                        // it left ℤ(2^wₑ) (Theorem A.2).
                        let exact: Vec<u128> = (0..cols)
                            .map(|j| {
                                idx.iter()
                                    .zip(w)
                                    .map(|(&i, a)| a.as_u128() * pt[i * cols + j].as_u128())
                                    .sum()
                            })
                            .collect();
                        let overflowed = exact.iter().any(|&x| x >> W::BITS != 0);
                        let wrapped: Vec<W> = exact.iter().map(|&x| W::from_u64(x as u64)).collect();
                        let honest = ndp.weighted_sum::<W>(ADDR, &idx, w, verify).unwrap();
                        let mut reply = honest.clone();
                        spoil(&mut reply);
                        let want = want.unwrap_or(if verify && overflowed {
                            Err(rejected.clone())
                        } else {
                            // Unverified, a changed `c_res` moves the
                            // result by exactly the change.
                            Ok(wrapped
                                .iter()
                                .zip(&reply.c_res)
                                .zip(&honest.c_res)
                                .map(|((&p, &got), &sent)| p.wadd(got.wsub(sent)))
                                .collect())
                        });
                        let at = format!("u{} {scheme:?} cols {cols} pf {pf} verify {verify} {what}", W::BITS);
                        let got = via_split(&cpu, &handle, &idx, w, &reply, verify);
                        assert_eq!(got, want, "{at}");
                        assert_eq!(
                            cpu.reconstruct_response(&handle, &idx, w, &reply, verify),
                            want,
                            "{at}, through reconstruct_response"
                        );
                        for b in format!("{got:?}").bytes() {
                            *digest = (*digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
                        }
                    };
                    case(&small, "honest", None, &|_| {});
                    // The spoiled replies on one shape per width, scheme
                    // and PF: each refusal is an audit event, and the log
                    // other tests read is a 1024-entry ring.
                    if cols != 13 {
                        continue;
                    }
                    case(&huge, "ring overflow", None, &|_| {});
                    case(&small, "short", Some(Err(width.clone())), &|r| {
                        r.c_res.pop();
                    });
                    case(&small, "long", Some(Err(width.clone())), &|r| {
                        r.c_res.push(W::ONE);
                    });
                    let flip = (rng.next() as usize % cols, rng.next() as u32);
                    let value_bit = |r: &mut crate::device::NdpResponse<W>| {
                        let x = &mut r.c_res[flip.0];
                        *x = W::from_u64(x.as_u64() ^ (1 << (flip.1 % W::BITS)));
                    };
                    let tag_bit = |r: &mut crate::device::NdpResponse<W>| {
                        let t = r.c_t_res.map_or(0, Fq::value);
                        r.c_t_res = Some(Fq::new(t ^ (1 << (flip.1 % 126))));
                    };
                    if verify {
                        case(&small, "missing tag", Some(Err(no_tag.clone())), &|r| {
                            r.c_t_res = None;
                        });
                        case(&small, "value bit", Some(Err(rejected.clone())), &value_bit);
                        case(&small, "tag bit", Some(Err(rejected.clone())), &tag_bit);
                    } else {
                        // Unverified, a tag is never looked at.
                        case(&small, "value bit", None, &value_bit);
                        case(&small, "unasked tag", None, &tag_bit);
                    }
                }
            }
        }
    }

    /// `finish(prepare(..), reply)` returns what the single `reconstruct`
    /// it was split from returned — results and every error: width
    /// mismatch, missing tag, a flipped value bit, a flipped tag bit, ring
    /// overflow — at u8/u16/u32/u64, one secret and three, verified or
    /// not, PF 1, 8 and 80 with repeated indices, rows that are not whole
    /// cipher blocks. The digest is the one these same cases produced
    /// through `reconstruct_response` on the commit before the split.
    #[test]
    fn split_matches_the_unsplit_reconstruct() {
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        for scheme in [ChecksumScheme::SingleS, ChecksumScheme::MultiS { cnt: 3 }] {
            split_cases::<u8>(scheme, &mut digest);
            split_cases::<u16>(scheme, &mut digest);
            split_cases::<u32>(scheme, &mut digest);
            split_cases::<u64>(scheme, &mut digest);
        }
        assert_eq!(digest, 0x605A_FB96_24F6_7CA7, "{digest:#018x}");
    }

    #[test]
    fn end_to_end_weighted_sum_verified() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..32).collect();
        let table = cpu.encrypt_table(&pt, 4, 8, 0x4000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let res = cpu
            .weighted_sum(&handle, &ndp, &[0, 2, 3], &[1u32, 2, 3], true)
            .unwrap();
        for j in 0..8 {
            assert_eq!(res[j], pt[j] + 2 * pt[16 + j] + 3 * pt[24 + j]);
        }
    }

    #[test]
    fn unverified_path_works_without_tags() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u16> = (0..20).collect();
        let table = cpu.encrypt_table_untagged(&pt, 5, 4, 0).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        assert!(!handle.has_tags());
        let res = cpu
            .weighted_sum(&handle, &ndp, &[4], &[10u16], false)
            .unwrap();
        assert_eq!(res, vec![160, 170, 180, 190]);
        assert_eq!(
            cpu.weighted_sum(&handle, &ndp, &[4], &[10u16], true)
                .unwrap_err(),
            Error::TagsUnavailable
        );
    }

    #[test]
    fn tampering_is_detected() {
        let pt: Vec<u32> = (0..32).map(|x| x * 3 + 1).collect();
        for tamper in [
            Tamper::FlipResultBit {
                element: 2,
                bit: 17,
            },
            Tamper::SwapFirstRow { with: 3 },
            Tamper::ForgeTag,
            Tamper::ZeroResult,
            Tamper::CorruptStoredRow { row: 1 },
        ] {
            let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0xAB; 16]));
            let mut ndp = TamperingNdp::new(tamper);
            let table = cpu.encrypt_table(&pt, 4, 8, 0x4000).unwrap();
            let handle = cpu.publish(&table, &mut ndp).unwrap();
            let err = cpu
                .weighted_sum(&handle, &ndp, &[0, 1, 2], &[1u32, 2, 3], true)
                .unwrap_err();
            assert_eq!(
                err,
                Error::VerificationFailed { table_addr: 0x4000 },
                "{tamper:?} evaded verification"
            );
        }
    }

    /// Regression: a tampered reply must return
    /// [`Error::VerificationFailed`], bump the failure counter *and* write
    /// a security audit record — no silent metric-only (or error-only)
    /// path. Uses deltas / event filtering because the instruments are
    /// global and other tests run concurrently.
    #[test]
    #[cfg(feature = "telemetry")]
    fn tampering_increments_verify_failure_counter() {
        let failures = secndp_telemetry::counter!(
            "secndp_verify_failures_total",
            "Responses whose checksum tag failed verification."
        );
        let before = failures.get();
        let audit_before = secndp_telemetry::audit::audit_log().total();
        let pt: Vec<u32> = (0..32).collect();
        let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([0xCD; 16]));
        let mut ndp = TamperingNdp::new(Tamper::FlipResultBit { element: 0, bit: 3 });
        let table = cpu.encrypt_table(&pt, 4, 8, 0x9000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let err = cpu
            .weighted_sum(&handle, &ndp, &[0, 1], &[1u32, 1], true)
            .unwrap_err();
        assert_eq!(err, Error::VerificationFailed { table_addr: 0x9000 });
        assert!(failures.get() > before, "error returned without counting");
        // The failure also landed in the audit log, carrying the table's
        // identity, OTP version and checksum scheme.
        let log = secndp_telemetry::audit::audit_log();
        assert!(log.total() > audit_before, "no audit record written");
        let ev = log
            .snapshot()
            .into_iter()
            .rev()
            .find(|e| e.kind == "verification_failed" && e.table_addr == 0x9000)
            .expect("audit event for the tampered table");
        assert_eq!(ev.version, handle.version());
        assert_eq!(ev.scheme, "single_s");
        // The batch path shares the same invariant.
        let mid = failures.get();
        let err = cpu
            .weighted_sum_batch(&handle, &ndp, &[(vec![0, 1], vec![1u32, 1])], true)
            .unwrap_err();
        assert_eq!(err, Error::VerificationFailed { table_addr: 0x9000 });
        assert!(failures.get() > mid, "batch path skipped the counter");
    }

    /// Regression for release/re-register: a region released and later
    /// re-registered at the *same base address* must encrypt under a fresh
    /// version — identical versions would mean identical OTP pad streams
    /// (a two-time pad across the release boundary).
    #[test]
    fn released_slot_never_resumes_old_pad_stream() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = vec![7; 8];
        let t1 = cpu.encrypt_table(&pt, 2, 4, 0x500).unwrap();
        let h1 = cpu.publish(&t1, &mut ndp).unwrap();
        cpu.release(&h1);
        // Same plaintext, same base address, fresh registration.
        let t2 = cpu.encrypt_table(&pt, 2, 4, 0x500).unwrap();
        assert!(
            t2.version() > t1.version(),
            "fresh version {} must exceed released version {}",
            t2.version(),
            t1.version()
        );
        assert_ne!(
            t1.ciphertext(),
            t2.ciphertext(),
            "same (addr, version) pad stream reused across release"
        );
        // And the fresh table still round-trips.
        assert_eq!(cpu.decrypt_table(&t2).unwrap(), pt);
    }

    #[test]
    fn overflow_is_detected_by_verification() {
        // Paper footnote 1 / Theorem A.2: overflow beyond 2^wₑ is caught.
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u8> = vec![200, 200, 200, 200];
        let table = cpu.encrypt_table(&pt, 2, 2, 0x100).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        // 2 × 200 = 400 > 255: overflows u8.
        let err = cpu
            .weighted_sum(&handle, &ndp, &[0, 1], &[1u8, 1], true)
            .unwrap_err();
        assert_eq!(err, Error::VerificationFailed { table_addr: 0x100 });
        // The same query without verification silently wraps.
        let res = cpu
            .weighted_sum(&handle, &ndp, &[0, 1], &[1u8, 1], false)
            .unwrap();
        assert_eq!(res, vec![144, 144]);
    }

    #[test]
    fn read_row_round_trip() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (100..124).collect();
        let table = cpu.encrypt_table(&pt, 6, 4, 0x40).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        assert_eq!(
            cpu.read_row::<u32, _>(&handle, &ndp, 2).unwrap(),
            &pt[8..12]
        );
        assert!(cpu.read_row::<u32, _>(&handle, &ndp, 6).is_err());
    }

    #[test]
    fn decrypt_table_round_trip() {
        let (mut cpu, _) = setup();
        let pt: Vec<u64> = (0..12).map(|x| x * 999).collect();
        let table = cpu.encrypt_table(&pt, 3, 4, 0).unwrap();
        assert_eq!(cpu.decrypt_table(&table).unwrap(), pt);
    }

    #[test]
    fn reencrypt_changes_ciphertext_and_still_decrypts() {
        let (mut cpu, mut ndp) = setup();
        let pt1: Vec<u32> = vec![1, 2, 3, 4];
        let table1 = cpu.encrypt_table(&pt1, 2, 2, 0).unwrap();
        let pt2: Vec<u32> = vec![5, 6, 7, 8];
        let table2 = cpu.reencrypt_table(&table1, &pt2).unwrap();
        assert_eq!(table2.version(), table1.version() + 1);
        assert_ne!(table1.ciphertext(), table2.ciphertext());
        assert_eq!(cpu.decrypt_table(&table2).unwrap(), pt2);
        // A device replaying the *old* ciphertext under the new handle is
        // caught by verification.
        let handle2 = {
            let mut tmp = HonestNdp::new();
            let h = cpu.publish(&table2, &mut tmp).unwrap();
            // Load stale data at the same address into the real device.
            cpu.publish(&table1, &mut ndp).unwrap();
            h
        };
        let err = cpu
            .weighted_sum(&handle2, &ndp, &[0], &[1u32], true)
            .unwrap_err();
        assert!(matches!(err, Error::VerificationFailed { .. }));
    }

    /// A plaintext of the wrong shape is refused before the version
    /// manager is touched. It used to register a region first and leak it,
    /// so 64 refusals exhausted the manager and every valid table after
    /// them failed with `VersionExhausted`.
    #[test]
    fn shape_errors_take_no_version_region() {
        let (mut cpu, _) = setup();
        let refused = Error::ShapeMismatch {
            got: 7,
            expected: 8,
        };
        for call in 1..=100 {
            assert_eq!(
                cpu.encrypt_table::<u32>(&[1; 7], 2, 4, 0x100),
                Err(refused.clone()),
                "call {call}"
            );
        }
        for call in 1..=100 {
            assert_eq!(
                cpu.encrypt_table_untagged::<u32>(&[1; 7], 2, 4, 0x100),
                Err(refused.clone()),
                "untagged call {call}"
            );
        }
        assert_eq!(cpu.version_manager().live_regions(), 0);
        let table = cpu.encrypt_table::<u32>(&[1; 8], 2, 4, 0x100).unwrap();
        assert_eq!(cpu.decrypt_table(&table).unwrap(), [1; 8]);
        assert_eq!(cpu.version_manager().live_regions(), 1);
    }

    /// A re-encryption refused for its shape leaves everything as it was:
    /// the region's version (it used to be bumped first, retiring the live
    /// table's version), the pad cache (the bump swept the live table's
    /// pads) and the published table, which still verifies.
    #[test]
    fn refused_reencrypt_changes_nothing() {
        let (mut cpu, mut ndp) = setup();
        cpu.set_pad_cache_blocks(4096);
        let pt: Vec<u32> = (0..16).collect();
        let table = cpu.encrypt_table(&pt, 4, 4, 0x800).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let want = cpu
            .weighted_sum(&handle, &ndp, &[0, 3], &[1u32, 2], true)
            .unwrap();
        let versions = format!("{:?}", cpu.version_manager());
        let stats = cpu.pad_cache().stats();
        for bad in [&pt[..15], &[0u32; 17][..]] {
            assert_eq!(
                cpu.reencrypt_table(&table, bad),
                Err(Error::ShapeMismatch {
                    got: bad.len(),
                    expected: 16
                })
            );
        }
        assert_eq!(format!("{:?}", cpu.version_manager()), versions);
        assert_eq!(cpu.pad_cache().stats(), stats);
        assert_eq!(
            cpu.weighted_sum(&handle, &ndp, &[0, 3], &[1u32, 2], true),
            Ok(want)
        );
    }

    #[test]
    fn same_plaintext_different_tables_differ() {
        let (mut cpu, _) = setup();
        let pt: Vec<u32> = vec![9; 8];
        let t1 = cpu.encrypt_table(&pt, 2, 4, 0).unwrap();
        let t2 = cpu.encrypt_table(&pt, 2, 4, 0x1000).unwrap();
        assert_ne!(t1.ciphertext(), t2.ciphertext());
    }

    #[test]
    fn query_validation() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = vec![0; 8];
        let table = cpu.encrypt_table(&pt, 2, 4, 0).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        assert!(matches!(
            cpu.weighted_sum(&handle, &ndp, &[0, 1], &[1u32], false),
            Err(Error::QueryLengthMismatch { .. })
        ));
        assert!(matches!(
            cpu.weighted_sum(&handle, &ndp, &[2], &[1u32], false),
            Err(Error::RowOutOfBounds { index: 2, rows: 2 })
        ));
    }

    #[test]
    fn multi_s_scheme_round_trip_and_detection() {
        let mut cpu = TrustedProcessor::with_options(
            SecretKey::from_bytes([1; 16]),
            ChecksumScheme::MultiS { cnt: 4 },
            VersionManager::new(),
        );
        let mut ndp = HonestNdp::new();
        let pt: Vec<u32> = (0..64).collect();
        let table = cpu.encrypt_table(&pt, 8, 8, 0).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let res = cpu
            .weighted_sum(&handle, &ndp, &[1, 5], &[2u32, 4], true)
            .unwrap();
        for j in 0..8 {
            assert_eq!(res[j], 2 * pt[8 + j] + 4 * pt[40 + j]);
        }
        // Tampering still detected under multi-s.
        let mut bad = TamperingNdp::new(Tamper::ZeroResult);
        let h2 = cpu.publish(&table, &mut bad).unwrap();
        assert!(cpu
            .weighted_sum(&h2, &bad, &[1, 5], &[2u32, 4], true)
            .is_err());
    }

    #[test]
    fn batch_queries_match_individual() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..64).map(|x| x % 50).collect();
        let table = cpu.encrypt_table(&pt, 8, 8, 0x700).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let queries: Vec<(Vec<usize>, Vec<u32>)> = vec![
            (vec![0, 1], vec![1, 1]),
            (vec![7], vec![3]),
            (vec![2, 4, 6], vec![1, 2, 3]),
        ];
        let batch = cpu
            .weighted_sum_batch(&handle, &ndp, &queries, true)
            .unwrap();
        assert_eq!(batch.len(), 3);
        for ((idx, w), got) in queries.iter().zip(&batch) {
            let single = cpu.weighted_sum(&handle, &ndp, idx, w, true).unwrap();
            assert_eq!(got, &single);
        }
    }

    #[test]
    fn element_granular_query_matches_plaintext() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..48).map(|x| x * 11 + 5).collect();
        let table = cpu.encrypt_table(&pt, 6, 8, 0x600).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let coords = [(0usize, 0usize), (3, 7), (5, 2), (3, 7)];
        let weights = [1u32, 2, 3, 4];
        let got = cpu
            .weighted_sum_elements(&handle, &ndp, &coords, &weights)
            .unwrap();
        let want: u32 = coords
            .iter()
            .zip(&weights)
            .map(|(&(i, j), &a)| a * pt[i * 8 + j])
            .sum();
        assert_eq!(got, want);
        // Bounds are enforced on both axes, with axis-specific errors.
        assert!(matches!(
            cpu.weighted_sum_elements(&handle, &ndp, &[(6, 0)], &[1u32]),
            Err(Error::RowOutOfBounds { index: 6, rows: 6 })
        ));
        assert!(matches!(
            cpu.weighted_sum_elements(&handle, &ndp, &[(0, 8)], &[1u32]),
            Err(Error::ColOutOfBounds { index: 8, cols: 8 })
        ));
    }

    #[test]
    fn aes256_processor_end_to_end() {
        use secndp_cipher::aes::Aes256;
        let mut cpu = TrustedProcessor::from_cipher(
            Aes256::new(&[0x42; 32]),
            ChecksumScheme::SingleS,
            VersionManager::new(),
        );
        let mut ndp = HonestNdp::new();
        let pt: Vec<u32> = (0..16).collect();
        let table = cpu.encrypt_table(&pt, 4, 4, 0).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let res = cpu
            .weighted_sum(&handle, &ndp, &[0, 3], &[1u32, 2], true)
            .unwrap();
        assert_eq!(res, vec![24, 27, 30, 33]);
    }

    #[test]
    fn fast_and_reference_aes_produce_identical_ciphertext() {
        // The default (`Aes128Fast`) processor and a reference-AES processor
        // with the same key are interchangeable.
        use secndp_cipher::aes::Aes128;
        let key = SecretKey::from_bytes([0x11; 16]);
        let mut fast = TrustedProcessor::new(key.clone());
        let mut slow = TrustedProcessor::from_cipher(
            Aes128::new(&[0x11; 16]),
            ChecksumScheme::SingleS,
            VersionManager::new(),
        );
        let pt: Vec<u32> = (0..16).collect();
        let a = fast.encrypt_table(&pt, 4, 4, 0x40).unwrap();
        let b = slow.encrypt_table(&pt, 4, 4, 0x40).unwrap();
        assert_eq!(a.ciphertext(), b.ciphertext());
        assert_eq!(a.tags(), b.tags());
    }

    #[test]
    fn key_rotation_invalidates_old_ciphertext() {
        use secndp_cipher::aes_fast::Aes128Fast;
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..16).map(|x| x + 100).collect();
        let table = cpu.encrypt_table(&pt, 4, 4, 0x900).unwrap();
        let _old_handle = cpu.publish(&table, &mut ndp).unwrap();
        // Decrypt under the old key, rotate, re-encrypt.
        let recovered = cpu.decrypt_table(&table).unwrap();
        assert_eq!(recovered, pt);
        let mut cpu = cpu.rotate_key(Aes128Fast::new(&[0xEE; 16]));
        // The old ciphertext no longer decrypts under the new key.
        assert_ne!(cpu.decrypt_table(&table).unwrap(), pt);
        // Re-encrypting under the rotated key restores service with a
        // bumped version in the same region.
        let table2 = cpu.reencrypt_table(&table, &recovered).unwrap();
        assert_eq!(table2.version(), table.version() + 1);
        let handle2 = cpu.publish(&table2, &mut ndp).unwrap();
        let res = cpu
            .weighted_sum(&handle2, &ndp, &[1], &[1u32], true)
            .unwrap();
        assert_eq!(res, vec![104, 105, 106, 107]);
    }

    #[test]
    fn pad_cache_warms_across_queries() {
        let (mut cpu, mut ndp) = setup();
        // Cache behavior is under test: pin the capacity so these tests
        // are independent of the SECNDP_PAD_CACHE_BLOCKS matrix leg.
        cpu.set_pad_cache_blocks(4096);
        let pt: Vec<u32> = (0..64).collect();
        let table = cpu.encrypt_table(&pt, 8, 8, 0x2000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let s0 = cpu.pad_cache().stats();
        let r1 = cpu
            .weighted_sum(&handle, &ndp, &[1, 3], &[1u32, 2], true)
            .unwrap();
        let s1 = cpu.pad_cache().stats();
        assert!(s1.misses > s0.misses, "cold query must miss");
        // The identical query again: every pad comes from the cache.
        let r2 = cpu
            .weighted_sum(&handle, &ndp, &[1, 3], &[1u32, 2], true)
            .unwrap();
        let s2 = cpu.pad_cache().stats();
        assert_eq!(r1, r2);
        assert_eq!(s2.misses, s1.misses, "warm query must not re-encrypt");
        assert!(s2.hits > s1.hits, "warm query must hit");
    }

    #[test]
    fn reencrypt_purges_cached_pads_for_old_version() {
        let (mut cpu, mut ndp) = setup();
        cpu.set_pad_cache_blocks(4096);
        let pt: Vec<u32> = (0..16).collect();
        let table = cpu.encrypt_table(&pt, 4, 4, 0x800).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let _ = cpu
            .weighted_sum(&handle, &ndp, &[0, 1, 2, 3], &[1u32, 1, 1, 1], true)
            .unwrap();
        assert!(!cpu.pad_cache().is_empty());
        let inv_before = cpu.pad_cache().stats().invalidations;
        let table2 = cpu.reencrypt_table(&table, &pt).unwrap();
        let inv_after = cpu.pad_cache().stats().invalidations;
        assert!(
            inv_after > inv_before,
            "bump must eagerly invalidate cached pads of the old version"
        );
        // No pad under the old version survives in the cache.
        for i in 0..4 {
            let ctr = secndp_cipher::otp::CounterBlock::new(
                Domain::Data,
                handle.layout().row_addr(i),
                handle.version(),
            );
            assert!(cpu.pad_cache().peek(ctr).is_none());
        }
        // Release purges the current version too.
        let h2 = cpu.publish(&table2, &mut ndp).unwrap();
        let _ = cpu.weighted_sum(&h2, &ndp, &[0], &[1u32], true).unwrap();
        cpu.release(&h2);
        let ctr = secndp_cipher::otp::CounterBlock::new(
            Domain::Data,
            h2.layout().row_addr(0),
            h2.version(),
        );
        assert!(cpu.pad_cache().peek(ctr).is_none());
    }

    #[test]
    fn rotate_key_clears_pad_cache() {
        use secndp_cipher::aes_fast::Aes128Fast;
        let (mut cpu, mut ndp) = setup();
        cpu.set_pad_cache_blocks(4096);
        let pt: Vec<u32> = (0..16).collect();
        let table = cpu.encrypt_table(&pt, 4, 4, 0xA00).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let _ = cpu
            .weighted_sum(&handle, &ndp, &[0], &[1u32], true)
            .unwrap();
        assert!(!cpu.pad_cache().is_empty());
        let cpu = cpu.rotate_key(Aes128Fast::new(&[0x77; 16]));
        assert!(
            cpu.pad_cache().is_empty(),
            "old-key pads must not survive rotation"
        );
        // The retire hook is still wired to the same cache after rotation.
        let mut cpu = cpu;
        let table2 = cpu.reencrypt_table(&table, &pt).unwrap();
        let h2 = cpu.publish(&table2, &mut ndp).unwrap();
        let _ = cpu.weighted_sum(&h2, &ndp, &[1], &[1u32], true).unwrap();
        assert!(!cpu.pad_cache().is_empty());
        let inv_before = cpu.pad_cache().stats().invalidations;
        let _ = cpu.reencrypt_table(&table2, &pt).unwrap();
        assert!(cpu.pad_cache().stats().invalidations > inv_before);
    }

    #[test]
    fn disabled_cache_still_correct() {
        let (mut cpu, mut ndp) = setup();
        cpu.set_pad_cache_blocks(0);
        let pt: Vec<u32> = (0..32).collect();
        let table = cpu.encrypt_table(&pt, 4, 8, 0x4000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let res = cpu
            .weighted_sum(&handle, &ndp, &[0, 2], &[1u32, 2], true)
            .unwrap();
        for j in 0..8 {
            assert_eq!(res[j], pt[j] + 2 * pt[16 + j]);
        }
        let s = cpu.pad_cache().stats();
        assert_eq!((s.hits, s.misses), (0, 0));
        assert!(cpu.pad_cache().is_empty());
    }

    #[test]
    fn debug_does_not_leak_key() {
        let (cpu, _) = setup();
        let s = format!("{cpu:?}");
        assert!(s.contains("TrustedProcessor"));
        assert!(!s.to_lowercase().contains("ab"));
    }

    proptest! {
        /// Protocol correctness (Theorem A.1): for arbitrary small tables,
        /// weights and index multisets, the offloaded result equals the
        /// plaintext weighted sum mod 2^wₑ.
        #[test]
        fn offloaded_equals_local(
            pt in proptest::collection::vec(any::<u32>(), 24),
            idx in proptest::collection::vec(0usize..6, 1..10),
            w_seed in any::<u64>(),
        ) {
            let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([3; 16]));
            let mut ndp = HonestNdp::new();
            let table = cpu.encrypt_table(&pt, 6, 4, 0x100).unwrap();
            let handle = cpu.publish(&table, &mut ndp).unwrap();
            let weights: Vec<u32> = idx.iter().enumerate()
                .map(|(k, _)| (w_seed.wrapping_mul(k as u64 + 1) >> 11) as u32)
                .collect();
            // Unverified (verification legitimately rejects overflow, which
            // random u32 sums will hit).
            let res = cpu.weighted_sum(&handle, &ndp, &idx, &weights, false).unwrap();
            for j in 0..4 {
                let mut want = 0u32;
                for (&i, &a) in idx.iter().zip(&weights) {
                    want = want.wrapping_add(a.wrapping_mul(pt[i * 4 + j]));
                }
                prop_assert_eq!(res[j], want);
            }
        }

        /// With small values (no overflow), verification always passes for
        /// an honest device.
        #[test]
        fn honest_small_values_always_verify(
            pt in proptest::collection::vec(0u32..1000, 24),
            idx in proptest::collection::vec(0usize..6, 1..8),
        ) {
            let mut cpu = TrustedProcessor::new(SecretKey::from_bytes([4; 16]));
            let mut ndp = HonestNdp::new();
            let table = cpu.encrypt_table(&pt, 6, 4, 0x200).unwrap();
            let handle = cpu.publish(&table, &mut ndp).unwrap();
            let weights = vec![7u32; idx.len()];
            prop_assert!(cpu.weighted_sum(&handle, &ndp, &idx, &weights, true).is_ok());
        }
    }
}
