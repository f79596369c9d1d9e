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

use crate::checksum::{ChecksumScheme, VerifyKey};
use crate::device::{add_c_res, NdpDevice};
use crate::encrypt::{
    check_shape, decrypt_elements, encrypt_elements, encrypt_tags_with, EncryptedTable,
};
use crate::endpoint::{Endpoint, Link, RequestId};
use crate::error::Error;
use crate::keys::SecretKey;
use crate::layout::TableLayout;
use crate::version::{RegionId, VersionManager, DEFAULT_MAX_REGIONS};
use secndp_arith::mersenne::{Fq, WideAcc};
use secndp_arith::ring::{words_from_le_bytes, RingWord};
use secndp_cipher::aes::{BlockCipher, BLOCK_BYTES};
use secndp_cipher::aes_fast::Aes128Fast;
use secndp_cipher::otp::{first_127_bits, Domain, OtpGenerator};
use secndp_cipher::PadCache;
use secndp_telemetry::trace;
use std::borrow::Cow;
use std::collections::VecDeque;

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

/// `acc[j] += a · eⱼ` over the pad words `e` packed little-endian in `pads`
/// (Alg 4 lines 8–14 for one row): one pass over one range's contiguous
/// slice of the pad stream. A trailing partial word is ignored.
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

/// The processor's half of a verified query's check — what Algorithm 5
/// lets it compute before the device has answered. Made by
/// [`TrustedProcessor::prepare`], consumed by [`TrustedProcessor::finish`].
struct Check<'a> {
    /// `E_T_res = Σₖ aₖ·E_{T_iₖ}` (Alg 5 lines 11–14).
    e_t_res: Fq,
    /// The table version's verification key: the one the processor holds,
    /// or one derived for a handle it holds none for.
    key: Cow<'a, VerifyKey>,
}

/// The verification key of one live table version this processor
/// encrypted, with the (region, version, table, scheme) it was derived for.
struct HeldKey {
    region: RegionId,
    version: u64,
    table_addr: u64,
    scheme: ChecksumScheme,
    key: VerifyKey,
}

/// The held keys' table, allocated with the processor and never moved:
/// room for a key per region the version manager allows, up to its
/// default. Grown on first use instead, it landed among a table's buffers
/// and kept 0.9 MiB more resident on a 1 MiB table rewritten in a loop.
fn key_table(versions: &VersionManager) -> Vec<HeldKey> {
    Vec::with_capacity(versions.capacity().min(DEFAULT_MAX_REGIONS))
}

/// The TEE-resident SecNDP engine: key, version manager, encryption and
/// verification logic.
pub struct TrustedProcessor<C: BlockCipher = Aes128Fast> {
    /// The keyed pad generator; the raw key is consumed at construction and
    /// never retained or exposed.
    otp: OtpGenerator<C>,
    versions: VersionManager,
    scheme: ChecksumScheme,
    /// One verification key per live tagged region, for its current
    /// version: built when the version is encrypted, dropped when the
    /// region is released or the key rotated. Trusted memory only.
    keys: Vec<HeldKey>,
    /// Never probed or filled: every block the processor generates is
    /// counted on it as a miss. See [`pad_cache`](Self::pad_cache).
    pad_cache: PadCache,
}

impl<C: BlockCipher> std::fmt::Debug for TrustedProcessor<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrustedProcessor")
            .field("live_regions", &self.versions.live_regions())
            .field("scheme", &self.scheme)
            .field("verify_keys", &self.keys.len())
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
    pub fn with_options(key: SecretKey, scheme: ChecksumScheme, versions: VersionManager) -> Self {
        Self::from_otp(key.otp_generator_fast(), scheme, versions)
    }
}

impl<C: BlockCipher> TrustedProcessor<C> {
    /// Builds a processor around an arbitrary keyed block cipher (e.g.
    /// [`secndp_cipher::Aes256`] for a 256-bit security level, or the
    /// byte-oriented reference AES).
    pub fn from_cipher(cipher: C, scheme: ChecksumScheme, versions: VersionManager) -> Self {
        Self::from_otp(OtpGenerator::new(cipher), scheme, versions)
    }

    fn from_otp(otp: OtpGenerator<C>, scheme: ChecksumScheme, versions: VersionManager) -> Self {
        crate::health::register_protocol_health();
        Self {
            otp,
            keys: key_table(&versions),
            versions,
            scheme,
            pad_cache: PadCache::new(0),
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
    /// ciphertext is rejected. The verification keys, derived under the
    /// old cipher, are dropped with it.
    pub fn rotate_key<C2: BlockCipher>(self, new_cipher: C2) -> TrustedProcessor<C2> {
        TrustedProcessor {
            otp: OtpGenerator::new(new_cipher),
            keys: key_table(&self.versions),
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

    /// A pad cache this processor never probes or fills: it regenerates
    /// every pad, and counts every block it generates here as a miss, so
    /// `stats()` reads zero hits and the blocks generated so far.
    ///
    /// It stays because the perf ledger (`benchmark/src`) reads its stats
    /// as `cipher.cache.hit_rate`, and the ledger's files are held
    /// byte-identical across perf changes; ROADMAP item 1(c)/(l) makes that
    /// metric optional, and this method goes with that change.
    pub fn pad_cache(&self) -> &PadCache {
        &self.pad_cache
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
        let (ciphertext, tags) =
            self.encrypt_version(plaintext, &layout, region, version, with_tags)?;
        Ok(EncryptedTable::from_parts(
            layout, region, version, ciphertext, tags,
        ))
    }

    /// Encrypts `plaintext` as `region`'s new `version`: its ciphertext
    /// and, when `tagged`, its tags under a verification key derived here
    /// and then held for the version's queries. The region's key for its
    /// previous version goes.
    fn encrypt_version<W: RingWord>(
        &mut self,
        plaintext: &[W],
        layout: &TableLayout,
        region: RegionId,
        version: u64,
        tagged: bool,
    ) -> Result<(Vec<W>, Option<Vec<Fq>>), Error> {
        self.keys.retain(|k| k.region != region);
        let key = tagged.then(|| {
            VerifyKey::derive(
                &self.otp,
                layout.base_addr(),
                version,
                self.scheme,
                layout.cols(),
            )
        });
        let ciphertext = encrypt_elements(&self.otp, plaintext, layout, version)?;
        let tags = key.map(|key| {
            let tags = encrypt_tags_with(&self.otp, &key, plaintext, layout, version);
            self.keys.push(HeldKey {
                region,
                version,
                table_addr: layout.base_addr(),
                scheme: self.scheme,
                key,
            });
            tags
        });
        Ok((ciphertext, tags))
    }

    /// The key this processor holds for `handle`'s table version, if any:
    /// only one derived for exactly that (region, version, table, scheme,
    /// width) answers, so a stale or foreign handle finds none.
    fn held_key(&self, handle: &TableHandle) -> Option<&VerifyKey> {
        self.keys
            .iter()
            .find(|k| {
                k.region == handle.region
                    && k.version == handle.version
                    && k.table_addr == handle.layout.base_addr()
                    && k.scheme == handle.scheme
                    && k.key.width() == handle.layout.cols()
            })
            .map(|k| &k.key)
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
        let (ciphertext, tags) = self.encrypt_version(
            plaintext,
            &layout,
            table.region(),
            version,
            table.tags().is_some(),
        )?;
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
    /// The table goes as it is held, through [`NdpDevice::load_words`]: a
    /// device behind the wire writes its `Load` frame straight from the
    /// ciphertext words and tags.
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
        device.load_words(
            table.layout().base_addr(),
            table.ciphertext(),
            table.layout().row_bytes(),
            table.tags(),
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
        self.validate_query(handle, indices, weights)?;
        if verify && !handle.has_tags {
            return Err(Error::TagsUnavailable);
        }
        self.query(handle, device, indices, weights, verify)
    }

    /// One validated query against `device`: its reply is added into the
    /// buffer that becomes the result, then the processor's share and —
    /// when verifying — its check are made, and the check is run. Ring
    /// addition commutes, so `C_res` going in first changes no result.
    fn query<W: RingWord, D: NdpDevice>(
        &self,
        handle: &TableHandle,
        device: &D,
        indices: &[usize],
        weights: &[W],
        verify: bool,
    ) -> Result<Vec<W>, Error> {
        let mut res = vec![W::ZERO; handle.layout.cols()];
        let c_t_res = {
            let _s =
                trace::span(trace::names::NDP_COMPUTE).timed(crate::metrics::stage_ndp_compute());
            device.weighted_sum_into::<W>(
                handle.layout.base_addr(),
                indices,
                weights,
                verify,
                &mut res,
            )?
        };
        let check = self.prepare(handle, indices, weights, verify, &mut res);
        self.finish(handle, res, check, c_t_res)
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
        self.reconstruct(handle, indices, weights, response, verify)
    }

    /// Executes a batch of weighted summations against one table — the
    /// software view of an NDP packet (up to `NDP_reg` queries in flight;
    /// the timing consequences live in `secndp-sim`). Each query is
    /// independently verified; the first failure aborts the batch.
    ///
    /// Every query is reconstructed exactly as a single
    /// [`weighted_sum`](Self::weighted_sum) is, its pads regenerated as
    /// they are needed.
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
        self.validate_batch(handle, queries, verify)?;
        queries
            .iter()
            .map(|(idx, weights)| self.query(handle, device, idx, weights, verify))
            .collect()
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
        use crate::wire::add_sum_reply;
        let mut sp = trace::span("weighted_sum_batch");
        sp.attr_u64("base_addr", handle.layout.base_addr());
        sp.attr_u64("queries", queries.len() as u64);
        sp.attr_u64("ranks", endpoint.ranks() as u64);
        // Nothing is sent for a packet that holds an invalid query.
        self.validate_batch(handle, queries, verify)?;
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
                    let id = endpoint.submit_with(&mut |w| {
                        w.weighted_sum(
                            layout.base_addr(),
                            W::BYTES as u8,
                            idx.iter().map(|&i| i as u64),
                            weights.iter().map(|w| w.as_u64()),
                            verify,
                        )
                    })?;
                    outstanding.ids.push_back(id);
                }
            }
            let mut res = vec![W::ZERO; layout.cols()];
            let check = self.prepare(handle, idx, weights, verify, &mut res);
            let c_t_res = {
                let _s = trace::span(trace::names::NDP_COMPUTE)
                    .timed(crate::metrics::stage_ndp_compute());
                let id = outstanding.ids.pop_front().ok_or_else(|| {
                    crate::metrics::malformed("pipelined query was never submitted")
                })?;
                add_sum_reply(&endpoint.wait_frame(id)?, layout.base_addr(), &mut res)?
            };
            out.push(self.finish(handle, res, check, c_t_res)?);
        }
        Ok(out)
    }

    /// Validates every query of a packet, before anything is computed or
    /// sent.
    fn validate_batch<W: RingWord>(
        &self,
        handle: &TableHandle,
        queries: &[(Vec<usize>, Vec<W>)],
        verify: bool,
    ) -> Result<(), Error> {
        for (idx, w) in queries {
            self.validate_query(handle, idx, w)?;
        }
        if verify && !handle.has_tags {
            return Err(Error::TagsUnavailable);
        }
        Ok(())
    }

    /// Algorithm 4 lines 8–15 and Algorithm 5 for one validated query and
    /// a reply already in hand: [`prepare`](Self::prepare), which needs no
    /// reply, the reply's `C_res` added in, then [`finish`](Self::finish).
    fn reconstruct<W: RingWord>(
        &self,
        handle: &TableHandle,
        indices: &[usize],
        weights: &[W],
        response: &crate::device::NdpResponse<W>,
        verify: bool,
    ) -> Result<Vec<W>, Error> {
        let mut res = vec![W::ZERO; handle.layout.cols()];
        let check = self.prepare(handle, indices, weights, verify, &mut res);
        add_c_res(&mut res, &response.c_res)?;
        self.finish(handle, res, check, response.c_t_res)
    }

    /// The OTP PU's half of one validated query (Alg 4 lines 8–14, Alg 5
    /// lines 11–14): its data pads stream into `res` — `E_res` is added to
    /// whatever it holds — and, when verifying, its tag pads into the
    /// `E_T_res` dot, as they leave the cipher. No pad outlives its window.
    /// The check uses the key held for the table version, or one derived
    /// here for a handle the processor holds none for.
    ///
    /// No reply is read here, and that is the point: the paper's processor
    /// computes its share *while* the NDP computes `C_res` (§V-C), so this
    /// may run before the reply exists, and no byte from the untrusted
    /// side can change the pads or the check it makes.
    fn prepare<W: RingWord>(
        &self,
        handle: &TableHandle,
        indices: &[usize],
        weights: &[W],
        verify: bool,
        res: &mut [W],
    ) -> Option<Check<'_>> {
        let _s = trace::span(trace::names::DECRYPT).timed(crate::metrics::stage_decrypt());
        let layout = handle.layout;
        let rows = || indices.iter().map(|&i| layout.row_addr(i));
        let mut check = None;
        self.pad_gen(|| {
            let mut blocks =
                self.accumulate(handle.version, layout.row_bytes(), rows(), weights, res);
            if verify {
                // Pushed, not gathered for `combine_weighted`: the per-query
                // Vec measured slower on pipelined packets (DESIGN.md).
                let mut e_t_res = WideAcc::default();
                blocks += self.otp.stream_pads(
                    Domain::Tag,
                    handle.version,
                    BLOCK_BYTES,
                    rows(),
                    |k, pad| e_t_res.push(Fq::new(first_127_bits(pad)), weights[k].as_u64()),
                );
                let key = match self.held_key(handle) {
                    Some(key) => Cow::Borrowed(key),
                    None => {
                        let key = VerifyKey::derive(
                            &self.otp,
                            layout.base_addr(),
                            handle.version,
                            handle.scheme,
                            layout.cols(),
                        );
                        blocks += key.secrets().len() as u64;
                        Cow::Owned(key)
                    }
                };
                check = Some(Check {
                    e_t_res: e_t_res.sum(),
                    key,
                });
            }
            blocks
        });
        check
    }

    /// Runs `generate` — one query's pad generation, returning the blocks
    /// it encrypted — in the query's one `pad_gen` span, and books the
    /// blocks on the span and, as misses, on [`pad_cache`](Self::pad_cache).
    fn pad_gen(&self, generate: impl FnOnce() -> u64) {
        let mut sp = trace::span(trace::names::PAD_GEN).timed(crate::metrics::stage_pad_gen());
        let blocks = generate();
        sp.attr_u64("blocks", blocks);
        self.pad_cache.count_misses(blocks);
    }

    /// `acc += Σₖ aₖ · eₖ` (Alg 4 lines 8–14), `eₖ` the data pads of the
    /// `len`-byte range at `addrs[k]` under `version`, streamed; `addrs`
    /// and `weights` pair up as `zip` pairs them. Returns the blocks
    /// encrypted.
    fn accumulate<W: RingWord>(
        &self,
        version: u64,
        len: usize,
        addrs: impl Iterator<Item = u64>,
        weights: &[W],
        acc: &mut [W],
    ) -> u64 {
        self.otp.stream_pads(
            Domain::Data,
            version,
            len,
            addrs.take(weights.len()),
            |k, pads| accumulate_pads(pads, weights[k], acc),
        )
    }

    /// The verification engine (Alg 5 lines 15–17) on a result that holds
    /// `C_res + E_res` (`SecNDPLd`, Alg 4 line 15): with a check, the
    /// reply's tag must be there and `h(res)` must equal
    /// `C_T_res + E_T_res`, where `h` is one dot product with the key's
    /// powers.
    fn finish<W: RingWord>(
        &self,
        handle: &TableHandle,
        res: Vec<W>,
        check: Option<Check<'_>>,
        c_t_res: Option<Fq>,
    ) -> Result<Vec<W>, Error> {
        if let Some(Check { e_t_res, key }) = check {
            let _s = trace::span(trace::names::VERIFY).timed(crate::metrics::stage_verify());
            let c_t_res = c_t_res.ok_or_else(|| {
                crate::metrics::malformed("verification requested but no tag returned")
            })?;
            // Retrieved MAC = C_T_res + E_T_res (Alg 5 line 16 prints `−`,
            // a sign typo against Alg 3 and §IV-F).
            if key.checksum(&res) != c_t_res + e_t_res {
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
    /// tests and the simulator's OTP-PU accounting): the rows' pads
    /// streamed into the sum, a repeated index regenerated.
    pub fn otp_share<W: RingWord>(
        &self,
        layout: &TableLayout,
        version: u64,
        indices: &[usize],
        weights: &[W],
    ) -> Vec<W> {
        let mut e_res = vec![W::ZERO; layout.cols()];
        let rows = indices.iter().map(|&i| layout.row_addr(i));
        self.pad_gen(|| self.accumulate(version, layout.row_bytes(), rows, weights, &mut e_res));
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
        // p = c + 1·e.
        let addr = std::iter::once(layout.row_addr(row));
        self.pad_gen(|| {
            self.accumulate(
                handle.version,
                layout.row_bytes(),
                addr,
                &[W::ONE],
                &mut plain,
            )
        });
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
        let mut res = device.weighted_sum_elements::<W>(layout.base_addr(), coords, weights)?;
        // OTP PU: res = c_res + Σₖ aₖ · E_{iₖ,jₖ} (Alg 4 lines 8–12).
        let elements = coords.iter().map(|&(i, j)| layout.element_addr(i, j));
        self.pad_gen(|| {
            let acc = std::slice::from_mut(&mut res);
            self.accumulate(handle.version, W::BYTES, elements, weights, acc)
        });
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
        self.keys.retain(|k| k.region != handle.region);
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
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::checksum::derive_secrets;
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
        // The in-place accumulate over streamed pads against the loop it
        // replaced (materialise the pad words, then add), at every width:
        // block-aligned rows, rows starting mid-block (elements straddle
        // cipher blocks when the lead is odd) and row lengths that are not
        // a multiple of 16 bytes.
        fn check<W: RingWord>() {
            let otp = OtpGenerator::new(Aes128Fast::new(&[0x6B; 16]));
            for (addr, cols) in [
                (0x1000u64, 16usize),
                (0x1003, 16),
                (0x1009, 5),
                (0x100f, 13),
            ] {
                let row_addr = |r: usize| addr + (r * cols * W::BYTES) as u64;
                let a = |k: usize| W::from_u64(0x9E37_79B9_7F4A_7C15 >> k);
                let seed: Vec<W> = (0..cols as u64).map(|j| W::from_u64(j * 77 + 1)).collect();
                let (mut got, mut want) = (seed.clone(), seed);
                otp.stream_pads(
                    Domain::Data,
                    9,
                    cols * W::BYTES,
                    (0..3).map(row_addr),
                    |k, pads| accumulate_pads(pads, a(k), &mut got),
                );
                for k in 0..3 {
                    let a = a(k);
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
        let mut res = vec![W::ZERO; handle.layout().cols()];
        let check = cpu.prepare(handle, indices, weights, verify, &mut res);
        add_c_res(&mut res, &reply.c_res)?;
        cpu.finish(handle, res, check, reply.c_t_res)
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
    /// table's version) and the published table, which still verifies.
    #[test]
    fn refused_reencrypt_changes_nothing() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..16).collect();
        let table = cpu.encrypt_table(&pt, 4, 4, 0x800).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let want = cpu
            .weighted_sum(&handle, &ndp, &[0, 3], &[1u32, 2], true)
            .unwrap();
        let versions = format!("{:?}", cpu.version_manager());
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

    /// Every pad path against the scalar references — `data_pad_bytes_scalar`
    /// for data pads, `tag_pad` for tag pads: `prepare`'s `E_res` and
    /// `E_T_res` (and `otp_share`) at every width on a base that starts
    /// mid-block, 1, 5, 32 and 33 columns and one u64 row wider than the
    /// stream's window, PF 0, 1, 80 and 300 with repeated indices; then
    /// `weighted_sum_elements` and `read_row` against the plaintext.
    #[test]
    fn streamed_pads_match_the_scalar_reference() {
        fn check<W: RingWord>(cols: usize) {
            const BASE: u64 = 0x2003;
            const ROWS: usize = 24;
            let (mut cpu, mut ndp) = setup();
            let pt: Vec<W> = (0..(ROWS * cols) as u64)
                .map(|i| W::from_u64(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .collect();
            let table = cpu.encrypt_table(&pt, ROWS, cols, BASE).unwrap();
            let handle = cpu.publish(&table, &mut ndp).unwrap();
            let (layout, v) = (handle.layout(), handle.version());
            let mut rng = Rng(0x57AE ^ cols as u64);
            for pf in [0usize, 1, 80, 300] {
                let mut idx: Vec<usize> = (0..pf).map(|_| rng.next() as usize % ROWS).collect();
                if pf > 1 {
                    idx[pf - 1] = idx[0];
                }
                let w: Vec<W> = (0..pf).map(|_| W::from_u64(rng.next())).collect();
                let mut e_res = vec![W::ZERO; cols];
                let mut e_t_res = Fq::ZERO;
                for (&i, &a) in idx.iter().zip(&w) {
                    let row =
                        cpu.otp
                            .data_pad_bytes_scalar(layout.row_addr(i), layout.row_bytes(), v);
                    for (x, &e) in e_res.iter_mut().zip(&words_from_le_bytes::<W>(&row)) {
                        *x = x.wadd(a.wmul(e));
                    }
                    e_t_res +=
                        Fq::new(cpu.otp.tag_pad(layout.row_addr(i), v)) * Fq::from(a.as_u64());
                }
                let at = format!("u{} cols {cols} pf {pf}", W::BITS);
                let mut res = vec![W::ZERO; cols];
                let check = cpu.prepare(&handle, &idx, &w, true, &mut res).unwrap();
                assert_eq!(res, e_res, "{at}");
                assert_eq!(check.e_t_res, e_t_res, "{at}");
                assert_eq!(
                    check.key.secrets(),
                    derive_secrets(&cpu.otp, BASE, v, handle.scheme())
                );
                assert_eq!(cpu.otp_share(&layout, v, &idx, &w), e_res, "{at}");
            }
            let coords: Vec<(usize, usize)> = (0..40)
                .map(|_| (rng.next() as usize % ROWS, rng.next() as usize % cols))
                .chain([(0, 0), (0, 0)])
                .collect();
            let w: Vec<W> = (0..coords.len()).map(|_| W::from_u64(rng.next())).collect();
            let want = coords.iter().zip(&w).fold(W::ZERO, |acc, (&(i, j), &a)| {
                acc.wadd(a.wmul(pt[i * cols + j]))
            });
            assert_eq!(
                cpu.weighted_sum_elements(&handle, &ndp, &coords, &w),
                Ok(want),
                "u{} cols {cols} elements",
                W::BITS
            );
            for row in [0, 7, ROWS - 1] {
                assert_eq!(
                    cpu.read_row::<W, _>(&handle, &ndp, row).unwrap(),
                    &pt[row * cols..(row + 1) * cols],
                    "u{} cols {cols} row {row}",
                    W::BITS
                );
            }
        }
        for cols in [1, 5, 32, 33] {
            check::<u8>(cols);
            check::<u16>(cols);
            check::<u32>(cols);
            check::<u64>(cols);
        }
        // 4 800 bytes: one row is 301 cipher blocks at this base, wider
        // than the 64-block window.
        check::<u64>(600);
    }

    /// The processor keeps no pad cache: every block it generates is a
    /// miss on the one it still reports, which holds nothing.
    #[test]
    fn processor_counts_every_generated_block_as_a_miss() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..32).collect();
        let table = cpu.encrypt_table(&pt, 4, 8, 0x4000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let s0 = cpu.pad_cache().stats();
        for _ in 0..2 {
            cpu.weighted_sum(&handle, &ndp, &[0, 2], &[1u32, 2], true)
                .unwrap();
        }
        let s1 = cpu.pad_cache().stats();
        // Two queries × 2 rows × (2 data blocks + 1 tag block): the secret
        // is the held verification key's, made when the table was.
        assert_eq!((s1.hits, s1.misses - s0.misses), (0, 12));
        assert!(cpu.pad_cache().is_empty());
    }

    /// A verification key is held for exactly the live (region, version)
    /// pairs this processor encrypted with tags: a re-encryption replaces
    /// it, a release drops it, and an untagged table or another
    /// processor's handle finds none.
    #[test]
    fn verify_keys_are_held_only_for_live_versions_minted_here() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..32).collect();
        let t1 = cpu.encrypt_table(&pt, 4, 8, 0x4000).unwrap();
        let h1 = cpu.publish(&t1, &mut ndp).unwrap();
        let plain = cpu.encrypt_table_untagged(&pt, 4, 8, 0x8000).unwrap();
        let hp = cpu.publish(&plain, &mut ndp).unwrap();
        assert!(cpu.held_key(&h1).is_some());
        assert!(cpu.held_key(&hp).is_none());
        assert_eq!(cpu.keys.len(), 1);

        let t2 = cpu.reencrypt_table(&t1, &pt).unwrap();
        let h2 = cpu.publish(&t2, &mut ndp).unwrap();
        assert!(cpu.held_key(&h2).is_some());
        assert!(cpu.held_key(&h1).is_none(), "the old version's key stays");
        assert_eq!(cpu.keys.len(), 1);

        // Same region and version numbers, another processor's table.
        let mut other = TrustedProcessor::new(SecretKey::from_bytes([0xAB; 16]));
        let o1 = other.encrypt_table(&pt, 4, 8, 0x5000).unwrap();
        let ho = other.publish(&o1, &mut ndp).unwrap();
        assert_eq!((ho.region(), ho.version()), (h1.region(), h1.version()));
        assert!(cpu.held_key(&ho).is_none());

        cpu.release(&h2);
        assert!(cpu.held_key(&h2).is_none());
        assert!(cpu.keys.is_empty());
    }

    /// `rotate_key` drops every held key with the cipher they came from,
    /// and `Debug` prints how many keys are held, never what they hold.
    #[test]
    fn rotation_drops_verify_keys_and_debug_prints_none_of_them() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..32).collect();
        let table = cpu.encrypt_table(&pt, 4, 8, 0x4000).unwrap();
        let handle = cpu.publish(&table, &mut ndp).unwrap();
        let key = cpu.held_key(&handle).unwrap().clone();
        let shown = format!("{cpu:?}");
        assert!(shown.contains("verify_keys: 1"), "{shown}");
        for s in key.secrets() {
            assert!(!shown.contains(&s.value().to_string()), "{shown}");
        }
        let cpu = cpu.rotate_key(Aes128Fast::new(&[0xEE; 16]));
        assert!(cpu.keys.is_empty());
        assert!(cpu.held_key(&handle).is_none());
    }

    /// A handle kept from before a re-encryption names the old version:
    /// the processor holds no key for it, and against the re-encrypted
    /// table it fails verification, as it did when every query derived
    /// its key.
    #[test]
    fn a_stale_handle_after_reencrypt_still_fails_verification() {
        let (mut cpu, mut ndp) = setup();
        let pt: Vec<u32> = (0..32).collect();
        let t1 = cpu.encrypt_table(&pt, 4, 8, 0x4000).unwrap();
        let stale = cpu.publish(&t1, &mut ndp).unwrap();
        let t2 = cpu.reencrypt_table(&t1, &pt).unwrap();
        let fresh = cpu.publish(&t2, &mut ndp).unwrap();
        assert!(cpu.held_key(&stale).is_none());
        assert_eq!(
            cpu.weighted_sum(&stale, &ndp, &[0, 3], &[1u32, 2], true),
            Err(Error::VerificationFailed { table_addr: 0x4000 })
        );
        assert!(cpu
            .weighted_sum(&fresh, &ndp, &[0, 3], &[1u32, 2], true)
            .is_ok());
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
