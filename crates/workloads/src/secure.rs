//! Secure workload execution: SLS and cohort summation through the real
//! SecNDP protocol.
//!
//! This module connects the functional workloads to `secndp-core`: tables
//! are fixed-point encoded, arithmetically encrypted (Algorithm 1) and
//! shipped to an untrusted [`NdpDevice`]; every pooling query runs as a
//! verified weighted summation (Algorithms 4/5).
//!
//! # Signed data and overflow soundness
//!
//! Verification detects *unsigned* ring overflow (Theorem A.2), so signed
//! workload values are **offset-encoded** before encryption:
//! `raw = round((x + OFFSET) · 2^FRAC)` is non-negative, weighted sums stay
//! far below `2⁶⁴`, and the trusted side removes the known offset after
//! reconstruction (`Σ aₖ·OFFSET` is public). This keeps Theorem A.2's
//! overflow detection sound for real embeddings and gene-expression values.

use secndp_core::device::NdpDevice;
use secndp_core::{Error, HonestNdp, SecretKey, TableHandle, TrustedProcessor};

/// Fractional bits of the fixed-point data encoding.
pub const DATA_FRAC: u32 = 16;
/// Fractional bits of the fixed-point weight encoding.
pub const WEIGHT_FRAC: u32 = 16;
/// Offset added to every value before encoding so ring elements are
/// non-negative. Values must lie in `(-OFFSET, +2²⁰)`.
pub const OFFSET: f64 = 32.0;

/// Identifier of a table loaded into a [`SecureSls`] engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableId(usize);

#[derive(Debug)]
struct PublishedTable {
    handle: TableHandle,
    rows: usize,
    cols: usize,
}

/// A secure pooling engine: trusted processor + untrusted device + the
/// tables published to it.
///
/// ```
/// use secndp_workloads::SecureSls;
/// use secndp_core::SecretKey;
/// # fn main() -> Result<(), secndp_core::Error> {
/// let mut engine = SecureSls::new(SecretKey::derive_from_seed(7));
/// let id = engine.load_table(&[1.0, 2.0, 3.0, 4.0], 2, 2)?;
/// let pooled = engine.sls(id, &[0, 1], &[1.0, 1.0], true)?;
/// assert!((pooled[0] - 4.0).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SecureSls<D> {
    cpu: TrustedProcessor,
    device: D,
    tables: Vec<PublishedTable>,
    next_base: u64,
}

impl SecureSls<HonestNdp> {
    /// An engine backed by an honest in-memory NDP device.
    pub fn new(key: SecretKey) -> Self {
        Self::with_device(key, HonestNdp::new())
    }
}

impl<D: NdpDevice> SecureSls<D> {
    /// An engine backed by an arbitrary (possibly adversarial) device.
    pub fn with_device(key: SecretKey, device: D) -> Self {
        Self {
            cpu: TrustedProcessor::new(key),
            device,
            tables: Vec::new(),
            next_base: 0x1_0000,
        }
    }

    /// The untrusted device (e.g. to inspect what it stores).
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Number of tables published.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Fixed-point-encodes, encrypts and publishes a `rows × cols` fp32
    /// matrix. Returns the id used for queries.
    ///
    /// # Errors
    ///
    /// Propagates encryption errors (version exhaustion, shape mismatch).
    ///
    /// # Panics
    ///
    /// Panics if any value falls outside `(-OFFSET, 2²⁰)`.
    pub fn load_table(&mut self, data: &[f32], rows: usize, cols: usize) -> Result<TableId, Error> {
        let mut sp = secndp_telemetry::trace::span("sls_load_table");
        sp.attr_u64("rows", rows as u64);
        sp.attr_u64("cols", cols as u64);
        let encoded: Vec<u64> = data.iter().map(|&v| encode_value(v as f64)).collect();
        let table = self
            .cpu
            .encrypt_table(&encoded, rows, cols, self.next_base)?;
        // 4 KiB-align the next table.
        let size = (rows * cols * 8) as u64;
        self.next_base += size.div_ceil(4096) * 4096 + 4096;
        let handle = self.cpu.publish(&table, &mut self.device)?;
        self.tables.push(PublishedTable { handle, rows, cols });
        Ok(TableId(self.tables.len() - 1))
    }

    /// Verified weighted pooling: `resⱼ = Σₖ weights[k] · P[indices[k]][j]`,
    /// computed by the untrusted device over ciphertext.
    ///
    /// # Errors
    ///
    /// [`Error::VerificationFailed`] if the device tampered with the
    /// result; shape errors for bad queries.
    ///
    /// # Panics
    ///
    /// Panics on negative weights (the offset encoding requires
    /// non-negative weights; see module docs) or unknown table ids.
    pub fn sls(
        &self,
        table: TableId,
        indices: &[usize],
        weights: &[f32],
        verify: bool,
    ) -> Result<Vec<f32>, Error> {
        let mut sp = secndp_telemetry::trace::span("sls");
        sp.attr_u64("pool_size", indices.len() as u64);
        let t = &self.tables[table.0];
        let encoded_w: Vec<u64> = weights.iter().map(|&w| encode_weight(w as f64)).collect();
        let raw = self
            .cpu
            .weighted_sum(&t.handle, &self.device, indices, &encoded_w, verify)?;
        // Remove the known offset: Σ aₖ·(xₖ+OFFSET) − OFFSET·Σ aₖ.
        let wsum_raw: u64 = encoded_w.iter().sum();
        let scale = 2f64.powi(-((DATA_FRAC + WEIGHT_FRAC) as i32));
        Ok(raw
            .iter()
            .map(|&r| {
                ((r as f64) * scale - OFFSET * (wsum_raw as f64) * 2f64.powi(-(WEIGHT_FRAC as i32)))
                    as f32
            })
            .collect())
    }

    /// Unweighted cohort summation (the medical-analytics query): all
    /// weights are 1.
    ///
    /// # Errors
    ///
    /// Same as [`sls`](Self::sls).
    pub fn cohort_sum(
        &self,
        table: TableId,
        ids: &[usize],
        verify: bool,
    ) -> Result<Vec<f32>, Error> {
        self.sls(table, ids, &vec![1.0; ids.len()], verify)
    }

    /// The number of columns of a published table.
    pub fn cols(&self, table: TableId) -> usize {
        self.tables[table.0].cols
    }

    /// The number of rows of a published table.
    pub fn rows(&self, table: TableId) -> usize {
        self.tables[table.0].rows
    }
}

/// A complete DLRM inference pipeline with the embedding path secured by
/// SecNDP: the MLP towers run on the trusted side, every SLS pooling runs
/// on the untrusted device over ciphertext and is verified.
#[derive(Debug)]
pub struct SecureDlrm<D> {
    bottom: crate::dlrm::Mlp,
    top: crate::dlrm::Mlp,
    engine: SecureSls<D>,
    table_ids: Vec<TableId>,
}

impl SecureDlrm<HonestNdp> {
    /// Secures `model`'s embedding tables behind an honest in-memory NDP
    /// device.
    ///
    /// # Errors
    ///
    /// Propagates table-encryption errors.
    pub fn new(model: &crate::dlrm::DlrmModel, key: SecretKey) -> Result<Self, Error> {
        Self::with_device(model, key, HonestNdp::new())
    }
}

impl<D: NdpDevice> SecureDlrm<D> {
    /// Secures `model`'s embedding tables behind an arbitrary device.
    ///
    /// # Errors
    ///
    /// Propagates table-encryption errors.
    pub fn with_device(
        model: &crate::dlrm::DlrmModel,
        key: SecretKey,
        device: D,
    ) -> Result<Self, Error> {
        let mut engine = SecureSls::with_device(key, device);
        let table_ids = model
            .tables()
            .iter()
            .map(|t| engine.load_table(t.data(), t.rows(), t.dim()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            bottom: model.bottom().clone(),
            top: model.top().clone(),
            engine,
            table_ids,
        })
    }

    /// Verified secure inference: click probability for one sample.
    ///
    /// # Errors
    ///
    /// [`Error::VerificationFailed`] if the device tampers with any
    /// pooling; shape errors for malformed pooling specs.
    ///
    /// # Panics
    ///
    /// Panics if `pooling.len()` differs from the table count.
    pub fn predict(&self, dense: &[f32], pooling: &[(Vec<usize>, Vec<f32>)]) -> Result<f32, Error> {
        assert_eq!(
            pooling.len(),
            self.table_ids.len(),
            "one pooling spec per table"
        );
        let mut sp = secndp_telemetry::trace::span("dlrm_predict");
        sp.attr_u64("tables", self.table_ids.len() as u64);
        let mut features = self.bottom.forward(dense);
        for (id, (idx, w)) in self.table_ids.iter().zip(pooling) {
            features.extend(self.engine.sls(*id, idx, w, true)?);
        }
        Ok(self.top.forward(&features)[0])
    }

    /// The underlying secure pooling engine.
    pub fn engine(&self) -> &SecureSls<D> {
        &self.engine
    }
}

/// Encodes one data value as a non-negative fixed-point ring element.
fn encode_value(x: f64) -> u64 {
    assert!(
        x > -OFFSET && x < (1u64 << 20) as f64,
        "value {x} outside the offset-encodable range"
    );
    ((x + OFFSET) * 2f64.powi(DATA_FRAC as i32)).round() as u64
}

/// Encodes one non-negative weight in fixed point.
fn encode_weight(w: f64) -> u64 {
    assert!(w >= 0.0, "offset encoding requires non-negative weights");
    assert!(w < (1u64 << 20) as f64, "weight {w} too large");
    (w * 2f64.powi(WEIGHT_FRAC as i32)).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dlrm::EmbeddingTable;
    use crate::medical::GeneDataset;
    use secndp_core::device::{Tamper, TamperingNdp};

    fn key() -> SecretKey {
        SecretKey::from_bytes([0xC0; 16])
    }

    #[test]
    fn secure_sls_matches_plaintext_pooling() {
        let table = EmbeddingTable::random(64, 16, 3);
        let mut engine = SecureSls::new(key());
        let id = engine
            .load_table(table.data(), table.rows(), table.dim())
            .unwrap();
        let idx = [1usize, 17, 42, 17];
        let w = [0.25f32, 1.0, 0.5, 0.125];
        let secure = engine.sls(id, &idx, &w, true).unwrap();
        let plain = table.sls(&idx, &w);
        for (s, p) in secure.iter().zip(&plain) {
            assert!((s - p).abs() < 1e-3, "secure {s} vs plain {p}");
        }
    }

    #[test]
    fn secure_cohort_sum_matches_plaintext() {
        let d = GeneDataset::generate(50, 8, 0.4, vec![1], 1.0, 5);
        let mut engine = SecureSls::new(key());
        let id = engine
            .load_table(d.data(), d.patients(), d.genes())
            .unwrap();
        let ids = d.diseased_ids();
        let secure = engine.cohort_sum(id, &ids, true).unwrap();
        let plain = d.cohort_sum(&ids);
        for (s, p) in secure.iter().zip(&plain) {
            assert!((*s as f64 - p).abs() < 1e-2, "secure {s} vs plain {p}");
        }
    }

    #[test]
    fn tampering_device_is_caught() {
        let table = EmbeddingTable::random(32, 8, 9);
        let mut engine = SecureSls::with_device(key(), TamperingNdp::new(Tamper::ZeroResult));
        let id = engine
            .load_table(table.data(), table.rows(), table.dim())
            .unwrap();
        let err = engine.sls(id, &[0, 1], &[1.0, 1.0], true).unwrap_err();
        assert!(matches!(err, Error::VerificationFailed { .. }));
        // Without verification the forged zeros are silently accepted
        // (and decode to garbage) — this is exactly why Ver matters.
        assert!(engine.sls(id, &[0, 1], &[1.0, 1.0], false).is_ok());
    }

    #[test]
    fn multiple_tables_coexist() {
        let a = EmbeddingTable::random(16, 4, 1);
        let b = EmbeddingTable::random(8, 4, 2);
        let mut engine = SecureSls::new(key());
        let ia = engine.load_table(a.data(), 16, 4).unwrap();
        let ib = engine.load_table(b.data(), 8, 4).unwrap();
        assert_eq!(engine.table_count(), 2);
        assert_eq!(engine.rows(ia), 16);
        assert_eq!(engine.rows(ib), 8);
        let ra = engine.sls(ia, &[3], &[1.0], true).unwrap();
        let rb = engine.sls(ib, &[3], &[1.0], true).unwrap();
        for (x, want) in ra.iter().zip(a.row(3)) {
            assert!((x - want).abs() < 1e-3);
        }
        for (x, want) in rb.iter().zip(b.row(3)) {
            assert!((x - want).abs() < 1e-3);
        }
    }

    #[test]
    fn weighted_medical_average() {
        // Mean expression = cohort_sum / n, matching plaintext mean.
        let d = GeneDataset::generate(30, 4, 0.5, vec![0], 2.0, 8);
        let mut engine = SecureSls::new(key());
        let id = engine.load_table(d.data(), 30, 4).unwrap();
        let ids: Vec<usize> = (0..30).collect();
        let mean_w = vec![1.0 / 30.0; 30];
        let secure = engine.sls(id, &ids, &mean_w, true).unwrap();
        let plain: Vec<f64> = d.cohort_sum(&ids).iter().map(|s| s / 30.0).collect();
        for (s, p) in secure.iter().zip(&plain) {
            // Tolerance covers the fixed-point rounding of the 1/30 weight
            // accumulated over 30 terms.
            assert!((*s as f64 - p).abs() < 5e-3, "secure {s} vs plain {p}");
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let t = EmbeddingTable::random(4, 2, 1);
        let mut engine = SecureSls::new(key());
        let id = engine.load_table(t.data(), 4, 2).unwrap();
        let _ = engine.sls(id, &[0], &[-1.0], false);
    }

    #[test]
    fn secure_dlrm_matches_plaintext_model() {
        use crate::dlrm::DlrmModel;
        let model = DlrmModel::new(6, 8, 3, 100, 12, 31);
        let secure = SecureDlrm::new(&model, key()).unwrap();
        let dense = vec![0.2f32; 6];
        let pooling: Vec<(Vec<usize>, Vec<f32>)> = vec![
            (vec![1, 2, 3], vec![1.0, 1.0, 1.0]),
            (vec![50], vec![2.0]),
            (vec![99, 0], vec![0.5, 0.5]),
        ];
        let p_secure = secure.predict(&dense, &pooling).unwrap();
        let p_plain = model.predict(&dense, &pooling);
        assert!(
            (p_secure - p_plain).abs() < 1e-3,
            "secure {p_secure} vs plain {p_plain}"
        );
        assert_eq!(secure.engine().table_count(), 3);
    }

    #[test]
    fn secure_dlrm_rejects_tampering() {
        use crate::dlrm::DlrmModel;
        let model = DlrmModel::new(6, 8, 2, 50, 12, 33);
        let secure = SecureDlrm::with_device(
            &model,
            key(),
            TamperingNdp::new(Tamper::FlipResultBit { element: 1, bit: 4 }),
        )
        .unwrap();
        let pooling = vec![(vec![1], vec![1.0]), (vec![2], vec![1.0])];
        let err = secure.predict(&[0.1; 6], &pooling).unwrap_err();
        assert!(matches!(err, Error::VerificationFailed { .. }));
    }

    #[test]
    fn encode_round_trip() {
        for x in [-31.9, -1.0, 0.0, 0.5, 100.0] {
            let raw = encode_value(x);
            let back = raw as f64 * 2f64.powi(-(DATA_FRAC as i32)) - OFFSET;
            assert!((back - x).abs() < 1e-4, "{x} -> {back}");
        }
    }
}
