//! The four workloads. Each drives the verified protocol through public
//! functions of the layers only, in a closed loop on one client thread.
//!
//! Why these four is recorded in `spec::WORKLOADS` and `README.md`; the
//! shapes below are the input properties they vary: working set against the
//! pad cache's 32 768 blocks, pooling factor, row width, transport, batch
//! against single, read against write.

use crate::rng::{Digest, Rng};
use crate::server::ChildServer;
use crate::span::{Recorder, NO_PARENT, ROOT};
use secndp_arith::ring::words_from_le_bytes;
use secndp_cipher::{Aes128Fast, Domain, OtpGenerator, PadCache, PadCacheStats, PadPlanner};
use secndp_core::checksum::plan_secrets;
use secndp_core::device::{HonestNdp, NdpDevice, Tamper, TamperingNdp};
use secndp_core::wire::{self, RemoteNdp, Request, Response};
use secndp_core::{
    AsyncEndpoint, EncryptedTable, Error, NetConfig, SecretKey, TableHandle, TcpEndpoint,
    TransportConfig, TrustedProcessor,
};
use secndp_telemetry::trace::{SpanContext, SpanId, TraceId};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;

pub const TABLE_ADDR: u64 = 0x0010_0000;
const CANARY_ADDR: u64 = 0x4000_0000;

/// A deadline no healthy op reaches, so a scheduling hiccup on a busy
/// sandbox is measured as latency, not turned into a failed op.
const DEADLINE: Duration = Duration::from_secs(30);

/// Where the spawned server comes from and where run files go.
pub struct Env {
    pub server_bin: PathBuf,
    pub out_dir: PathBuf,
    /// Cores available before anything was pinned.
    pub nproc: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub rows: usize,
    pub cols: usize,
    /// Pooling factor: rows summed per query.
    pub pf: usize,
    /// Zipf(0.8) row popularity instead of uniform.
    pub zipf: bool,
}

/// 8 MiB of 128 B rows: a packet's 20 480 row references touch five times
/// the pad cache, so almost every pad is regenerated.
pub const BATCH256: Shape = Shape {
    rows: 65_536,
    cols: 32,
    pf: 80,
    zipf: false,
};
const PACKET: usize = 256;
const BATCH256_PACKETS: usize = 32;

/// 2 048 rows × 8 data blocks + 2 048 tag blocks + the secret = 18 433
/// blocks, all resident.
pub const SLS_HOT: Shape = Shape {
    rows: 2_048,
    cols: 32,
    pf: 80,
    zipf: true,
};
const SLS_HOT_QUERIES: usize = 8_192;

/// 65 536 rows × (2 data + 1 tag) blocks = 6× the cache, uniform rows.
pub const SLS_SMALL: Shape = Shape {
    rows: 65_536,
    cols: 8,
    pf: 8,
    zipf: false,
};
const SLS_SMALL_QUERIES: usize = 65_536;

/// 1 MiB, rewritten whole every cycle.
pub const UPDATE: Shape = Shape {
    rows: 8_192,
    cols: 32,
    pf: 1,
    zipf: false,
};
const READS_PER_CYCLE: usize = 16;
const UPDATE_READ_SETS: usize = 256;

pub type Query = (Vec<usize>, Vec<u32>);

/// Plaintext below 2¹⁶ and weights below 2⁸ keep every PF-80 sum below 2³²:
/// verification also rejects ring overflow (Theorem A.2), and no op of a
/// workload may fail.
pub fn gen_table(seed: u64, shape: Shape, stream: u64) -> Vec<u32> {
    let mut rng = Rng::new(seed, stream);
    (0..shape.rows * shape.cols)
        .map(|_| (rng.next_u64() & 0xFFFF) as u32)
        .collect()
}

pub fn gen_queries(seed: u64, shape: Shape, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 2);
    (0..n)
        .map(|_| {
            let rows = (0..shape.pf)
                .map(|_| {
                    if shape.zipf {
                        rng.zipf(shape.rows, 0.8)
                    } else {
                        rng.below(shape.rows)
                    }
                })
                .collect();
            let weights = (0..shape.pf).map(|_| 1 + rng.below(255) as u32).collect();
            (rows, weights)
        })
        .collect()
}

/// Digest of a generated query stream: same seed, same digest.
#[cfg(test)]
fn query_digest(queries: &[Query]) -> u64 {
    let mut d = Digest::default();
    for (rows, weights) in queries {
        for &r in rows {
            d.push(r as u32);
        }
        d = d.words(weights);
    }
    d.finish()
}

/// The plaintext reference the device's verified answer must equal.
fn plain_sum(table: &[u32], cols: usize, (rows, weights): &Query) -> Vec<u32> {
    let mut out = vec![0u32; cols];
    for (&r, &a) in rows.iter().zip(weights) {
        for (o, &p) in out.iter_mut().zip(&table[r * cols..(r + 1) * cols]) {
            *o = o.wrapping_add(a.wrapping_mul(p));
        }
    }
    out
}

fn digest(words: &[u32]) -> u64 {
    Digest::default().words(words).finish()
}

pub fn sum_request(addr: u64, (rows, weights): &Query) -> Request {
    Request::WeightedSum {
        table_addr: addr,
        elem_bytes: 4,
        indices: rows.iter().map(|&i| i as u64).collect(),
        weights: weights.iter().map(|&w| u64::from(w)).collect(),
        with_tag: true,
    }
}

/// A context for hand-encoded frames, so they carry the same 17-byte trace
/// envelope the transports put on every frame.
pub const FRAME_CTX: SpanContext = SpanContext {
    trace: TraceId(1),
    span: SpanId(1),
};

/// Wire-frame bytes of one verified sum of this shape: (request, reply).
fn sum_frame_bytes(shape: Shape) -> (f64, f64) {
    let query = (vec![0usize; shape.pf], vec![1u32; shape.pf]);
    let tx = sum_request(TABLE_ADDR, &query)
        .encode_traced(FRAME_CTX)
        .expect("sum request encodes");
    let rx = Response::Sum {
        c_res: vec![0; shape.cols * 4],
        c_t_res: Some(0),
    }
    .encode_traced(FRAME_CTX)
    .expect("sum reply encodes");
    (tx.len() as f64, rx.len() as f64)
}

/// Refuses to go on unless verification still rejects a flipped result
/// bit: numbers from a build whose check has been weakened mean nothing.
fn tamper_canary(cpu: &mut TrustedProcessor, cols: usize) -> Result<(), String> {
    let plain: Vec<u32> = (0..16 * cols as u32).map(|x| x % 251).collect();
    let table = cpu
        .encrypt_table(&plain, 16, cols, CANARY_ADDR)
        .map_err(|e| format!("canary encrypt: {e}"))?;
    let mut bad = TamperingNdp::new(Tamper::FlipResultBit { element: 0, bit: 3 });
    let handle = cpu
        .publish(&table, &mut bad)
        .map_err(|e| format!("canary publish: {e}"))?;
    let outcome = cpu.weighted_sum(&handle, &bad, &[1, 5, 9], &[2u32, 3, 4], true);
    cpu.release(&handle);
    match outcome {
        Err(Error::VerificationFailed { .. }) => Ok(()),
        other => Err(format!(
            "tamper canary: a flipped result bit gave {other:?}, not VerificationFailed"
        )),
    }
}

pub trait Workload {
    /// Queries answered by one latency sample.
    fn ops_per_sample(&self) -> usize {
        1
    }
    /// Untimed ops that end set-up (caches fill, lazy connections open).
    fn warm_ops(&self) -> usize;
    /// One op, timed by the caller.
    fn run(&mut self, i: usize) -> Result<(), Error>;
    /// Whether the last op's result equals the plaintext reference.
    fn check(&self, i: usize) -> bool;
    /// The same op split at the public-API boundaries, plus the re-driven
    /// layers, recorded as spans.
    fn run_traced(&mut self, i: usize, rec: &mut Recorder) -> Result<(), Error>;
    fn spans_per_op(&self) -> usize;
    fn cache_stats(&self) -> PadCacheStats;
    /// Wire-frame bytes per op, (sent, received), from frame lengths.
    fn wire_bytes_per_op(&self) -> (f64, f64);
    /// Whether one-core pinning was applied, for workloads that ask for it.
    fn pinned(&self) -> Option<bool> {
        None
    }
}

/// `batch256_async`.
pub struct Batch256 {
    cpu: TrustedProcessor,
    endpoint: AsyncEndpoint,
    handle: TableHandle,
    packets: Vec<Vec<Query>>,
    expected: Vec<u64>,
    last: Vec<Vec<u32>>,
    shadow: Option<PlanShadow>,
}

/// The traced pass's own pad generator and cache: it sees the same block
/// references as the processor's, so it hits and misses alike without
/// disturbing the cache being measured.
struct PlanShadow {
    otp: OtpGenerator<Aes128Fast>,
    cache: PadCache,
}

impl Batch256 {
    fn build(seed: u64, traced: bool) -> Result<Self, String> {
        let shape = BATCH256;
        let key = SecretKey::derive_from_seed(seed);
        let mut cpu = TrustedProcessor::new(key.clone());
        tamper_canary(&mut cpu, shape.cols)?;
        let plain = gen_table(seed, shape, 1);
        let table = cpu
            .encrypt_table(&plain, shape.rows, shape.cols, TABLE_ADDR)
            .map_err(|e| e.to_string())?;
        let mut endpoint = AsyncEndpoint::new(
            vec![HonestNdp::new(), HonestNdp::new()],
            TransportConfig {
                ranks: 2,
                window: 32,
                timeout: DEADLINE,
                ..TransportConfig::default()
            },
        );
        let handle = cpu
            .publish(&table, &mut endpoint)
            .map_err(|e| e.to_string())?;
        let queries = gen_queries(seed, shape, PACKET * BATCH256_PACKETS);
        let packets: Vec<Vec<Query>> = queries.chunks(PACKET).map(<[Query]>::to_vec).collect();
        let expected = packets
            .iter()
            .map(|p| {
                p.iter()
                    .fold(Digest::default(), |d, q| {
                        d.words(&plain_sum(&plain, shape.cols, q))
                    })
                    .finish()
            })
            .collect();
        Ok(Self {
            cpu,
            endpoint,
            handle,
            packets,
            expected,
            last: Vec::new(),
            shadow: traced.then(|| PlanShadow {
                otp: key.otp_generator_fast(),
                cache: PadCache::with_default_capacity(),
            }),
        })
    }

    /// What `plan_batch` does with a packet, through the planner's public
    /// functions: every data and tag pad reference, the secret, one
    /// cache-probed execute.
    fn plan(shadow: &PlanShadow, handle: &TableHandle, packet: &[Query]) {
        let layout = handle.layout();
        let version = handle.version();
        let mut planner = PadPlanner::new();
        for (rows, _) in packet {
            let data: Vec<_> = rows
                .iter()
                .map(|&i| {
                    planner.request_bytes(
                        Domain::Data,
                        layout.row_addr(i),
                        layout.row_bytes(),
                        version,
                    )
                })
                .collect();
            let tags: Vec<_> = rows
                .iter()
                .map(|&i| planner.request_block(Domain::Tag, layout.row_addr(i), version))
                .collect();
            black_box((data, tags));
        }
        black_box(plan_secrets(
            &mut planner,
            layout.base_addr(),
            version,
            handle.scheme(),
        ));
        planner.execute_cached(shadow.otp.cipher(), Some(&shadow.cache));
        black_box(&planner);
    }

    /// The packet's frames through the endpoint alone: submit all, then
    /// wait for all.
    fn submit_and_wait(&self, packet: &[Query]) -> Result<(), Error> {
        let mut ids = Vec::with_capacity(packet.len());
        for q in packet {
            ids.push(self.endpoint.submit(&sum_request(TABLE_ADDR, q))?);
        }
        for id in ids {
            black_box(self.endpoint.wait(id)?);
        }
        Ok(())
    }
}

impl Workload for Batch256 {
    fn ops_per_sample(&self) -> usize {
        PACKET
    }

    fn warm_ops(&self) -> usize {
        4
    }

    fn run(&mut self, i: usize) -> Result<(), Error> {
        let packet = &self.packets[i % self.packets.len()];
        self.last =
            self.cpu
                .weighted_sum_batch_pipelined(&self.handle, &self.endpoint, packet, true)?;
        Ok(())
    }

    fn check(&self, i: usize) -> bool {
        let got = self
            .last
            .iter()
            .fold(Digest::default(), |d, r| d.words(r))
            .finish();
        got == self.expected[i % self.expected.len()]
    }

    fn run_traced(&mut self, i: usize, rec: &mut Recorder) -> Result<(), Error> {
        let op = i as u32;
        let root = rec.open(ROOT, NO_PARENT, op);
        self.run(i)?;
        rec.close(root);

        let shadow = self.shadow.as_ref().expect("set up for tracing");
        let packet = &self.packets[i % self.packets.len()];
        let top = rec.open("shadow", NO_PARENT, op);
        let s = rec.open("plan", top, op);
        Self::plan(shadow, &self.handle, packet);
        rec.close(s);
        let s = rec.open("batch_wait", top, op);
        self.submit_and_wait(packet)?;
        rec.close(s);
        rec.close(top);
        Ok(())
    }

    fn spans_per_op(&self) -> usize {
        4
    }

    fn cache_stats(&self) -> PadCacheStats {
        self.cpu.pad_cache().stats()
    }

    fn wire_bytes_per_op(&self) -> (f64, f64) {
        sum_frame_bytes(BATCH256)
    }
}

/// `sls_hot_inline` and `sls_small_tcp`: single verified queries through a
/// `RemoteNdp`, inline or over a socket to a spawned server.
pub struct SingleSls {
    shape: Shape,
    cpu: TrustedProcessor,
    // Declared before `server`: the endpoint closes its sockets before the
    // server is asked to drain.
    dev: RemoteNdp<HonestNdp>,
    handle: TableHandle,
    queries: Vec<Query>,
    expected: Vec<u64>,
    last: Vec<u32>,
    shadow: Option<SlsShadow>,
    pinned: Option<bool>,
    _server: Option<ChildServer>,
}

/// A second processor on the same key with its own pad cache, and a twin
/// device holding the same table, for the passes that re-drive one layer.
struct SlsShadow {
    cpu: TrustedProcessor,
    twin: HonestNdp,
}

impl SingleSls {
    fn build(
        seed: u64,
        traced: bool,
        shape: Shape,
        n_queries: usize,
        tcp: Option<&Env>,
    ) -> Result<Self, String> {
        // Pin before the server exists so it inherits the one core.
        let pinned = tcp.map(|_| crate::sys::pin_to_one_core());
        let key = SecretKey::derive_from_seed(seed);
        let mut cpu = TrustedProcessor::new(key.clone());
        tamper_canary(&mut cpu, shape.cols)?;
        let plain = gen_table(seed, shape, 1);
        let table = cpu
            .encrypt_table(&plain, shape.rows, shape.cols, TABLE_ADDR)
            .map_err(|e| e.to_string())?;
        let (mut dev, server) = match tcp {
            None => (RemoteNdp::inline(HonestNdp::new()), None),
            Some(env) => {
                let server = ChildServer::spawn(&env.server_bin, &env.out_dir)?;
                let endpoint = TcpEndpoint::connect(NetConfig {
                    addrs: vec![server.addr().to_string()],
                    timeout: DEADLINE,
                    ..NetConfig::default()
                })
                .map_err(|e| e.to_string())?;
                (RemoteNdp::tcp_backed(endpoint), Some(server))
            }
        };
        let handle = cpu.publish(&table, &mut dev).map_err(|e| e.to_string())?;
        let shadow = if traced {
            let mut twin = HonestNdp::new();
            cpu.publish(&table, &mut twin).map_err(|e| e.to_string())?;
            Some(SlsShadow {
                cpu: TrustedProcessor::new(key),
                twin,
            })
        } else {
            None
        };
        let queries = gen_queries(seed, shape, n_queries);
        let expected = queries
            .iter()
            .map(|q| digest(&plain_sum(&plain, shape.cols, q)))
            .collect();
        Ok(Self {
            shape,
            cpu,
            dev,
            handle,
            queries,
            expected,
            last: Vec::new(),
            shadow,
            pinned,
            _server: server,
        })
    }
}

impl Workload for SingleSls {
    fn warm_ops(&self) -> usize {
        self.queries.len() / 4
    }

    fn run(&mut self, i: usize) -> Result<(), Error> {
        let (rows, weights) = &self.queries[i % self.queries.len()];
        self.last = self
            .cpu
            .weighted_sum(&self.handle, &self.dev, rows, weights, true)?;
        Ok(())
    }

    fn check(&self, i: usize) -> bool {
        digest(&self.last) == self.expected[i % self.expected.len()]
    }

    fn run_traced(&mut self, i: usize, rec: &mut Recorder) -> Result<(), Error> {
        let op = i as u32;
        let query = &self.queries[i % self.queries.len()];
        let (rows, weights) = query;

        // `weighted_sum` is exactly these two public calls.
        let root = rec.open(ROOT, NO_PARENT, op);
        let s = rec.open("device_call", root, op);
        let response = self
            .dev
            .weighted_sum::<u32>(TABLE_ADDR, rows, weights, true)?;
        rec.close(s);
        let s = rec.open("reconstruct", root, op);
        self.last = self
            .cpu
            .reconstruct_response(&self.handle, rows, weights, &response, true)?;
        rec.close(s);
        rec.close(root);

        // The layers inside those two calls, re-driven on the same
        // arguments: the processor's pad share, and the frame's encode,
        // device-side serve and decode against a twin device.
        let shadow = self.shadow.as_mut().expect("set up for tracing");
        let top = rec.open("shadow", NO_PARENT, op);
        let s = rec.open("otp_share", top, op);
        black_box(shadow.cpu.otp_share(
            &self.handle.layout(),
            self.handle.version(),
            rows,
            weights,
        ));
        rec.close(s);
        let s = rec.open("wire_encode", top, op);
        let frame = sum_request(TABLE_ADDR, query).encode_traced(FRAME_CTX)?;
        rec.close(s);
        let s = rec.open("wire_serve", top, op);
        let reply = wire::serve(&mut shadow.twin, &frame).expect("twin serves its own frame");
        rec.close(s);
        let s = rec.open("wire_decode", top, op);
        if let Ok(Response::Sum { c_res, c_t_res }) = Response::decode(&reply) {
            black_box((words_from_le_bytes::<u32>(&c_res), c_t_res));
        }
        rec.close(s);
        let s = rec.open("device_compute", top, op);
        black_box(
            shadow
                .twin
                .weighted_sum::<u32>(TABLE_ADDR, rows, weights, true)?,
        );
        rec.close(s);
        rec.close(top);
        Ok(())
    }

    fn spans_per_op(&self) -> usize {
        9
    }

    fn cache_stats(&self) -> PadCacheStats {
        self.cpu.pad_cache().stats()
    }

    fn wire_bytes_per_op(&self) -> (f64, f64) {
        sum_frame_bytes(self.shape)
    }

    fn pinned(&self) -> Option<bool> {
        self.pinned
    }
}

/// `table_update_inline`: re-encrypt, publish, read back.
pub struct TableUpdate {
    cpu: TrustedProcessor,
    dev: RemoteNdp<HonestNdp>,
    table: EncryptedTable<u32>,
    handle: TableHandle,
    /// Cycle `i` writes image `i % 2`.
    images: [Vec<u32>; 2],
    reads: Vec<[usize; READS_PER_CYCLE]>,
    /// Per read set, the digest of its rows in either image.
    expected: Vec<[u64; 2]>,
    last: Vec<u32>,
}

impl TableUpdate {
    fn build(seed: u64) -> Result<Self, String> {
        let shape = UPDATE;
        let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(seed));
        tamper_canary(&mut cpu, shape.cols)?;
        let images = [gen_table(seed, shape, 1), gen_table(seed, shape, 3)];
        let table = cpu
            .encrypt_table(&images[1], shape.rows, shape.cols, TABLE_ADDR)
            .map_err(|e| e.to_string())?;
        let mut dev = RemoteNdp::inline(HonestNdp::new());
        let handle = cpu.publish(&table, &mut dev).map_err(|e| e.to_string())?;
        let mut rng = Rng::new(seed, 2);
        let reads: Vec<[usize; READS_PER_CYCLE]> = (0..UPDATE_READ_SETS)
            .map(|_| std::array::from_fn(|_| rng.below(shape.rows)))
            .collect();
        let expected = reads
            .iter()
            .map(|set| {
                [0, 1].map(|img| {
                    set.iter()
                        .fold(Digest::default(), |d, &r| {
                            d.words(&images[img][r * shape.cols..(r + 1) * shape.cols])
                        })
                        .finish()
                })
            })
            .collect();
        Ok(Self {
            cpu,
            dev,
            table,
            handle,
            images,
            reads,
            expected,
            last: Vec::new(),
        })
    }

    fn reencrypt(&mut self, i: usize) -> Result<(), Error> {
        self.table = self.cpu.reencrypt_table(&self.table, &self.images[i % 2])?;
        Ok(())
    }

    fn publish(&mut self) -> Result<(), Error> {
        self.handle = self.cpu.publish(&self.table, &mut self.dev)?;
        Ok(())
    }

    fn read_back(&mut self, i: usize) -> Result<(), Error> {
        self.last.clear();
        for &row in &self.reads[i % self.reads.len()] {
            let words = self
                .cpu
                .read_row_verified::<u32, _>(&self.handle, &self.dev, row)?;
            self.last.extend_from_slice(&words);
        }
        Ok(())
    }
}

impl Workload for TableUpdate {
    fn warm_ops(&self) -> usize {
        4
    }

    fn run(&mut self, i: usize) -> Result<(), Error> {
        self.reencrypt(i)?;
        self.publish()?;
        self.read_back(i)
    }

    fn check(&self, i: usize) -> bool {
        digest(&self.last) == self.expected[i % self.expected.len()][i % 2]
    }

    fn run_traced(&mut self, i: usize, rec: &mut Recorder) -> Result<(), Error> {
        let op = i as u32;
        let root = rec.open(ROOT, NO_PARENT, op);
        let s = rec.open("reencrypt", root, op);
        self.reencrypt(i)?;
        rec.close(s);
        let s = rec.open("publish", root, op);
        self.publish()?;
        rec.close(s);
        let s = rec.open("readback", root, op);
        self.read_back(i)?;
        rec.close(s);
        rec.close(root);
        Ok(())
    }

    fn spans_per_op(&self) -> usize {
        4
    }

    fn cache_stats(&self) -> PadCacheStats {
        self.cpu.pad_cache().stats()
    }

    fn wire_bytes_per_op(&self) -> (f64, f64) {
        let load = Request::Load {
            table_addr: TABLE_ADDR,
            row_bytes: (UPDATE.cols * 4) as u32,
            ciphertext: self.table.ciphertext_bytes(),
            tags: self
                .table
                .tags()
                .map(|t| t.iter().map(|f| f.value()).collect()),
        }
        .encode_traced(FRAME_CTX)
        .expect("load frame encodes");
        let ack = Response::Ack.encode_traced(FRAME_CTX).expect("ack encodes");
        let (tx, rx) = sum_frame_bytes(UPDATE);
        let reads = READS_PER_CYCLE as f64;
        (
            load.len() as f64 + reads * tx,
            ack.len() as f64 + reads * rx,
        )
    }
}

/// Builds the named workload, fires its tamper canary, checks and discards
/// its warm-up ops: everything `setup_s` times.
pub fn setup(name: &str, seed: u64, traced: bool, env: &Env) -> Result<Box<dyn Workload>, String> {
    let mut w: Box<dyn Workload> = match name {
        "batch256_async" => Box::new(Batch256::build(seed, traced)?),
        "sls_hot_inline" => Box::new(SingleSls::build(
            seed,
            traced,
            SLS_HOT,
            SLS_HOT_QUERIES,
            None,
        )?),
        "sls_small_tcp" => Box::new(SingleSls::build(
            seed,
            traced,
            SLS_SMALL,
            SLS_SMALL_QUERIES,
            Some(env),
        )?),
        "table_update_inline" => Box::new(TableUpdate::build(seed)?),
        other => return Err(format!("unknown workload {other}")),
    };
    for i in 0..w.warm_ops() {
        w.run(i).map_err(|e| format!("warm-up op {i}: {e}"))?;
        if !w.check(i) {
            return Err(format!("warm-up op {i}: result differs from plaintext"));
        }
    }
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_queries_other_seed_other_queries() {
        for shape in [BATCH256, SLS_HOT, SLS_SMALL] {
            let a = query_digest(&gen_queries(1, shape, 64));
            assert_eq!(a, query_digest(&gen_queries(1, shape, 64)));
            assert_ne!(a, query_digest(&gen_queries(2, shape, 64)));
            assert_eq!(gen_table(1, shape, 1)[..256], gen_table(1, shape, 1)[..256]);
            assert_ne!(gen_table(1, shape, 1)[..256], gen_table(2, shape, 1)[..256]);
        }
    }

    #[test]
    fn queries_stay_in_range_and_cannot_overflow_the_ring() {
        for shape in [BATCH256, SLS_HOT, SLS_SMALL] {
            for (rows, weights) in gen_queries(7, shape, 256) {
                assert_eq!(rows.len(), shape.pf);
                assert!(rows.iter().all(|&r| r < shape.rows));
                assert!(weights.iter().all(|&w| (1..=255).contains(&w)));
            }
            assert!((shape.pf as u64) * 255 * 0xFFFF < u64::from(u32::MAX));
        }
    }

    #[test]
    fn canary_fires_on_an_honest_build() {
        let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(1));
        tamper_canary(&mut cpu, 8).unwrap();
    }
}
