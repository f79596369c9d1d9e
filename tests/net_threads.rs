//! The TCP link reads its replies on the threads that wait for them: a
//! `TcpEndpoint` connected to an out-of-process `secndp-server` starts no
//! thread of its own, so a thousand verified queries leave the process's
//! thread count where it was before the endpoint connected.
//!
//! This file is a separate integration-test binary with one test on
//! purpose: the thread count is the whole process's, and no other test's
//! threads may come and go while it is read.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use secndp::core::net::{NetConfig, TcpEndpoint};
use secndp::core::{SecretKey, TrustedProcessor};

const ROWS: usize = 32;
const COLS: usize = 8;
const ADDR: u64 = 0xB000;

/// Kills and reaps the child server even when an assertion unwinds.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Threads of this process, from `/proc/self/task`; `None` off Linux.
fn threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task")
        .ok()
        .map(Iterator::count)
}

#[test]
fn a_thousand_tcp_queries_start_no_thread() {
    if threads().is_none() {
        eprintln!("skipped: no /proc/self/task to count threads in");
        return;
    }
    let mut child = Command::new(env!("CARGO_BIN_EXE_secndp-server"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn secndp-server");
    let stdout = child.stdout.take().expect("child stdout piped");
    let _reaper = Reaper(child);
    let addr = BufReader::new(stdout)
        .lines()
        .map_while(Result::ok)
        .find_map(|line| {
            Some(
                line.strip_prefix("SECNDP_SERVER_LISTENING ")?
                    .trim()
                    .to_string(),
            )
        })
        .expect("server never printed its listening line");

    let before = threads();
    let mut tcp = TcpEndpoint::connect(NetConfig {
        addrs: vec![addr],
        timeout: Duration::from_secs(5),
        ..NetConfig::default()
    })
    .unwrap();
    let mut cpu = TrustedProcessor::new(SecretKey::derive_from_seed(0x7EAD));
    let pt: Vec<u32> = (0..ROWS * COLS).map(|x| (x * 13 + 5) as u32).collect();
    let table = cpu.encrypt_table(&pt, ROWS, COLS, ADDR).unwrap();
    let handle = cpu.publish(&table, &mut tcp).unwrap();
    for q in 0..1_000 {
        let idx = [q % ROWS, (q * 7 + 3) % ROWS];
        let w = [q as u32 + 1, 2];
        let got = cpu.weighted_sum(&handle, &tcp, &idx, &w, true).unwrap();
        let want: Vec<u32> = (0..COLS)
            .map(|j| {
                idx.iter().zip(&w).fold(0u32, |acc, (&i, &a)| {
                    acc.wrapping_add(a.wrapping_mul(pt[i * COLS + j]))
                })
            })
            .collect();
        assert_eq!(got, want, "query {q}");
    }
    assert_eq!(threads(), before, "the endpoint started a thread");
}
