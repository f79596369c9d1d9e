//! A spawned `secndp-server`: one fresh process per workload set-up, drained
//! through the net framing's shutdown sentinel and killed if that fails.

use secndp_core::net::SHUTDOWN_SENTINEL;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

pub struct ChildServer {
    child: Child,
    addr: String,
    /// Held open until the child is gone: the server prints a last line
    /// after draining and panics on a closed pipe.
    stdout: BufReader<ChildStdout>,
}

impl ChildServer {
    /// Spawns `binary --addr 127.0.0.1:0` with `workdir` as its current
    /// directory (its crash and flight dumps default to `.`) and waits for
    /// the `SECNDP_SERVER_LISTENING <addr>` line.
    pub fn spawn(binary: &Path, workdir: &Path) -> Result<ChildServer, String> {
        let mut child = Command::new(binary)
            .args(["--addr", "127.0.0.1:0"])
            .current_dir(workdir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", binary.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("child stdout is piped"));
        // From here the child is owned: a failure below still reaps it.
        let mut server = ChildServer {
            child,
            addr: String::new(),
            stdout,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match server.stdout.read_line(&mut line) {
                Ok(0) => return Err("secndp-server exited before it was listening".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("reading server stdout: {e}")),
            }
            if let Some(bound) = line.strip_prefix("SECNDP_SERVER_LISTENING ") {
                server.addr = bound.trim().to_string();
                return Ok(server);
            }
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends the drain sentinel and waits for its echo.
    fn request_drain(&self) -> std::io::Result<()> {
        let mut s = TcpStream::connect(&self.addr)?;
        s.set_read_timeout(Some(Duration::from_secs(1)))?;
        s.write_all(&SHUTDOWN_SENTINEL.to_le_bytes())?;
        s.read_exact(&mut [0u8; 4])
    }
}

impl Drop for ChildServer {
    /// Runs on panic unwinding too, so no run leaves a server behind: a
    /// drained server exits by itself within its 50 ms I/O tick; one that
    /// has not exited after a second is killed.
    fn drop(&mut self) {
        if !self.addr.is_empty() && self.request_drain().is_ok() {
            let deadline = Instant::now() + Duration::from_secs(1);
            while Instant::now() < deadline {
                if matches!(self.child.try_wait(), Ok(Some(_))) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
