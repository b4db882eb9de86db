//! The audit daemon in its own process, and the benchmark's side of it.
//!
//! `auditbench daemon --wal-dir D --fsync P` opens an [`AuditService`]
//! over the six-record schema with its disclosure log in `D` (running
//! recovery), serves it over TCP on an ephemeral localhost port, prints
//! `ready <addr> <open_ms>` and serves until its standard input closes.
//! [`Daemon`] spawns that process and stops it again.

use crate::workload::record_names;
use epi_audit::Schema;
use epi_json::{Deserialize, Json, Serialize};
use epi_service::{
    AuditService, FsyncPolicy, Request, Response, Server, ServerMode, ServerOptions, ServiceConfig,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

/// Disclosure-log fsync policy of every workload's daemon (see README).
pub const FSYNC: &str = "never";

pub fn schema() -> Schema {
    Schema::from_names(&record_names()).expect("distinct record names")
}

/// The daemon's configuration: two decision workers, the disclosure log
/// in `wal_dir`, everything else at the service defaults.
pub fn config(wal_dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        data_dir: Some(wal_dir.to_path_buf()),
        wal_fsync: FsyncPolicy::parse(FSYNC).expect("valid fsync policy"),
        ..ServiceConfig::default()
    }
}

/// `auditbench daemon` entry point.
pub fn serve(wal_dir: &Path) -> Result<(), String> {
    let started = Instant::now();
    let service = Arc::new(
        AuditService::open(schema(), config(wal_dir))
            .map_err(|e| format!("disclosure-log recovery failed: {e}"))?,
    );
    let open_ms = started.elapsed().as_secs_f64() * 1e3;
    let options = ServerOptions {
        mode: ServerMode::Reactor,
        ..ServerOptions::default()
    };
    let server = Server::spawn_with(Arc::clone(&service), "127.0.0.1:0", options)
        .map_err(|e| format!("cannot bind: {e}"))?;
    println!("ready {} {open_ms}", server.addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    // Serve until the benchmark closes our standard input (or exits).
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
    service
        .flush_wal()
        .map_err(|e| format!("flushing the disclosure log failed: {e}"))
}

/// A running daemon process.
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    /// Wall milliseconds `AuditService::open` took in the daemon,
    /// disclosure-log recovery included.
    pub open_ms: f64,
}

impl Daemon {
    /// Starts the daemon over `wal_dir` and waits for its `ready` line.
    pub fn spawn(wal_dir: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--wal-dir")
            .arg(wal_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start the daemon: {e}"))?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        let mut daemon = Daemon {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            open_ms: 0.0,
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["ready", addr, open_ms] => {
                daemon.addr = addr.parse().map_err(|e| format!("bad address: {e}"))?;
                daemon.open_ms = open_ms.parse().map_err(|e| format!("bad open time: {e}"))?;
                Ok(daemon)
            }
            _ => {
                daemon.stop();
                Err(format!("daemon did not start: `{}`", line.trim()))
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the daemon process, in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the daemon's status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM line")?;
        Ok(kib / 1024.0)
    }

    /// Closes the daemon's input and waits for it to exit.
    pub fn stop(&mut self) {
        drop(self.stdin.take());
        if self.child.wait().is_err() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.is_some() {
            self.stop();
        }
    }
}

/// A line-framed NDJSON connection that counts the bytes it moves.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    pub bytes: u64,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            bytes: 0,
            line: String::new(),
        })
    }

    /// Sends one request line (ending in `\n`) and returns the reply
    /// line, newline stripped.
    pub fn call_raw(&mut self, request: &str) -> Result<&str, String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("the daemon closed the connection".to_owned());
        }
        self.bytes += (request.len() + n) as u64;
        Ok(self.line.trim_end())
    }

    /// Sends a request and decodes the reply.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let line = encode(request);
        let reply = self.call_raw(&line)?;
        decode(reply)
    }
}

/// A request as one NDJSON line.
pub fn encode(request: &Request) -> String {
    let mut line = request.to_json().render();
    line.push('\n');
    line
}

pub fn decode(reply: &str) -> Result<Response, String> {
    let json = Json::parse(reply).map_err(|e| format!("bad reply JSON: {}", e.message))?;
    Response::from_json(&json).map_err(|e| format!("bad reply: {}", e.message))
}
