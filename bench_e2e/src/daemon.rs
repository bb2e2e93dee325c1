//! A real `maod` in a child process: this benchmark binary re-executed as
//! `bench_e2e daemon ...`, which builds an [`Engine`] and runs
//! [`mao_serve::serve`] exactly as `mao serve` does. A separate process
//! keeps the daemon's peak RSS its own and puts a real socket between
//! client and server.

use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use mao_serve::protocol::{read_frame, write_frame, Frame, Request};
use mao_serve::server::{connect, Conn};
use mao_serve::{Engine, EngineConfig, Json, Listen};

/// `bench_e2e daemon --listen ADDR --cache-dir DIR --snapshot-dir DIR
/// --cache-cap N --analysis-cache-cap N --shards N`: serve until a
/// `shutdown` request.
pub fn serve_main(args: &[String]) -> ExitCode {
    let mut config = EngineConfig::default();
    let mut listen = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            eprintln!("bench_e2e daemon: {flag} needs a value");
            return ExitCode::FAILURE;
        };
        let number = || value.parse::<usize>().ok();
        match (flag.as_str(), number()) {
            ("--listen", _) => listen = Listen::parse(value).ok(),
            ("--cache-dir", _) => config.cache_dir = Some(value.into()),
            ("--snapshot-dir", _) => config.snapshot_dir = Some(value.into()),
            ("--cache-cap", Some(n)) => config.result_cache_capacity = n,
            ("--analysis-cache-cap", Some(n)) => config.analysis_cache_capacity = n,
            ("--shards", Some(n)) => config.shards = n,
            _ => {
                eprintln!("bench_e2e daemon: bad argument `{flag} {value}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(addr) = listen else {
        eprintln!("bench_e2e daemon: --listen needs a valid address");
        return ExitCode::FAILURE;
    };
    let served = Engine::build(config)
        .and_then(|engine| mao_serve::serve(engine, &addr).map_err(|e| e.to_string()));
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bench_e2e daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Cores the daemon may use; also its shard count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running daemon and one client connection to it.
pub struct Daemon {
    child: Option<Child>,
    conn: Box<dyn Conn>,
}

impl Daemon {
    /// Start a daemon whose socket, result-cache dir and snapshot dir live
    /// under `dir` (existing cache contents are served, as after a
    /// restart), and connect to it. `caps` are the result-cache and
    /// per-shard analysis-cache capacities.
    pub fn start(exe: &Path, dir: &Path, caps: [usize; 2]) -> Result<Daemon, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let sock: PathBuf = dir.join("maod.sock");
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .arg("--cache-dir")
            .arg(dir.join("results"))
            .arg("--snapshot-dir")
            .arg(dir.join("snapshots"))
            .args(["--cache-cap", &caps[0].to_string()])
            .args(["--analysis-cache-cap", &caps[1].to_string()])
            .args(["--shards", &nproc().to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start the daemon {}: {e}", exe.display()))?;
        let mut child = Some(child);
        match connect_polling(&Listen::Unix(sock), Duration::from_secs(30)) {
            Ok(conn) => Ok(Daemon { child, conn }),
            Err(e) => {
                stop_child(&mut child);
                Err(format!("the daemon did not come up: {e}"))
            }
        }
    }

    /// Send one request payload and return the response payload.
    pub fn call(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        write_frame(&mut self.conn, payload)?;
        match read_frame(&mut self.conn, usize::MAX)? {
            Frame::Payload(bytes) => Ok(bytes),
            Frame::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            )),
            Frame::TooLarge(_) => unreachable!("the client sets no response limit"),
        }
    }

    /// An admin request (`stats`, `metrics`, `shutdown`).
    pub fn admin(&mut self, request: &Request) -> Result<Json, String> {
        let bytes = self
            .call(request.to_json().to_string().as_bytes())
            .map_err(|e| e.to_string())?;
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        Json::parse(&text).map_err(|e| e.to_string())
    }

    /// Peak RSS of the daemon process, in MB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        crate::report::peak_rss_mb(Some(self.child.as_ref()?.id()))
    }

    /// Drain and stop the daemon, waiting for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let acked = self.admin(&Request::Shutdown);
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut child = self.child.take().expect("a daemon is stopped once");
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1))
                }
                Ok(None) => break Err("the daemon did not exit after shutdown".to_string()),
                Err(e) => break Err(e.to_string()),
            }
        };
        if status.is_err() {
            stop_child(&mut Some(child));
        }
        acked?;
        match status? {
            s if s.success() => Ok(()),
            s => Err(format!("the daemon exited with {s}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        stop_child(&mut self.child);
    }
}

/// Connect, retrying every millisecond until `budget` elapses. The daemon's
/// start-up counts in `setup_s`, so the poll interval must not add jitter
/// of its own (the CLI's `connect_with_retry` sleeps 20 ms between tries).
fn connect_polling(addr: &Listen, budget: Duration) -> io::Result<Box<dyn Conn>> {
    let deadline = Instant::now() + budget;
    loop {
        match connect(addr) {
            Ok(conn) => return Ok(conn),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

fn stop_child(child: &mut Option<Child>) {
    if let Some(mut child) = child.take() {
        let _ = child.kill();
        let _ = child.wait();
    }
}
