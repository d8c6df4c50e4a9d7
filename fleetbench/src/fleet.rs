//! A real serving fleet as child processes: `graphmine shard-plan`, one
//! `graphmine serve --shard-from` daemon per shard and one
//! `graphmine router`, each booted on a fresh port range.
//!
//! Readiness comes from each daemon's `serving on` stdout line, not from
//! polling `connect`, so `setup_s` measures the fleet's boot rather than a
//! poll interval. Each daemon runs under a small `bash` watchdog that
//! kills it once the watchdog's stdin closes: [`Fleet`]'s drop closes it
//! (which also covers unwinding out of a panic), and so does the kernel
//! when this process dies by a signal, so no daemon outlives its run.

use std::ffi::OsStr;
use std::fs::File;
use std::io::{BufRead, BufReader, Lines};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use graphmine_serve::Client;
use graphmine_telemetry::JsonValue;

/// The longest any one daemon may take to print `serving on`.
const BOOT_TIMEOUT: Duration = Duration::from_secs(90);

/// Starts `"$@"` in the background behind a line with its pid (printed
/// by the shell the daemon then `exec`s into, so it always comes first),
/// and kills it when stdin reaches end of file.
const WATCHDOG: &str = r#"bash -c 'echo "pid $$"; exec "$@"' daemon "$@" & d=$!
cat >/dev/null; kill -KILL $d 2>/dev/null; wait $d"#;

/// Where the fleet's inputs and the `graphmine` binary live.
pub struct FleetSpec<'a> {
    /// The `graphmine` executable.
    pub bin: &'a Path,
    /// The database file, in the gSpan text format `graphmine` reads.
    pub db: &'a Path,
    /// Relative minimum support handed to `shard-plan --minsup`.
    pub minsup: f64,
    /// Number of shards (one replica each).
    pub shards: usize,
}

/// One live daemon.
struct Daemon {
    name: String,
    /// The watchdog.
    child: Child,
    /// The daemon itself.
    pid: u32,
    /// Closing this makes the watchdog kill the daemon.
    stdin: Option<ChildStdin>,
    /// Drains the daemon's stdout after readiness so it never blocks on
    /// a full pipe; ends at EOF once the daemon is killed.
    drain: Option<JoinHandle<()>>,
}

/// A booted fleet. Dropping it kills every daemon, waits for each, and
/// removes the fleet directory.
pub struct Fleet {
    dir: PathBuf,
    daemons: Vec<Daemon>,
    /// The router's address.
    pub router_addr: String,
    /// Shard addresses, by shard id.
    pub shard_addrs: Vec<String>,
    /// The planned topology file.
    pub topology: PathBuf,
    /// From starting `shard-plan` until the router answered `status` with
    /// every shard live.
    pub setup: Duration,
    /// Per shard: from spawn until its `serving on` line.
    pub shard_boot: Vec<Duration>,
}

impl Fleet {
    /// Plans and boots a fleet under `dir` (created fresh).
    ///
    /// # Errors
    ///
    /// Fails when a command fails, a daemon exits or stays silent past
    /// [`BOOT_TIMEOUT`], or the router reports a dead shard. Daemons
    /// started before the failure are killed on the way out.
    pub fn boot(spec: &FleetSpec<'_>, dir: &Path, port_salt: u64) -> Result<Fleet, String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let base_port = free_port_range(port_salt, 1 + spec.shards)?;
        let mut fleet = Fleet {
            dir: dir.to_path_buf(),
            daemons: Vec::new(),
            router_addr: String::new(),
            shard_addrs: Vec::new(),
            topology: dir.join("plan").join("topology.json"),
            setup: Duration::ZERO,
            shard_boot: Vec::new(),
        };
        let started = Instant::now();

        let plan = Command::new(spec.bin)
            .arg("shard-plan")
            .arg(spec.db)
            .args(["--shards", &spec.shards.to_string()])
            .args(["--minsup", &spec.minsup.to_string()])
            .args(["--base-port", &base_port.to_string()])
            .arg("-o")
            .arg(dir.join("plan"))
            .stdout(Stdio::null())
            .stderr(log_file(dir, "shard-plan")?)
            .status()
            .map_err(|e| format!("spawn shard-plan: {e}"))?;
        if !plan.success() {
            let log = std::fs::read_to_string(dir.join("shard-plan.log")).unwrap_or_default();
            return Err(format!("shard-plan failed ({plan}): {}", log.trim()));
        }

        // Both shards mine concurrently; each is ready at its own line.
        let (tx, rx) = mpsc::channel();
        let topology = fleet.topology.clone();
        for s in 0..spec.shards {
            let id = s.to_string();
            let args = ["serve", "--shard-from"].map(OsStr::new);
            let args =
                [&args[..], &[topology.as_os_str(), OsStr::new("--shard-id"), OsStr::new(&id)]]
                    .concat();
            fleet.spawn(&format!("shard-{s}"), spec.bin, &args, s, &tx)?;
        }
        fleet.shard_addrs = vec![String::new(); spec.shards];
        fleet.shard_boot = vec![Duration::ZERO; spec.shards];
        for _ in 0..spec.shards {
            let (s, addr) = fleet.wait_ready(&rx)?;
            fleet.shard_addrs[s] = addr;
            fleet.shard_boot[s] = started.elapsed();
        }
        fleet.spawn(
            "router",
            spec.bin,
            &[OsStr::new("router"), topology.as_os_str()],
            spec.shards,
            &tx,
        )?;
        fleet.router_addr = fleet.wait_ready(&rx)?.1;

        let mut client = Client::connect_with(
            fleet.router_addr.as_str(),
            Some(Duration::from_secs(5)),
            Some(Duration::from_secs(60)),
        )?;
        let status = client.status(false)?;
        let dead = status.field("dead").and_then(JsonValue::as_arr).map_or(1, <[_]>::len);
        if dead != 0 || status.field("partial").is_some() {
            return Err(format!("router reports dead shards at boot: {}", status.to_json()));
        }
        fleet.setup = started.elapsed();
        Ok(fleet)
    }

    /// Starts `graphmine args...` under the watchdog.
    fn spawn(
        &mut self,
        name: &str,
        bin: &Path,
        args: &[&OsStr],
        slot: usize,
        ready: &mpsc::Sender<(usize, Result<String, String>)>,
    ) -> Result<(), String> {
        let mut child = Command::new("bash")
            .args(["-c", WATCHDOG, "fleetbench-watchdog"])
            .arg(bin)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(log_file(&self.dir, name)?)
            .spawn()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        let stdin = child.stdin.take();
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let first = lines.next().and_then(Result::ok).unwrap_or_default();
        let pid = first.strip_prefix("pid ").and_then(|p| p.trim().parse().ok());
        let Some(pid) = pid else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{name}: watchdog printed `{first}`, not its daemon's pid"));
        };
        let tx = ready.clone();
        let drain = std::thread::spawn(move || watch_stdout(lines, slot, &tx));
        self.daemons.push(Daemon { name: name.to_string(), child, pid, stdin, drain: Some(drain) });
        Ok(())
    }

    /// Waits for the next daemon's `serving on <addr>` line.
    fn wait_ready(
        &self,
        rx: &mpsc::Receiver<(usize, Result<String, String>)>,
    ) -> Result<(usize, String), String> {
        match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok((slot, Ok(addr))) => Ok((slot, addr)),
            Ok((slot, Err(e))) => {
                Err(format!("daemon {slot}: {e}; logs in {}", self.dir.display()))
            }
            Err(_) => Err(format!("no daemon ready within {BOOT_TIMEOUT:?}")),
        }
    }

    /// Process ids of every daemon, shards first, router last.
    pub fn pids(&self) -> Vec<u32> {
        self.daemons.iter().map(|d| d.pid).collect()
    }

    /// The router's process id.
    pub fn router_pid(&self) -> u32 {
        self.daemons.iter().find(|d| d.name == "router").expect("router is booted").pid
    }

    /// Shard daemons' process ids, by shard id.
    pub fn shard_pids(&self) -> Vec<u32> {
        self.daemons.iter().filter(|d| d.name != "router").map(|d| d.pid).collect()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for d in &mut self.daemons {
            drop(d.stdin.take());
        }
        for d in &mut self.daemons {
            let _ = d.child.wait();
            if let Some(h) = d.drain.take() {
                let _ = h.join();
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn log_file(dir: &Path, name: &str) -> Result<File, String> {
    let path = dir.join(format!("{name}.log"));
    File::create(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reports the address from the first `serving on` line, then drains the
/// rest of the output until the daemon exits.
fn watch_stdout(
    mut lines: Lines<BufReader<ChildStdout>>,
    slot: usize,
    tx: &mpsc::Sender<(usize, Result<String, String>)>,
) {
    let mut reported = false;
    for line in lines.by_ref() {
        let Ok(line) = line else { break };
        if reported {
            continue;
        }
        if let Some((_, addr)) = line.split_once("serving on ") {
            let _ = tx.send((slot, Ok(addr.trim().to_string())));
            reported = true;
        }
    }
    if !reported {
        let _ = tx.send((slot, Err("exited before `serving on`".to_string())));
    }
}

/// A base port such that `base..base + n` can all be bound right now.
/// The candidate walks a range keyed by this process and `salt`, so runs
/// started back to back do not reuse ports still in `TIME_WAIT`.
fn free_port_range(salt: u64, n: usize) -> Result<u16, String> {
    const LOW: u64 = 20_000;
    const SPAN: u64 = 40_000;
    let n = n as u64;
    let mut key = u64::from(std::process::id()).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt;
    for _ in 0..64 {
        key = key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        let base = LOW + (key >> 33) % (SPAN - n);
        let free = (base..base + n).all(|p| TcpListener::bind(("127.0.0.1", p as u16)).is_ok());
        if free {
            return Ok(base as u16);
        }
    }
    Err("no free port range found".to_string())
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
pub fn peak_rss_kib(pid: u32) -> Result<u64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("/proc/{pid}/status has no VmHWM"))
}

/// User plus system CPU time a live process has used, in milliseconds.
pub fn cpu_ms(pid: u32) -> Result<f64, String> {
    // Clock ticks per second; 100 on every Linux target this runs on.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    Ok((tick(11) + tick(12)) * 1000.0 / TICKS_PER_S)
}
