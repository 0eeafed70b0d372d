//! The reference kernel that scales host times to a fixed host speed.
//!
//! On a shared host the speed available to one process drifts: on the
//! 2-vCPU VM this benchmark was built on, the same sweep iteration took
//! anywhere from 122 ms to 225 ms from one minute to the next, while
//! CPU steal stayed under 1%. Ten runs of raw wall time then spread by
//! more than any useful regression bound. A fixed kernel owned by the
//! benchmark slows and speeds up with the host, so scaling a run's
//! times by `REFERENCE_MS / median kernel time` removes most of that
//! drift and leaves what the code under test changed. The kernel mixes
//! allocation, sorting, ordered-map inserts, float formatting and
//! parsing, as the simulator does.
//!
//! The kernel runs in a child process ([`Kernel`]), timed between
//! iterations, after the measured call has returned and joined its
//! workers. It shares no heap, allocator state or threads with the
//! program under test. It does share the CPUs, the CPU caches and the
//! page cache, so work the program leaves running after a call
//! returns (a thread that outlives it, file write-back) can still slow
//! it. A run is scaled by the median of all its kernel times, not by
//! the sample next to each interval, so one disturbed sample moves
//! nothing; the raw medians are printed beside the scaled ones.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::time::Instant;

/// The kernel's wall time on the reference host, ms: the unit that
/// scaled times are expressed against. A scaled time equals the raw
/// wall time whenever the kernel runs in exactly this long.
pub const REFERENCE_MS: f64 = 20.0;

/// Rounds of the kernel's cache-resident half.
const CACHED_ROUNDS: usize = 24;

/// The argument that turns the benchmark binary into a kernel server.
pub const SERVE_FLAG: &str = "--reference-kernel";

/// One run of the kernel; returns a checksum so the work cannot be
/// optimised away. It has two halves of about equal time. The first
/// streams a few megabytes through the shared last-level cache, as the
/// simulator's larger programs and artifacts do; the second works in
/// rounds of about 100 KB that stay in the core's own caches, as its
/// event loops do. On the VM this benchmark was built on, a busy host
/// slowed the simulator by about 1.85x. A kernel like the first half
/// alone slowed by about 1.8x, but in quiet spells it also swung by 8%
/// when the simulator did not; one like the second half alone stayed
/// steady in quiet spells but slowed by only about 1.65x.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut check = 0u64;
    for (len, rounds) in [(200_000, 1), (8_000, CACHED_ROUNDS)] {
        for _ in 0..rounds {
            let mut v: Vec<u64> = (0..len).map(|_| next()).collect();
            v.sort_unstable();
            let mut ordered = BTreeMap::new();
            for (i, &k) in v.iter().enumerate().step_by(4) {
                ordered.insert(k, i);
            }
            let mut buckets: HashMap<u64, Vec<f64>> = HashMap::new();
            for &k in v.iter().take(len / 4) {
                buckets
                    .entry(k % 97)
                    .or_default()
                    .push((k >> 11) as f64 * 1e-9);
            }
            let mut s = String::new();
            for (k, i) in ordered.iter().take(len / 16) {
                let _ = write!(s, "{{\"k\":{k},\"v\":{}}},", *i as f64 * 0.5);
            }
            let parsed: f64 = s
                .split("\"v\":")
                .skip(1)
                .filter_map(|t| t.split('}').next()?.parse::<f64>().ok())
                .sum();
            check ^= parsed as u64 ^ v[v.len() / 2] ^ (ordered.len() + buckets.len()) as u64;
        }
    }
    std::hint::black_box(check)
}

/// Times one kernel run, ms.
pub fn kernel_ms() -> f64 {
    let started = Instant::now();
    kernel();
    started.elapsed().as_secs_f64() * 1e3
}

/// The kernel server's loop: one timed kernel run per line read from
/// standard input, its time in ms written back as one line, until
/// standard input closes.
pub fn serve() -> ExitCode {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() || writeln!(out, "{}", kernel_ms()).is_err() || out.flush().is_err() {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// A kernel server in a child process (this binary, started with
/// [`SERVE_FLAG`]). It idles until asked for a sample; dropping it
/// closes its input and waits for it to exit.
pub struct Kernel {
    child: Child,
    input: Option<ChildStdin>,
    output: BufReader<ChildStdout>,
}

impl Kernel {
    /// Starts the server and discards its first, cold, sample.
    ///
    /// # Errors
    ///
    /// A message when the child cannot be started or does not answer.
    pub fn spawn() -> Result<Kernel, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
        let mut child = Command::new(exe)
            .arg(SERVE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting the reference kernel: {e}"))?;
        let input = child.stdin.take();
        let output = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut kernel = Kernel {
            child,
            input,
            output,
        };
        kernel.sample_ms()?;
        Ok(kernel)
    }

    /// One kernel run in the child, ms (the child's own timing, so the
    /// pipe round trip is not counted).
    ///
    /// # Errors
    ///
    /// A message when the child does not answer with a time.
    pub fn sample_ms(&mut self) -> Result<f64, String> {
        let input = self.input.as_mut().expect("open until dropped");
        writeln!(input).map_err(|e| format!("reference kernel: {e}"))?;
        input
            .flush()
            .map_err(|e| format!("reference kernel: {e}"))?;
        let mut line = String::new();
        self.output
            .read_line(&mut line)
            .map_err(|e| format!("reference kernel: {e}"))?;
        line.trim()
            .parse()
            .map_err(|_| format!("reference kernel answered {line:?}"))
    }
}

impl Drop for Kernel {
    fn drop(&mut self) {
        drop(self.input.take());
        let _ = self.child.wait();
    }
}

/// A raw interval scaled to the reference speed, given the run's
/// median kernel time.
pub fn scaled(raw: f64, kernel_ms: f64) -> f64 {
    raw * REFERENCE_MS / kernel_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_does_the_same_work_every_run() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scaling_is_identity_at_the_reference_speed() {
        assert_eq!(scaled(250.0, REFERENCE_MS), 250.0);
        // A host running the kernel twice as slow halves the interval.
        assert_eq!(scaled(500.0, 2.0 * REFERENCE_MS), 250.0);
    }
}
