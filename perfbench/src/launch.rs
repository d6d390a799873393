//! `perfbench exec`: runs one program and reports its wall time, when
//! it became ready, and its own peak resident memory.
//!
//! The benchmark cannot read a child's peak RSS from Python: Linux folds
//! the memory of the process that spawned a program into the program's
//! `ru_maxrss`, and the Python interpreter is larger than some of the
//! programs measured. This small launcher spawns exactly one child, so
//! after reaping it `getrusage(RUSAGE_CHILDREN)` is that child's own.
//!
//! A program is ready when its set-up is done, as the program itself
//! shows it: a path it creates (the `sweep` store, the warm snapshot) or
//! a line it prints (`report`'s prewarm line). The launcher polls for it
//! while it waits for the program to end.

use std::fs::{self, File};
use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` as Linux lays it out: two timevals, then 14 longs of
/// which the first is `ru_maxrss` in KiB. Only `maxrss` is read.
#[allow(dead_code)]
#[repr(C)]
struct Rusage {
    times: [c_long; 4],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_CHILDREN: c_int = -1;

/// Polling steps: fine while a ready signal is awaited and for the first
/// 100 ms (so a 20 ms run is timed to within 0.05 ms), coarse after.
const FINE: Duration = Duration::from_micros(50);
const COARSE: Duration = Duration::from_millis(1);
const FINE_FOR: Duration = Duration::from_millis(100);

/// What marks a program ready: `path` exists and, when `text` is given,
/// contains it.
pub struct Ready {
    pub path: PathBuf,
    pub text: Option<String>,
    /// Kill the program once it is ready (a set-up-only launch).
    pub stop: bool,
}

impl Ready {
    fn reached(&self) -> bool {
        match &self.text {
            None => self.path.exists(),
            Some(text) => fs::read_to_string(&self.path).is_ok_and(|s| s.contains(text.as_str())),
        }
    }
}

fn create(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs `argv` with stdout and stderr in files, killing it after
/// `timeout`. Prints `{"elapsed_s":..,"ready_s":..,"maxrss_kb":..,"exit":..}`;
/// `ready_s` is null when no ready signal was asked for or seen, and
/// `exit` is the exit code, or 128 + the signal that ended the program.
pub fn exec(
    argv: &[String],
    stdout: &Path,
    stderr: &Path,
    timeout: Duration,
    ready: Option<&Ready>,
) -> Result<String, String> {
    let (program, args) = argv.split_first().ok_or("exec needs a program")?;
    let began = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(create(stdout)?)
        .stderr(create(stderr)?)
        .spawn()
        .map_err(|e| format!("{program}: {e}"))?;
    let mut ready_s = None;
    let status = loop {
        let waited = began.elapsed();
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if let Some(r) = ready.filter(|_| ready_s.is_none()) {
            if r.reached() {
                ready_s = Some(began.elapsed().as_secs_f64());
                if r.stop {
                    let _ = child.kill();
                }
            }
        }
        if waited >= timeout {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("{program} ran past {} s", timeout.as_secs()));
        }
        let awaiting = ready.is_some() && ready_s.is_none();
        let step = if awaiting || waited < FINE_FOR {
            FINE
        } else {
            COARSE
        };
        std::thread::sleep(step);
    };
    let elapsed = began.elapsed().as_secs_f64();
    let mut usage = Rusage {
        times: [0; 4],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is live, writable and laid out as the C structure
    // `getrusage` fills.
    if unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) } != 0 {
        return Err("getrusage failed".to_string());
    }
    let exit = status
        .code()
        .unwrap_or_else(|| 128 + status.signal().unwrap_or(0));
    let ready_s = ready_s.map_or("null".to_string(), |s| s.to_string());
    Ok(format!(
        "{{\"elapsed_s\":{elapsed},\"ready_s\":{ready_s},\"maxrss_kb\":{},\"exit\":{exit}}}",
        usage.maxrss
    ))
}
