//! A run is a few sessions. Each session sets the servers up afresh and
//! measures one slice of the timed window, so one run's numbers average
//! over several independent servers, and the run gets several set-up
//! times to take the median of. With `--trace 1` each session's window
//! is also observed through the servers' `Metrics` command.

use crate::load::LoopOut;
use crate::prom::Snapshot;
use crate::report;
use std::sync::atomic::{AtomicBool, Ordering};

/// `Metrics` observations summed over a run's sessions.
pub struct Observed {
    /// Counter deltas over the timed windows, summed over nodes.
    pub delta: Snapshot,
    /// Largest sampled admission queue depth on any node.
    pub queue_depth_max: f64,
    /// Largest sampled admission wait estimate on any node, µs.
    pub estimated_wait_us: f64,
}

pub struct Sessions {
    pub out: LoopOut,
    pub setups: Vec<f64>,
    /// Each session's timed window, seconds.
    pub windows: Vec<f64>,
    /// `Some` with `--trace 1`.
    pub observed: Option<Observed>,
}

/// How much lower than the client threads the server threads run, in
/// nice levels.
const SERVER_NICE: i32 = 10;

/// Runs `set_up` on a thread `SERVER_NICE` levels below the caller, so
/// every server thread it starts (a thread inherits its parent's nice
/// value) yields the cores to the client threads. The load generator
/// shares the machine's cores with the servers; without this, a busy fleet
/// delays the open loop's sends by tens of milliseconds and the clients'
/// reads by as much, which a load generator on its own machine would not
/// see.
fn below_clients<T: Send>(set_up: &mut (impl FnMut() -> T + Send)) -> T {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                lower_priority(SERVER_NICE);
                set_up()
            })
            .join()
            .expect("set-up thread panicked")
    })
}

#[cfg(unix)]
fn lower_priority(levels: i32) {
    extern "C" {
        fn nice(inc: i32) -> i32;
    }
    // SAFETY: nice(2) takes an int and only changes a scheduling
    // priority (on Linux, the calling thread's).
    unsafe {
        nice(levels);
    }
}

#[cfg(not(unix))]
fn lower_priority(_levels: i32) {}

/// Runs sessions while `more(sessions run, seconds of window so far)`
/// holds. `set_up` starts the servers and returns a guard that keeps
/// them alive, every node's address and its own duration in seconds;
/// `load(session, addrs)` drives one slice of the window.
pub fn run<G: Send>(
    more: impl Fn(usize, f64) -> bool,
    trace: bool,
    mut set_up: impl FnMut() -> Result<(G, Vec<String>, f64), String> + Send,
    mut load: impl FnMut(usize, &[String]) -> Result<LoopOut, String>,
) -> Result<Sessions, String> {
    let mut total = LoopOut::default();
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    let mut deltas = Vec::new();
    let (mut depth, mut wait) = (0.0f64, 0.0f64);
    let mut session = 0;
    while more(session, total.window_s) {
        let (guard, addrs, secs) = below_clients(&mut set_up)?;
        setups.push(secs);
        let before = if trace {
            Some(report::scrape_all(&addrs)?)
        } else {
            None
        };
        let stop = AtomicBool::new(false);
        let (out, gauges) = std::thread::scope(|scope| {
            let sampler = trace.then(|| scope.spawn(|| report::sample_gauges(&addrs, &stop)));
            let out = load(session, &addrs);
            stop.store(true, Ordering::SeqCst);
            (out, sampler.map(|h| h.join().expect("sampler thread")))
        });
        let out = out?;
        println!(
            "  session {session}: set-up {secs:.3} s, {} answers in {:.3} s, p50 {:.1} ms",
            out.samples.len(),
            out.window_s,
            crate::stats::median(
                &out.samples
                    .iter()
                    .map(|s| s.latency_us / 1e3)
                    .collect::<Vec<_>>()
            )
        );
        windows.push(out.window_s);
        total.absorb(out);
        if let (Some(before), Some(gauges)) = (before, gauges) {
            let (d, w) = gauges?;
            depth = depth.max(d);
            wait = wait.max(w);
            deltas.push(report::scrape_all(&addrs)?.delta(&before));
        }
        drop(guard);
        session += 1;
    }
    Ok(Sessions {
        out: total,
        setups,
        windows,
        observed: trace.then(|| Observed {
            delta: Snapshot::sum_of(&deltas),
            queue_depth_max: depth,
            estimated_wait_us: wait,
        }),
    })
}
