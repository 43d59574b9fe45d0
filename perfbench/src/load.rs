//! Load generation: the closed loop (each connection sends its next
//! request when the previous answer is in) and the open loop (requests
//! sent on a seeded Poisson schedule, each timed from when it was due).

use crate::client::{is_part, Conn};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One answered (or failed) request as the client saw it.
pub struct Sample {
    /// Index of the request in its stream (closed loop: per connection;
    /// open loop: its schedule id).
    pub index: usize,
    pub conn: usize,
    /// Client-observed latency in microseconds.
    pub latency_us: f64,
    /// Every response line of the answer; empty on a transport failure.
    pub lines: Vec<String>,
    /// Transport error, if the answer never arrived.
    pub transport_error: Option<String>,
    /// Whether the request was in the traced half (see [`in_traced_half`]).
    pub traced: bool,
}

/// Whether request `index` is in the traced half of a `--trace 1` run.
/// The half is picked by a hash of the index, so it is independent of
/// anything a workload derives from the index (such as which objective a
/// bound is on).
pub fn in_traced_half(trace: bool, index: usize) -> bool {
    trace && crate::rng::Rng::new(index as u64, TRACE_SALT).coin()
}

const TRACE_SALT: u64 = 0x7BAC_E0FF;

/// Client-side spans of the traced half of the requests: those requests
/// record where their client time went, and the difference between the
/// two halves is the tracing overhead.
#[derive(Default)]
pub struct ClientSpans {
    pub write_us: Vec<f64>,
    pub wait_us: Vec<f64>,
    pub read_us: Vec<f64>,
    pub parse_us: Vec<f64>,
}

impl ClientSpans {
    fn absorb(&mut self, other: ClientSpans) {
        self.write_us.extend(other.write_us);
        self.wait_us.extend(other.wait_us);
        self.read_us.extend(other.read_us);
        self.parse_us.extend(other.parse_us);
    }
}

#[derive(Default)]
pub struct LoopOut {
    pub samples: Vec<Sample>,
    pub spans: ClientSpans,
    pub window_s: f64,
    /// How late the open-loop sender ran, per request, in ms.
    pub lag_ms: Vec<f64>,
}

impl LoopOut {
    /// Adds another window's results (the windows' lengths add up).
    pub fn absorb(&mut self, other: LoopOut) {
        self.samples.extend(other.samples);
        self.spans.absorb(other.spans);
        self.window_s += other.window_s;
        self.lag_ms.extend(other.lag_ms);
    }
}

/// Runs `conns` closed-loop connections to `addrs[c % addrs.len()]` for
/// `window`, or until `next` runs dry. `next(conn)` hands a connection
/// its next request as an index and a line; building it is not timed.
/// With `trace`, requests in the traced half (see [`in_traced_half`])
/// record client spans and parse their answer inline.
pub fn closed_loop(
    addrs: &[String],
    conns: usize,
    window: Duration,
    read_timeout: Duration,
    trace: bool,
    next: &(dyn Fn(usize) -> Option<(usize, String)> + Sync),
) -> Result<LoopOut, String> {
    let start = Instant::now();
    let results: Vec<Result<(Vec<Sample>, ClientSpans), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                let addr = &addrs[c % addrs.len()];
                scope.spawn(move || {
                    let mut conn = Conn::connect(addr, read_timeout)
                        .map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut samples = Vec::new();
                    let mut spans = ClientSpans::default();
                    while start.elapsed() < window {
                        let Some((k, line)) = next(c) else {
                            break;
                        };
                        let traced = in_traced_half(trace, k);
                        let t0 = Instant::now();
                        let outcome = if traced {
                            traced_call(&mut conn, &line, &mut spans)
                        } else {
                            conn.call(&line)
                        };
                        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
                        let (lines, transport_error) = match outcome {
                            Ok(lines) => (lines, None),
                            Err(e) => (Vec::new(), Some(e.to_string())),
                        };
                        let broken = transport_error.is_some();
                        samples.push(Sample {
                            index: k,
                            conn: c,
                            latency_us,
                            lines,
                            transport_error,
                            traced,
                        });
                        if broken {
                            break;
                        }
                        if traced {
                            let t = Instant::now();
                            for line in &samples.last().expect("just pushed").lines {
                                std::hint::black_box(crate::check::parse(line).ok());
                            }
                            spans.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    Ok((samples, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let mut out = LoopOut {
        samples: Vec::new(),
        spans: ClientSpans::default(),
        window_s,
        lag_ms: Vec::new(),
    };
    for result in results {
        let (samples, spans) = result?;
        out.samples.extend(samples);
        out.spans.absorb(spans);
    }
    Ok(out)
}

fn traced_call(
    conn: &mut Conn,
    line: &str,
    spans: &mut ClientSpans,
) -> std::io::Result<Vec<String>> {
    let t0 = Instant::now();
    conn.send(line)?;
    let t1 = Instant::now();
    let first = conn.recv_line()?;
    let t2 = Instant::now();
    let mut lines = vec![first];
    while is_part(lines.last().expect("non-empty")) {
        lines.push(conn.recv_line()?);
    }
    let t3 = Instant::now();
    spans.write_us.push((t1 - t0).as_secs_f64() * 1e6);
    spans.wait_us.push((t2 - t1).as_secs_f64() * 1e6);
    spans.read_us.push((t3 - t2).as_secs_f64() * 1e6);
    Ok(lines)
}

/// Runs `conns` connections to `addrs[c % addrs.len()]` for `window`,
/// each keeping `depth` requests in flight: a sender thread writes the
/// next request whenever an answer completes, and a reader thread
/// collects the answers by id. `make(conn, k)` builds the k-th request of
/// a connection as its id and line (ids unique across connections);
/// building is not timed. Latency runs from the send to the last answer
/// line. Requests still unanswered `read_timeout` after the last send are
/// transport failures.
pub fn windowed_loop(
    addrs: &[String],
    conns: usize,
    depth: usize,
    window: Duration,
    read_timeout: Duration,
    make: &(dyn Fn(usize, usize) -> (usize, String) + Sync),
) -> Result<LoopOut, String> {
    let mut links = Vec::with_capacity(conns);
    for c in 0..conns {
        let addr = &addrs[c % addrs.len()];
        let conn = Conn::connect(addr, Duration::from_millis(100))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let writer = conn
            .try_clone_stream()
            .map_err(|e| format!("clone socket: {e}"))?;
        links.push((conn, writer));
    }
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let readers: Vec<_> = links
            .into_iter()
            .enumerate()
            .map(|(c, (mut conn, mut writer))| {
                // id -> (k, sent at) of every request in flight.
                let in_flight: Mutex<HashMap<usize, (usize, Instant)>> = Mutex::new(HashMap::new());
                let sender_done = AtomicBool::new(false);
                let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
                let last_send = Mutex::new(Instant::now());
                scope.spawn(move || {
                    std::thread::scope(|inner| {
                        let (in_flight, sender_done, last_send) =
                            (&in_flight, &sender_done, &last_send);
                        let sender = inner.spawn(move || {
                            use std::io::Write;
                            let mut k = 0;
                            while start.elapsed() < window {
                                if k >= depth && done_rx.recv_timeout(read_timeout).is_err() {
                                    break;
                                }
                                let (id, line) = make(c, k);
                                let mut buf = line.into_bytes();
                                buf.push(b'\n');
                                in_flight
                                    .lock()
                                    .expect("in-flight table")
                                    .insert(id, (k, Instant::now()));
                                if writer.write_all(&buf).is_err() {
                                    break;
                                }
                                k += 1;
                            }
                            *last_send.lock().expect("send clock") = Instant::now();
                            sender_done.store(true, Ordering::SeqCst);
                        });
                        let mut pending: HashMap<usize, Vec<String>> = HashMap::new();
                        let mut samples = Vec::new();
                        loop {
                            if sender_done.load(Ordering::SeqCst)
                                && (in_flight.lock().expect("in-flight table").is_empty()
                                    || last_send.lock().expect("send clock").elapsed()
                                        > read_timeout)
                            {
                                break;
                            }
                            let line = match conn.recv_line() {
                                Ok(line) => line,
                                Err(e)
                                    if matches!(
                                        e.kind(),
                                        std::io::ErrorKind::WouldBlock
                                            | std::io::ErrorKind::TimedOut
                                    ) =>
                                {
                                    continue
                                }
                                Err(_) => break,
                            };
                            let arrived = Instant::now();
                            let Some(id) = response_id(&line) else {
                                continue;
                            };
                            let part = is_part(&line);
                            pending.entry(id).or_default().push(line);
                            if part {
                                continue;
                            }
                            let Some((k, sent)) =
                                in_flight.lock().expect("in-flight table").remove(&id)
                            else {
                                continue;
                            };
                            samples.push(Sample {
                                index: k,
                                conn: c,
                                latency_us: arrived.saturating_duration_since(sent).as_secs_f64()
                                    * 1e6,
                                lines: pending.remove(&id).unwrap_or_default(),
                                transport_error: None,
                                traced: false,
                            });
                            let _ = done_tx.send(());
                        }
                        // Wakes a sender still waiting for a slot.
                        drop(done_tx);
                        sender.join().expect("sender thread panicked");
                        for (_, (k, _)) in in_flight.lock().expect("in-flight table").drain() {
                            samples.push(Sample {
                                index: k,
                                conn: c,
                                latency_us: f64::INFINITY,
                                lines: Vec::new(),
                                transport_error: Some("no answer before the loop ended".into()),
                                traced: false,
                            });
                        }
                        samples
                    })
                })
            })
            .collect();
        readers
            .into_iter()
            .flat_map(|r| r.join().expect("client thread panicked"))
            .collect()
    });
    Ok(LoopOut {
        samples,
        spans: ClientSpans::default(),
        window_s: start.elapsed().as_secs_f64(),
        lag_ms: Vec::new(),
    })
}

/// One scheduled open-loop request.
pub struct Planned {
    /// The request's `id`, unique in the schedule.
    pub id: usize,
    /// Seconds after the window opens at which the request is due.
    pub due_s: f64,
    pub conn: usize,
    pub line: String,
}

/// Runs a pre-built open-loop schedule over a `window`: per connection
/// one sender thread writes each line when due and one reader thread
/// collects the answers by id. Latency runs from the due time to the
/// last answer line. The loop gives up on answers `grace` after the last
/// send.
pub fn open_loop(
    addrs: &[String],
    conns: usize,
    schedule: &[Planned],
    window: Duration,
    grace: Duration,
    trace: bool,
) -> Result<LoopOut, String> {
    let mut links = Vec::with_capacity(conns);
    for c in 0..conns {
        let addr = &addrs[c % addrs.len()];
        let conn = Conn::connect(addr, Duration::from_millis(100))
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let writer = conn
            .try_clone_stream()
            .map_err(|e| format!("clone socket: {e}"))?;
        links.push((conn, writer));
    }
    let position: HashMap<usize, usize> = schedule
        .iter()
        .enumerate()
        .map(|(i, p)| (p.id, i))
        .collect();
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64(schedule[i].due_s);
    let sent: Mutex<HashMap<usize, f64>> = Mutex::new(HashMap::new());
    let last_send = Mutex::new(start);
    let senders_done = AtomicBool::new(false);
    let mut per_conn: Vec<Vec<usize>> = vec![Vec::new(); conns];
    for (i, planned) in schedule.iter().enumerate() {
        per_conn[planned.conn].push(i);
    }
    let (samples, spans) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        let mut writers = Vec::new();
        for (c, (mut conn, mut writer)) in links.into_iter().enumerate() {
            let mine = &per_conn[c];
            let position = &position;
            let sent = &sent;
            let senders_done = &senders_done;
            let last_send = &last_send;
            writers.push(scope.spawn(move || {
                use std::io::Write;
                for &i in mine {
                    let at = due(i);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let mut buf = schedule[i].line.clone().into_bytes();
                    buf.push(b'\n');
                    let ok = writer.write_all(&buf).is_ok();
                    let lag_ms = Instant::now().saturating_duration_since(at).as_secs_f64() * 1e3;
                    sent.lock().expect("send log").insert(i, lag_ms);
                    if !ok {
                        break;
                    }
                }
                *last_send.lock().expect("send clock") = Instant::now();
            }));
            readers.push(scope.spawn(move || {
                let mut pending: HashMap<usize, Vec<String>> = HashMap::new();
                let mut samples = Vec::with_capacity(mine.len());
                let mut spans = ClientSpans::default();
                let mut remaining = mine.len();
                while remaining > 0 {
                    if senders_done.load(Ordering::SeqCst)
                        && last_send.lock().expect("send clock").elapsed() > grace
                    {
                        break;
                    }
                    let line = match conn.recv_line() {
                        Ok(line) => line,
                        Err(e)
                            if matches!(
                                e.kind(),
                                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                            ) =>
                        {
                            continue
                        }
                        Err(_) => break,
                    };
                    let arrived = Instant::now();
                    let Some(&i) = response_id(&line).and_then(|id| position.get(&id)) else {
                        continue;
                    };
                    let part = is_part(&line);
                    let lines = pending.entry(i).or_default();
                    lines.push(line);
                    if part {
                        continue;
                    }
                    let lines = pending.remove(&i).expect("entry just used");
                    let traced = in_traced_half(trace, schedule[i].id);
                    if traced {
                        let t = Instant::now();
                        for line in &lines {
                            std::hint::black_box(crate::check::parse(line).ok());
                        }
                        spans.parse_us.push(t.elapsed().as_secs_f64() * 1e6);
                    }
                    samples.push(Sample {
                        index: schedule[i].id,
                        conn: c,
                        latency_us: arrived.saturating_duration_since(due(i)).as_secs_f64() * 1e6,
                        lines,
                        transport_error: None,
                        traced,
                    });
                    remaining -= 1;
                }
                let answered: std::collections::HashSet<usize> =
                    samples.iter().map(|s| s.index).collect();
                for &i in mine {
                    if !answered.contains(&schedule[i].id) {
                        samples.push(Sample {
                            index: schedule[i].id,
                            conn: c,
                            latency_us: f64::INFINITY,
                            lines: Vec::new(),
                            transport_error: Some("no answer before the run's cap".into()),
                            traced: false,
                        });
                    }
                }
                (samples, spans)
            }));
        }
        for w in writers {
            w.join().expect("sender thread panicked");
        }
        senders_done.store(true, Ordering::SeqCst);
        let mut samples = Vec::new();
        let mut spans = ClientSpans::default();
        for r in readers {
            let (s, sp) = r.join().expect("reader thread panicked");
            samples.extend(s);
            spans.absorb(sp);
        }
        (samples, spans)
    });
    let window_s = window.as_secs_f64();
    let lag_ms = sent.into_inner().expect("send log").into_values().collect();
    Ok(LoopOut {
        samples,
        spans,
        window_s,
        lag_ms,
    })
}

/// The `id` of a response line (always its first field).
fn response_id(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}
