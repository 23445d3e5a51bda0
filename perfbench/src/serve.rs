//! `plan-serve`: an open loop against an in-process planning server.
//!
//! Requests are due on a fixed schedule at each of three rates and go
//! out pipelined over [`CONNS`] TCP connections whether or not earlier
//! replies have arrived; each latency runs from the request's due time.
//! Every phase starts a fresh server, so each rate sees the same mix of
//! first touches (cold: plan, insert, warm-log append) and repeats (warm
//! cache reads). The last rate is past the server's capacity, so the
//! rate at which that phase completes its fixed set of requests is the
//! capacity, the gated figure.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use tiling3d_bench::serve::{start, PlanService, ServeConfig, ServeLimits};
use tiling3d_core::api::{self, PlanRequest};
use tiling3d_obs::json;

use crate::inputs::ServeInputs;
use crate::report::Outcome;
use crate::stats::{median, tail};

/// Client connections (and cache shards): at most the host's two cores.
pub const CONNS: usize = 2;

/// Arrival rates in requests per second: light load, the middle rate the
/// latency figures are read at, and a saturating rate. On a 2-core host
/// the server completes about 230 req/s of this mix, and about half that
/// while other tenants load the machine; the middle rate stays below it
/// either way, and the last stays above it for a server up to 4x faster.
pub const RATES: [f64; 3] = [30.0, 60.0, 1000.0];

/// Share of the run each rate's requests are due over. The saturating
/// phase takes about four times its share to drain.
const PHASE_SHARE: [f64; 3] = [0.2, 0.5, 0.12];

/// Latency limit both tails must meet for a rate to count as sustained.
pub const LIMIT_MS: f64 = 500.0;

/// A connection silent this long ends the phase; its unanswered
/// requests count as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Where the servers' warm-start logs go: the build directory, which
/// lies inside the checkout and is ignored by git.
fn scratch_path(name: &str) -> Result<PathBuf, String> {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.join(format!("{name}-{}.jsonl", std::process::id())))
}

/// What one phase observed.
struct Phase {
    rate: f64,
    /// Per request: latency from due time, or `None` if it failed.
    latency_ms: Vec<Option<f64>>,
    cold: Vec<bool>,
    lag_ms: Vec<f64>,
    backlog_max: usize,
    completed_rps: f64,
    drain_ms: f64,
    hits: u64,
    misses: u64,
    errors: u64,
    warm_log_bytes: u64,
}

impl Phase {
    fn latencies(&self, cold: bool) -> Vec<f64> {
        self.latency_ms
            .iter()
            .zip(&self.cold)
            .filter(|&(_, &c)| c == cold)
            .filter_map(|(l, _)| *l)
            .collect()
    }

    fn failed(&self) -> usize {
        self.latency_ms.iter().filter(|l| l.is_none()).count()
    }

    /// Tail (p99, or the highest percentile with ten samples beyond it).
    fn tail_ms(&self, cold: bool) -> f64 {
        let v = self.latencies(cold);
        tail(&v, 99.0).map_or_else(|| v.iter().copied().fold(0.0, f64::max), |t| t.value)
    }

    /// Sustained: no failures, both tails within the limit, and the last
    /// reply no later than the limit after the last request fell due.
    fn sustained(&self) -> bool {
        self.failed() == 0
            && self.tail_ms(false) <= LIMIT_MS
            && self.tail_ms(true) <= LIMIT_MS
            && self.drain_ms <= LIMIT_MS
    }
}

/// Per-request observations of one open-loop phase.
struct Observed {
    /// Latency from due time; `None` for a missing or wrong reply.
    latency_ms: Vec<Option<f64>>,
    /// How late the generator sent each request.
    lag_ms: Vec<f64>,
    /// Reply arrival, seconds after the schedule's start.
    recv_s: Vec<Option<f64>>,
}

/// Reads one connection's replies, in order, for the requests `mine`:
/// arrival time and whether the reply was right, until a reply is
/// missing for [`REPLY_TIMEOUT`].
fn receive(
    stream: &TcpStream,
    mine: &[usize],
    expected: &[&str],
    t0: Instant,
) -> Vec<(usize, f64, bool)> {
    let mut got = Vec::with_capacity(mine.len());
    if stream.set_read_timeout(Some(REPLY_TIMEOUT)).is_err() {
        return got;
    }
    let mut r = BufReader::new(stream);
    let mut buf = String::new();
    for &i in mine {
        buf.clear();
        match r.read_line(&mut buf) {
            Ok(len) if len > 0 => {
                let at = t0.elapsed().as_secs_f64();
                got.push((i, at, buf.trim_end() == expected[i]));
            }
            _ => break,
        }
    }
    got
}

/// Sends `lines` at `rate` over [`CONNS`] pipelined connections and
/// checks every reply against `expected`. The calling thread paces the
/// sends; one thread per connection reads its replies.
fn open_loop(
    addr: SocketAddr,
    lines: &[&str],
    expected: &[&str],
    rate: f64,
) -> Result<Observed, String> {
    let n = lines.len();
    let due = |i: usize| i as f64 / rate;
    let streams = (0..CONNS)
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut obs = Observed {
        latency_ms: vec![None; n],
        lag_ms: vec![0.0; n],
        recv_s: vec![None; n],
    };
    let replies = std::thread::scope(|sc| {
        let readers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let mine: Vec<usize> = (c..n).step_by(CONNS).collect();
                sc.spawn(move || receive(stream, &mine, expected, t0))
            })
            .collect();
        for (i, line) in lines.iter().enumerate() {
            let at = t0 + Duration::from_secs_f64(due(i));
            if let Some(wait) = at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mut w = &streams[i % CONNS];
            if w.write_all(format!("{line}\n").as_bytes()).is_err() {
                break;
            }
            obs.lag_ms[i] = (t0.elapsed().as_secs_f64() - due(i)) * 1e3;
        }
        readers
            .into_iter()
            .map(|h| h.join())
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|_| "reply reader panicked")?;
    for (i, at, good) in replies.into_iter().flatten() {
        obs.recv_s[i] = Some(at);
        obs.latency_ms[i] = good.then_some((at - due(i)) * 1e3);
    }
    Ok(obs)
}

/// Largest number of requests sent but not yet answered at any moment.
fn backlog_max(sent_s: &[f64], recv_s: &[Option<f64>]) -> usize {
    let mut events: Vec<(f64, i64)> = sent_s.iter().map(|&s| (s, 1)).collect();
    events.extend(recv_s.iter().flatten().map(|&r| (r, -1)));
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
    let (mut cur, mut max) = (0i64, 0i64);
    for (_, d) in events {
        cur += d;
        max = max.max(cur);
    }
    usize::try_from(max).unwrap_or(0)
}

fn run_phase(
    inp: &ServeInputs,
    expected: &[String],
    rate: f64,
    seconds: f64,
    setup_s: &mut Vec<f64>,
) -> Result<Phase, String> {
    let count = ((rate * seconds).ceil() as usize).min(inp.stream.len());
    let stream = &inp.stream[..count];
    let lines: Vec<&str> = stream.iter().map(|&k| inp.keys[k].as_str()).collect();
    let want: Vec<&str> = stream.iter().map(|&k| expected[k].as_str()).collect();
    let mut seen = vec![false; inp.keys.len()];
    let cold: Vec<bool> = stream
        .iter()
        .map(|&k| !std::mem::replace(&mut seen[k], true))
        .collect();

    let warm = scratch_path("warm")?;
    let t0 = Instant::now();
    let server = start(ServeConfig {
        tcp: Some("127.0.0.1:0".into()),
        warm: Some(warm.clone()),
        shards: CONNS,
        limits: ServeLimits::default(),
        ..ServeConfig::default()
    })?;
    setup_s.push(t0.elapsed().as_secs_f64());
    let addr = server.tcp_addr().ok_or("server has no TCP address")?;
    let result = open_loop(addr, &lines, &want, rate);
    let stats = &server.service().stats;
    let (hits, misses, errors) = (
        stats.hits.load(Ordering::Relaxed),
        stats.misses.load(Ordering::Relaxed),
        stats.errors.load(Ordering::Relaxed),
    );
    server.request_shutdown();
    server.wait();
    let warm_log_bytes = std::fs::metadata(&warm).map_or(0, |m| m.len());
    let _ = std::fs::remove_file(&warm);
    let obs = result?;

    let sent_s: Vec<f64> = (0..count)
        .map(|i| i as f64 / rate + obs.lag_ms[i] / 1e3)
        .collect();
    let last = obs.recv_s.iter().flatten().copied().fold(0.0, f64::max);
    let last_due = (count - 1) as f64 / rate;
    let done = obs.latency_ms.iter().flatten().count();
    Ok(Phase {
        rate,
        backlog_max: backlog_max(&sent_s, &obs.recv_s),
        completed_rps: done as f64 / last.max(f64::MIN_POSITIVE),
        drain_ms: (last - last_due) * 1e3,
        latency_ms: obs.latency_ms,
        cold,
        lag_ms: obs.lag_ms,
        hits,
        misses,
        errors,
        warm_log_bytes,
    })
}

fn parse(line: &str) -> Result<PlanRequest, String> {
    PlanRequest::from_json(&json::parse(line)?)
}

/// Requests the fastest phase of a `seconds`-long run sends.
pub fn stream_len(seconds: f64) -> usize {
    RATES
        .iter()
        .zip(PHASE_SHARE)
        .map(|(r, w)| (r * w * seconds).ceil() as usize)
        .max()
        .expect("three rates")
}

/// Runs the three-rate open loop over `inp` for about `seconds` and
/// fills `out`.
///
/// # Errors
/// When a server cannot start or a request in the generated set is
/// malformed.
pub fn run(inp: &ServeInputs, seconds: f64, traced: bool, out: &mut Outcome) -> Result<(), String> {
    // Expected replies, computed directly and outside the timed phases,
    // for every key the longest phase touches, on CONNS threads.
    let mut used = vec![false; inp.keys.len()];
    for &k in &inp.stream {
        used[k] = true;
    }
    let todo: Vec<usize> = (0..inp.keys.len()).filter(|&k| used[k]).collect();
    let replies = std::thread::scope(|sc| {
        let workers: Vec<_> = (0..CONNS)
            .map(|w| {
                let mine: Vec<usize> = todo.iter().copied().skip(w).step_by(CONNS).collect();
                sc.spawn(move || {
                    mine.into_iter()
                        .map(|k| Ok((k, api::respond_enveloped(&parse(&inp.keys[k])?)?)))
                        .collect::<Result<Vec<_>, String>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().map_err(|_| "reply worker panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut expected = vec![String::new(); inp.keys.len()];
    for (k, reply) in replies.into_iter().flatten() {
        expected[k] = reply;
    }

    let mut setups = Vec::new();
    let mut phases = Vec::new();
    for (rate, share) in RATES.into_iter().zip(PHASE_SHARE) {
        phases.push(run_phase(
            inp,
            &expected,
            rate,
            share * seconds,
            &mut setups,
        )?);
    }
    out.setup_s = median(&setups).expect("one setup per phase");

    for p in &phases {
        let n = p.latency_ms.len();
        out.attempted += n as u64;
        out.verdict(
            &format!(
                "plan-serve replies byte-identical to api::respond_enveloped at {} rps",
                p.rate
            ),
            n as u64,
            p.failed() as u64,
        );
        let (w, c) = (p.latencies(false), p.latencies(true));
        out.notes.push(format!(
            "rate {:>5} rps: completed {:.1} rps, warm p50 {:.3} ms tail {:.3} ms (n={}), cold p50 {:.3} ms tail {:.3} ms (n={}), drain {:.1} ms, backlog max {}, sustained {}",
            p.rate,
            p.completed_rps,
            median(&w).unwrap_or(f64::NAN),
            p.tail_ms(false),
            w.len(),
            median(&c).unwrap_or(f64::NAN),
            p.tail_ms(true),
            c.len(),
            p.drain_ms,
            p.backlog_max,
            p.sustained()
        ));
    }
    let saturating = &phases[RATES.len() - 1];
    out.work_rate = saturating.completed_rps;
    out.named("serve_capacity_rps", out.work_rate, "1/s");
    if saturating.sustained() {
        out.notes.push(format!(
            "warning: the server kept up with {} rps, so serve_capacity_rps reads the offered rate; raise the last rate",
            saturating.rate
        ));
    }
    let best = phases.iter().rev().find(|p| p.sustained());
    out.named("serve_max_rps", best.map_or(0.0, |p| p.rate), "1/s");
    let mid = &phases[1];
    for (cold, kind) in [(false, "warm"), (true, "cold")] {
        let v = mid.latencies(cold);
        let t = tail(&v, 99.0);
        out.named(
            &format!("serve_{kind}_p50_ms"),
            median(&v).unwrap_or(f64::NAN),
            "ms",
        );
        out.named(
            &format!("serve_{kind}_p99_ms"),
            t.map_or(f64::NAN, |t| t.value),
            "ms",
        );
        out.notes.push(format!(
            "serve_{kind}_p99_ms read at p{:.2} of {} samples (rate {} rps)",
            t.map_or(100.0, |t| t.pct),
            v.len(),
            mid.rate
        ));
    }
    out.op_ms = mid.latencies(false);

    if traced {
        layers(inp, mid, out)?;
    }
    Ok(())
}

/// Per-layer figures: direct `api::respond` and `PlanService::handle_line`
/// timings over the middle phase's requests, and the load generator's
/// own lateness.
fn layers(inp: &ServeInputs, mid: &Phase, out: &mut Outcome) -> Result<(), String> {
    let count = mid.latency_ms.len();
    let stream = &inp.stream[..count];

    let mut firsts: Vec<usize> = Vec::new();
    let mut seen = vec![false; inp.keys.len()];
    for &k in stream {
        if !std::mem::replace(&mut seen[k], true) {
            firsts.push(k);
        }
    }
    let (mut plan_us, mut temporal_us) = (Vec::new(), Vec::new());
    for &k in &firsts {
        let req = parse(&inp.keys[k])?;
        let t0 = Instant::now();
        std::hint::black_box(api::respond(&req)?);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if inp.temporal[k] {
            temporal_us.push(us);
        } else {
            plan_us.push(us);
        }
    }
    let p99 = |v: &[f64]| {
        tail(v, 99.0).map_or_else(|| v.iter().copied().fold(0.0, f64::max), |t| t.value)
    };
    let p50 = |v: &[f64]| median(v).unwrap_or(0.0);
    out.layer("core.respond_us.plan.p50", p50(&plan_us), "us");
    out.layer("core.respond_us.plan.p99", p99(&plan_us), "us");
    out.layer("core.respond_us.temporal.p50", p50(&temporal_us), "us");
    out.layer("core.respond_us.temporal.p99", p99(&temporal_us), "us");
    out.layer("core.plan_calls", firsts.len() as f64, "count");

    let warm = scratch_path("replay")?;
    let service = PlanService::open_with(CONNS, Some(&warm), false, ServeLimits::default())?;
    let (mut hit_us, mut miss_us) = (Vec::new(), Vec::new());
    let mut service_ms = Vec::with_capacity(count);
    for (i, &k) in stream.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(service.handle_line(&inp.keys[k]));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        service_ms.push(us / 1e3);
        if mid.cold[i] {
            miss_us.push(us);
        } else {
            hit_us.push(us);
        }
    }
    drop(service);
    let _ = std::fs::remove_file(&warm);
    out.layer("serve.handle_hit_us.p50", p50(&hit_us), "us");
    out.layer("serve.handle_hit_us.p99", p99(&hit_us), "us");
    out.layer("serve.handle_miss_us.p50", p50(&miss_us), "us");
    out.layer("serve.handle_miss_us.p99", p99(&miss_us), "us");
    let queue: Vec<f64> = mid
        .latency_ms
        .iter()
        .zip(&service_ms)
        .filter_map(|(l, s)| l.map(|l| l - s))
        .collect();
    out.layer("serve.transport_queue_ms.p99", p99(&queue), "ms");
    out.layer(
        "serve.hit_ratio",
        mid.hits as f64 / (mid.hits + mid.misses).max(1) as f64,
        "frac",
    );
    out.layer("serve.errors", mid.errors as f64, "count");
    out.layer("serve.warm_log_bytes", mid.warm_log_bytes as f64, "bytes");
    out.layer("loadgen.lag_p99_ms", p99(&mid.lag_ms), "ms");
    out.layer("loadgen.backlog_max", mid.backlog_max as f64, "count");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backlog_counts_outstanding_requests() {
        let sent = [0.0, 1.0, 2.0];
        let recv = [Some(2.5), Some(1.5), None];
        // At t=2.0 two are outstanding (requests 0 and 2).
        assert_eq!(backlog_max(&sent, &recv), 2);
    }
}
