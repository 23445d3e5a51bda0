//! Seeded benchmark of the tiling3d workspace.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base.txt> <new.txt>
//! ```
//!
//! Each workload makes its inputs from the seed, runs for about
//! `--seconds`, checks its outputs outside the timed region and prints
//! its figures by name. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! first repeats the untraced run for half the time, so the difference
//! in the headline rate is the tracing overhead. `--workload all` runs
//! every workload in its own process. `compare` reads saved outputs of
//! two builds and refuses to compare runs whose host fingerprints differ.

mod compare;
mod host;
mod inputs;
mod report;
mod serve;
mod solve;
mod stats;
mod sweep;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use report::{result_line, Metric, Outcome};

/// Workload names, in the order `all` runs them.
pub const WORKLOADS: [&str; 4] = ["paper-sweep", "solve-l3", "solve-dram", "plan-serve"];

/// End-to-end metrics: reported by every workload on untraced runs.
/// Operation latencies are printed by name beside them but not gated:
/// on a shared 2-core host their run-to-run spread exceeds any bound the
/// benchmark may set.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("work_rate", "1/s"),
];

// What each per-layer metric should move: an end-to-end metric (with
// the workload's own name for it) and the workload it moves on.
const SIM: &str = "work_rate (sim_maccess_per_s) on paper-sweep";
const EXACT: &str = "nothing: exact counts on paper-sweep";
const COLD: &str = "work_rate (serve_capacity_rps) and serve_cold_* on plan-serve";
const WARM: &str = "serve_warm_p50_ms (printed, not gated) on plan-serve";
const SERVE: &str = "work_rate (serve_capacity_rps) on plan-serve";
const SPATIAL: &str = "work_rate (spatial_gflops) on solve-l3 and solve-dram";
const TEMPORAL: &str = "work_rate (temporal_gflops) on solve-l3 and solve-dram";
const MEM: &str = "work_rate (spatial_gflops, temporal_gflops) on solve-dram";
const SETUP: &str = "setup_s on solve-l3 and solve-dram";
const VCYCLE: &str = "mg_vcycle_ms (printed, not gated) on solve-l3";
const LOADGEN: &str = "nothing: validity of the open loop on plan-serve";
const OVERHEAD: &str = "nothing: tracing cost on every workload";

/// Per-layer metrics: reported by every workload on traced runs, each
/// with the end-to-end metric (and workload) it should move. A layer the
/// workload leaves idle reads 0, which is the layer-isolation check.
#[rustfmt::skip]
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("pool.busy_s", "s", SIM),
    ("pool.idle_frac", "frac", SIM),
    ("pool.task_p50_s", "s", SIM),
    ("pool.task_max_s", "s", SIM),
    ("trace.walk_s", "s", SIM),
    ("trace.maccess_per_s", "Maccess/s", SIM),
    ("cachesim.replay_s", "s", SIM),
    ("cachesim.maccess_per_s", "Maccess/s", SIM),
    ("cachesim.l1_miss_frac", "frac", EXACT),
    ("cachesim.l2_miss_frac", "frac", EXACT),
    ("core.respond_us.plan.p50", "us", COLD),
    ("core.respond_us.plan.p99", "us", COLD),
    ("core.respond_us.temporal.p50", "us", COLD),
    ("core.respond_us.temporal.p99", "us", COLD),
    ("core.plan_calls", "count", COLD),
    ("serve.handle_hit_us.p50", "us", WARM),
    ("serve.handle_hit_us.p99", "us", WARM),
    ("serve.handle_miss_us.p50", "us", COLD),
    ("serve.handle_miss_us.p99", "us", COLD),
    ("serve.transport_queue_ms.p99", "ms", WARM),
    ("serve.hit_ratio", "frac", SERVE),
    ("serve.errors", "count", SERVE),
    ("serve.warm_log_bytes", "bytes", SERVE),
    ("stencil.gflops.jacobi.orig.t1", "GFLOP/s", SPATIAL),
    ("stencil.gflops.jacobi.orig.t2", "GFLOP/s", SPATIAL),
    ("stencil.gflops.jacobi.gcdpad.t1", "GFLOP/s", SPATIAL),
    ("stencil.gflops.jacobi.gcdpad.t2", "GFLOP/s", SPATIAL),
    ("stencil.gflops.redblack.orig.t1", "GFLOP/s", SPATIAL),
    ("stencil.gflops.redblack.orig.t2", "GFLOP/s", SPATIAL),
    ("stencil.gflops.redblack.gcdpad.t1", "GFLOP/s", SPATIAL),
    ("stencil.gflops.redblack.gcdpad.t2", "GFLOP/s", SPATIAL),
    ("stencil.gflops.resid.orig.t1", "GFLOP/s", SPATIAL),
    ("stencil.gflops.resid.orig.t2", "GFLOP/s", SPATIAL),
    ("stencil.gflops.resid.gcdpad.t1", "GFLOP/s", SPATIAL),
    ("stencil.gflops.resid.gcdpad.t2", "GFLOP/s", SPATIAL),
    ("timetile.gflops.jacobi.t1", "GFLOP/s", TEMPORAL),
    ("timetile.gflops.jacobi.t2", "GFLOP/s", TEMPORAL),
    ("timetile.gflops.redblack.t1", "GFLOP/s", TEMPORAL),
    ("timetile.gflops.redblack.t2", "GFLOP/s", TEMPORAL),
    ("timetile.vs_spatial.jacobi", "x", TEMPORAL),
    ("timetile.vs_spatial.redblack", "x", TEMPORAL),
    ("parallel.speedup_t2.jacobi", "x", SPATIAL),
    ("parallel.speedup_t2.redblack", "x", SPATIAL),
    ("parallel.speedup_t2.resid", "x", SPATIAL),
    ("mem.computed_gbps.spatial", "GB/s", MEM),
    ("mem.computed_gbps.temporal", "GB/s", MEM),
    ("mem.stream_gbps", "GB/s", MEM),
    ("mem.bw_frac", "frac", MEM),
    ("grid.alloc_fill_s", "s", SETUP),
    ("mg.resid_ms", "ms", VCYCLE),
    ("mg.psinv_ms", "ms", VCYCLE),
    ("mg.rprj3_ms", "ms", VCYCLE),
    ("mg.interp_ms", "ms", VCYCLE),
    ("mg.resid_frac", "frac", VCYCLE),
    ("loadgen.lag_p99_ms", "ms", LOADGEN),
    ("loadgen.backlog_max", "count", LOADGEN),
    ("trace.overhead_frac", "frac", OVERHEAD),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// FNV-1a digest of a workload's generated inputs, printed with every
/// run so two runs can be seen to have measured the same work.
fn digest(inputs: &impl std::fmt::Debug) -> u64 {
    inputs::to_bytes(inputs)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Generates a workload's inputs in 11 timed batches and returns them
/// with the median time per generation. The batch size doubles until one
/// batch spans 20 ms, so a set-up of nanoseconds still reads well above
/// the timer's own cost, the cold first call does not set it, and each
/// batch averages over short swings in host speed (on a shared 2-core
/// VM, single generations of the same inputs vary 3-5 ms within a
/// second).
fn generate<T>(f: impl Fn() -> T) -> (T, f64) {
    let mut inp = f();
    let mut batch = 1usize;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            inp = std::hint::black_box(f());
        }
        if t0.elapsed().as_secs_f64() >= 20e-3 || batch >= 1 << 22 {
            break;
        }
        batch *= 2;
    }
    let per: Vec<f64> = (0..11)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                inp = std::hint::black_box(f());
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    (inp, stats::median(&per).expect("eleven batches"))
}

/// Runs one workload for `seconds`, traced or not. Input generation is
/// part of the set-up time.
fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (d, gen_s) = match name {
        "paper-sweep" => {
            let (inp, gen_s) = generate(|| inputs::paper_sweep(seed));
            sweep::run(&inp, seconds, traced, &mut out);
            (digest(&inp), gen_s)
        }
        "solve-l3" => {
            let (inp, gen_s) = generate(|| inputs::solve_l3(seed));
            solve::run(&inp, seconds, traced, &mut out)?;
            (digest(&inp), gen_s)
        }
        "solve-dram" => {
            let llc = host::last_level_cache_bytes()?;
            let (inp, gen_s) = generate(|| inputs::solve_dram(seed, llc));
            solve::run(&inp, seconds, traced, &mut out)?;
            (digest(&inp), gen_s)
        }
        "plan-serve" => {
            let (inp, gen_s) = generate(|| inputs::plan_serve(seed, serve::stream_len(seconds)));
            serve::run(&inp, seconds, traced, &mut out)?;
            (digest(&inp), gen_s)
        }
        other => return Err(format!("unknown workload {other}")),
    };
    out.setup_s += gen_s;
    println!("inputs {name} seed={seed} digest={d:016x}");
    Ok(out)
}

fn print_outcome(out: &Outcome) {
    for m in &out.named {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for v in out.verdicts.iter().chain(&out.notes) {
        println!("{v}");
    }
}

fn single(args: &Args) -> Result<String, String> {
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("fingerprint {}", host::comparable_fingerprint());
    println!(
        "commit {} rustflags=\"{}\"",
        host::commit(),
        host::RUSTFLAGS
    );
    let metrics: Vec<Metric>;
    let out;
    if args.trace {
        let plain = run_workload(&args.workload, args.seed, args.seconds / 2.0, false)?;
        let mut traced = run_workload(&args.workload, args.seed, args.seconds / 2.0, true)?;
        let overhead = (plain.work_rate - traced.work_rate) / plain.work_rate;
        traced.layer("trace.overhead_frac", overhead, "frac");
        traced.attempted += plain.attempted;
        traced.failed += plain.failed;
        for v in &plain.verdicts {
            traced.verdicts.push(format!("{v} [untraced half]"));
        }
        metrics = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = traced
                    .layer
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect();
        for (m, (_, _, moves)) in metrics.iter().zip(PER_LAYER) {
            println!("layer {} {} {} -> {moves}", m.name, m.value, m.unit);
        }
        let (mut active, mut idle) = (Vec::new(), Vec::new());
        for group in [
            "pool", "trace", "cachesim", "core", "serve", "stencil", "timetile", "parallel", "mem",
            "grid", "mg", "loadgen",
        ] {
            let used = metrics
                .iter()
                .filter(|m| {
                    m.name.split('.').next() == Some(group) && m.name != "trace.overhead_frac"
                })
                .any(|m| m.value != 0.0);
            if used {
                active.push(group)
            } else {
                idle.push(group)
            }
        }
        println!(
            "isolation {}: active [{}], idle [{}]",
            args.workload,
            active.join(", "),
            idle.join(", ")
        );
        out = traced;
    } else {
        out = run_workload(&args.workload, args.seed, args.seconds, false)?;
        let op_p50 = stats::median(&out.op_ms).ok_or("no operation completed")?;
        let op_tail = stats::tail(&out.op_ms, 99.0).unwrap_or(stats::Tail {
            pct: 100.0,
            value: out.op_ms.iter().copied().fold(0.0, f64::max),
            n: out.op_ms.len(),
        });
        println!(
            "op latency: p50 {op_p50:.3} ms, tail p{:.2} {:.3} ms over {} operations",
            op_tail.pct, op_tail.value, op_tail.n
        );
        let values = [
            out.setup_s,
            host::peak_rss_mb()?,
            1.0 - out.failed as f64 / out.attempted.max(1) as f64,
            out.work_rate,
        ];
        metrics = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric::new(name, value, unit))
            .collect();
        for m in &metrics {
            println!("metric {} {} {}", m.name, m.value, m.unit);
        }
    }
    print_outcome(&out);
    let correct = out.failed == 0 && out.attempted > 0;
    println!(
        "failed_frac {} ({} of {} operations)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    Ok(result_line(correct, out.attempted, out.failed, &metrics))
}

/// Runs every workload in its own process (so each peak RSS is its own)
/// and prints a combined result line.
fn all(args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let mut child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = child.stdout.take().ok_or("no child stdout")?;
        let mut last = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.map_err(|e| e.to_string())?;
            println!("{line}");
            last = line;
        }
        let status = child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("workload {w} exited with {status}"));
        }
        let res = compare::parse_result(&last).ok_or_else(|| format!("{w}: no result line"))?;
        correct &= res.correct;
        attempted += res.attempted;
        failed += res.failed;
        metrics.extend(
            res.metrics
                .into_iter()
                .map(|m| Metric::new(&format!("{w}.{}", m.name), m.value, &m.unit)),
        );
    }
    Ok(result_line(correct, attempted, failed, &metrics))
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("compare") {
        return compare::main(&raw[1..]);
    }
    let started = Instant::now();
    let result = parse_args(&raw).and_then(|args| {
        if args.workload == "all" {
            all(&args)
        } else {
            single(&args)
        }
    });
    match result {
        Ok(line) => {
            eprintln!(
                "perfbench: done in {:.1} s",
                started.elapsed().as_secs_f64()
            );
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
