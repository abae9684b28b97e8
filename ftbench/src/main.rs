//! FtBench: the F4T simulator's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path ftbench/Cargo.toml -- \
//!     --workload <echo|bulk|churnstorm|scale64k> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` repeats the workload (set-up plus a fixed simulated span)
//! for `--seconds` of host time with every recorder off and reports the
//! end-to-end metrics: host-time medians over the repetitions and the
//! simulated results, which must repeat exactly. `--trace 1` alternates
//! untraced and traced repetitions and reports the per-layer metrics;
//! each traced repetition must reproduce the untraced one bit for bit.
//! The last line of standard output is one JSON object. See README.md.

mod derive;
mod layers;
mod scale;
mod spans;
mod system;

use derive::Latency;
use layers::{Layers, PER_LAYER};
use std::process::ExitCode;
use std::time::Instant;

/// The end-to-end metrics `--trace 0` reports, with units: the ones
/// every workload has (README.md).
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_kcycles_per_s", "kcycles/s"),
    ("peak_rss_mb", "MB"),
    ("mrps", "Mrps"),
    ("goodput_gbps", "Gbps"),
];

/// Timed repetitions a `--trace 0` run makes at least, whatever
/// `--seconds` says; a `--trace 1` run makes at least one pair.
const MIN_REPS: usize = 3;

/// The deterministic, simulated result of one repetition. Every field
/// must be identical across repetitions and between the timed and the
/// traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    /// Simulated 250 MHz cycles advanced after set-up.
    pub span_cycles: u64,
    /// Operations attempted (per-workload definition, README.md).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Completed operations per simulated second, in millions.
    pub mrps: f64,
    /// Payload delivered per simulated second.
    pub goodput_gbps: f64,
    /// `echo` round-trip times.
    pub latency: Option<Latency>,
    /// `scale64k`: first send until the last flow is fully acked.
    pub drain_us: Option<f64>,
    /// Client app+lib cycles per completed request (system workloads).
    pub cpu_cycles_per_req: Option<f64>,
    /// Retransmissions since cycle 0, every engine.
    pub retransmissions: u64,
    /// Segments dropped for an unknown flow since cycle 0.
    pub dropped_unknown: u64,
    /// Per-layer deterministic counts.
    pub counts: Layers,
    /// Everything else the fidelity check compares: telemetry delta
    /// (FtFlight excluded), `EngineStats`, latency histogram, request
    /// and byte counters.
    pub fingerprint: String,
}

/// One repetition: set-up, run, and what it produced.
pub struct Rep {
    /// Host seconds building the system or flows.
    pub setup_s: f64,
    /// Host seconds simulating the fixed span.
    pub run_s: f64,
    /// The simulated result.
    pub sim: Sim,
    /// Host-time layer metrics (traced repetitions only).
    pub layers: Layers,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    System(system::Kind),
    Scale64k,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "echo" => Workload::System(system::Kind::Echo),
            "bulk" => Workload::System(system::Kind::Bulk),
            "churnstorm" => Workload::System(system::Kind::Churnstorm),
            "scale64k" => Workload::Scale64k,
            _ => return None,
        })
    }
}

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: ftbench --workload <echo|bulk|churnstorm|scale64k> --seed <n> \
--seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some((Workload::parse(&value).ok_or("unknown workload")?, value))
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let (workload, name) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn rep(args: &Args, traced: bool) -> Rep {
    match (args.workload, traced) {
        (Workload::System(k), false) => system::timed(k),
        (Workload::System(k), true) => system::traced(k),
        (Workload::Scale64k, false) => scale::timed(args.seed),
        (Workload::Scale64k, true) => scale::traced(args.seed),
    }
}

/// Builds `n` times, dropping every build but the last, and returns the
/// last with the median build time: one set-up is short next to the
/// host's noise.
pub fn setup_median<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one build"), derive::median(&times))
}

/// Writes a traced run's span aggregates and raw sample next to the
/// benchmark (`ftbench/out/spans.json`); a failure only warns.
pub fn write_spans(tracer: &spans::Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join("spans.json");
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()))
    {
        eprintln!("warning: writing {}: {e}", path.display());
    }
}

/// Resident-set high-water mark of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Correctness checks every repetition must pass; returns the failures.
fn check(name: &str, first: &Sim, sim: &Sim, what: &str) -> Vec<String> {
    let mut bad = Vec::new();
    if sim != first {
        bad.push(format!(
            "{what}: simulated result differs from the first repetition"
        ));
    }
    if sim.retransmissions != 0 {
        bad.push(format!(
            "{what}: {} retransmissions on a clean link",
            sim.retransmissions
        ));
    }
    if sim.dropped_unknown != 0 {
        bad.push(format!(
            "{what}: {} segments dropped for unknown flows",
            sim.dropped_unknown
        ));
    }
    if name == "scale64k" && sim.failed != 0 {
        bad.push(format!(
            "{what}: {} of {} flows not fully acked",
            sim.failed, sim.attempted
        ));
    }
    if name == "echo" && sim.latency.is_none() {
        bad.push(format!("{what}: too few round trips for a tail percentile"));
    }
    bad
}

fn fmt_opt(v: Option<f64>, unit: &str, why: &str) -> String {
    v.map_or_else(|| format!("n/a ({why})"), |v| format!("{v:.4} {unit}"))
}

/// The human-readable table of all twelve end-to-end metrics.
fn print_report(name: &str, reps: &[Rep], rss: f64) {
    let s = &reps[0].sim;
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let run: Vec<f64> = reps.iter().map(|r| r.run_s).collect();
    let q = |v: &[f64]| {
        derive::quartiles(v).map_or(String::new(), |(a, b)| format!(" (q1 {a:.4}, q3 {b:.4})"))
    };
    let sim_rate = s.span_cycles as f64 / 1e3 / derive::median(&run);
    println!(
        "ftbench {name}: {} repetitions, {} simulated cycles each",
        reps.len(),
        s.span_cycles
    );
    println!(
        "  setup_s             {:.4} s{}",
        derive::median(&setup),
        q(&setup)
    );
    println!(
        "  run_s               {:.4} s{}",
        derive::median(&run),
        q(&run)
    );
    println!("  sim_kcycles_per_s   {sim_rate:.1} kcycles/s");
    println!("  run_s per rep       {run:.3?}");
    println!("  peak_rss_mb         {rss:.1} MB");
    println!(
        "  goodput_gbps        {:.4} Gbps (simulated)",
        s.goodput_gbps
    );
    println!("  mrps                {:.4} Mrps (simulated)", s.mrps);
    let rtt = s.latency;
    println!(
        "  rtt_p50_us          {}",
        fmt_opt(rtt.map(|l| l.p50_us), "us", "echo only")
    );
    println!(
        "  rtt_p999_us         {}",
        match rtt {
            Some(l) => format!(
                "{:.4} us at p{} ({} samples, {} beyond; cumulative since cycle 0)",
                l.tail_us,
                l.tail_pct,
                l.samples,
                derive::beyond(l.samples, l.tail_pct)
            ),
            None => "n/a (echo only)".into(),
        }
    );
    println!(
        "  drain_us            {}",
        fmt_opt(s.drain_us, "us", "scale64k only")
    );
    println!(
        "  cpu_cycles_per_req  {}",
        fmt_opt(s.cpu_cycles_per_req, "cycles", "no host model in scale64k")
    );
    println!(
        "  paper_err_pct       {}",
        fmt_opt(
            (name == "bulk").then(|| derive::paper_err_pct(s.goodput_gbps)),
            "% vs Fig. 8 (87 Gbps)",
            "no paper anchor at this design point; unvalidated"
        )
    );
    println!(
        "  failed_ratio        {} ({} failed / {} attempted)",
        derive::failed_ratio(s.attempted, s.failed),
        s.failed,
        s.attempted
    );
    if name == "scale64k" {
        let c = &s.counts;
        println!(
            "  fast-forward        {} cycles, {} ticks executed, {} skipped in {} windows",
            s.span_cycles,
            c["engine.ticks_executed"],
            c["engine.ff.skipped_cycles"],
            c["engine.ff.windows"]
        );
    }
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push(',');
    }
    out.push_str(&format!(
        "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
    ));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let mut timed: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    loop {
        let t = Instant::now();
        let r = rep(&args, false);
        let first = timed.first().map_or(&r.sim, |f| &f.sim);
        failures.extend(check(
            &args.name,
            first,
            &r.sim,
            &format!("repetition {}", timed.len()),
        ));
        if args.trace {
            let tr = rep(&args, true);
            if tr.sim != r.sim {
                failures.push(format!(
                    "traced repetition {} does not reproduce the untraced run",
                    traced.len()
                ));
            }
            traced.push(tr);
        }
        timed.push(r);
        let one = t.elapsed().as_secs_f64();
        let min = if args.trace { 1 } else { MIN_REPS };
        if timed.len() >= min && start.elapsed().as_secs_f64() + one > args.seconds {
            break;
        }
    }
    let rss = peak_rss_mb();
    print_report(&args.name, &timed, rss);
    for f in &failures {
        eprintln!("check failed: {f}");
    }

    let sim = &timed[0].sim;
    let run: Vec<f64> = timed.iter().map(|r| r.run_s).collect();
    let mut m = String::from("{");
    if args.trace {
        let mut values = sim.counts.clone();
        for name in PER_LAYER.iter().map(|(n, _)| *n) {
            let v: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(name).copied())
                .collect();
            if !v.is_empty() {
                values.insert(name, derive::median(&v));
            }
        }
        let traced_run: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
        values.insert(
            "trace.overhead",
            derive::median(&traced_run) / derive::median(&run),
        );
        println!(
            "  trace.overhead      {:.3} (traced / untraced run_s), {:.1} ns per span subtracted",
            values["trace.overhead"], values["trace.span_cost_ns"]
        );
        for (name, unit) in PER_LAYER {
            json_metric(&mut m, name, values.get(name).copied().unwrap_or(0.0), unit);
        }
    } else {
        let setup: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
        let rate: Vec<f64> = run
            .iter()
            .map(|r| sim.span_cycles as f64 / 1e3 / r)
            .collect();
        let values = [
            derive::median(&setup),
            derive::median(&run),
            derive::median(&rate),
            rss,
            sim.mrps,
            sim.goodput_gbps,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(values) {
            json_metric(&mut m, name, v, unit);
        }
    }
    m.push('}');
    let attempted: u64 = timed.iter().map(|r| r.sim.attempted).sum();
    let failed: u64 = timed.iter().map(|r| r.sim.failed).sum();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{m}}}",
        failures.is_empty()
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics the binary emits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside ftbench/");
        let entries = |section: &str| -> Vec<(String, String)> {
            let start = doc
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &doc[start..start + doc[start..].find(']').expect("section ends")];
            body.split("{\"name\": \"")
                .skip(1)
                .map(|e| {
                    let name = e[..e.find('"').expect("name ends")].to_string();
                    let u = &e[e.find("\"unit\": \"").expect("unit") + 9..];
                    (name, u[..u.find('"').expect("unit ends")].to_string())
                })
                .collect()
        };
        let want = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end"), want(&END_TO_END));
        assert_eq!(entries("per_layer"), want(&PER_LAYER));
    }
}
