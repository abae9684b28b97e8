//! `f4tperf` — an iperf-style CLI for the simulated testbed.
//!
//! Run any of the paper's workloads at any design point without writing
//! code:
//!
//! ```sh
//! cargo run --release -p f4t-bench --bin f4tperf -- \
//!     --workload bulk --cores 2 --size 128 --duration-ms 2
//! cargo run --release -p f4t-bench --bin f4tperf -- \
//!     --workload echo --cores 8 --flows 4096 --dram ddr4 --fpcs 8
//! cargo run --release -p f4t-bench --bin f4tperf -- --help
//! ```

use f4t_core::fpc::ScanPolicy;
use f4t_core::{fold_digests, run_shards, Engine, EngineConfig, EventKind};
use f4t_mem::{DramKind, Location};
use f4t_netsim::Impairments;
use f4t_sim::MetricsRegistry;
use f4t_system::F4tSystem;
use f4t_tcp::pcap::PcapWriter;
use f4t_tcp::{CcAlgorithm, FlowId, FourTuple, MacAddr, Segment, SeqNum, TCP_BUFFER};
use f4t_workloads::{INCAST_EPOCH_NS, SLOWLORIS_DRIP_BYTES};
use std::net::Ipv4Addr;
use std::ops::Range;

/// Process exit codes (also in `--help`): `0` success, `1` FtVerify
/// design-rule violations, `2` usage or I/O error, `3` perf-gate
/// regression (`--gate`). Regressions get their own code so CI can
/// distinguish "the design broke a rule" from "the design got slower".
const EXIT_VIOLATIONS: i32 = 1;
const EXIT_USAGE: i32 = 2;
const EXIT_PERF_REGRESSION: i32 = 3;

#[derive(Debug)]
struct Args {
    workload: String,
    cores: usize,
    size: u32,
    flows: usize,
    threads: usize,
    dram: DramKind,
    cc: CcAlgorithm,
    fpcs: usize,
    coalescing: bool,
    compact: bool,
    warmup_ms: u64,
    duration_ms: u64,
    scan: ScanPolicy,
    telemetry: Option<String>,
    telemetry_format: TelemetryFormat,
    trace_depth: usize,
    check: bool,
    fast_forward: bool,
    inject_fault: Option<String>,
    flight: bool,
    flight_sample: u32,
    breakdown_json: Option<String>,
    gate: Option<String>,
    inject_slowdown: u64,
    inject_slowdown_after: Option<u64>,
    pulse: bool,
    pulse_interval: u64,
    pulse_json: Option<String>,
    pulse_gate: Option<String>,
    pcap: Option<String>,
    journal: bool,
    journal_sample: u32,
    watchdog: bool,
    dump_on_failure: Option<String>,
    impair: String,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TelemetryFormat {
    Json,
    Prometheus,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            workload: "bulk".into(),
            cores: 1,
            size: 128,
            flows: 0, // workload default
            threads: 1,
            dram: DramKind::Hbm,
            cc: CcAlgorithm::NewReno,
            fpcs: 8,
            coalescing: true,
            compact: false,
            warmup_ms: 1,
            duration_ms: 2,
            scan: ScanPolicy::SkipIdle,
            telemetry: None,
            telemetry_format: TelemetryFormat::Json,
            trace_depth: 65_536,
            check: false,
            fast_forward: true,
            inject_fault: None,
            flight: false,
            flight_sample: 64,
            breakdown_json: None,
            gate: None,
            inject_slowdown: 0,
            inject_slowdown_after: None,
            pulse: false,
            pulse_interval: f4t_sim::pulse::PULSE_DEFAULT_INTERVAL,
            pulse_json: None,
            pulse_gate: None,
            pcap: None,
            journal: false,
            journal_sample: 64,
            watchdog: false,
            dump_on_failure: None,
            impair: "clean".into(),
        }
    }
}

impl Args {
    /// Whether the FtFlight recorder must be attached: requested
    /// directly, or implied by an output/gate that needs its data.
    fn flight_enabled(&self) -> bool {
        self.flight
            || self.breakdown_json.is_some()
            || self.gate.is_some()
            || self.inject_slowdown > 0
    }

    /// Whether the FtPulse time-series recorder must be attached:
    /// requested directly, or implied by an output/gate that needs its
    /// windowed series (`--inject-slowdown-after` defers the bias on a
    /// pulse-window boundary, so it needs the recorder too).
    fn pulse_enabled(&self) -> bool {
        self.pulse
            || self.pulse_json.is_some()
            || self.pulse_gate.is_some()
            || self.inject_slowdown_after.is_some()
    }

    /// Whether the FtJournal must be attached: requested directly, or
    /// implied by `--dump-on-failure` (a dump without a journal tail
    /// explains nothing).
    fn journal_enabled(&self) -> bool {
        self.journal || self.dump_on_failure.is_some()
    }

    /// Whether the health watchdog must be attached: requested directly,
    /// or implied by `--dump-on-failure` (the dump carries its alarms).
    fn watchdog_enabled(&self) -> bool {
        self.watchdog || self.dump_on_failure.is_some()
    }
}

const HELP: &str = "\
f4tperf — drive the simulated F4T testbed

USAGE: f4tperf [OPTIONS]

  --workload <bulk|rr|echo|http|scale|incast|churnstorm|slowloris|httpstorm>
                                   workload pattern        [bulk]
                                   scale: N flows vs an ideal peer on a bare
                                   engine driven through Engine::run, where
                                   fast-forward engages; --duration-ms sets
                                   the post-completion idle tail
                                   incast: N senders release synchronized
                                   bursts of --size bytes at a shared sink
                                   churnstorm: connections opened, used once,
                                   and torn down continuously (--flows sets
                                   the live target)
                                   slowloris: --flows mostly-idle connections
                                   trickling a few bytes each
                                   httpstorm: the http workload at storm-scale
                                   concurrency (--flows defaults to 1024)
  --cores <N>                      application cores/side  [1]
  --size <BYTES>                   request size            [128]
  --flows <N>                      total flows (echo/http; rr uses 16/core;
                                   scale defaults to 65536)
  --threads <N>                    scale workload: shard the flows across N
                                   independent engines, each run to
                                   completion on its own worker thread;
                                   merged digests are thread-count
                                   independent                [1]
  --dram <hbm|ddr4>                on-board memory         [hbm]
  --cc <newreno|cubic|vegas>       congestion control      [newreno]
  --fpcs <N>                       parallel FPCs           [8]
  --no-coalescing                  disable event coalescing
  --compact-commands               8 B commands (§6)
  --scan <skip-idle|full>          TCB-manager scan policy [skip-idle]
  --warmup-ms <MS>                 warmup                  [1]
  --duration-ms <MS>               measurement window      [2]
  --telemetry <PATH>               write FtScope metrics JSON to PATH and a
                                   Chrome trace to PATH with a .trace.json
                                   suffix (load in Perfetto / chrome://tracing)
  --trace-depth <N>                trace ring capacity     [65536]
  --check                          attach the FtVerify hazard checker to both
                                   engines; print its report and exit non-zero
                                   on any design-rule violation
  --no-fast-forward                force tick-by-tick simulation (scale
                                   workload; system workloads tick in lockstep
                                   and never fast-forward)
  --inject-fault <lut-misdirect|dram-ghost>
                                   corrupt flow 0's location state after setup
                                   (FtVerify exit-path testing; pair with
                                   --check to detect it)
  --flight                         attach the FtFlight per-flow latency
                                   recorder (per-stage p50/p99/p999 spans)
  --flight-sample <N>              track 1-in-N flows           [64]
  --breakdown-json <PATH>          write the FtFlight latency breakdown
                                   ({workload, cycles, flight}) to PATH;
                                   implies --flight
  --gate <BASELINE.json>           compare this run's breakdown against a
                                   committed baseline: total cycles within
                                   ±25%, each stage p99 within 1.25x + 16
                                   cycles; exit 3 on regression. Implies
                                   --flight
  --inject-slowdown <CYCLES>       bias every recorded flight span by N
                                   cycles (perf-gate exit-path testing;
                                   implies --flight)
  --inject-slowdown-after <W>      defer --inject-slowdown until W pulse
                                   windows have been recorded — a mid-run
                                   degradation the end-of-run gate misses
                                   (shape-gate exit-path testing; implies
                                   --pulse)
  --pulse                          attach the FtPulse time-series recorder:
                                   windowed rates/gauges on the simulated
                                   clock, byte-identical across
                                   fast-forward, tick-by-tick and any
                                   --threads pool
  --pulse-interval <CYCLES>        engine cycles per pulse window  [8192]
  --pulse-json <PATH>              write the pulse series document
                                   ({workload, engines: {...}}) to PATH;
                                   implies --pulse
  --pulse-gate <BASELINE.json>     compare this run's windowed series shape
                                   against a committed pulse baseline
                                   (window count, time-to-steady-state,
                                   steady goodput variance, retransmit
                                   ceilings, per-window stage p99); exit 3
                                   on regression. Implies --pulse
  --impair <PROFILE>               apply a hostile-network impairment profile
                                   to both link directions: clean, reorder,
                                   burst-loss, duplicate, jitter, lossy
                                   (deterministic, data segments only) [clean]
  --pcap <PATH>                    capture up to 10k wire segments to PATH
                                   as a libpcap file (system workloads
                                   capture both directions)
  --journal                        attach the FtJournal causal event journal
                                   (bounded ring; per-flow sampled)
  --journal-sample <N>             journal 1-in-N flows         [64]
  --watchdog                       attach the online health watchdog (stuck
                                   flows, retransmit storms, queue SLO,
                                   starved LUT entries); any alarm exits 1
  --dump-on-failure <PATH>         write the FtJournal black-box dump
                                   (journal tail, watchdog alarms, FtVerify
                                   violations, implicated TCBs, config,
                                   flight breakdown) to PATH when the run
                                   fails; implies --journal and --watchdog
  --telemetry-format <json|prometheus>
                                   FtScope export format        [json]
  --help                           this text

EXIT CODES: 0 success / 1 FtVerify violations / 2 usage or I/O error /
            3 perf-gate regression (--gate)
";

fn parse() -> Result<Args, String> {
    let mut args = Args::default();
    let validate = |args: &Args| -> Result<(), String> {
        if args.cores == 0 {
            return Err("--cores must be at least 1".into());
        }
        if args.size == 0 {
            return Err("--size must be at least 1".into());
        }
        if args.fpcs == 0 {
            return Err("--fpcs must be at least 1".into());
        }
        if args.duration_ms == 0 {
            return Err("--duration-ms must be at least 1".into());
        }
        if args.flight_sample == 0 {
            return Err("--flight-sample must be at least 1".into());
        }
        if args.journal_sample == 0 {
            return Err("--journal-sample must be at least 1".into());
        }
        if args.threads == 0 {
            return Err("--threads must be at least 1".into());
        }
        if args.pulse_interval == 0 {
            return Err("--pulse-interval must be at least 1".into());
        }
        if args.inject_slowdown_after.is_some() && args.inject_slowdown == 0 {
            return Err("--inject-slowdown-after needs --inject-slowdown <CYCLES>".into());
        }
        if Impairments::profile(&args.impair).is_none() {
            return Err(format!(
                "unknown impairment profile {} (expected one of: {})",
                args.impair,
                Impairments::profile_names().join(", ")
            ));
        }
        if args.impair != "clean" && args.workload == "scale" {
            return Err(
                "--impair is not supported with --workload scale (bare engine, no link)".into(),
            );
        }
        if args.threads > 1 {
            if args.workload != "scale" {
                return Err("--threads is only supported with --workload scale".into());
            }
            if args.pcap.is_some() {
                return Err("--pcap is not supported with --threads > 1".into());
            }
            if args.inject_fault.is_some() {
                return Err("--inject-fault is not supported with --threads > 1".into());
            }
            if args.gate.is_some() {
                return Err("--gate baselines are single-engine; not supported with --threads > 1".into());
            }
            if args.pulse_gate.is_some() {
                return Err("--pulse-gate baselines are single-engine; not supported with --threads > 1".into());
            }
            if args.inject_slowdown_after.is_some() {
                return Err("--inject-slowdown-after is not supported with --threads > 1".into());
            }
            if args.telemetry_format == TelemetryFormat::Prometheus {
                return Err("--telemetry-format prometheus is not supported with --threads > 1".into());
            }
        }
        Ok(())
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = val("--workload")?,
            "--cores" => args.cores = val("--cores")?.parse().map_err(|e| format!("{e}"))?,
            "--size" => args.size = val("--size")?.parse().map_err(|e| format!("{e}"))?,
            "--flows" => args.flows = val("--flows")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => args.threads = val("--threads")?.parse().map_err(|e| format!("{e}"))?,
            "--fpcs" => args.fpcs = val("--fpcs")?.parse().map_err(|e| format!("{e}"))?,
            "--warmup-ms" => {
                args.warmup_ms = val("--warmup-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--duration-ms" => {
                args.duration_ms = val("--duration-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--dram" => {
                args.dram = match val("--dram")?.as_str() {
                    "hbm" => DramKind::Hbm,
                    "ddr4" => DramKind::Ddr4,
                    other => return Err(format!("unknown dram {other}")),
                }
            }
            "--cc" => {
                args.cc = match val("--cc")?.as_str() {
                    "newreno" => CcAlgorithm::NewReno,
                    "cubic" => CcAlgorithm::Cubic,
                    "vegas" => CcAlgorithm::Vegas,
                    other => return Err(format!("unknown cc {other}")),
                }
            }
            "--scan" => {
                args.scan = match val("--scan")?.as_str() {
                    "skip-idle" => ScanPolicy::SkipIdle,
                    "full" => ScanPolicy::FullIteration,
                    other => return Err(format!("unknown scan policy {other}")),
                }
            }
            "--telemetry" => args.telemetry = Some(val("--telemetry")?),
            "--telemetry-format" => {
                args.telemetry_format = match val("--telemetry-format")?.as_str() {
                    "json" => TelemetryFormat::Json,
                    "prometheus" => TelemetryFormat::Prometheus,
                    other => return Err(format!("unknown telemetry format {other}")),
                }
            }
            "--flight" => args.flight = true,
            "--flight-sample" => {
                args.flight_sample =
                    val("--flight-sample")?.parse().map_err(|e| format!("{e}"))?
            }
            "--breakdown-json" => args.breakdown_json = Some(val("--breakdown-json")?),
            "--gate" => args.gate = Some(val("--gate")?),
            "--inject-slowdown" => {
                args.inject_slowdown =
                    val("--inject-slowdown")?.parse().map_err(|e| format!("{e}"))?
            }
            "--inject-slowdown-after" => {
                args.inject_slowdown_after =
                    Some(val("--inject-slowdown-after")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--pulse" => args.pulse = true,
            "--pulse-interval" => {
                args.pulse_interval =
                    val("--pulse-interval")?.parse().map_err(|e| format!("{e}"))?
            }
            "--pulse-json" => args.pulse_json = Some(val("--pulse-json")?),
            "--pulse-gate" => args.pulse_gate = Some(val("--pulse-gate")?),
            "--pcap" => args.pcap = Some(val("--pcap")?),
            "--journal" => args.journal = true,
            "--journal-sample" => {
                args.journal_sample =
                    val("--journal-sample")?.parse().map_err(|e| format!("{e}"))?
            }
            "--impair" => args.impair = val("--impair")?,
            "--watchdog" => args.watchdog = true,
            "--dump-on-failure" => args.dump_on_failure = Some(val("--dump-on-failure")?),
            "--trace-depth" => {
                args.trace_depth = val("--trace-depth")?.parse().map_err(|e| format!("{e}"))?
            }
            "--no-coalescing" => args.coalescing = false,
            "--no-fast-forward" => args.fast_forward = false,
            "--inject-fault" => {
                let kind = val("--inject-fault")?;
                match kind.as_str() {
                    "lut-misdirect" | "dram-ghost" => args.inject_fault = Some(kind),
                    other => return Err(format!("unknown fault {other}")),
                }
            }
            "--check" => args.check = true,
            "--compact-commands" => args.compact = true,
            "--help" | "-h" => {
                print!("{HELP}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    validate(&args)?;
    Ok(args)
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprint!("{HELP}");
            std::process::exit(EXIT_USAGE);
        }
    };

    let engine = EngineConfig {
        num_fpcs: args.fpcs,
        lut_groups: (args.fpcs / 2).max(1),
        dram: args.dram,
        cc: args.cc,
        coalescing: args.coalescing,
        scan_policy: args.scan,
        check: args.check,
        fast_forward: args.fast_forward,
        flight: args.flight_enabled(),
        flight_sample: args.flight_sample,
        journal: args.journal_enabled(),
        journal_sample: args.journal_sample,
        watchdog: args.watchdog_enabled(),
        pulse: args.pulse_enabled(),
        pulse_interval: args.pulse_interval,
        ..EngineConfig::reference()
    };

    if args.workload == "scale" {
        run_scale(&args, engine);
    }

    let mut sys = match args.workload.as_str() {
        "bulk" => F4tSystem::bulk(args.cores, args.size, engine),
        "rr" => F4tSystem::round_robin(args.cores, 16, args.size, engine),
        "echo" => {
            let flows = if args.flows == 0 { args.cores * 64 } else { args.flows };
            F4tSystem::echo(args.cores, flows, args.size, engine)
        }
        "http" => {
            let flows = if args.flows == 0 { args.cores * 64 } else { args.flows };
            F4tSystem::http((args.cores * 2).max(2), args.cores, flows, engine)
        }
        "incast" => {
            let senders = if args.flows == 0 { 32 } else { args.flows };
            F4tSystem::incast(senders, args.cores, args.size, INCAST_EPOCH_NS, engine)
        }
        "churnstorm" => {
            let target = if args.flows == 0 { args.cores * 16 } else { args.flows };
            F4tSystem::churnstorm(args.cores, target, engine)
        }
        "slowloris" => {
            let flows = if args.flows == 0 { 2048 } else { args.flows };
            F4tSystem::slowloris(args.cores, flows, SLOWLORIS_DRIP_BYTES, 2_000, engine)
        }
        "httpstorm" => {
            let flows = if args.flows == 0 { 1024 } else { args.flows };
            F4tSystem::http((args.cores * 2).max(2), args.cores, flows, engine)
        }
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let imp = Impairments::profile(&args.impair).expect("validated at parse time");
    if imp.is_active() {
        sys.set_impairments(imp);
    }
    if args.compact {
        sys.a.use_compact_commands();
        sys.b.use_compact_commands();
    }
    if args.telemetry.is_some() {
        sys.a.engine.set_trace_capacity(args.trace_depth);
    }
    if let Some(kind) = &args.inject_fault {
        inject_fault(&mut sys.a.engine, kind);
    }
    arm_slowdown(&args, [&mut sys.a.engine]);
    if args.pcap.is_some() {
        sys.enable_pcap(96);
    }

    println!("f4tperf: {args:?}");
    let m = sys.measure(args.warmup_ms * 1_000_000, args.duration_ms * 1_000_000);
    let sa = sys.a.engine.stats();

    if let Some(path) = &args.telemetry {
        write_telemetry(path, &export(&args, &m.telemetry), &sys.a.engine.export_chrome_trace());
    }

    println!();
    println!("  goodput            {:>10.2} Gbps", m.goodput_gbps());
    println!("  requests           {:>10.2} Mrps ({} total)", m.mrps(), m.requests);
    if m.latency.count() > 0 {
        println!(
            "  latency            {:>10.1} µs median / {:.1} µs p99 ({} samples)",
            m.median_latency_us(),
            m.p99_latency_us(),
            m.latency.count()
        );
    }
    println!("  retransmissions    {:>10}", m.retransmissions);
    if imp.is_active() {
        println!(
            "  impairment events  {:>10} ({} profile, both directions)",
            sys.impairment_events(),
            args.impair
        );
    }
    println!("  TCB migrations     {:>10}", m.migrations);
    println!("  events coalesced   {:>10}", sa.events_coalesced);
    println!("  TCB cache hit      {:>9.1}%", sa.tcb_cache_hit_rate * 100.0);
    println!(
        "  FPC stalls         {:>10} fifo-empty / {} tcb-wait / {} backpressure",
        sa.stall_fifo_empty, sa.stall_tcb_wait, sa.stall_backpressure
    );
    println!(
        "  RMW hazards        {:>10} events ({} stall cycles — stall-free by design)",
        sa.rmw_hazard_events, sa.rmw_stall_cycles
    );
    let busy = m.cpu.app + m.cpu.tcp + m.cpu.kernel + m.cpu.lib;
    let budget = args.duration_ms as f64 * 1e6 * 2.3 * args.cores as f64;
    println!(
        "  client CPU busy    {:>9.1}%  (app {:.0}% / lib {:.0}% of busy)",
        busy as f64 * 100.0 / budget,
        m.cpu.app as f64 * 100.0 / busy.max(1) as f64,
        m.cpu.lib as f64 * 100.0 / busy.max(1) as f64,
    );

    if let Some(path) = &args.pcap {
        let packets = sys.pcap_packets();
        match sys.take_pcap() {
            Some(bytes) => {
                write_or_exit(path, bytes);
                println!("  pcap               {packets:>10} segments → {path}");
            }
            None => {
                eprintln!("error: pcap capture failed");
                std::process::exit(EXIT_USAGE);
            }
        }
    }

    // Pulse series + breakdown + gates run after the health report so an
    // FtVerify failure (exit 1) wins over a perf regression (exit 3) when
    // both fire. The pulse document is written before either gate can
    // exit so the artifact survives a flight-gate failure.
    let engines = [("a", &sys.a.engine), ("b", &sys.b.engine)];
    report_health(&args, &engines);
    let pulse_doc = finish_pulse(&args, &engines);
    finish_flight(&args, &sys.a.engine);
    run_pulse_gate(&args, pulse_doc.as_deref(), &sys.a.engine);
}

/// Writes `contents` to `path`, or exits 2 naming the path.
fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(err) = std::fs::write(path, contents) {
        eprintln!("error: writing {path}: {err}");
        std::process::exit(EXIT_USAGE);
    }
}

/// Renders a metrics registry in the `--telemetry-format`.
fn export(args: &Args, reg: &MetricsRegistry) -> String {
    match args.telemetry_format {
        TelemetryFormat::Json => reg.to_json(),
        TelemetryFormat::Prometheus => reg.to_prometheus(),
    }
}

/// Writes the `--telemetry` document to `path` and the Chrome trace to
/// `path` with a `.trace.json` suffix.
fn write_telemetry(path: &str, text: &str, trace: &str) {
    write_or_exit(path, text);
    let trace_path = format!("{}.trace.json", path.trim_end_matches(".json"));
    write_or_exit(&trace_path, trace);
    println!("  telemetry → {path}, trace → {trace_path}");
}

/// Applies `--inject-slowdown` (deferred by `--inject-slowdown-after`)
/// to every engine and says so once.
fn arm_slowdown<'a>(args: &Args, engines: impl IntoIterator<Item = &'a mut Engine>) {
    if args.inject_slowdown == 0 {
        return;
    }
    for e in engines {
        match args.inject_slowdown_after {
            Some(w) => e.set_flight_bias_after(w, args.inject_slowdown),
            None => e.set_flight_bias(args.inject_slowdown),
        }
    }
    match args.inject_slowdown_after {
        Some(w) => println!(
            "  slowdown armed     {} cycles per flight span after pulse window {w}",
            args.inject_slowdown
        ),
        None => println!("  slowdown injected  {} cycles per flight span", args.inject_slowdown),
    }
}

/// Reports the health recorders of a finished run over its labelled
/// engines, in fixed order: the journal digest (merged when several
/// engines journal), the FtVerify summaries and the watchdog alarms. On
/// any violation or alarm it writes the black-box dump of the first
/// engine that fired and exits 1.
fn report_health(args: &Args, engines: &[(&str, &Engine)]) {
    let journals: Vec<&f4t_sim::Journal> =
        engines.iter().filter_map(|(_, e)| e.journal()).collect();
    if let [j] = journals[..] {
        println!(
            "  journal            {:>10} events recorded / digest {:016x} (1/{} sampling)",
            j.events_recorded(),
            j.digest(),
            j.sample_n()
        );
    } else if let [first, ..] = journals[..] {
        let events: u64 = journals.iter().map(|j| j.events_recorded()).sum();
        let digest = fold_digests(journals.iter().map(|j| j.digest()));
        println!(
            "  journal            {events:>10} events recorded / merged digest {digest:016x} (1/{} sampling, {} engines)",
            first.sample_n(),
            journals.len()
        );
    }
    if args.check {
        for (label, e) in engines {
            if let Some(summary) = e.check_summary() {
                let name =
                    if engines.len() == 1 { "ftverify".to_owned() } else { format!("ftverify[{label}]") };
                println!("  {name:<19}{summary}");
            }
        }
    }
    exit_if_fired(args, engines, Engine::check_total_violations, "invariant-violation", |n| {
        format!("FtVerify found {n} design-rule violation(s)")
    });
    for (_, e) in engines {
        for a in e.watchdog().map(|w| w.alarms()).unwrap_or_default() {
            eprintln!("  watchdog alarm     {}", a.line());
        }
    }
    exit_if_fired(args, engines, Engine::watchdog_alarm_count, "watchdog-alarm", |n| {
        format!("watchdog raised {n} alarm(s)")
    });
}

/// The first engine, in list order, whose `count` of failures is
/// non-zero: the one a black-box dump describes.
fn first_fired<'a>(
    engines: &[(&'a str, &'a Engine)],
    count: fn(&Engine) -> u64,
) -> Option<(&'a str, &'a Engine)> {
    engines.iter().copied().find(|&(_, e)| count(e) > 0)
}

/// Exits 1 when any engine's `count` is non-zero, after dumping the
/// first engine that fired and printing `error` with the total.
fn exit_if_fired(
    args: &Args,
    engines: &[(&str, &Engine)],
    count: fn(&Engine) -> u64,
    reason: &str,
    error: impl Fn(u64) -> String,
) {
    let Some((_, e)) = first_fired(engines, count) else { return };
    write_dump(args, e, reason);
    eprintln!("error: {}", error(engines.iter().map(|&(_, e)| count(e)).sum()));
    std::process::exit(EXIT_VIOLATIONS);
}

/// Writes the FtJournal black-box dump to the `--dump-on-failure` path
/// (no-op without the flag). Called on every failing exit path so the
/// forensic record exists before the process dies.
fn write_dump(args: &Args, e: &Engine, reason: &str) {
    let Some(path) = &args.dump_on_failure else { return };
    let extra = [("workload", format!("\"{}\"", args.workload))];
    match std::fs::write(path, e.blackbox_json(reason, &extra)) {
        Ok(()) => eprintln!("  black-box dump     → {path} ({reason})"),
        Err(err) => eprintln!("error: writing {path}: {err}"),
    }
}

/// Prints the FtFlight summary, writes `--breakdown-json` and runs the
/// `--gate` comparison for a finished engine. Exits 3 on regression.
fn finish_flight(args: &Args, e: &Engine) {
    let Some(flight_json) = e.flight_json() else { return };
    let f = e.flight().expect("flight_json implies a recorder");
    println!(
        "  flight spans       {:>10} recorded / {} unsampled ({} flows, 1/{} sampling)",
        f.spans_recorded(),
        f.spans_unsampled(),
        f.flows_tracked(),
        f.sample_n()
    );
    // The breakdown deliberately carries only simulated-clock facts
    // (cycles + span histograms) so fast-forward and tick-by-tick runs
    // produce byte-identical files; wall-clock checks live in
    // scripts/perf_gate.sh where machine variance can be tolerated.
    let breakdown = format!(
        "{{\"workload\": \"{}\", \"cycles\": {}, \"flight\": {}}}",
        args.workload,
        e.cycles(),
        flight_json
    );
    if let Some(path) = &args.breakdown_json {
        write_or_exit(path, &breakdown);
        println!("  breakdown          → {path}");
    }
    if let Some(baseline) = &args.gate {
        let violations = run_gate(baseline, &breakdown, &args.workload);
        if violations.is_empty() {
            println!("  perf gate          PASS vs {baseline}");
        } else {
            eprintln!("error: perf gate FAIL vs {baseline}:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            write_dump(args, e, "gate-failure");
            std::process::exit(EXIT_PERF_REGRESSION);
        }
    }
}

/// Prints the FtPulse summary and writes the `--pulse-json` series
/// document for a finished run. `engines` are the labelled engines in
/// fixed order (`a`/`b` for system workloads, `engine` for scale,
/// `shard0`… for sharded scale); engines without a recorder are skipped.
/// Returns the pulse document for [`run_pulse_gate`], or `None` when
/// pulse is off.
fn finish_pulse(args: &Args, engines: &[(&str, &Engine)]) -> Option<String> {
    if !args.pulse_enabled() {
        return None;
    }
    let mut sections = Vec::new();
    let mut windows = 0u64;
    let mut digests = Vec::new();
    for (label, e) in engines {
        let Some(p) = e.pulse() else { continue };
        windows += p.windows_recorded();
        digests.push(p.digest());
        let Some(json) = e.pulse_json() else { continue };
        sections.push(format!("\"{label}\": {}", json.trim_end()));
    }
    let digest = fold_digests(digests);
    println!(
        "  pulse              {windows:>10} windows recorded / digest {digest:016x} (every {} cycles)",
        args.pulse_interval
    );
    let recorders: Vec<&f4t_sim::PulseRecorder> =
        engines.iter().filter_map(|(_, e)| e.pulse()).collect();
    let doc = format!(
        "{{\"workload\": \"{}\",\n\"merged_digest\": {digest},\n\"engines\": {{\n{}\n}},\n\"aggregate\": {}}}\n",
        args.workload,
        sections.join(",\n"),
        f4t_sim::PulseRecorder::aggregate_json(&recorders).trim_end()
    );
    if let Some(path) = &args.pulse_json {
        write_or_exit(path, &doc);
        println!("  pulse series       → {path}");
    }
    Some(doc)
}

/// Runs the `--pulse-gate` shape comparison against a committed pulse
/// baseline. Exits 3 on any shape regression — the windowed rules catch
/// mid-run degradations the end-of-run `--gate` aggregate misses.
fn run_pulse_gate(args: &Args, pulse_doc: Option<&str>, e: &Engine) {
    let Some(baseline) = &args.pulse_gate else { return };
    let Some(doc) = pulse_doc else { return };
    let base_text = match std::fs::read_to_string(baseline) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("error: reading {baseline}: {err}");
            std::process::exit(EXIT_USAGE);
        }
    };
    match f4t_bench::pulsejson::shape_gate(&args.workload, &base_text, doc) {
        Ok(violations) if violations.is_empty() => {
            println!("  pulse gate         PASS vs {baseline}");
        }
        Ok(violations) => {
            eprintln!("error: pulse gate FAIL vs {baseline}:");
            for v in &violations {
                eprintln!("  - {v}");
            }
            write_dump(args, e, "pulse-gate-failure");
            std::process::exit(EXIT_PERF_REGRESSION);
        }
        Err(err) => {
            eprintln!("error: pulse baseline {baseline}: {err}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

/// Tolerances for the perf gate. Total simulated cycles are two-sided
/// (a big drop is as suspicious as a big rise — it usually means the
/// workload silently stopped doing work); stage p99s are one-sided with
/// an additive floor so near-zero baselines don't gate on ±1 cycle.
const GATE_CYCLES_RATIO: f64 = 1.25;
const GATE_P99_RATIO: f64 = 1.25;
const GATE_P99_SLACK_CYCLES: f64 = 16.0;

/// Compares the current breakdown against a committed baseline and
/// returns one formatted violation per out-of-tolerance metric (empty =
/// gate passes). Every line names the workload, stage and metric with
/// the baseline, observed value and allowed bound — the format
/// `workload=… stage=… metric=… observed=… baseline=… allowed…` is
/// pinned by `crates/bench/tests/cli.rs`.
fn run_gate(baseline_path: &str, current: &str, workload: &str) -> Vec<String> {
    let base_text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: reading {baseline_path}: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let base = match f4t_bench::flatjson::flatten(&base_text) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: baseline {baseline_path}: {e}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let cur = f4t_bench::flatjson::flatten(current).expect("breakdown is well-formed");
    let mut violations = Vec::new();
    match (base.get("cycles"), cur.get("cycles")) {
        (Some(&b), Some(&c)) => {
            let lo = b / GATE_CYCLES_RATIO;
            let hi = b * GATE_CYCLES_RATIO;
            if c > hi || c < lo {
                violations.push(format!(
                    "workload={workload} stage=total metric=cycles observed={c:.0} baseline={b:.0} allowed=[{lo:.0}..{hi:.0}]"
                ));
            }
        }
        _ => violations.push(format!(
            "workload={workload} stage=total metric=cycles observed=missing baseline=missing allowed=present"
        )),
    }
    for (key, &b) in &base {
        if !(key.starts_with("flight.stages.") && key.ends_with(".p99_cycles")) {
            continue;
        }
        let stage = key
            .trim_start_matches("flight.stages.")
            .trim_end_matches(".p99_cycles");
        let allowed = b * GATE_P99_RATIO + GATE_P99_SLACK_CYCLES;
        match cur.get(key) {
            Some(&c) if c <= allowed => {}
            Some(&c) => violations.push(format!(
                "workload={workload} stage={stage} metric=p99_cycles observed={c:.0} baseline={b:.0} allowed<={allowed:.0}"
            )),
            None => violations.push(format!(
                "workload={workload} stage={stage} metric=p99_cycles observed=missing baseline={b:.0} allowed<={allowed:.0}"
            )),
        }
    }
    if let (Some(&b), Some(&c)) = (base.get("flight.spans_recorded"), cur.get("flight.spans_recorded"))
    {
        if b > 0.0 && c == 0.0 {
            violations.push(format!(
                "workload={workload} stage=total metric=spans_recorded observed=0 baseline={b:.0} allowed>0"
            ));
        }
    }
    violations
}

/// Corrupts flow 0's location state so FtVerify has something real to
/// flag (exit-path testing; see `--inject-fault` in the help text).
fn inject_fault(e: &mut Engine, kind: &str) {
    let flow = FlowId(0);
    match kind {
        "lut-misdirect" => e.fault_inject_lut(flow, Location::Dram),
        "dram-ghost" => {
            if !e.fault_inject_dram_ghost(flow) {
                eprintln!("error: flow 0 is not SRAM-resident; cannot ghost it");
                std::process::exit(EXIT_USAGE);
            }
        }
        _ => unreachable!("validated at parse time"),
    }
    println!("  fault injected     {kind} on {flow}");
}

/// Engine cycles the `scale` peer lets pass between ACK rounds.
const SCALE_PUMP_CYCLES: u64 = 64;
/// `scale` peer rounds between completion checks.
const SCALE_PUMPS_PER_CHECK: usize = 256;
/// Flows per source address in [`scale_tuple`].
const SCALE_PORTS: usize = 32_768;
/// Capture cap, matching the system-workload pcap path.
const PCAP_MAX_PACKETS: u64 = 10_000;
/// MAC synthesized for the ideal peer (it has no engine of its own).
const PEER_MAC: MacAddr = MacAddr([0x02, 0xf4, 0x74, 0x00, 0x00, 0xee]);

/// The 4-tuple of `scale` flow `i`.
fn scale_tuple(i: usize) -> FourTuple {
    let ip = Ipv4Addr::new(10, 0, (i / SCALE_PORTS) as u8, 1);
    FourTuple::new(ip, 1024 + (i % SCALE_PORTS) as u16, Ipv4Addr::new(10, 0, 0, 2), 80)
}

/// Inverse of [`scale_tuple`] for a segment the engine sent.
fn scale_index(t: &FourTuple) -> usize {
    usize::from(t.src_ip.octets()[2]) * SCALE_PORTS + usize::from(t.src_port - 1024)
}

/// One `scale` shard: an engine holding a contiguous range of the flows,
/// and the ideal peer that ACKs them.
struct ScaleShard {
    engine: Engine,
    /// Index of this shard's first flow in the whole flow range.
    first: usize,
    flows: Vec<FlowId>,
    target: SeqNum,
    /// Highest sequence owed a cumulative ACK, per flow.
    owed: Vec<Option<SeqNum>>,
    /// Flows with an ACK owed (exactly those with `owed` set).
    dirty: Vec<usize>,
    pcap: Option<PcapWriter<Vec<u8>>>,
    completed: bool,
    active_cycles: u64,
}

impl ScaleShard {
    /// Opens flows `range` on a fresh engine (exits 2 if its flow table
    /// fills).
    fn new(args: &Args, cfg: &EngineConfig, range: Range<usize>) -> ScaleShard {
        let mut engine = Engine::new(EngineConfig { max_flows: range.len(), ..cfg.clone() });
        if args.telemetry.is_some() {
            engine.set_trace_capacity(args.trace_depth);
        }
        let mut flows = Vec::with_capacity(range.len());
        for i in range.clone() {
            let Some(f) = engine.open_established(scale_tuple(i), SeqNum::ZERO) else {
                eprintln!("error: flow table full at {} flows", flows.len());
                std::process::exit(EXIT_USAGE);
            };
            flows.push(f);
        }
        ScaleShard {
            engine,
            first: range.start,
            flows,
            target: SeqNum::ZERO.add(args.size),
            owed: vec![None; range.len()],
            dirty: Vec::new(),
            pcap: if args.pcap.is_some() { PcapWriter::new(Vec::new(), 96).ok() } else { None },
            completed: false,
            active_cycles: 0,
        }
    }

    /// Runs the shard to completion: issues every flow's send (pumping
    /// the peer whenever the engine refuses one), pumps until every flow
    /// is ACKed or the cycle budget runs out, then idles for `tail`
    /// cycles, the regime where fast-forward dominates.
    fn run(&mut self, tail: u64) {
        let budget = self.flows.len() as u64 * 20_000 + 10_000_000;
        let mut issued = 0;
        while issued < self.flows.len() && self.engine.cycles() < budget {
            if self.engine.push_host(self.flows[issued], EventKind::SendReq { req: self.target }) {
                issued += 1;
            } else {
                self.pump();
            }
        }
        while self.engine.cycles() < budget && !self.completed {
            for _ in 0..SCALE_PUMPS_PER_CHECK {
                self.pump();
            }
            let (e, target) = (&self.engine, self.target);
            self.completed =
                self.flows.iter().all(|&f| e.peek_tcb(f).is_some_and(|t| t.snd_una == target));
        }
        self.active_cycles = self.engine.cycles();
        self.engine.run(tail);
    }

    /// One peer round: run the engine, capture and harvest its TX, send
    /// the cumulative ACKs owed in ascending flow order, and drop the
    /// host notifications.
    fn pump(&mut self) {
        let e = &mut self.engine;
        e.run(SCALE_PUMP_CYCLES);
        while let Some(seg) = e.pop_tx() {
            if let Some(w) = &mut self.pcap {
                if w.packets() < PCAP_MAX_PACKETS {
                    let _ = w.record(e.now_ns(), &seg, e.mac, PEER_MAC);
                }
            }
            if seg.has_payload() {
                let i = scale_index(&seg.tuple) - self.first;
                let end = seg.seq_end();
                match self.owed[i] {
                    Some(h) => self.owed[i] = Some(h.max_seq(end)),
                    None => {
                        self.owed[i] = Some(end);
                        self.dirty.push(i);
                    }
                }
            }
        }
        self.dirty.sort_unstable();
        let (owed, first) = (&mut self.owed, self.first);
        self.dirty.retain(|&i| {
            let Some(h) = owed[i] else { return false };
            let ack = Segment::pure_ack(scale_tuple(first + i).reversed(), SeqNum::ZERO, h, TCP_BUFFER);
            let pushed = e.push_rx(ack);
            if pushed {
                owed[i] = None;
            }
            !pushed
        });
        while e.pop_notification().is_some() {}
    }
}

/// Runs every shard to completion on `threads` workers. It does nothing
/// else, so the worker-reachability lint rules see only shard code.
fn drive_shards(shards: &mut [ScaleShard], threads: usize, tail: u64) {
    run_shards(shards, threads, |sh| sh.run(tail));
}

/// The `scale` workload: `--flows` connections against an ideal peer
/// (cumulative ACKs synthesized by the harness), driven through
/// `Engine::run` so the fast-forward core engages. Each flow sends
/// `--size` bytes; after every cumulative pointer reaches its target the
/// engine idles for `--duration-ms` of simulated time, the regime where
/// skipping dominates. This is the figure harness behind
/// `results/fastforward_baseline.json`.
///
/// `--threads N` splits the flows into N contiguous shards, each with
/// its own engine and peer, run to completion on its own worker
/// (FtTurbo). Every shard runs the same loop as the single engine, and
/// merged artifacts are folded in fixed shard order, so the pool size
/// changes wall-clock only, never output.
fn run_scale(args: &Args, cfg: EngineConfig) -> ! {
    let total_flows = if args.flows == 0 { 65_536 } else { args.flows };
    // More shards than flows would create empty engines; shard count is
    // part of the workload's identity, so cap it explicitly and say so.
    let shard_count = args.threads.min(total_flows).max(1);
    if shard_count != args.threads {
        println!("  threads capped     {} → {shard_count} (one shard per flow max)", args.threads);
    }
    let started = std::time::Instant::now();
    let mut shards: Vec<ScaleShard> = (0..shard_count)
        .map(|s| {
            let range = total_flows * s / shard_count..total_flows * (s + 1) / shard_count;
            ScaleShard::new(args, &cfg, range)
        })
        .collect();
    if let Some(kind) = &args.inject_fault {
        inject_fault(&mut shards[0].engine, kind);
    }
    arm_slowdown(args, shards.iter_mut().map(|sh| &mut sh.engine));
    // Post-completion idle tail: --duration-ms of simulated time at the
    // 250 MHz engine clock (250_000 cycles per millisecond).
    drive_shards(&mut shards, args.threads, args.duration_ms * 250_000);
    let wall = started.elapsed();

    // Everything below runs on one thread, walking shards in fixed
    // order — the merge side of the determinism contract.
    let completed = shards.iter().all(|s| s.completed);
    let sum = |f: fn(&ScaleShard) -> u64| -> u64 { shards.iter().map(f).sum() };
    let cycles = sum(|s| s.engine.cycles());
    let active = sum(|s| s.active_cycles);
    let skipped = sum(|s| s.engine.fastforward_skipped_cycles());
    let windows = sum(|s| s.engine.fastforward_windows());
    let executed = cycles - skipped;
    let sharded = shard_count > 1;
    println!("f4tperf: {args:?}");
    println!();
    println!(
        "  flows              {total_flows:>10}{} ({})",
        if sharded { format!(" in {shard_count} shards") } else { String::new() },
        if completed { "all completed" } else { "INCOMPLETE" }
    );
    if sharded {
        for (s, sh) in shards.iter().enumerate() {
            println!(
                "  shard {s:<12} {:>10} flows / {} cycles / {}",
                sh.flows.len(),
                sh.engine.cycles(),
                if sh.completed { "completed" } else { "incomplete" }
            );
        }
    }
    let (summed, tails) = if sharded { (" summed", "s") } else { ("", "") };
    println!("  cycles simulated   {cycles:>10}{summed} ({active} active + idle tail{tails})");
    println!("  ticks executed     {executed:>10}");
    println!("  ff skipped         {skipped:>10} cycles in {windows} windows");
    println!("  tick reduction     {:>10.1}x", cycles as f64 / executed.max(1) as f64);
    println!("  wall time          {:>10.0} ms", wall.as_secs_f64() * 1e3);
    println!("  TCB migrations     {:>10}", sum(|s| s.engine.stats().migrations));
    println!("  DRAM events        {:>10}", sum(|s| s.engine.stats().dram_events));

    if let Some(path) = &args.telemetry {
        if let [sh] = &shards[..] {
            write_telemetry(path, &export(args, &sh.engine.telemetry()), &sh.engine.export_chrome_trace());
        } else {
            let parts: Vec<String> = shards.iter().map(|s| s.engine.telemetry().to_json()).collect();
            let traces: Vec<String> = shards.iter().map(|s| s.engine.export_chrome_trace()).collect();
            write_telemetry(
                path,
                &format!("{{\"shards\": [{}]}}", parts.join(", ")),
                &format!("{{\"shards\": [{}]}}", traces.join(", ")),
            );
        }
    }
    if let Some(path) = &args.pcap {
        let Some(w) = shards[0].pcap.take() else {
            eprintln!("error: pcap capture failed");
            std::process::exit(EXIT_USAGE);
        };
        let packets = w.packets();
        match w.finish() {
            Ok(bytes) => {
                write_or_exit(path, bytes);
                println!("  pcap               {packets:>10} segments → {path}");
            }
            Err(err) => {
                eprintln!("error: pcap capture failed: {err}");
                std::process::exit(EXIT_USAGE);
            }
        }
    }

    let labels: Vec<String> = if sharded {
        (0..shard_count).map(|s| format!("shard{s}")).collect()
    } else {
        vec!["engine".to_owned()]
    };
    let engines: Vec<(&str, &Engine)> =
        labels.iter().map(String::as_str).zip(shards.iter().map(|s| &s.engine)).collect();
    report_health(args, &engines);
    if !completed && args.inject_fault.is_none() {
        if let Some(bad) = shards.iter().find(|s| !s.completed) {
            write_dump(args, &bad.engine, "stuck-flows");
            eprintln!("error: flows stuck after {} cycles", bad.engine.cycles());
        }
        std::process::exit(EXIT_USAGE);
    }
    let pulse_doc = finish_pulse(args, &engines);
    if let [sh] = &shards[..] {
        finish_flight(args, &sh.engine);
    } else if args.flight_enabled() {
        let spans: u64 =
            shards.iter().filter_map(|s| s.engine.flight()).map(|f| f.spans_recorded()).sum();
        println!("  flight spans       {spans:>10} recorded across {shard_count} shards");
        if let Some(path) = &args.breakdown_json {
            let parts: Vec<String> = shards
                .iter()
                .filter_map(|s| {
                    s.engine.flight_json().map(|fj| {
                        format!("{{\"cycles\": {}, \"flight\": {fj}}}", s.engine.cycles())
                    })
                })
                .collect();
            let breakdown = format!(
                "{{\"workload\": \"{}\", \"threads\": {shard_count}, \"shards\": [{}]}}",
                args.workload,
                parts.join(", ")
            );
            write_or_exit(path, &breakdown);
            println!("  breakdown          → {path}");
        }
    }
    run_pulse_gate(args, pulse_doc.as_deref(), &shards[0].engine);
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use f4t_sim::probes::AUDIT_INTERVAL;

    /// A design-rule violation on engine `b` alone must dump `b`: the
    /// dump describes the first engine that fired, not always `a`.
    #[test]
    fn dump_names_the_engine_that_fired() {
        let cfg = EngineConfig { check: true, ..EngineConfig::reference() };
        let mut a = Engine::new(cfg.clone());
        let mut b = Engine::new(cfg);
        a.open_established(scale_tuple(0), SeqNum::ZERO).expect("a has room");
        let fb = b.open_established(scale_tuple(0).reversed(), SeqNum::ZERO).expect("b has room");
        b.fault_inject_lut(fb, Location::Dram);
        a.run(2 * AUDIT_INTERVAL);
        b.run(2 * AUDIT_INTERVAL);
        assert_eq!(a.check_total_violations(), 0);
        assert!(b.check_total_violations() > 0, "the audit must catch the planted LUT fault");
        let engines = [("a", &a), ("b", &b)];
        let fired = first_fired(&engines, Engine::check_total_violations);
        assert_eq!(fired.map(|(label, _)| label), Some("b"));
    }
}
