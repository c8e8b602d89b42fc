//! End-to-end and per-layer benchmark of the DRX stack.
//!
//! ```text
//! drx-perfbench --workload <scan|serve_hot|grow> --seed N --seconds S --trace <0|1>
//!               [--out DIR] [--rustc VERSION]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` alternates
//! untraced and traced blocks and reports the per-layer metrics. The last
//! line of standard output is the result object; the line before it is a
//! detail record (host, configuration, sample counts, counters). The exit
//! code is 0 only when every operation succeeded and passed its oracle.
//! See `README.md` next to this crate.

mod common;
mod layers;
mod report;
mod scan;
mod serve;
mod stats;
mod trace;

use report::{Json, Outcome};
use std::path::PathBuf;

/// Requests whose spans a traced run writes out.
const KEPT_REQUESTS: usize = 2000;

pub struct RunCfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: PathBuf,
    pub rustc: String,
}

impl RunCfg {
    /// Write the spans of a traced block's first `KEPT_REQUESTS` requests
    /// where the run keeps its outputs.
    pub fn write_spans(&self, spans: &[trace::Span]) -> Result<(), String> {
        let mut requests: Vec<u64> =
            spans.iter().filter(|s| s.parent == 0).map(|s| s.request).collect();
        requests.sort_unstable();
        requests.truncate(KEPT_REQUESTS);
        let keep: std::collections::HashSet<u64> = requests.into_iter().collect();
        let kept: Vec<trace::Span> =
            spans.iter().filter(|s| keep.contains(&s.request)).cloned().collect();
        std::fs::create_dir_all(&self.out_dir).map_err(|e| format!("{:?}: {e}", self.out_dir))?;
        let path = self.out_dir.join(format!("spans-{}-{}.tsv", self.workload, self.seed));
        trace::write_spans(&path, &kept).map_err(|e| format!("{path:?}: {e}"))
    }
}

pub trait Workload {
    /// Set up, measure for `cfg.seconds`, check every result, and fill
    /// `out`. An `Err` means the run could not be carried out at all.
    fn run(&self, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String>;
}

/// Tracing overhead in percent: the traced median time per round (or per
/// operation) over the untraced one. Medians, because a few stalls on a
/// small host move a mean by more than the tracing costs.
pub fn overhead_pct(untraced: &common::Calls, traced: &common::Calls) -> f64 {
    (stats::median(&traced.ms) / stats::median(&untraced.ms) - 1.0) * 100.0
}

/// Throughput samples: per-block rates (see
/// [`common::Calls::block_rates`]) of completed operations, and of bytes
/// read and written per second inside those calls.
pub struct Rates {
    pub ops: Vec<f64>,
    pub read_bytes: Vec<f64>,
    pub write_bytes: Vec<f64>,
}

/// The samples of one stretch of a run.
pub struct Segment {
    pub rates: Rates,
    pub read_latency: Vec<f64>,
    pub write_latency: Vec<f64>,
}

/// The end-to-end metrics every workload reports, plus their sample
/// counts. Each metric is computed per segment and reported as the median
/// over segments. A percentile without ten samples beyond it is left out.
/// `extend_medians` holds the median extend latency of each growth
/// sequence (a set-up or an episode). It goes to the detail record, not
/// the metrics: an extend's cost is mostly the first touch of the memory
/// the payload file grows into, and its median moved by more than a
/// quarter between identical runs on a shared host.
pub fn report_end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    segments: &[Segment],
    extend_medians: &[f64],
) {
    let median = |v: &[f64]| {
        let v: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            stats::median(&v)
        }
    };
    let over = |f: &dyn Fn(&Segment) -> f64| median(&segments.iter().map(f).collect::<Vec<_>>());
    let pct = |v: &[f64], q| stats::reported_percentile(v, q).unwrap_or(f64::NAN);
    out.metric("setup_s", median(setup_s), "s");
    out.metric("ops_s", over(&|s| median(&s.rates.ops)), "1/s");
    out.metric("read_mib_s", over(&|s| median(&s.rates.read_bytes)) / common::MIB, "MiB/s");
    out.metric("write_mib_s", over(&|s| median(&s.rates.write_bytes)) / common::MIB, "MiB/s");
    out.metric("read_p50_ms", over(&|s| pct(&s.read_latency, 0.5)), "ms");
    out.metric("read_p90_ms", over(&|s| pct(&s.read_latency, 0.9)), "ms");
    out.metric("write_p50_ms", over(&|s| pct(&s.write_latency, 0.5)), "ms");
    out.metric("write_p90_ms", over(&|s| pct(&s.write_latency, 0.9)), "ms");
    out.metric("peak_rss_mib", common::peak_rss_mib(), "MiB");
    let total =
        |f: &dyn Fn(&Segment) -> usize| Json::Int(segments.iter().map(f).sum::<usize>() as u64);
    let fewest_beyond = |f: &dyn Fn(&Segment) -> usize| {
        Json::Int(segments.iter().map(|s| stats::beyond(f(s), 0.9)).min().unwrap_or(0) as u64)
    };
    out.detail(
        "samples",
        Json::obj([
            ("setups", Json::Int(setup_s.len() as u64)),
            ("segments", Json::Int(segments.len() as u64)),
            ("ops_blocks", total(&|s| s.rates.ops.len())),
            ("read_blocks", total(&|s| s.rates.read_bytes.len())),
            ("write_blocks", total(&|s| s.rates.write_bytes.len())),
            ("read_latency", total(&|s| s.read_latency.len())),
            ("write_latency", total(&|s| s.write_latency.len())),
            ("extend_sequences", Json::Int(extend_medians.len() as u64)),
            ("extend_ms", Json::Num(median(extend_medians))),
            ("read_p90_beyond_per_segment", fewest_beyond(&|s| s.read_latency.len())),
            ("write_p90_beyond_per_segment", fewest_beyond(&|s| s.write_latency.len())),
        ]),
    );
}

fn parse_args() -> Result<RunCfg, String> {
    let mut args = std::env::args().skip(1);
    let mut cfg = RunCfg {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out_dir: PathBuf::from("perfbench-out"),
        rustc: "unknown".into(),
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => cfg.workload = value,
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => cfg.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            "--out" => cfg.out_dir = PathBuf::from(value),
            "--rustc" => cfg.rustc = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("drx-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let workload: &dyn Workload = match cfg.workload.as_str() {
        "scan" => &scan::ScanWorkload,
        "serve_hot" => &serve::ServeHot,
        "grow" => &serve::Grow,
        other => {
            eprintln!("drx-perfbench: unknown workload '{other}' (scan, serve_hot, grow)");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    if let Err(e) = workload.run(&cfg, &mut out) {
        eprintln!("drx-perfbench: {} failed: {e}", cfg.workload);
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let record = Json::obj([
        ("workload", Json::Str(cfg.workload.clone())),
        ("seed", Json::Int(cfg.seed)),
        ("seconds", Json::Num(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("nproc", Json::Int(nproc)),
        ("rustc", Json::Str(cfg.rustc.clone())),
        ("profile", Json::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("pfs", Json::Str(format!("{:?}", common::pfs_config(None)))),
        ("errors", Json::Arr(out.errors.iter().cloned().map(Json::Str).collect())),
        ("detail", Json::Obj(out.detail.clone())),
    ]);
    println!("{}", record.render());
    println!("{}", out.result_line());
    if !out.correct() {
        std::process::exit(1);
    }
}
