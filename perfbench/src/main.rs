//! The FakeDetector benchmark: four workloads over the Table-1-scale
//! corpus, each checked for correct outputs.
//!
//! ```text
//! perfbench --workload <train-full|train-sampled|serve-mix|ingest-stream>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are every end-to-end metric ([`END_TO_END`]); with
//! `--trace 1` the run enables the program's trace spans and prints
//! every per-layer metric ([`PER_LAYER`]) instead. Every workload
//! reports every metric of its mode; a run that could not measure one
//! exits non-zero without a result. See README.md for what each
//! workload and metric is.

mod checks;
mod client;
mod data;
mod ingest;
mod kernels;
mod obs;
mod probe;
mod serve;
mod stats;
mod train;

use checks::Tally;

/// The end-to-end metrics every untraced run reports, by name and
/// unit, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("op_p50_ms", "ms"),
];

/// The per-layer metrics every traced run reports, by name and unit,
/// as in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("data.generate_ms", "ms"),
    ("data.tokenize_ms", "ms"),
    ("data.features_ms", "ms"),
    ("core.hflu_encode_ms", "ms"),
    ("core.diffuse_ms", "ms"),
    ("core.batch_forward_ms", "ms"),
    ("autograd.batch_backward_ms", "ms"),
    ("nn.batch_clip_ms", "ms"),
    ("nn.batch_optimizer_ms", "ms"),
    ("graph.batch_sample_ms", "ms"),
    ("graph.batch_nodes", "count"),
    ("graph.reencode_ratio", "ratio"),
    ("tensor.matmul_tall_gflops", "GFLOP/s"),
    ("tensor.matmul_512_gflops", "GFLOP/s"),
    ("tensor.gather_rows_gbps", "GB/s"),
    ("core.score1_us", "us"),
    ("core.score64_ms", "ms"),
    ("core.score_node_us", "us"),
    ("ingest.attach_ms", "ms"),
    ("ingest.diffuse_ms", "ms"),
    ("ingest.affected_base_nodes", "count"),
    ("ingest.growth_ratio", "ratio"),
    ("mem.minor_faults", "count"),
    ("unaccounted_share", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// One reported figure.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric; a figure that could not be measured (too few
    /// samples, or not finite) is left out and named on stderr, and
    /// `main` then prints no result line.
    pub fn metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(value) if value.is_finite() => self.metrics.push(Metric { name, value, unit }),
            other => eprintln!("metric {name} not reported: {other:?}"),
        }
    }

    /// Metrics in `expected` the report lacks or holds in another
    /// unit, then metrics it holds that `expected` does not name.
    pub fn mismatch(&self, expected: &[(&str, &str)]) -> Vec<String> {
        let missing = expected.iter().filter_map(|&(name, unit)| {
            match self.metrics.iter().find(|m| m.name == name) {
                None => Some(format!("missing {name}")),
                Some(m) if m.unit != unit => Some(format!("{name} in {} not {unit}", m.unit)),
                Some(_) => None,
            }
        });
        let extra = self
            .metrics
            .iter()
            .filter(|m| !expected.iter().any(|&(name, _)| name == m.name))
            .map(|m| format!("unexpected {}", m.name));
        missing.chain(extra).collect()
    }
}

/// A workload-specific layer figure that not every workload has: logged
/// to stderr with the traced run, not reported as a metric.
pub fn log_figure(name: &str, value: Option<f64>, unit: &str) {
    match value {
        Some(v) => eprintln!("layer {name}: {v} {unit}"),
        None => eprintln!("layer {name}: not measured"),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(20);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn result_line(report: &Report) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.tally.wrong == 0 && report.tally.attempted > 0,
        report.tally.attempted,
        report.tally.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    out.push_str("}}");
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The trace gate is set here, never inherited from FD_TRACE, so an
    // untraced run stays untraced whatever the environment says.
    fd_obs::trace::set_enabled(args.trace);
    eprintln!(
        "perfbench: {} seed {} seconds {} trace {}; nproc {}, FD_THREADS resolved {}, SIMD {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        fd_tensor::parallel::current_threads(),
        fd_tensor::simd_level().name()
    );
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let report = match args.workload.as_str() {
        "train-full" => train::run(seed, seconds, traced, false),
        "train-sampled" => train::run(seed, seconds, traced, true),
        "serve-mix" => serve::run(seed, seconds, traced),
        "ingest-stream" => ingest::run(seed, seconds, traced),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let mismatch = report.mismatch(if traced { &PER_LAYER } else { &END_TO_END });
    if !mismatch.is_empty() {
        eprintln!("perfbench: metrics do not match the manifest: {mismatch:?}");
        std::process::exit(1);
    }
    println!("{}", result_line(&report));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metrics `main` insists on are the manifest's, in order and
    /// in the manifest's units.
    #[test]
    fn metric_lists_match_the_manifest() {
        let manifest: serde_json::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("manifest parses");
        let metrics = |key: &str| -> Vec<(String, String)> {
            manifest[key]
                .as_array()
                .expect("a metric list")
                .iter()
                .map(|m| {
                    let fields = m.as_map().expect("a metric object");
                    let field = |f| {
                        let value = serde::content_get(fields, f).and_then(|v| v.as_str());
                        value.expect("a string field").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(metrics("end_to_end"), owned(&END_TO_END));
        assert_eq!(metrics("per_layer"), owned(&PER_LAYER));
    }

    #[test]
    fn mismatch_names_missing_extra_and_misunited_metrics() {
        let mut report = Report::default();
        report.metric("a", Some(1.0), "ms");
        report.metric("c", Some(2.0), "ms");
        report.metric("b", Some(f64::NAN), "ms");
        assert_eq!(
            report.mismatch(&[("a", "ms"), ("b", "ms")]),
            ["missing b", "unexpected c"]
        );
        assert_eq!(
            report.mismatch(&[("a", "s"), ("c", "ms")]),
            ["a in ms not s"]
        );
        assert!(report.mismatch(&[("a", "ms"), ("c", "ms")]).is_empty());
    }
}
