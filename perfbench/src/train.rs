//! `train-full` and `train-sampled`: `FakeDetector::fit` on the
//! Table-1 corpus, full-graph or neighbour-sampled.

use crate::checks::{self, Tally};
use crate::data::{self, Data};
use crate::obs::Snapshot;
use crate::{log_figure, probe, stats, Report};
use fd_core::{FakeDetector, FakeDetectorConfig, TrainMode, TrainedFakeDetector};
use fd_graph::NodeType;

/// Nominal epoch lengths on a 2-core machine, used only to turn
/// `--seconds` into a fixed epoch count (so every run of one length
/// does the same work).
const NOMINAL_FULL_EPOCH_S: f64 = 1.6;
const NOMINAL_SAMPLED_EPOCH_S: f64 = 10.0;
/// Full-graph epochs fitted before the timed ones.
const FULL_WARMUP_EPOCHS: usize = 2;
/// Seeds per sampled minibatch.
pub const BATCH_SIZE: usize = 256;
/// The sampled make-up of ROADMAP open item 4.
pub const SAMPLED: TrainMode = TrainMode::Sampled {
    batch_size: BATCH_SIZE,
    fanout: 8,
    rounds: 2,
};

/// The training phases fit() times into `train.phase.*_us`; together
/// they should cover the epoch.
const PHASES: [&str; 7] = [
    "forward",
    "backward",
    "clip",
    "optimizer",
    "sample",
    "validate",
    "checkpoint",
];

struct Pass {
    trained: TrainedFakeDetector,
    minor_faults: u64,
    before: Snapshot,
    after: Snapshot,
}

fn fit_pass(data: &Data, config: &FakeDetectorConfig) -> Pass {
    let before = Snapshot::take();
    let faults = data::minor_faults();
    let trained = FakeDetector::new(config.clone()).fit(&data.ctx());
    let minor_faults = data::minor_faults() - faults;
    Pass {
        trained,
        minor_faults,
        before,
        after: Snapshot::take(),
    }
}

/// Epoch wall times past the warm-up, in ms.
fn timed_epochs(trained: &TrainedFakeDetector, warmup: usize) -> Vec<f64> {
    trained
        .report()
        .epoch_ms
        .iter()
        .skip(warmup)
        .copied()
        .collect()
}

pub fn run(seed: u64, seconds: u64, traced: bool, sampled: bool) -> Report {
    let (data, setup_s, stage_times) = data::repeated_setup(seed, |data| data, drop);

    let nominal = if sampled {
        NOMINAL_SAMPLED_EPOCH_S
    } else {
        NOMINAL_FULL_EPOCH_S
    };
    let timed = ((seconds as f64 / nominal).ceil() as usize).max(if sampled { 2 } else { 5 });
    // The first full-graph epochs of a process fault in its working set
    // and run slower than the rest (the epoch after the first still ran
    // up to 40% over the run's median); they are fitted but not timed.
    let warmup = if sampled { 0 } else { FULL_WARMUP_EPOCHS };
    let config = FakeDetectorConfig {
        epochs: warmup + timed,
        validation_fraction: 0.0,
        train_mode: if sampled { SAMPLED } else { TrainMode::Full },
        ..FakeDetectorConfig::default()
    };
    let mut report = Report::default();
    // A traced run first fits once untraced, so it can state what the
    // tracing cost.
    let untraced_ms = traced.then(|| {
        fd_obs::trace::set_enabled(false);
        let pass = fit_pass(&data, &config);
        fd_obs::trace::set_enabled(true);
        stats::median(&timed_epochs(&pass.trained, warmup))
    });
    let pass = fit_pass(&data, &config);
    let peak_rss_mb = data::peak_rss_mb();
    let epoch_ms = timed_epochs(&pass.trained, warmup);
    eprintln!("timed epoch ms: {epoch_ms:?}");

    check_outputs(
        &data,
        &pass.trained,
        config.epochs,
        sampled,
        &mut report.tally,
    );

    if !traced {
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("peak_rss_mb", Some(peak_rss_mb), "MiB");
        report.metric("op_p50_ms", stats::median(&epoch_ms), "ms");
        return report;
    }

    data::report_stage_times(&stage_times, &mut report);
    let epochs = config.epochs as f64;
    report.metric(
        "mem.minor_faults",
        Some(pass.minor_faults as f64 / epochs),
        "count",
    );
    // This fit's own phase figures, per epoch.
    let phase_ms = |phase: &str| {
        let name = format!("train.phase.{phase}_us");
        pass.after.hist(&name).since(pass.before.hist(&name)).sum / 1e3 / epochs
    };
    for (phase, name) in [
        ("forward", "core.forward_ms"),
        ("backward", "autograd.backward_ms"),
        ("clip", "nn.clip_ms"),
        ("optimizer", "nn.optimizer_ms"),
        ("sample", "graph.sample_ms"),
    ] {
        log_figure(&format!("{name} per epoch"), Some(phase_ms(phase)), "ms");
    }
    if sampled {
        let nodes = "train.sampler.subgraph_nodes";
        let sampled_nodes = pass.after.hist(nodes).since(pass.before.hist(nodes)).sum / epochs;
        log_figure(
            "graph.sampled_nodes per epoch",
            Some(sampled_nodes),
            "count",
        );
    }

    // Everything fit() spent per epoch that no phase timer covers.
    let wall_ms: f64 = pass.trained.report().epoch_ms.iter().sum();
    let covered_ms: f64 = PHASES.iter().map(|p| phase_ms(p)).sum::<f64>() * epochs;
    report.metric(
        "unaccounted_share",
        Some(1.0 - covered_ms / wall_ms),
        "ratio",
    );
    let traced_ms = stats::median(&epoch_ms);
    if let (Some(off), Some(on)) = (untraced_ms.flatten(), traced_ms) {
        report.metric("trace.overhead_pct", Some(100.0 * (on - off) / off), "%");
    }
    drop(pass);
    probe::run(&data, &mut report);
    report
}

/// The training-output checks: finite losses, consistent
/// `predict_proba`/`predict`, and, after sampled training, training-set
/// article accuracy above the majority-class share counted from the
/// corpus labels. Each full-graph epoch of `train-full` is one
/// optimizer step, and after 14 some seeds still answer the majority
/// class everywhere (seed 305: accuracy 0.5536, majority share 0.5536),
/// so there the accuracy is logged but not checked: a check that fails
/// on some seeds only would make the failure count differ between runs.
fn check_outputs(
    data: &Data,
    trained: &TrainedFakeDetector,
    epochs: usize,
    sampled: bool,
    tally: &mut Tally,
) {
    let losses = &trained.report().losses;
    for e in 0..epochs {
        let one = losses.get(e).map(std::slice::from_ref).unwrap_or(&[]);
        tally.check(&format!("epoch {e} loss"), checks::losses_finite(one, 1));
    }
    let ctx = data.ctx();
    let predictions = trained.predict(&ctx);
    let proba = trained.predict_proba(&ctx);
    for (slot, ty) in NodeType::ALL.iter().enumerate() {
        tally.check(
            &format!("{ty:?} predict_proba vs predict"),
            checks::proba_rows_consistent(&proba[slot], predictions.for_type(*ty), 1e-4),
        );
    }
    let train_articles = &data.train.articles;
    let predicted: Vec<usize> = train_articles
        .iter()
        .map(|&i| predictions.for_type(NodeType::Article)[i])
        .collect();
    let truth: Vec<usize> = train_articles
        .iter()
        .map(|&i| data::MODE.target(data.corpus.articles[i].label))
        .collect();
    let (accuracy, majority) = checks::accuracy_and_majority(&predicted, &truth);
    eprintln!("training-set article accuracy {accuracy:.4}, majority share {majority:.4}");
    if sampled {
        tally.check(
            "training-set article accuracy",
            checks::beats_majority(&predicted, &truth),
        );
    }
}
