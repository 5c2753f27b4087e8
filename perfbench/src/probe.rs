//! The layer probes every traced run makes after its workload, so each
//! workload reports the same per-layer metrics. Each probe calls a
//! layer's public functions from outside on the run's own corpus:
//! the HFLU encoder, the full-graph diffusion, a few sampled training
//! steps, the fd-tensor kernels, and the serving model's `score`,
//! `ingest` and `score_node`.

use crate::data::Data;
use crate::obs::Snapshot;
use crate::serve::{inductive, load_model};
use crate::{ingest, kernels, stats, train, Report};
use fd_core::{FakeDetector, FakeDetectorConfig, ScoreRequest, TrainedFakeDetector};
use fd_data::{ExperimentContext, TrainSets};
use fd_graph::NodeType;
use fd_serve::ServeModel;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

/// Items in the 64-item score probe, as in serve-mix's batches.
const SCORE_BATCH: usize = 64;
/// The step probe trains on one in `STEP_SUBSET` of each training set:
/// enough batches for a steady per-batch mean at a fraction of an
/// epoch's time.
const STEP_SUBSET: usize = 8;
/// Window of `ingest.growth_ratio`.
const GROWTH_WINDOW: usize = 100;

pub fn run(data: &Data, report: &mut Report) {
    kernels::hflu_encode(data, report);
    sampled_steps(data, report);
    kernels::tensor(data, report);
    let (model, model_json) = load_model(data);
    let trained = TrainedFakeDetector::from_json(&model_json).expect("weights parse");
    diffuse(data, &trained, report);
    score(data, &model, report);
    ingest_and_read(data, &model, report);
}

/// `core.diffuse_ms`: the full-corpus diffusion a model load pays, the
/// gradient-free full-graph forward pass.
fn diffuse(data: &Data, trained: &TrainedFakeDetector, report: &mut Report) {
    let ctx = data.ctx();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(trained.diffused_states_rounds(&ctx));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.metric("core.diffuse_ms", stats::median(&samples), "ms");
}

/// Per-batch phase times of sampled training (`train-sampled`'s make-up)
/// from one epoch of `fit` over a subset of the training sets, read from
/// the `train.phase.*_us` and `train.sampler.subgraph_nodes` histograms,
/// and the re-encode ratio a full epoch of such batches implies.
fn sampled_steps(data: &Data, report: &mut Report) {
    let subset = |v: &[usize]| v[..v.len().div_ceil(STEP_SUBSET)].to_vec();
    let train = TrainSets {
        articles: subset(&data.train.articles),
        creators: subset(&data.train.creators),
        subjects: subset(&data.train.subjects),
    };
    let ctx = ExperimentContext {
        train: &train,
        ..data.ctx()
    };
    let config = FakeDetectorConfig {
        epochs: 1,
        validation_fraction: 0.0,
        train_mode: train::SAMPLED,
        ..FakeDetectorConfig::default()
    };
    let before = Snapshot::take();
    std::hint::black_box(FakeDetector::new(config).fit(&ctx));
    let after = Snapshot::take();
    let hist = |name: &str| after.hist(name).since(before.hist(name));
    let batches = hist("train.phase.sample_us").count;
    let per_batch_ms = |phase: &str| {
        let h = hist(&format!("train.phase.{phase}_us"));
        (batches > 0.0).then(|| h.sum / 1e3 / batches)
    };
    report.metric("core.batch_forward_ms", per_batch_ms("forward"), "ms");
    report.metric("autograd.batch_backward_ms", per_batch_ms("backward"), "ms");
    report.metric("nn.batch_clip_ms", per_batch_ms("clip"), "ms");
    report.metric("nn.batch_optimizer_ms", per_batch_ms("optimizer"), "ms");
    report.metric("graph.batch_sample_ms", per_batch_ms("sample"), "ms");
    let nodes = hist("train.sampler.subgraph_nodes").mean();
    report.metric("graph.batch_nodes", nodes, "count");
    let epoch_batches = data.ctx().train_items().len().div_ceil(train::BATCH_SIZE) as f64;
    let corpus_nodes: usize = data.counts().iter().sum();
    report.metric(
        "graph.reencode_ratio",
        nodes.map(|n| stats::reencode_ratio(n * epoch_batches, corpus_nodes)),
        "ratio",
    );
}

/// `core.score1_us` and `core.score64_ms`: `ServeModel::score` called
/// directly on one inductive request and on 64.
fn score(data: &Data, model: &ServeModel, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(data.seed ^ 0x5c0e);
    let requests: Vec<ScoreRequest> = (0..SCORE_BATCH)
        .map(|_| inductive(&mut rng, data))
        .collect();
    let time = |batch: &[ScoreRequest]| {
        let start = Instant::now();
        std::hint::black_box(model.score(batch).expect("scores"));
        start.elapsed().as_secs_f64()
    };
    let singles: Vec<f64> = (0..400)
        .map(|i| time(&requests[i % SCORE_BATCH..][..1]) * 1e6)
        .collect();
    report.metric("core.score1_us", stats::median(&singles), "us");
    let batches: Vec<f64> = (0..40).map(|_| time(&requests) * 1e3).collect();
    report.metric("core.score64_ms", stats::median(&batches), "ms");
}

/// The ingest path without HTTP: `ServeModel::ingest` over
/// `ingest-stream`'s first stream, one article per call, each call on
/// the model the previous one returned. Attach and diffuse times and
/// the affected base nodes come from each call's `IngestReport`; the
/// growth ratio from the calls' wall times. Then
/// `core.score_node_us`: `ServeModel::score_node` on the grown model,
/// over base and ingested articles.
fn ingest_and_read(data: &Data, base: &ServeModel, report: &mut Report) {
    let (mut grown, mut wall_ms, mut reports) = (None::<ServeModel>, Vec::new(), Vec::new());
    for batch in ingest::stream(data.seed, 0, data) {
        let current = grown.as_ref().unwrap_or(base);
        let start = Instant::now();
        let (next, ingested) = current.ingest(&batch).expect("ingest payload is valid");
        wall_ms.push(start.elapsed().as_secs_f64() * 1e3);
        reports.push(ingested);
        grown = Some(next);
    }
    let field = |f: fn(&fd_serve::IngestReport) -> f64| {
        stats::median(&reports.iter().map(f).collect::<Vec<_>>())
    };
    report.metric(
        "ingest.attach_ms",
        field(|r| r.attach_us as f64 / 1e3),
        "ms",
    );
    report.metric(
        "ingest.diffuse_ms",
        field(|r| r.diffuse_us as f64 / 1e3),
        "ms",
    );
    report.metric(
        "ingest.affected_base_nodes",
        field(|r| r.affected_base_nodes as f64),
        "count",
    );
    report.metric(
        "ingest.growth_ratio",
        stats::growth_ratio(&wall_ms, GROWTH_WINDOW),
        "ratio",
    );

    let grown = grown.expect("a non-empty stream");
    let articles = grown.corpus_sizes().0;
    let mut rng = StdRng::seed_from_u64(data.seed ^ 0x5c0d);
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let id = rng.gen_range(0..articles);
            let start = Instant::now();
            std::hint::black_box(grown.score_node(NodeType::Article, id).expect("scores"));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.metric("core.score_node_us", stats::median(&samples), "us");
}
