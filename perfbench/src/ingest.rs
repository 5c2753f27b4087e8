//! `ingest-stream`: one fd-serve. One connection streams sequential
//! single-article `/v1/ingest`s while a second sends by-id reads of
//! base and just-ingested articles.

use crate::checks::{self, Tally};
use crate::client::Client;
use crate::data::{self, repeated_setup, report_stage_times, Data};
use crate::serve::{distinct, json_str, load_model, serve_config};
use crate::{log_figure, obs, probe, stats, Report};
use fd_core::TrainedFakeDetector;
use fd_graph::{GraphOverlay, NodeType};
use fd_serve::{IngestArticle, IngestBatch, IngestCreator, IngestReport, ServeModel, Server};
use fd_tensor::Matrix;
use fd_text::{encode_sequence, Tokenizer};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ingests per stream. Fixed, so the cost of the growing overlay is the
/// same in every run.
const STREAM: usize = 500;
/// Fewest streams per run (per half of a traced run), each on a fresh
/// server over the same loaded model and each with its own payloads;
/// latencies are pooled over them.
const MIN_PASSES: usize = 2;
/// Nominal stream length on a 2-core machine, used only to turn
/// `--seconds` into a fixed stream count, so every run of one length
/// does the same work and holds the same memory.
const NOMINAL_STREAM_S: f64 = 7.5;
/// Every `NEW_CREATOR_EVERY`-th ingest also attaches a new creator,
/// who authors that article.
const NEW_CREATOR_EVERY: usize = 10;
/// Window of `ingest.growth_ratio`.
const GROWTH_WINDOW: usize = 100;
/// DESIGN.md's bound between incremental and full re-diffusion.
const DELTA_BOUND: f32 = 1e-5;
/// The reader's pause between reads. Reads stay frequent enough to
/// overlap every ingest many times, without a second client thread
/// keeping a whole core busy and turning ingest latency into a measure
/// of CPU contention.
const READ_PAUSE: Duration = Duration::from_millis(1);

/// Ingest `i` of the stream: a random corpus article's text, creator
/// and first three subjects (so creators and subjects are drawn in
/// proportion to how much they publish, as new stories are), or one
/// random subject when it has none. Every `NEW_CREATOR_EVERY`-th
/// ingest is authored by a new creator attached in the same batch.
/// `creators_so_far` is the combined creator count before this ingest.
fn payload(seed: u64, i: usize, data: &Data, creators_so_far: usize) -> IngestBatch {
    let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let [articles, creators, subjects] = data.counts();
    let graph = &data.corpus.graph;
    let source = rng.gen_range(0..articles);
    let text = data.corpus.articles[source].text.clone();
    let mut cited: Vec<usize> = graph
        .subjects_of_article(source)
        .iter()
        .copied()
        .take(3)
        .collect();
    if cited.is_empty() {
        cited = distinct(&mut rng, 1, subjects);
    }
    let mut batch = IngestBatch::default();
    let creator = if i % NEW_CREATOR_EVERY == NEW_CREATOR_EVERY - 1 {
        let profile = data.corpus.creators[rng.gen_range(0..creators)]
            .profile
            .clone();
        batch.creators.push(IngestCreator { profile });
        creators_so_far
    } else {
        graph
            .author_of(source)
            .unwrap_or_else(|| rng.gen_range(0..creators))
    };
    batch.articles.push(IngestArticle {
        text,
        creator,
        subjects: cited,
    });
    batch
}

fn payload_json(batch: &IngestBatch) -> String {
    let creators: Vec<String> = batch
        .creators
        .iter()
        .map(|c| format!("{{\"profile\":{}}}", json_str(&c.profile)))
        .collect();
    let articles: Vec<String> = batch
        .articles
        .iter()
        .map(|a| {
            let subjects: Vec<String> = a.subjects.iter().map(usize::to_string).collect();
            format!(
                "{{\"text\":{},\"creator\":{},\"subjects\":[{}]}}",
                json_str(&a.text),
                a.creator,
                subjects.join(",")
            )
        })
        .collect();
    format!(
        "{{\"creators\":[{}],\"articles\":[{}]}}",
        creators.join(","),
        articles.join(",")
    )
}

/// The payloads of stream `pass`.
pub fn stream(seed: u64, pass: usize, data: &Data) -> Vec<IngestBatch> {
    let mut creators = data.counts()[1];
    let seed = seed ^ 0x1a9e ^ ((pass as u64) << 32);
    (0..STREAM)
        .map(|i| {
            let batch = payload(seed, i, data, creators);
            creators += batch.creators.len();
            batch
        })
        .collect()
}

struct Ingested {
    ms: f64,
    report: Option<IngestReport>,
}

struct Read {
    ms: f64,
    id: usize,
    /// What the read must return: the base model's probabilities for a
    /// base article, the ingest response's for an ingested one.
    expected: Vec<f32>,
    reply: std::io::Result<(u16, String)>,
}

struct StreamRun {
    /// The stream's number within the run, as in its request ids.
    pass: usize,
    ingests: Vec<Ingested>,
    reads: Vec<Read>,
    failures: Tally,
    /// End-of-stream readouts, keyed by (node-type slot, combined id).
    served: HashMap<(usize, usize), Option<Vec<f32>>>,
}

/// Streams every payload through a fresh server over `base`, with a
/// reader thread running alongside until the stream ends.
fn run_stream(
    seed: u64,
    pass: usize,
    data: &Data,
    base: &Arc<ServeModel>,
    payloads: &[IngestBatch],
) -> StreamRun {
    let server = Server::start(Arc::clone(base), &serve_config(None)).expect("server starts");
    let addr = server.local_addr().to_string();
    let done = Arc::new(AtomicBool::new(false));
    // The article ingested last, with the probabilities its response gave.
    let latest = Arc::new(Mutex::new(None::<(usize, Vec<f32>)>));
    let base_articles = data.counts()[0];
    let reader = {
        let (addr, done, latest, base) = (
            addr.clone(),
            Arc::clone(&done),
            Arc::clone(&latest),
            Arc::clone(base),
        );
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr).expect("reader connects");
            let mut rng = StdRng::seed_from_u64(seed ^ 0x4ead ^ pass as u64);
            let mut reads = Vec::new();
            let mut k = 0usize;
            while !done.load(Ordering::SeqCst) {
                let just_ingested = latest
                    .lock()
                    .expect("latest ingest")
                    .clone()
                    .filter(|_| k % 2 == 1);
                let (id, expected) = match just_ingested {
                    Some(pair) => pair,
                    None => {
                        let id = rng.gen_range(0..base_articles);
                        (
                            id,
                            base.score_node(NodeType::Article, id)
                                .expect("base article scores"),
                        )
                    }
                };
                let body = format!("{{\"node_type\":\"article\",\"id\":{id}}}");
                let start = Instant::now();
                let reply = client.post("/v1/predict", &body, &format!("read{pass}.{k}"));
                reads.push(Read {
                    ms: start.elapsed().as_secs_f64() * 1e3,
                    id,
                    expected,
                    reply,
                });
                k += 1;
                std::thread::sleep(READ_PAUSE);
            }
            reads
        })
    };

    let mut client = Client::connect(&addr).expect("ingest connection");
    let mut ingests = Vec::with_capacity(payloads.len());
    let mut failures = Tally::default();
    for (i, batch) in payloads.iter().enumerate() {
        let body = payload_json(batch);
        let start = Instant::now();
        let reply = client.post("/v1/ingest", &body, &format!("ingest{pass}.{i}"));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let report = match reply {
            Ok((200, body)) => serde_json::from_str::<IngestReport>(&body).ok(),
            Ok((status, body)) => {
                eprintln!("ingest {i}: status {status}: {body}");
                None
            }
            Err(e) => {
                eprintln!("ingest {i}: {e}");
                None
            }
        };
        failures.record(report.is_some());
        if let Some(article) = report.as_ref().and_then(|r| r.articles.first()) {
            *latest.lock().expect("latest ingest") =
                Some((article.id, article.probabilities.clone()));
        }
        ingests.push(Ingested { ms, report });
    }
    done.store(true, Ordering::SeqCst);
    let reads = reader.join().expect("reader thread");

    // The end-of-stream readout the full re-diffusion is checked against.
    let mut served: HashMap<(usize, usize), Option<Vec<f32>>> = HashMap::new();
    for ingest in ingests.iter().filter_map(|i| i.report.as_ref()) {
        for (slot, nodes) in [(0, &ingest.articles), (1, &ingest.creators)] {
            for node in nodes {
                let ty = if slot == 0 { "article" } else { "creator" };
                let body = format!("{{\"node_type\":\"{ty}\",\"id\":{}}}", node.id);
                let probs = match client.post("/v1/predict", &body, "final") {
                    Ok((200, body)) => checks::predict_probabilities(&body),
                    _ => None,
                };
                served.insert((slot, node.id), probs);
            }
        }
    }
    drop(client);
    server.shutdown();
    StreamRun {
        pass,
        ingests,
        reads,
        failures,
        served,
    }
}

/// Full re-diffusion of the extended graph, built apart from the
/// server from the payloads sent, through the frozen feature pipeline.
/// Returns the final-round probabilities of every ingested article and
/// creator, keyed like the end-of-stream readout.
fn full_recompute(
    data: &Data,
    trained: &TrainedFakeDetector,
    payloads: &[IngestBatch],
) -> HashMap<(usize, usize), Vec<f32>> {
    let ctx = data.ctx();
    let tokenizer = Tokenizer::default();
    let mut overlay = GraphOverlay::new(&data.corpus.graph);
    let mut explicit: [Vec<Vec<f32>>; 3] = Default::default();
    let mut sequences: [Vec<Vec<usize>>; 3] = Default::default();
    let mut featurise = |slot: usize, text: &str| {
        let tokens = tokenizer.tokenize(text);
        explicit[slot].push(
            ctx.explicit
                .featurise_tokens(NodeType::ALL[slot], &tokens)
                .row(0)
                .to_vec(),
        );
        sequences[slot].push(encode_sequence(
            &tokens,
            &ctx.tokenized.vocab,
            ctx.tokenized.seq_len,
        ));
    };
    for batch in payloads {
        for creator in &batch.creators {
            overlay.add_creator();
            featurise(1, &creator.profile);
        }
        for article in &batch.articles {
            overlay
                .add_article(article.creator, &article.subjects)
                .expect("payload is valid");
            featurise(0, &article.text);
        }
    }
    let new_explicit: [Matrix; 3] = std::array::from_fn(|slot| {
        let mut m = Matrix::zeros(explicit[slot].len(), ctx.explicit.dim);
        for (k, row) in explicit[slot].iter().enumerate() {
            m.row_mut(k).copy_from_slice(row);
        }
        m
    });
    let history = trained
        .extended_states_rounds(&ctx, &overlay, &new_explicit, &sequences)
        .expect("extended re-diffusion");
    let last = history.last().expect("at least one round");
    let base = data.counts();
    let mut out = HashMap::new();
    for slot in [0, 1] {
        for id in base[slot]..last[slot].rows() {
            out.insert(
                (slot, id),
                trained.node_probabilities(NodeType::ALL[slot], last[slot].row(id)),
            );
        }
    }
    out
}

fn check_run(run: &StreamRun, reference: &HashMap<(usize, usize), Vec<f32>>, tally: &mut Tally) {
    tally.attempted += run.failures.attempted;
    tally.failed += run.failures.failed;
    for read in &run.reads {
        match &read.reply {
            Ok((200, body)) => tally.check(
                &format!("read of article {}", read.id),
                checks::bitwise_equal(
                    &read.expected,
                    checks::predict_probabilities(body).as_deref(),
                ),
            ),
            other => {
                eprintln!("read of article {}: {other:?}", read.id);
                tally.record(false);
            }
        }
    }
    // Every node the server should hold, whether or not its ingest or
    // readout came back: a missing one is a dropped response.
    for (key, expected) in reference {
        let got = run.served.get(key).cloned().flatten();
        tally.check(
            &format!("node {key:?} vs full re-diffusion"),
            checks::within(expected, got.as_deref(), DELTA_BOUND),
        );
    }
}

/// Runs the workload: `max(MIN_PASSES, ceil(seconds / NOMINAL_STREAM_S))`
/// whole streams, each on a fresh server. A traced run streams half
/// that time untraced, for the overhead figure, then half traced.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let ((data, base, model_json), setup_s, stage_times) = repeated_setup(
        seed,
        |data| {
            let (model, json) = load_model(&data);
            let model = Arc::new(model);
            // Start and stop a server so set-up pays what a cold start
            // does; each stream runs on a fresh server over `model`.
            Server::start(Arc::clone(&model), &serve_config(None))
                .expect("server starts")
                .shutdown();
            (data, model, json)
        },
        drop,
    );
    // Stream `pass` has the same payloads in both halves of a traced run.
    let streams = |traced_now: bool, seconds: f64| -> Vec<(StreamRun, Vec<IngestBatch>)> {
        fd_obs::trace::set_enabled(traced_now);
        let count = ((seconds / NOMINAL_STREAM_S).ceil() as usize).max(MIN_PASSES);
        (0..count)
            .map(|pass| {
                let payloads = stream(seed, pass, &data);
                (run_stream(seed, pass, &data, &base, &payloads), payloads)
            })
            .collect()
    };
    let mut report = Report::default();
    let seconds = seconds as f64;

    // A traced run first streams untraced, for the overhead figure.
    let untraced = traced.then(|| streams(false, seconds / 2.0));
    let collector = traced.then(obs::SpanCollector::start);
    let faults = data::minor_faults();
    let runs = streams(traced, if traced { seconds / 2.0 } else { seconds });
    let minor_faults = data::minor_faults() - faults;
    let spans = collector
        .map(obs::SpanCollector::finish)
        .unwrap_or_default();
    let peak_rss_mb = data::peak_rss_mb();
    eprintln!("streams of {STREAM} ingests: {}", runs.len());

    let trained = TrainedFakeDetector::from_json(&model_json).expect("weights parse");
    for (run, p) in &runs {
        check_run(run, &full_recompute(&data, &trained, p), &mut report.tally);
    }
    let runs: Vec<StreamRun> = runs.into_iter().map(|(run, _)| run).collect();

    let ingest_ms = |runs: &[StreamRun]| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| r.ingests.iter().map(|i| i.ms))
            .collect()
    };
    let all_ingest_ms = ingest_ms(&runs);
    stats::log_latencies("ingest ms", &all_ingest_ms);
    if !traced {
        let read_ms: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.reads.iter().map(|r| r.ms))
            .collect();
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("peak_rss_mb", Some(peak_rss_mb), "MiB");
        report.metric("op_p50_ms", stats::median(&read_ms), "ms");
        return report;
    }

    report_stage_times(&stage_times, &mut report);
    report.metric(
        "mem.minor_faults",
        Some(minor_faults as f64 / all_ingest_ms.len() as f64),
        "count",
    );
    // The figures of the HTTP ingests themselves, which only this
    // workload has; the per-layer metrics of the ingest path come from
    // the probe's `ServeModel::ingest` calls.
    let reports: Vec<&IngestReport> = runs
        .iter()
        .flat_map(|r| r.ingests.iter().filter_map(|i| i.report.as_ref()))
        .collect();
    let field = |f: fn(&IngestReport) -> f64| {
        stats::median(&reports.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    log_figure(
        "ingest.attach_ms over HTTP",
        field(|r| r.attach_us as f64 / 1e3),
        "ms",
    );
    log_figure(
        "ingest.diffuse_ms over HTTP",
        field(|r| r.diffuse_us as f64 / 1e3),
        "ms",
    );
    log_figure(
        "ingest.affected_base_nodes over HTTP",
        field(|r| r.affected_base_nodes as f64),
        "count",
    );
    let http_ms: Vec<f64> = runs
        .iter()
        .flat_map(|r| &r.ingests)
        .filter_map(|i| {
            i.report
                .as_ref()
                .map(|r| i.ms - (r.attach_us + r.diffuse_us) as f64 / 1e3)
        })
        .collect();
    log_figure("ingest.http_ms", stats::median(&http_ms), "ms");
    let growth: Option<Vec<f64>> = runs
        .iter()
        .map(|r| stats::growth_ratio(&ingest_ms(std::slice::from_ref(r)), GROWTH_WINDOW))
        .collect();
    log_figure(
        "ingest.growth_ratio over HTTP",
        growth.and_then(|g| stats::mean(&g)),
        "ratio",
    );

    // Share of the ingest round trips that neither the response's own
    // attach/diffuse timings nor the parse/respond spans cover.
    let mut span_us: HashMap<u64, f64> = HashMap::new();
    for s in spans
        .iter()
        .filter(|s| s.name == "http.parse" || s.name == "respond")
    {
        *span_us.entry(s.trace_id).or_default() += s.dur_us as f64;
    }
    let (mut wall_us, mut covered_us) = (0.0, 0.0);
    for run in &runs {
        for (i, ingest) in run.ingests.iter().enumerate() {
            if let Some(r) = &ingest.report {
                let id = obs::trace_id_of(&format!("ingest{}.{i}", run.pass));
                wall_us += ingest.ms * 1e3;
                covered_us +=
                    (r.attach_us + r.diffuse_us) as f64 + span_us.get(&id).copied().unwrap_or(0.0);
            }
        }
    }
    report.metric(
        "unaccounted_share",
        (wall_us > 0.0).then(|| 1.0 - covered_us / wall_us),
        "ratio",
    );
    if let (Some(off), Some(on)) = (
        untraced.and_then(|u| {
            let u: Vec<StreamRun> = u.into_iter().map(|(run, _)| run).collect();
            stats::median(&ingest_ms(&u))
        }),
        stats::median(&all_ingest_ms),
    ) {
        report.metric("trace.overhead_pct", Some(100.0 * (on - off) / off), "%");
    }

    drop((runs, base));
    probe::run(&data, &mut report);
    report
}
