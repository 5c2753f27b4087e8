//! `serve-mix`: a router in front of two shard workers, plus an
//! unsharded fd-serve, all with default configs. Every request body is
//! sent once through the router and once straight to the unsharded
//! server, from one closed-loop client thread.

use crate::checks::{self, Tally};
use crate::client::{Client, Reply};
use crate::data::{
    self, repeated_setup, report_stage_times, Data, EXPLICIT_DIM, MAX_VOCAB, SEQ_LEN,
};
use crate::obs::{self, Snapshot, SpanCollector};
use crate::{log_figure, probe, stats, Report};
use fd_core::{FakeDetector, FakeDetectorConfig, ScoreRequest, TrainedFakeDetector};
use fd_graph::NodeType;
use fd_router::{Router, RouterConfig, Topology};
use fd_serve::{mode_name, ServeConfig, ServeModel, Server, TrainBundle};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Single predicts per round, every fourth of them by id.
const SINGLES_PER_ROUND: usize = 12;
/// Items in the round's one `/v1/predict_batch`.
const BATCH_ITEMS: usize = 64;
const SHARDS: usize = 2;

/// The served weights: the seeded initialiser's (`fit` with zero
/// epochs), pinned to two diffusion rounds. Serving cost does not
/// depend on the weight values, and training here would put a
/// full-graph epoch (~1.5 GiB peak) into the serving workloads' set-up
/// and peak RSS.
fn initial_weights(data: &Data) -> TrainedFakeDetector {
    let config = FakeDetectorConfig {
        epochs: 0,
        diffusion_rounds: 2,
        validation_fraction: 0.0,
        ..FakeDetectorConfig::default()
    };
    FakeDetector::new(config).fit(&data.ctx())
}

/// Loads a serving model the way `fdctl serve` does: from a serialised
/// train bundle plus the corpus. Returns the model and the weights'
/// JSON, from which the checks rebuild their own copy.
pub fn load_model(data: &Data) -> (ServeModel, String) {
    let model_json = initial_weights(data).to_json();
    let bundle = TrainBundle {
        model_json: model_json.clone(),
        train: data.train.clone().into(),
        mode: mode_name(data::MODE).into(),
        explicit_dim: EXPLICIT_DIM,
        seq_len: SEQ_LEN,
        max_vocab: MAX_VOCAB,
    };
    let bundle_json = serde_json::to_string(&bundle).expect("bundle serialises");
    let model =
        ServeModel::from_bundle_json(data.corpus.clone(), &bundle_json).expect("bundle loads");
    (model, model_json)
}

/// An fd-serve config with the defaults and an ephemeral port.
pub fn serve_config(shard: Option<(usize, usize)>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        shard,
        ..ServeConfig::default()
    }
}

/// JSON text of a string.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    fd_obs::push_json_string(&mut out, s);
    out
}

fn type_name(ty: NodeType) -> &'static str {
    match ty {
        NodeType::Article => "article",
        NodeType::Creator => "creator",
        NodeType::Subject => "subject",
    }
}

/// `k` distinct indices below `n`.
pub fn distinct(rng: &mut StdRng, k: usize, n: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(k);
    while out.len() < k.min(n) {
        let pick = rng.gen_range(0..n);
        if !out.contains(&pick) {
            out.push(pick);
        }
    }
    out
}

enum Op {
    ById(NodeType, usize),
    Inductive(ScoreRequest),
    Batch(Vec<ScoreRequest>),
}

/// An inductive article request: a corpus article's text under a
/// random creator and one to three distinct subjects.
pub fn inductive(rng: &mut StdRng, data: &Data) -> ScoreRequest {
    let [articles, creators, subjects] = data.counts();
    let text = data.corpus.articles[rng.gen_range(0..articles)]
        .text
        .clone();
    let creator = rng.gen_range(0..creators);
    let k = rng.gen_range(1..=3);
    ScoreRequest::article(text, Some(creator), distinct(rng, k, subjects))
}

fn inductive_json(r: &ScoreRequest) -> String {
    let subjects: Vec<String> = r.subjects.iter().map(usize::to_string).collect();
    format!(
        "{{\"text\":{},\"creator\":{},\"subjects\":[{}]}}",
        json_str(&r.text),
        r.creator.expect("articles name a creator"),
        subjects.join(",")
    )
}

impl Op {
    fn path(&self) -> &'static str {
        match self {
            Op::Batch(_) => "/v1/predict_batch",
            _ => "/v1/predict",
        }
    }

    fn body(&self) -> String {
        match self {
            Op::ById(ty, id) => format!("{{\"node_type\":\"{}\",\"id\":{id}}}", type_name(*ty)),
            Op::Inductive(r) => inductive_json(r),
            Op::Batch(items) => {
                let items: Vec<String> = items.iter().map(inductive_json).collect();
                format!("{{\"requests\":[{}]}}", items.join(","))
            }
        }
    }

    /// Each probability vector the response must carry, computed by
    /// calling the model directly on each request alone.
    fn reference(&self, model: &ServeModel) -> Result<Vec<Vec<f32>>, String> {
        match self {
            Op::ById(ty, id) => Ok(vec![model.score_node(*ty, *id)?]),
            Op::Inductive(r) => model.score(std::slice::from_ref(r)),
            Op::Batch(items) => items
                .iter()
                .map(|r| Ok(model.score(std::slice::from_ref(r))?.remove(0)))
                .collect(),
        }
    }

    fn served(&self, body: &str) -> Option<Vec<Vec<f32>>> {
        match self {
            Op::Batch(_) => checks::batch_results(body),
            _ => checks::predict_probabilities(body).map(|p| vec![p]),
        }
    }
}

/// The operations of round `round`: single predicts (a quarter by id,
/// the rest inductive), then one 64-item batch.
fn round_ops(seed: u64, round: u64, data: &Data) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let counts = data.counts();
    let mut ops: Vec<Op> = (0..SINGLES_PER_ROUND)
        .map(|k| {
            if k % 4 == 0 {
                let slot = rng.gen_range(0..3);
                Op::ById(NodeType::ALL[slot], rng.gen_range(0..counts[slot]))
            } else {
                Op::Inductive(inductive(&mut rng, data))
            }
        })
        .collect();
    ops.push(Op::Batch(
        (0..BATCH_ITEMS)
            .map(|_| inductive(&mut rng, data))
            .collect(),
    ));
    ops
}

struct Sent {
    op: Op,
    request_id: String,
    routed: (std::io::Result<Reply>, f64),
    direct: (std::io::Result<Reply>, f64),
    warmup: bool,
    traced: bool,
}

struct Tier {
    workers: Vec<Server>,
    direct: Server,
    router: Router,
}

impl Tier {
    fn start(model: &Arc<ServeModel>) -> Tier {
        let workers: Vec<Server> = (0..SHARDS)
            .map(|i| {
                Server::start(Arc::clone(model), &serve_config(Some((i, SHARDS))))
                    .expect("shard worker starts")
            })
            .collect();
        let spec: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
        let topology = Topology::parse(&spec.join(";")).expect("topology parses");
        let router = Router::start(RouterConfig::new(topology)).expect("router starts");
        let direct = Server::start(Arc::clone(model), &serve_config(None)).expect("server starts");
        Tier {
            workers,
            direct,
            router,
        }
    }

    fn shutdown(self) {
        self.router.shutdown();
        for w in self.workers {
            w.shutdown();
        }
        self.direct.shutdown();
    }
}

fn timed_post(
    client: &mut Client,
    op: &Op,
    body: &str,
    request_id: &str,
) -> (std::io::Result<Reply>, f64) {
    let start = Instant::now();
    let reply = client.post(op.path(), body, request_id);
    (reply, start.elapsed().as_secs_f64() * 1e3)
}

/// Rounds sent before any latency is kept: the servers' threads,
/// connections and caches settle, and background work left by set-up
/// dies down.
const WARMUP: Duration = Duration::from_secs(2);

/// Sends whole rounds, continuing the round numbering of `sent`, until
/// `until`; rounds that start before `warm_until` are warm-up. The
/// clients are the router's and the unsharded server's connections.
fn drive(
    seed: u64,
    data: &Data,
    [routed, direct]: &mut [Client; 2],
    warm_until: Instant,
    until: Instant,
    sent: &mut Vec<Sent>,
) {
    let traced = fd_obs::trace::enabled();
    let mut round = (sent.len() / (SINGLES_PER_ROUND + 1)) as u64;
    loop {
        let now = Instant::now();
        let warmup = now < warm_until;
        if !warmup && now >= until {
            break;
        }
        for (k, op) in round_ops(seed, round, data).into_iter().enumerate() {
            let body = op.body();
            let request_id = format!("{round}.{k}");
            // Alternate which side goes first, so neither always finds
            // the other's leftovers in the caches.
            let (r, d) = if (round as usize + k).is_multiple_of(2) {
                let r = timed_post(routed, &op, &body, &format!("r{request_id}"));
                (r, timed_post(direct, &op, &body, &format!("d{request_id}")))
            } else {
                let d = timed_post(direct, &op, &body, &format!("d{request_id}"));
                (timed_post(routed, &op, &body, &format!("r{request_id}")), d)
            };
            sent.push(Sent {
                op,
                request_id,
                routed: r,
                direct: d,
                warmup,
                traced,
            });
        }
        round += 1;
    }
}

fn check_sent(sent: &[Sent], model: &ServeModel, tally: &mut Tally) {
    for s in sent {
        let reference = s.op.reference(model);
        let direct_body = match &s.direct.0 {
            Ok((200, body)) => Some(body.as_str()),
            _ => None,
        };
        for (side, reply) in [("routed", &s.routed.0), ("direct", &s.direct.0)] {
            let body = match reply {
                Ok((200, body)) => body,
                Ok((status, body)) => {
                    eprintln!("{side} {}: status {status}: {body}", s.request_id);
                    tally.record(false);
                    continue;
                }
                Err(e) => {
                    eprintln!("{side} {}: {e}", s.request_id);
                    tally.record(false);
                    continue;
                }
            };
            let result = match (&reference, s.op.served(body)) {
                (Err(e), _) => Err(format!("reference: {e}")),
                (Ok(_), None) => Err(format!("unparseable response {body}")),
                (Ok(expected), Some(served)) if expected.len() != served.len() => Err(format!(
                    "{} results for {} requests",
                    served.len(),
                    expected.len()
                )),
                (Ok(expected), Some(served)) => expected
                    .iter()
                    .zip(&served)
                    .try_for_each(|(e, s)| checks::bitwise_equal(e, Some(s))),
            };
            let result = result.and_then(|()| match (side, direct_body) {
                ("routed", Some(d)) if d != body => Err("routed body differs from direct".into()),
                _ => Ok(()),
            });
            tally.check(&format!("{side} {}", s.request_id), result);
        }
    }
}

fn latencies(sent: &[Sent], traced: bool, pick: impl Fn(&Sent) -> Option<f64>) -> Vec<f64> {
    sent.iter()
        .filter(|s| !s.warmup && s.traced == traced)
        .filter_map(pick)
        .collect()
}

fn is_single(s: &Sent) -> bool {
    !matches!(s.op, Op::Batch(_))
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let ((data, model, tier), setup_s, stage_times) = repeated_setup(
        seed,
        |data| {
            let model = Arc::new(load_model(&data).0);
            let tier = Tier::start(&model);
            (data, model, tier)
        },
        |(_, _, tier)| tier.shutdown(),
    );
    let mut clients = [tier.router.local_addr(), tier.direct.local_addr()]
        .map(|addr| Client::connect(&addr.to_string()).expect("connect to the tier"));
    let mut sent = Vec::new();
    let mut report = Report::default();
    let warm_until = Instant::now() + WARMUP;
    let measure = Duration::from_secs(seconds);

    if !traced {
        drive(
            seed,
            &data,
            &mut clients,
            warm_until,
            warm_until + measure,
            &mut sent,
        );
        let peak_rss_mb = data::peak_rss_mb();
        drop(clients);
        tier.shutdown();
        check_sent(&sent, &model, &mut report.tally);
        let routed_single = latencies(&sent, false, |s| is_single(s).then_some(s.routed.1));
        let direct_single = latencies(&sent, false, |s| is_single(s).then_some(s.direct.1));
        let routed_batch = latencies(&sent, false, |s| (!is_single(s)).then_some(s.routed.1));
        stats::log_latencies("routed single predict ms", &routed_single);
        stats::log_latencies("direct single predict ms", &direct_single);
        stats::log_latencies("routed 64-item batch ms", &routed_batch);
        report.metric("setup_s", stats::median(&setup_s), "s");
        report.metric("peak_rss_mb", Some(peak_rss_mb), "MiB");
        report.metric("op_p50_ms", stats::median(&routed_single), "ms");
        return report;
    }

    // Traced run: half the time untraced, for the overhead figure, then
    // half traced, which every per-layer figure comes from.
    fd_obs::trace::set_enabled(false);
    let half = warm_until + measure / 2;
    drive(seed, &data, &mut clients, warm_until, half, &mut sent);
    fd_obs::trace::set_enabled(true);
    let collector = SpanCollector::start();
    let before = Snapshot::take();
    let (faults, traced_from) = (data::minor_faults(), sent.len());
    drive(
        seed,
        &data,
        &mut clients,
        half,
        half + measure / 2,
        &mut sent,
    );
    let minor_faults = data::minor_faults() - faults;
    let after = Snapshot::take();
    let spans = collector.finish();
    drop(clients);
    tier.shutdown();
    check_sent(&sent, &model, &mut report.tally);

    report_stage_times(&stage_times, &mut report);
    // Faults per HTTP request, routed and direct.
    let traced_requests = 2 * (sent.len() - traced_from);
    report.metric(
        "mem.minor_faults",
        Some(minor_faults as f64 / traced_requests as f64),
        "count",
    );
    // The tier's own instruments, which only this workload has.
    let mean_of = |name: &str| after.hist(name).since(before.hist(name)).mean();
    log_figure(
        "serve.queue_wait_ms",
        mean_of("serve.queue_wait_us").map(|v| v / 1e3),
        "ms",
    );
    log_figure(
        "serve.batch_score_ms",
        mean_of("serve.batch_score_us").map(|v| v / 1e3),
        "ms",
    );
    log_figure(
        "serve.batch_size_mean",
        mean_of("serve.batch_size"),
        "count",
    );
    log_figure(
        "router.attempt_ms",
        mean_of("router.attempt_us").map(|v| v / 1e3),
        "ms",
    );
    let parse: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "http.parse")
        .map(|s| s.dur_us as f64)
        .collect();
    log_figure("serve.parse_us", stats::mean(&parse), "us");

    // Upstream calls the routed requests needed: one per single, one
    // per chunk of a batch (the router splits a batch into one
    // contiguous chunk per shard). Attempts beyond that are retries or
    // hedges, so the ratio is 1.0 on a healthy tier.
    let needed: usize = sent
        .iter()
        .filter(|s| s.traced)
        .map(|s| match &s.op {
            Op::Batch(items) => items.len().div_ceil(items.len().div_ceil(SHARDS)),
            _ => 1,
        })
        .sum();
    let attempts: f64 = (0..SHARDS)
        .map(|i| {
            let name = format!("router.attempts.s{i}r0");
            after.counter(&name) - before.counter(&name)
        })
        .sum();
    log_figure(
        "router.attempts_per_request",
        Some(attempts / needed as f64),
        "ratio",
    );
    let routed_single = latencies(&sent, true, |s| is_single(s).then_some(s.routed.1));
    let direct_single = latencies(&sent, true, |s| is_single(s).then_some(s.direct.1));
    log_figure(
        "router.hop_ms",
        stats::hop_ms(&routed_single, &direct_single),
        "ms",
    );

    // Share of the direct requests' round trips that no fd-serve span
    // (parse, queue wait, assembly, score, respond) covers.
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for span in spans.iter().filter(|s| s.name != "request") {
        children
            .entry(span.trace_id)
            .or_default()
            .push((span.start_us, span.start_us + span.dur_us));
    }
    let (mut wall_us, mut covered_us) = (0.0, 0.0);
    for s in sent.iter().filter(|s| s.traced) {
        if let Some(intervals) = children.remove(&obs::trace_id_of(&format!("d{}", s.request_id))) {
            wall_us += s.direct.1 * 1e3;
            covered_us += stats::union_len(intervals) as f64;
        }
    }
    report.metric(
        "unaccounted_share",
        (wall_us > 0.0).then(|| 1.0 - covered_us / wall_us),
        "ratio",
    );
    let untraced_p50 = stats::median(&latencies(&sent, false, |s| {
        is_single(s).then_some(s.routed.1)
    }));
    if let (Some(off), Some(on)) = (untraced_p50, stats::median(&routed_single)) {
        report.metric("trace.overhead_pct", Some(100.0 * (on - off) / off), "%");
    }

    drop(model);
    probe::run(&data, &mut report);
    report
}
