//! The Table-1-scale corpus every workload runs on, its feature
//! pipeline, and readings of this process's own memory counters.

use crate::{stats, Report};
use fd_data::{
    generate_at_scale, Corpus, CvSplits, ExperimentContext, ExplicitFeatures, GeneratorConfig,
    LabelMode, TokenizedCorpus, TrainSets,
};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Corpus scale: 1 is Table 1 of the paper (14,055 articles, 3,634
/// creators, 152 subjects).
const SCALE: f64 = 1.0;
/// χ² explicit-feature width per node type.
pub const EXPLICIT_DIM: usize = 60;
/// Token-sequence truncation length of the HFLU GRU.
pub const SEQ_LEN: usize = 12;
/// Vocabulary cap.
pub const MAX_VOCAB: usize = 6000;
pub const MODE: LabelMode = LabelMode::Binary;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Corpus, features and the training split (fold 0 of 10 per node
/// type, so 90% of each type trains).
pub struct Data {
    pub seed: u64,
    pub corpus: Corpus,
    pub tokenized: TokenizedCorpus,
    pub explicit: ExplicitFeatures,
    pub train: TrainSets,
}

/// Wall time of each set-up stage, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct DataTimes {
    pub generate_ms: f64,
    pub tokenize_ms: f64,
    pub features_ms: f64,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The training split of `corpus` for `seed`.
fn train_split(corpus: &Corpus, seed: u64) -> TrainSets {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    TrainSets {
        articles: CvSplits::new(corpus.articles.len(), 10, &mut rng).fold(0).0,
        creators: CvSplits::new(corpus.creators.len(), 10, &mut rng).fold(0).0,
        subjects: CvSplits::new(corpus.subjects.len(), 10, &mut rng).fold(0).0,
    }
}

impl Data {
    /// Generates the corpus for `seed` and runs the feature pipeline.
    pub fn build(seed: u64) -> (Data, DataTimes) {
        let start = Instant::now();
        let corpus = generate_at_scale(&GeneratorConfig::politifact(), SCALE, seed);
        let generate_ms = ms_since(start);
        let start = Instant::now();
        let tokenized = TokenizedCorpus::build(&corpus, SEQ_LEN, MAX_VOCAB);
        let tokenize_ms = ms_since(start);
        let start = Instant::now();
        let train = train_split(&corpus, seed);
        let explicit = ExplicitFeatures::extract(&corpus, &tokenized, &train, EXPLICIT_DIM);
        let features_ms = ms_since(start);
        let data = Data {
            seed,
            corpus,
            tokenized,
            explicit,
            train,
        };
        (
            data,
            DataTimes {
                generate_ms,
                tokenize_ms,
                features_ms,
            },
        )
    }

    pub fn ctx(&self) -> ExperimentContext<'_> {
        ExperimentContext {
            corpus: &self.corpus,
            tokenized: &self.tokenized,
            explicit: &self.explicit,
            train: &self.train,
            mode: MODE,
            seed: self.seed,
        }
    }

    /// `[articles, creators, subjects]` of the base corpus.
    pub fn counts(&self) -> [usize; 3] {
        [
            self.corpus.articles.len(),
            self.corpus.creators.len(),
            self.corpus.subjects.len(),
        ]
    }
}

/// Runs `build` `SETUPS` times (dropping all but the last result) and
/// returns the last result with the set-up wall times and data-stage
/// times of every attempt.
pub fn repeated_setup<T>(
    seed: u64,
    mut build: impl FnMut(Data) -> T,
    mut teardown: impl FnMut(T),
) -> (T, Vec<f64>, Vec<DataTimes>) {
    let (mut setup_s, mut stage_times, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..SETUPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let start = Instant::now();
        let (data, times) = Data::build(seed);
        let built = build(data);
        setup_s.push(start.elapsed().as_secs_f64());
        stage_times.push(times);
        last = Some(built);
    }
    eprintln!("set-up times (s): {setup_s:?}");
    (last.expect("at least one set-up"), setup_s, stage_times)
}

/// The per-stage set-up figures every traced run reports.
pub fn report_stage_times(times: &[DataTimes], report: &mut Report) {
    let median_of =
        |f: fn(&DataTimes) -> f64| stats::median(&times.iter().map(f).collect::<Vec<_>>());
    report.metric("data.generate_ms", median_of(|t| t.generate_ms), "ms");
    report.metric("data.tokenize_ms", median_of(|t| t.tokenize_ms), "ms");
    report.metric("data.features_ms", median_of(|t| t.features_ms), "ms");
}

/// Field `key` of `/proc/self/status`, in kB.
fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// This process's peak resident set (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Minor page faults this process has taken so far.
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; minflt is field 10.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}
