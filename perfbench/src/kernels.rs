//! Per-layer microbenchmarks timed from outside through public calls:
//! the HFLU encoder over the whole corpus and the fd-tensor kernels at
//! the model's real widths.

use crate::data::{Data, EXPLICIT_DIM};
use crate::{stats, Report};
use fd_core::{FakeDetectorConfig, Hflu};
use fd_graph::NodeType;
use fd_tensor::Matrix;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Instant;

/// Median wall time of `reps` calls of `f`, in seconds.
fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples).expect("at least one rep")
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
}

/// `core.hflu_encode_ms`: `Hflu::encode_batch` over every node of the
/// corpus (all three node types), with default-config encoders.
pub fn hflu_encode(data: &Data, report: &mut Report) {
    let config = FakeDetectorConfig::default();
    let mut params = fd_nn::Params::new();
    let mut rng = StdRng::seed_from_u64(data.seed);
    let vocab = data.tokenized.vocab.id_space();
    let units: Vec<(Hflu, usize)> = NodeType::ALL
        .iter()
        .zip(data.counts())
        .map(|(&ty, count)| {
            let hflu = Hflu::new(
                &mut params,
                "bench",
                ty,
                vocab,
                EXPLICIT_DIM,
                &config,
                &mut rng,
            );
            (hflu, count)
        })
        .collect();
    let ctx = data.ctx();
    let secs = median_secs(3, || {
        units
            .iter()
            .map(|(h, n)| h.encode_batch(&params, &ctx, *n).rows())
            .sum::<usize>()
    });
    report.metric("core.hflu_encode_ms", Some(secs * 1e3), "ms");
}

/// fd-tensor kernels: a tall-skinny GEMM at the GDU's shapes (articles
/// × `[x | z | t]` width times a 24-wide weight), a 512³ GEMM for
/// reference, and a row gather.
pub fn tensor(data: &Data, report: &mut Report) {
    let mut rng = StdRng::seed_from_u64(data.seed ^ 0x7e45);
    let config = FakeDetectorConfig::default();
    let n = data.corpus.articles.len();
    let k = config.hflu_out_dim(EXPLICIT_DIM) + 2 * config.gdu_hidden;
    let (a, w) = (
        random_matrix(&mut rng, n, k),
        random_matrix(&mut rng, k, config.gdu_hidden),
    );
    let secs = median_secs(15, || a.matmul(&w));
    let flops = 2.0 * (n * k * config.gdu_hidden) as f64;
    report.metric(
        "tensor.matmul_tall_gflops",
        Some(flops / secs / 1e9),
        "GFLOP/s",
    );

    let (a, b) = (
        random_matrix(&mut rng, 512, 512),
        random_matrix(&mut rng, 512, 512),
    );
    let secs = median_secs(5, || a.matmul(&b));
    report.metric(
        "tensor.matmul_512_gflops",
        Some(2.0 * 512f64.powi(3) / secs / 1e9),
        "GFLOP/s",
    );

    // The article-side gathers of one diffusion round: every article
    // reads its creator's state row.
    let src = random_matrix(&mut rng, data.corpus.creators.len(), config.gdu_hidden);
    let rows: Vec<Option<usize>> = (0..n)
        .map(|_| Some(rng.gen_range(0..data.corpus.creators.len())))
        .collect();
    let secs = median_secs(25, || fd_tensor::gather_rows(&src, &rows));
    // One row read and one row written per gathered row.
    let bytes = 2.0 * (n * config.gdu_hidden * std::mem::size_of::<f32>()) as f64;
    report.metric("tensor.gather_rows_gbps", Some(bytes / secs / 1e9), "GB/s");
}
