//! Sparse-vs-dense farm solver benchmarks.
//!
//! Below `SPARSE_FARM_CUTOFF` (1 024 composite states) the imperfect
//! coverage farm runs the dense GTH pipeline; above it, assembly goes
//! straight to CSR triplets and the steady state comes from the sparse
//! Gauss–Seidel → power → Jacobi chain. These cases bracket the cutoff:
//!
//! * `dense_500` — 500 servers, 1 001 states: dense GTH route.
//! * `sparse_2000` / `sparse_8000` — 4 001 and 16 001 states: sparse
//!   route; a dense generator for the 8 000-server case alone would be
//!   2 GB, so these sizes are simply unreachable without the CSR path.
//!
//! Quick mode (`UAVAIL_BENCH_QUICK=1`) shrinks the measurement windows
//! for CI smoke runs, as with every bench in this harness.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use uavail_travel::webservice::{farm_distribution_imperfect, farm_distribution_imperfect_sparse};
use uavail_travel::TaParameters;

/// Farm parameters in the paper's operating regime (n·λ < µ) at an
/// arbitrary server count.
fn farm(servers: usize) -> TaParameters {
    TaParameters::builder()
        .web_servers(servers)
        .buffer_size(servers)
        .failure_rate_per_hour(1e-6)
        .repair_rate_per_hour(10.0)
        .build()
        .unwrap()
}

fn bench_farm_distribution(c: &mut Criterion) {
    let dense = farm(500);
    c.bench_function("sparse/farm_distribution/dense_500", |b| {
        b.iter(|| black_box(farm_distribution_imperfect(&dense).unwrap()))
    });
    for servers in [2_000usize, 8_000] {
        let params = farm(servers);
        let name = format!("sparse/farm_distribution/sparse_{servers}");
        c.bench_function(&name, |b| {
            b.iter(|| black_box(farm_distribution_imperfect_sparse(&params).unwrap()))
        });
    }
}

criterion_group!(sparse, bench_farm_distribution);
criterion_main!(sparse);
