//! Criterion benches for the paper's figures: each bench regenerates one
//! figure's full data series (DESIGN.md experiments E9–E13).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use uavail_travel::evaluation::{
    figure11, figure12, figure13, min_web_servers_for, revenue_analysis,
};
use uavail_travel::user::{class_a, class_b};

fn bench_figure11(c: &mut Criterion) {
    c.bench_function("figure11/perfect_coverage_sweep", |bench| {
        bench.iter(|| black_box(figure11().unwrap()))
    });
}

fn bench_figure12(c: &mut Criterion) {
    c.bench_function("figure12/imperfect_coverage_sweep", |bench| {
        bench.iter(|| black_box(figure12().unwrap()))
    });
}

fn bench_figure13(c: &mut Criterion) {
    let a = class_a();
    let b = class_b();
    c.bench_function("figure13/category_breakdown_both_classes", |bench| {
        bench.iter(|| {
            let ba = figure13(&a).unwrap();
            let bb = figure13(&b).unwrap();
            black_box((ba, bb))
        })
    });
}

fn bench_revenue(c: &mut Criterion) {
    let b = class_b();
    c.bench_function("revenue/class_b", |bench| {
        bench.iter(|| black_box(revenue_analysis(&b).unwrap()))
    });
}

fn bench_capacity(c: &mut Criterion) {
    c.bench_function("capacity/min_servers_grid", |bench| {
        bench.iter(|| {
            for lambda in [1e-2, 1e-3, 1e-4] {
                for alpha in [50.0, 100.0] {
                    black_box(min_web_servers_for(1e-5, lambda, alpha, 10).unwrap());
                }
            }
        })
    });
}

fn bench_extensions(c: &mut Criterion) {
    use uavail_travel::extensions::deadline_sweep;
    use uavail_travel::maintenance::{web_availability, RepairStrategy};
    use uavail_travel::transient::user_availability_ramp;
    use uavail_travel::webservice::mean_time_to_web_down;
    use uavail_travel::{Architecture, TaParameters};

    let p = TaParameters::paper_defaults();
    c.bench_function("extensions/deadline_sweep_5pts", |bench| {
        bench.iter(|| black_box(deadline_sweep(&p, &[0.02, 0.05, 0.1, 0.5, 1.0]).unwrap()))
    });
    let maint = TaParameters::builder()
        .web_servers(6)
        .failure_rate_per_hour(1e-2)
        .build()
        .unwrap();
    c.bench_function("extensions/deferred_maintenance_chain", |bench| {
        bench.iter(|| {
            black_box(
                web_availability(&maint, RepairStrategy::Deferred { start_below: 2 }).unwrap(),
            )
        })
    });
    c.bench_function("extensions/mttf_closed_form", |bench| {
        let perfect = TaParameters::builder()
            .coverage(1.0)
            .web_servers(6)
            .build()
            .unwrap();
        bench.iter(|| black_box(mean_time_to_web_down(&perfect).unwrap()))
    });
    c.bench_function("extensions/availability_ramp_8pts", |bench| {
        let ts = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 24.0];
        let class = class_a();
        bench.iter(|| {
            black_box(
                user_availability_ramp(&class, &p, Architecture::paper_reference(), 1.0, &ts)
                    .unwrap(),
            )
        })
    });
}

fn bench_parallel_sweep(c: &mut Criterion) {
    use uavail_core::par::Exec;
    use uavail_travel::evaluation::figure_sweep;
    use uavail_travel::Coverage;
    c.bench_function("figure_sweep/serial", |bench| {
        bench.iter(|| black_box((figure11().unwrap(), figure12().unwrap())))
    });
    c.bench_function("figure_sweep/parallel", |bench| {
        bench.iter(|| {
            let exec = Exec::parallel();
            black_box((
                figure_sweep(Coverage::Perfect, &exec).unwrap(),
                figure_sweep(Coverage::Imperfect, &exec).unwrap(),
            ))
        })
    });
}

fn bench_metrics_overhead(c: &mut Criterion) {
    // The uavail-obs contract: with the recorder disabled (the default)
    // every instrumentation site is one relaxed atomic load, so this
    // bench must stay within noise of figure_sweep/serial; the enabled
    // run bounds the full recording cost.
    c.bench_function("metrics/disabled", |bench| {
        uavail_obs::set_enabled(false);
        bench.iter(|| black_box((figure11().unwrap(), figure12().unwrap())))
    });
    c.bench_function("metrics/enabled", |bench| {
        uavail_obs::set_enabled(true);
        uavail_obs::reset();
        bench.iter(|| black_box((figure11().unwrap(), figure12().unwrap())));
        uavail_obs::set_enabled(false);
    });
    // Same contract for the trace channel: disabled tracing is one relaxed
    // atomic load per site and must stay within noise of the plain sweep;
    // the enabled run bounds the thread-local ring-push cost.
    c.bench_function("trace/disabled", |bench| {
        uavail_obs::set_trace_enabled(false);
        bench.iter(|| black_box((figure11().unwrap(), figure12().unwrap())))
    });
    c.bench_function("trace/enabled", |bench| {
        uavail_obs::trace::reset();
        uavail_obs::set_trace_enabled(true);
        bench.iter(|| black_box((figure11().unwrap(), figure12().unwrap())));
        uavail_obs::set_trace_enabled(false);
        drop(uavail_obs::take_trace());
    });
}

criterion_group!(
    figures,
    bench_figure11,
    bench_figure12,
    bench_figure13,
    bench_revenue,
    bench_capacity,
    bench_extensions,
    bench_parallel_sweep,
    bench_metrics_overhead
);
criterion_main!(figures);
