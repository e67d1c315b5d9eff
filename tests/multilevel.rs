//! Cross-crate contract of the multilevel subsystem: `learn_multilevel`
//! tracks flat `Sgl::learn` spectrally, the hierarchy is bit-identical
//! across thread counts, and resistance sparsification preserves
//! connectivity and the low spectrum.

use sgl::prelude::*;
use sgl_core::compare_spectra;
use sgl_graph::traversal::is_connected;
use sgl_multilevel::HierarchyOptions;

fn quick_config(parallelism: usize) -> SglConfig {
    SglConfig::builder()
        .tol(1e-6)
        .max_iterations(200)
        .parallelism(parallelism)
        .build()
        .unwrap()
}

fn quick_opts(coarsest: usize) -> MultilevelOptions {
    MultilevelOptions {
        hierarchy: HierarchyOptions {
            coarsest_size: coarsest,
            ..HierarchyOptions::default()
        },
        ..MultilevelOptions::default()
    }
}

#[test]
fn multilevel_tracks_flat_spectrum_with_fewer_fine_embeds() {
    let truth = sgl_datasets::grid2d(20, 20);
    let meas = Measurements::generate(&truth, 30, 17).unwrap();
    let flat = Sgl::new(quick_config(0)).learn(&meas).unwrap();
    let multi = learn_multilevel(&quick_config(0), &meas, &quick_opts(100)).unwrap();

    assert!(multi.num_levels() >= 2, "sizes {:?}", multi.level_sizes);
    assert!(is_connected(&multi.graph));
    // The whole flat loop ran only at the coarsest level; its trace is
    // the coarse trace.
    assert!(*multi.level_sizes.last().unwrap() <= 100);
    assert!(!multi.coarse.trace.is_empty());

    let cmp = compare_spectra(&flat.graph, &multi.graph, 6).unwrap();
    assert!(
        cmp.mean_relative_error < 0.15,
        "multilevel spectrum drifted {:.3} from flat",
        cmp.mean_relative_error
    );
    assert!(cmp.correlation > 0.97, "corr {}", cmp.correlation);
}

#[test]
fn multilevel_learning_is_bit_identical_across_thread_counts() {
    let truth = sgl_datasets::grid2d(14, 14);
    let meas = Measurements::generate(&truth, 25, 29).unwrap();
    let serial = learn_multilevel(&quick_config(1), &meas, &quick_opts(60)).unwrap();
    for threads in [2usize, 4, 0] {
        let par_run = learn_multilevel(&quick_config(threads), &meas, &quick_opts(60)).unwrap();
        assert_eq!(
            serial.level_sizes, par_run.level_sizes,
            "parallelism={threads}: hierarchy diverged"
        );
        assert_eq!(serial.graph.num_edges(), par_run.graph.num_edges());
        for (a, b) in serial.graph.edges().iter().zip(par_run.graph.edges()) {
            assert_eq!((a.u, a.v), (b.u, b.v), "parallelism={threads}: topology");
            assert_eq!(
                a.weight, b.weight,
                "parallelism={threads}: weights must be bit-identical"
            );
        }
        assert_eq!(serial.scale_factor, par_run.scale_factor);
    }
}

#[test]
fn sparsify_by_resistance_preserves_spectrum_and_connectivity() {
    let g = sgl_datasets::grid2d(13, 13); // density ~1.85
    let opts = SparsifyOptions {
        max_relative_error: 0.35,
        ..SparsifyOptions::default()
    };
    let s = sparsify_by_resistance(&g, 1.6, &opts).unwrap();
    assert!(is_connected(&s.graph));
    assert!(s.graph.density() <= 1.6);
    assert!(s.dropped_edges > 0);
    let cmp = s.spectral.expect("spectral check requested");
    assert!(
        cmp.mean_relative_error < 0.35,
        "{}",
        cmp.mean_relative_error
    );
    assert!(s.within_tolerance);
}

#[test]
fn multilevel_uses_solver_stats_and_reports_every_level() {
    let truth = sgl_datasets::grid2d(14, 14);
    let meas = Measurements::generate(&truth, 20, 31).unwrap();
    let multi = learn_multilevel(&quick_config(0), &meas, &quick_opts(60)).unwrap();
    assert_eq!(multi.reports.len(), multi.num_levels());
    // Coarsest report first, finest last, node counts matching the
    // hierarchy.
    let mut sizes: Vec<usize> = multi.reports.iter().map(|r| r.nodes).collect();
    sizes.reverse();
    assert_eq!(sizes, multi.level_sizes);
    // The V-cycle's solves were tracked (scaling at minimum).
    assert!(multi.solver_stats.solves > 0);
    assert!(multi.scale_factor.is_some());
}
