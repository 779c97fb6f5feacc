//! Cross-method equivalence of the compiled query surface.
//!
//! A `Release` answers through a compiled index (lattice, block or
//! row-band);
//! those answers must match the naive linear scan over the released
//! cells — the semantics the index replaces — to within 1e-9, for every
//! producing method, over a mixed workload of domain-spanning, sliver,
//! cell-aligned and miss queries.

use dpgrid::baselines::{HierarchicalGrid, HierarchyConfig, KdConfig, KdHybrid, KdStandard};
use dpgrid::core::{Release, SurfaceKind};
use dpgrid::prelude::*;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

fn dataset(seed: u64) -> GeoDataset {
    PaperDataset::Storage.generate_n(seed, 4_000).unwrap()
}

/// Mixed workload over `domain`: spanning, slivers, cell-aligned (for a
/// grid of size `m`), interior boxes and misses.
fn query_mix(domain: &Rect, m: usize) -> Vec<Rect> {
    let (x0, y0) = (domain.x0(), domain.y0());
    let (w, h) = (domain.width(), domain.height());
    let mut queries = vec![
        // Domain-spanning (clipped and unclipped).
        *domain,
        Rect::new(x0 - w, y0 - h, x0 + 2.0 * w, y0 + 2.0 * h).unwrap(),
        // Slivers: thin vertical and horizontal strips.
        Rect::new(x0 + 0.37 * w, y0, x0 + 0.3701 * w, y0 + h).unwrap(),
        Rect::new(x0, y0 + 0.61 * h, x0 + w, y0 + 0.6101 * h).unwrap(),
        // Interior boxes at various scales.
        Rect::new(x0 + 0.1 * w, y0 + 0.1 * h, x0 + 0.9 * w, y0 + 0.4 * h).unwrap(),
        Rect::new(x0 + 0.42 * w, y0 + 0.42 * h, x0 + 0.58 * w, y0 + 0.58 * h).unwrap(),
        Rect::new(
            x0 + 0.013 * w,
            y0 + 0.77 * h,
            x0 + 0.031 * w,
            y0 + 0.792 * h,
        )
        .unwrap(),
        // Misses.
        Rect::new(x0 + 2.0 * w, y0, x0 + 3.0 * w, y0 + h).unwrap(),
        Rect::new(x0 - w, y0 - h, x0 - 0.5 * w, y0 - 0.5 * h).unwrap(),
    ];
    // Cell-aligned queries for an m × m grid over the domain.
    if m > 1 {
        queries.push(domain.grid_cell(m, m, m / 3, m / 2));
        let c0 = domain.grid_cell(m, m, 1, 1);
        let c1 = domain.grid_cell(m, m, m - 2, m - 2);
        queries.push(Rect::new(c0.x0(), c0.y0(), c1.x1(), c1.y1()).unwrap());
    }
    queries
}

/// The compiled answer must match the linear scan to 1e-9 (relative to
/// the answer's magnitude for large counts).
fn assert_equivalent(release: &Release, queries: &[Rect]) {
    for q in queries {
        let scan = release.answer_linear_scan(q);
        let compiled = release.answer(q);
        assert!(
            (compiled - scan).abs() <= 1e-9 * (1.0 + scan.abs()),
            "method {} query {q:?}: compiled {compiled} vs scan {scan}",
            release.method()
        );
    }
    // The batched path must agree with the per-query path bit-for-bit.
    let batch = release.answer_all(queries);
    let sequential: Vec<f64> = queries.iter().map(|q| release.answer(q)).collect();
    assert_eq!(batch, sequential);
}

#[test]
fn uniform_grid_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let ug = UniformGrid::build(&ds, &UgConfig::fixed(1.0, 24), &mut rng(seed)).unwrap();
        let release = Release::from_synopsis("UG", &ug);
        assert!(matches!(
            release.surface().kind(),
            SurfaceKind::Lattice { cols: 24, rows: 24 }
        ));
        assert_equivalent(&release, &query_mix(ds.domain().rect(), 24));
    }
}

#[test]
fn adaptive_grid_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(0.5), &mut rng(seed ^ 0xA)).unwrap();
        let release = Release::from_synopsis("AG", &ag);
        assert_equivalent(&release, &query_mix(ds.domain().rect(), ag.m1()));
    }
}

/// A landmark-shaped dataset large enough that the guideline AG's
/// second-level sizes vary widely from cell to cell.
fn large_dataset(seed: u64) -> GeoDataset {
    PaperDataset::Landmark.generate_n(seed, 100_000).unwrap()
}

#[test]
fn guideline_adaptive_grids_compile_to_blocks() {
    for seed in [1u64, 2, 3] {
        let ds = large_dataset(seed);
        let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(seed)).unwrap();
        let release = Release::from_synopsis("AG", &ag);
        // Per-cell second-level sizes leave no affordable common
        // lattice: the release takes the two-level block path, with at
        // least the first-level grid as its coarse grid.
        let kind = release.surface().kind();
        assert!(
            matches!(kind, SurfaceKind::Blocks { cols, rows } if cols >= ag.m1() && rows >= ag.m1()),
            "seed {seed}: {kind:?}"
        );
        assert_equivalent(&release, &query_mix(ds.domain().rect(), ag.m1()));
    }
}

#[test]
fn adaptive_grid_blocks_survive_serialization() {
    // The block path needs the coarse lines and every block's edges to
    // come back bit for bit from the text form.
    for seed in [4u64, 5, 6] {
        let ds = large_dataset(seed);
        let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(seed)).unwrap();
        let release = Release::from_synopsis("AG", &ag);
        let mut buf = Vec::new();
        release.write_json(&mut buf).unwrap();
        let reloaded = Release::read_json(&buf[..]).unwrap();
        assert_eq!(reloaded.surface().kind(), release.surface().kind());
        assert!(matches!(
            reloaded.surface().kind(),
            SurfaceKind::Blocks { .. }
        ));
        assert_equivalent(&reloaded, &query_mix(ds.domain().rect(), ag.m1()));
    }
}

#[test]
fn adaptive_grid_with_fixed_m2_stays_on_the_lattice() {
    // One second-level size everywhere: every block shares the same
    // sub-lines, so the common lattice is affordable and wins.
    let ds = dataset(7);
    let ag = AdaptiveGrid::build(
        &ds,
        &AgConfig::guideline(0.5).with_m1(8).with_fixed_m2(3),
        &mut rng(7),
    )
    .unwrap();
    let release = Release::from_synopsis("AG", &ag);
    assert!(matches!(
        release.surface().kind(),
        SurfaceKind::Lattice { cols: 24, rows: 24 }
    ));
    assert_equivalent(&release, &query_mix(ds.domain().rect(), 8));
}

#[test]
fn hierarchy_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let h = HierarchicalGrid::build(&ds, &HierarchyConfig::new(1.0, 32, 2, 3), &mut rng(seed))
            .unwrap();
        let release = Release::from_synopsis("H2,3", &h);
        // Hierarchy leaves are a uniform grid: must take the fast path.
        assert!(matches!(
            release.surface().kind(),
            SurfaceKind::Lattice { .. }
        ));
        assert_equivalent(&release, &query_mix(ds.domain().rect(), 32));
    }
}

#[test]
fn kd_tree_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let mut cfg = KdConfig::new(1.0);
        cfg.base_resolution = 64;
        cfg.height = Some(8);
        for (name, release) in [
            (
                "Kst",
                Release::from_synopsis(
                    "Kst",
                    &KdStandard::build(&ds, &cfg, &mut rng(seed ^ 0xB)).unwrap(),
                ),
            ),
            (
                "Khy",
                Release::from_synopsis(
                    "Khy",
                    &KdHybrid::build(&ds, &cfg, &mut rng(seed ^ 0xC)).unwrap(),
                ),
            ),
        ] {
            let _ = name;
            assert_equivalent(&release, &query_mix(ds.domain().rect(), 64));
        }
    }
}

/// Wide queries over band-path releases: the y-skip-list absorbs whole
/// fully-covered band runs through aggregated tree nodes, and must do
/// so without drifting from the linear-scan semantics.
#[test]
fn band_skip_list_wide_query_equivalence() {
    for seed in [1u64, 2, 3] {
        let ds = dataset(seed);
        let mut cfg = KdConfig::new(1.0);
        cfg.base_resolution = 64;
        cfg.height = Some(8);
        let kd = KdStandard::build(&ds, &cfg, &mut rng(seed ^ 0xD)).unwrap();
        let release = Release::from_synopsis("Kst", &kd);
        // KD leaves are irregular: the surface must be on the band path
        // for this test to exercise the skip list at all.
        assert!(matches!(
            release.surface().kind(),
            SurfaceKind::Bands { .. }
        ));
        let domain = ds.domain().rect();
        let (x0, y0) = (domain.x0(), domain.y0());
        let (w, h) = (domain.width(), domain.height());
        let wide = vec![
            // Full domain and beyond (absorbs at or near the root).
            *domain,
            Rect::new(x0 - w, y0 - h, x0 + 2.0 * w, y0 + 2.0 * h).unwrap(),
            // Full-x strips: interior bands fully covered, rim partial.
            Rect::new(x0 - 1.0, y0 + 0.05 * h, x0 + w + 1.0, y0 + 0.95 * h).unwrap(),
            Rect::new(x0 - 1.0, y0 + 0.3 * h, x0 + w + 1.0, y0 + 0.7 * h).unwrap(),
            // Full-y strips: every band partially covered in x.
            Rect::new(x0 + 0.1 * w, y0 - 1.0, x0 + 0.9 * w, y0 + h + 1.0).unwrap(),
            // Large interior boxes (mixed absorb + stab).
            Rect::new(x0 + 0.05 * w, y0 + 0.05 * h, x0 + 0.95 * w, y0 + 0.95 * h).unwrap(),
            Rect::new(x0 + 0.2 * w, y0 + 0.1 * h, x0 + 0.8 * w, y0 + 0.9 * h).unwrap(),
        ];
        assert_equivalent(&release, &wide);
    }
}

#[test]
fn untrusted_irregular_release_equivalence() {
    // A hand-built irregular partition (no common lattice): vertical
    // strips of unequal widths, each split at its own heights — the
    // shape that forces the band index.
    let domain = Domain::from_corners(0.0, 0.0, 12.0, 10.0).unwrap();
    let splits = [0.0, 1.7, 2.9, 5.3, 8.0, 12.0];
    let mut cells = Vec::new();
    for (i, pair) in splits.windows(2).enumerate() {
        let k = 1 + (i * 7) % 5;
        for j in 0..k {
            let y0 = 10.0 * j as f64 / k as f64;
            let y1 = 10.0 * (j + 1) as f64 / k as f64;
            cells.push((
                Rect::new(pair[0], y0, pair[1], y1).unwrap(),
                (i * 31 + j * 17) as f64 % 23.0 - 8.0,
            ));
        }
    }
    let release = Release::from_parts("irregular", 1.0, domain, cells).unwrap();
    assert_equivalent(&release, &query_mix(domain.rect(), 6));
}

#[test]
fn equivalence_survives_serialization() {
    // Compile, serialise, reload: the recompiled surface must agree
    // with the scan on the reloaded cells too.
    let ds = dataset(9);
    let ag = AdaptiveGrid::build(&ds, &AgConfig::guideline(1.0), &mut rng(10)).unwrap();
    let release = Release::from_synopsis("AG", &ag);
    let mut buf = Vec::new();
    release.write_json(&mut buf).unwrap();
    let reloaded = Release::read_json(&buf[..]).unwrap();
    let queries = query_mix(ds.domain().rect(), ag.m1());
    assert_equivalent(&reloaded, &queries);
    for q in &queries {
        assert_eq!(release.answer(q), reloaded.answer(q));
    }
}
