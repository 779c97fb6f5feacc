//! One module per paper artifact, each regenerating its table or figure.
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`table2`] | Table II — suggested vs experimentally best grid sizes |
//! | [`fig1`] | Figure 1 — dataset renderings |
//! | [`fig2`] | Figure 2 — KD-standard / KD-hybrid vs UG size sweep |
//! | [`fig3`] | Figure 3 — hierarchies and wavelets over a fixed grid |
//! | [`fig4`] | Figure 4 — AG parameter sensitivity (m₁, α, c₂) |
//! | [`fig5`] | Figure 5 — final comparison, relative error |
//! | [`fig6`] | Figure 6 — final comparison, absolute error |
//! | [`dim`]  | §IV-C — border-fraction analysis + 1-D/2-D hierarchy contrast |
//! | [`ablate`] | extension — ablations of CI, Guideline-2 adaptivity, noise source, cell shape, KD stopping |
//!
//! Every experiment takes an [`ExpContext`] (output directory, dataset
//! scale, trial count, seed), writes CSV series under
//! `out_dir/<experiment>/` and returns a markdown summary.

pub mod ablate;
pub mod dim;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table2;

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;

use dpgrid_core::Method;
use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::{GeoDataset, PointIndex};

use crate::runner::{evaluate, EvalConfig, MethodEval};
use crate::truth::TruthTable;
use crate::workload::{QueryWorkload, WorkloadSpec};
use crate::{report, Result};

/// Shared configuration for experiment runs.
#[derive(Debug, Clone)]
pub struct ExpContext {
    /// Directory all CSV/markdown output lands in.
    pub out_dir: PathBuf,
    /// Dataset scale divisor: `1` = paper scale (road 1.6 M points),
    /// `16` = a fast smoke run.
    pub scale: usize,
    /// Independent noise trials per method.
    pub trials: usize,
    /// Queries per size class (paper: 200).
    pub queries_per_size: usize,
    /// Master seed.
    pub seed: u64,
    /// Privacy budgets to evaluate (paper: 0.1 and 1.0).
    pub epsilons: Vec<f64>,
}

impl ExpContext {
    /// Paper-faithful settings writing into `out_dir`.
    pub fn paper(out_dir: impl Into<PathBuf>) -> Self {
        ExpContext {
            out_dir: out_dir.into(),
            scale: 1,
            trials: 3,
            queries_per_size: 200,
            seed: 20130408, // ICDE 2013 week, why not
            epsilons: vec![0.1, 1.0],
        }
    }

    /// Reduced settings for smoke tests and CI.
    pub fn smoke(out_dir: impl Into<PathBuf>) -> Self {
        ExpContext {
            out_dir: out_dir.into(),
            scale: 64,
            trials: 1,
            queries_per_size: 40,
            seed: 7,
            epsilons: vec![1.0],
        }
    }

    /// Number of points generated for `dataset` at this scale.
    pub fn n_for(&self, dataset: PaperDataset) -> usize {
        (dataset.paper_n() / self.scale.max(1)).max(1)
    }

    /// Output subdirectory for one experiment.
    pub fn dir(&self, experiment: &str) -> PathBuf {
        self.out_dir.join(experiment)
    }
}

/// A prepared dataset: points, exact-count index, workload and truth.
pub struct DataBundle {
    /// Which paper dataset this is.
    pub which: PaperDataset,
    /// The generated points.
    pub dataset: GeoDataset,
    /// The generated workload (6 sizes × queries_per_size).
    pub workload: QueryWorkload,
    /// Exact answers for the workload.
    pub truth: TruthTable,
}

impl DataBundle {
    /// Generates the dataset, workload and ground truth for one paper
    /// dataset under the context's scale and seed.
    pub fn prepare(which: PaperDataset, ctx: &ExpContext) -> Result<Self> {
        let dataset = which.generate_n(ctx.seed, ctx.n_for(which))?;
        let spec = WorkloadSpec::paper(which).with_queries_per_size(ctx.queries_per_size);
        let mut wl_rng = StdRng::seed_from_u64(ctx.seed ^ 0x005E_ED0F);
        let workload = QueryWorkload::generate(dataset.domain(), &spec, &mut wl_rng)?;
        let index = PointIndex::build(&dataset);
        let truth = TruthTable::compute(&index, &workload);
        Ok(DataBundle {
            which,
            dataset,
            workload,
            truth,
        })
    }

    /// Runs a method panel at one ε and writes the three standard CSVs
    /// (`<stem>_by_size.csv`, `<stem>_rel.csv`, `<stem>_abs.csv`) into
    /// `dir`; returns the evaluations.
    pub fn run_panel(
        &self,
        dir: &Path,
        stem: &str,
        methods: &[Method],
        epsilon: f64,
        ctx: &ExpContext,
    ) -> Result<Vec<MethodEval>> {
        // Derive a panel-specific seed from the stem so different panels
        // draw independent noise while staying reproducible.
        let stem_hash: u64 = stem.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let cfg = EvalConfig {
            epsilon,
            trials: ctx.trials,
            seed: ctx.seed ^ stem_hash ^ epsilon.to_bits(),
        };
        let evals = evaluate(&self.dataset, &self.workload, &self.truth, methods, &cfg)?;
        let title = format!("{} (ε = {epsilon})", self.which.name());
        report::by_size_table(&title, &evals)
            .write_csv(&dir.join(format!("{stem}_by_size.csv")))?;
        report::profile_table(&title, &evals).write_csv(&dir.join(format!("{stem}_rel.csv")))?;
        report::abs_profile_table(&title, &evals)
            .write_csv(&dir.join(format!("{stem}_abs.csv")))?;
        Ok(evals)
    }
}

/// Geometric ladder of grid sizes around a suggested value, used by the
/// sweep experiments (the paper's panels list a comparable ladder).
pub fn size_ladder(suggested: usize) -> Vec<usize> {
    let s = suggested.max(2) as f64;
    let mut out: Vec<usize> = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|f| ((s * f).round() as usize).max(2))
        .collect();
    out.dedup();
    out
}

/// Picks the evaluation with the lowest pooled mean relative error.
pub fn best_by_mean(evals: &[MethodEval]) -> usize {
    let mut best = 0;
    for (i, e) in evals.iter().enumerate() {
        if e.rel_profile.mean < evals[best].rel_profile.mean {
            best = i;
        }
    }
    best
}

/// Runs every experiment and writes `SUMMARY.md` in the output root.
pub fn run_all(ctx: &ExpContext) -> Result<String> {
    let mut md = String::new();
    md.push_str(&format!(
        "# dpgrid reproduction run\n\nscale = 1/{}, trials = {}, queries/size = {}, seed = {}\n\n",
        ctx.scale, ctx.trials, ctx.queries_per_size, ctx.seed
    ));
    md.push_str(&fig1::run(ctx)?);
    md.push_str(&dim::run(ctx)?);
    md.push_str(&table2::run(ctx)?);
    md.push_str(&fig2::run(ctx)?);
    md.push_str(&fig3::run(ctx)?);
    md.push_str(&fig4::run(ctx)?);
    md.push_str(&fig5::run(ctx)?);
    md.push_str(&fig6::run(ctx)?);
    md.push_str(&ablate::run(ctx)?);
    std::fs::create_dir_all(&ctx.out_dir)
        .map_err(|e| crate::EvalError::Geo(dpgrid_geo::GeoError::Io(e.to_string())))?;
    std::fs::write(ctx.out_dir.join("SUMMARY.md"), &md)
        .map_err(|e| crate::EvalError::Geo(dpgrid_geo::GeoError::Io(e.to_string())))?;
    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_scaling() {
        let ctx = ExpContext::smoke("/tmp/x");
        assert_eq!(ctx.n_for(PaperDataset::Road), 1_600_000 / 64);
        let paper = ExpContext::paper("/tmp/y");
        assert_eq!(paper.n_for(PaperDataset::Storage), 9_000);
    }

    #[test]
    fn ladder_is_sorted_and_contains_suggested() {
        let l = size_ladder(100);
        assert!(l.contains(&100));
        assert!(l.windows(2).all(|w| w[0] <= w[1]));
        assert!(l[0] >= 2);
        // Tiny suggested values stay valid.
        let tiny = size_ladder(1);
        assert!(tiny.iter().all(|&m| m >= 2));
    }

    #[test]
    fn bundle_prepare_smoke() {
        let ctx = ExpContext::smoke(std::env::temp_dir().join("dpgrid_bundle_test"));
        let b = DataBundle::prepare(PaperDataset::Storage, &ctx).unwrap();
        assert_eq!(b.dataset.len(), 9_000 / 64);
        assert_eq!(b.workload.num_sizes(), 6);
        assert_eq!(b.truth.n(), b.dataset.len());
    }
}
