//! Figures 5 and 6 — the final six-method comparison.
//!
//! For every dataset and ε the paper compares, left to right: KD-hybrid,
//! UG at the experimentally best size, Privelet at that size, AG at the
//! experimentally best `m₁`, UG at the suggested size, AG at the
//! suggested size. Figure 5 reports relative error, Figure 6 absolute
//! error; both come from the same runs, so this module computes both and
//! [`super::fig6`] reuses its output.
//!
//! "Experimentally best" sizes are found with a pilot sweep (fewer
//! trials), mirroring how the paper selected them from Figure 2/4.

use dpgrid_core::{guidelines, Method};
use dpgrid_geo::generators::PaperDataset;

use super::{best_by_mean, size_ladder, DataBundle, ExpContext};
use crate::report::{abs_profile_table, by_size_table, profile_table};
use crate::runner::MethodEval;
use crate::Result;

/// The six final-comparison evaluations for one (dataset, ε) panel.
pub struct FinalPanel {
    /// Dataset name.
    pub dataset: &'static str,
    /// Privacy budget.
    pub epsilon: f64,
    /// Evaluations in the paper's order.
    pub evals: Vec<MethodEval>,
}

/// Runs pilot sweeps + the final comparison for every dataset and ε.
pub fn final_comparison(ctx: &ExpContext) -> Result<Vec<FinalPanel>> {
    let dir = ctx.dir("fig5");
    let mut panels = Vec::new();
    for which in PaperDataset::ALL {
        let bundle = DataBundle::prepare(which, ctx)?;
        let n = bundle.dataset.len();
        for &eps in &ctx.epsilons {
            let ug_suggested = guidelines::guideline1(n, eps, guidelines::DEFAULT_C);
            let m1_suggested = guidelines::suggested_m1(n, eps, guidelines::DEFAULT_C);

            // Pilot sweeps to find the empirically best sizes (1 trial).
            let mut pilot_ctx = ctx.clone();
            pilot_ctx.trials = 1;
            let ug_sizes = size_ladder(ug_suggested);
            let ug_methods: Vec<Method> = ug_sizes.iter().map(|&m| Method::ug(m)).collect();
            let stem = format!("{}_eps{eps}_pilot_ug", which.name());
            let pilot_ug = bundle.run_panel(&dir, &stem, &ug_methods, eps, &pilot_ctx)?;
            let ug_best = ug_sizes[best_by_mean(&pilot_ug)];

            let m1_sizes = size_ladder(m1_suggested);
            let ag_methods: Vec<Method> = m1_sizes.iter().map(|&m| Method::ag(m)).collect();
            let stem = format!("{}_eps{eps}_pilot_ag", which.name());
            let pilot_ag = bundle.run_panel(&dir, &stem, &ag_methods, eps, &pilot_ctx)?;
            let ag_best = m1_sizes[best_by_mean(&pilot_ag)];

            // Final comparison, paper order.
            let methods = vec![
                Method::KdHybrid,
                Method::ug(ug_best),
                Method::privelet(ug_best),
                Method::ag(ag_best),
                Method::ug_suggested(),
                Method::ag_suggested(),
            ];
            let stem = format!("{}_eps{eps}_final", which.name());
            let evals = bundle.run_panel(&dir, &stem, &methods, eps, ctx)?;
            panels.push(FinalPanel {
                dataset: which.name(),
                epsilon: eps,
                evals,
            });
        }
    }
    Ok(panels)
}

/// Runs the experiment and renders the Figure 5 (relative error) views.
pub fn run(ctx: &ExpContext) -> Result<String> {
    let panels = final_comparison(ctx)?;
    let mut md = String::from("## Figure 5 — final comparison (relative error)\n\n");
    for p in &panels {
        let title = format!("fig5: {} ε={}", p.dataset, p.epsilon);
        md.push_str(&by_size_table(&title, &p.evals).to_markdown());
        md.push_str(&profile_table(&format!("{title} (profile)"), &p.evals).to_markdown());
    }
    Ok(md)
}

/// Renders the Figure 6 (absolute error) view of the same runs; called
/// by [`super::fig6`].
pub fn run_absolute(ctx: &ExpContext) -> Result<String> {
    let panels = final_comparison(ctx)?;
    let dir = ctx.dir("fig6");
    let mut md = String::from("## Figure 6 — final comparison (absolute error)\n\n");
    for p in &panels {
        let title = format!("fig6: {} ε={}", p.dataset, p.epsilon);
        let t = abs_profile_table(&title, &p.evals);
        t.write_csv(&dir.join(format!("{}_eps{}_abs.csv", p.dataset, p.epsilon)))?;
        md.push_str(&t.to_markdown());
    }
    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run() {
        let mut ctx = ExpContext::smoke(std::env::temp_dir().join("dpgrid_fig5_test"));
        ctx.scale = 2048;
        ctx.queries_per_size = 4;
        let md = run(&ctx).unwrap();
        assert!(md.contains("Khy"));
        assert!(md.contains("fig5: storage"));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
