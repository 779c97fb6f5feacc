//! Table II — Guideline-1/2 predictions vs experimentally best sizes.
//!
//! For every dataset and ε the experiment sweeps UG over a size ladder
//! and AG over an `m₁` ladder, reports the best-performing sizes, and
//! sets them against the paper's suggested values. The success criterion
//! (DESIGN.md) is that the suggestion lands inside or adjacent to the
//! empirically best range.

use dpgrid_core::{guidelines, Method};
use dpgrid_geo::generators::PaperDataset;

use super::{best_by_mean, size_ladder, DataBundle, ExpContext};
use crate::report::{fmt, Table};
use crate::Result;

/// Runs the experiment; writes `table2/table2.csv` and per-panel sweep
/// CSVs, returns the markdown summary.
pub fn run(ctx: &ExpContext) -> Result<String> {
    let dir = ctx.dir("table2");
    let mut summary = Table::new(
        "Table II — suggested vs experimentally best grid sizes",
        &[
            "dataset",
            "n",
            "eps",
            "UG suggested",
            "UG best (sweep)",
            "UG best err",
            "UG err at suggested",
            "AG m1 suggested",
            "AG m1 best (sweep)",
            "AG best err",
        ],
    );
    for which in PaperDataset::ALL {
        let bundle = DataBundle::prepare(which, ctx)?;
        let n = bundle.dataset.len();
        for &eps in &ctx.epsilons {
            let ug_suggested = guidelines::guideline1(n, eps, guidelines::DEFAULT_C);
            let m1_suggested = guidelines::suggested_m1(n, eps, guidelines::DEFAULT_C);

            // UG sweep over the ladder (suggested size included).
            let ug_sizes = size_ladder(ug_suggested);
            let ug_methods: Vec<Method> = ug_sizes.iter().map(|&m| Method::ug(m)).collect();
            let stem = format!("{}_eps{eps}_ug", which.name());
            let ug_evals = bundle.run_panel(&dir, &stem, &ug_methods, eps, ctx)?;
            let ug_best = best_by_mean(&ug_evals);
            let ug_at_suggested = ug_sizes
                .iter()
                .position(|&m| m == ug_suggested)
                .map(|i| ug_evals[i].rel_profile.mean)
                .unwrap_or(f64::NAN);

            // AG m1 sweep.
            let m1_sizes: Vec<usize> = size_ladder(m1_suggested)
                .into_iter()
                .filter(|&m| m >= 2)
                .collect();
            let ag_methods: Vec<Method> = m1_sizes.iter().map(|&m| Method::ag(m)).collect();
            let stem = format!("{}_eps{eps}_ag", which.name());
            let ag_evals = bundle.run_panel(&dir, &stem, &ag_methods, eps, ctx)?;
            let ag_best = best_by_mean(&ag_evals);

            summary.push_row(vec![
                which.name().to_string(),
                n.to_string(),
                eps.to_string(),
                ug_suggested.to_string(),
                ug_sizes[ug_best].to_string(),
                fmt(ug_evals[ug_best].rel_profile.mean),
                fmt(ug_at_suggested),
                m1_suggested.to_string(),
                m1_sizes[ag_best].to_string(),
                fmt(ag_evals[ag_best].rel_profile.mean),
            ]);
        }
    }
    summary.write_csv(&dir.join("table2.csv"))?;
    let mut md = String::from("## Table II — grid-size guidelines vs sweeps\n\n");
    md.push_str(&summary.to_markdown());
    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_writes_outputs() {
        let mut ctx = ExpContext::smoke(std::env::temp_dir().join("dpgrid_table2_test"));
        ctx.scale = 512; // tiny datasets for speed
        ctx.queries_per_size = 10;
        let md = run(&ctx).unwrap();
        assert!(md.contains("Table II"));
        assert!(ctx.dir("table2").join("table2.csv").exists());
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
