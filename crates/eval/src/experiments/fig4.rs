//! Figure 4 — AG parameter sensitivity.
//!
//! Paper panels (checkin and landmark, ε ∈ {0.1, 1}):
//!
//! * column 1: the best AG variants vs UG and Privelet across query
//!   sizes;
//! * column 2: sweeping the first-level size `m₁`;
//! * columns 3–4: sweeping `α ∈ {0.25, 0.5, 0.75}` × `c₂ ∈ {5, 10, 15}`
//!   at a fixed `m₁`.
//!
//! Shape criteria: AG beats UG/Privelet across sizes; performance is
//! flat for `α ∈ [0.25, 0.5]` and degrades at 0.75; `c₂ = 5` beats 10
//! and 15; the `m₁` curve is shallow around the suggested value.

use dpgrid_core::{guidelines, Method};
use dpgrid_geo::generators::PaperDataset;

use super::{size_ladder, DataBundle, ExpContext};
use crate::report::{by_size_table, profile_table};
use crate::Result;

/// Runs the experiment; writes per-panel CSVs and returns the markdown.
pub fn run(ctx: &ExpContext) -> Result<String> {
    let dir = ctx.dir("fig4");
    let mut md = String::from("## Figure 4 — AG parameter sensitivity\n\n");
    for which in [PaperDataset::Checkin, PaperDataset::Landmark] {
        let bundle = DataBundle::prepare(which, ctx)?;
        let n = bundle.dataset.len();
        for &eps in &ctx.epsilons {
            let ug_suggested = guidelines::guideline1(n, eps, guidelines::DEFAULT_C);
            let m1_suggested = guidelines::suggested_m1(n, eps, guidelines::DEFAULT_C);

            // Column 1: AG (suggested and neighbours) vs UG vs Privelet,
            // by query size.
            let methods = vec![
                Method::ug(ug_suggested),
                Method::privelet(ug_suggested),
                Method::ag((m1_suggested / 2).max(2)),
                Method::ag(m1_suggested),
                Method::ag(m1_suggested * 2),
            ];
            let stem = format!("{}_eps{eps}_vs", which.name());
            let evals = bundle.run_panel(&dir, &stem, &methods, eps, ctx)?;
            let title = format!("fig4: {} ε={eps} — AG vs UG/Privelet", which.name());
            md.push_str(&by_size_table(&title, &evals).to_markdown());

            // Column 2: m₁ sweep.
            let m1_methods: Vec<Method> = size_ladder(m1_suggested)
                .into_iter()
                .map(Method::ag)
                .collect();
            let stem = format!("{}_eps{eps}_m1", which.name());
            let evals = bundle.run_panel(&dir, &stem, &m1_methods, eps, ctx)?;
            let title = format!(
                "fig4: {} ε={eps} — m1 sweep (suggested {m1_suggested})",
                which.name()
            );
            md.push_str(&profile_table(&title, &evals).to_markdown());

            // Columns 3-4: α × c₂ grid at the suggested m₁.
            let mut grid_methods = Vec::new();
            for alpha in [0.25, 0.5, 0.75] {
                for c2 in [5.0, 10.0, 15.0] {
                    grid_methods.push(Method::ag_with(m1_suggested, alpha, c2));
                }
            }
            let stem = format!("{}_eps{eps}_alpha_c2", which.name());
            let evals = bundle.run_panel(&dir, &stem, &grid_methods, eps, ctx)?;
            let title = format!("fig4: {} ε={eps} — α × c₂ grid", which.name());
            md.push_str(&profile_table(&title, &evals).to_markdown());
        }
    }
    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run() {
        let mut ctx = ExpContext::smoke(std::env::temp_dir().join("dpgrid_fig4_test"));
        ctx.scale = 1024;
        ctx.queries_per_size = 5;
        let md = run(&ctx).unwrap();
        assert!(md.contains("α × c₂"));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
