//! Figure 3 — the effect of adding hierarchies (and wavelets) on top of
//! a fixed grid.
//!
//! Paper panels: checkin and landmark at ε ∈ {0.1, 1}; methods are the
//! best-sweep UG, U₃₆₀, W₃₆₀ (Privelet), and hierarchies H₂,₄ H₂,₃ H₃,₃
//! H₄,₂ H₅,₂ H₆,₂ over a 360 grid. Shape criterion: hierarchies give at
//! most small improvements over U₃₆₀; Privelet a modest one.

use dpgrid_core::{guidelines, Method};
use dpgrid_geo::generators::PaperDataset;

use super::{DataBundle, ExpContext};
use crate::report::profile_table;
use crate::Result;

/// The base grid the paper builds hierarchies over.
const BASE: usize = 360;

/// Runs the experiment; writes per-panel CSVs and returns the markdown.
pub fn run(ctx: &ExpContext) -> Result<String> {
    let dir = ctx.dir("fig3");
    let mut md = String::from("## Figure 3 — hierarchies over a 360 grid\n\n");
    for which in [PaperDataset::Checkin, PaperDataset::Landmark] {
        let bundle = DataBundle::prepare(which, ctx)?;
        let n = bundle.dataset.len();
        for &eps in &ctx.epsilons {
            let suggested = guidelines::guideline1(n, eps, guidelines::DEFAULT_C);
            let methods = vec![
                Method::ug(suggested),
                Method::ug(BASE),
                Method::privelet(BASE),
                Method::hierarchy(BASE, 2, 4),
                Method::hierarchy(BASE, 2, 3),
                Method::hierarchy(BASE, 3, 3),
                Method::hierarchy(BASE, 4, 2),
                Method::hierarchy(BASE, 5, 2),
                Method::hierarchy(BASE, 6, 2),
            ];
            let stem = format!("{}_eps{eps}", which.name());
            let evals = bundle.run_panel(&dir, &stem, &methods, eps, ctx)?;
            let title = format!("fig3: {} ε={eps}", which.name());
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
        let mut ctx = ExpContext::smoke(std::env::temp_dir().join("dpgrid_fig3_test"));
        ctx.scale = 1024;
        ctx.queries_per_size = 5;
        let md = run(&ctx).unwrap();
        assert!(md.contains("H2,3@360"));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
