//! Figure 2 — KD-standard and KD-hybrid versus UG at several grid sizes.
//!
//! 16 panels in the paper: for each of the four datasets and
//! ε ∈ {0.1, 1}, a line graph of mean relative error per query size and
//! a candlestick profile. Shape criteria: UG error is U-shaped in `m`;
//! the best UG is at least as good as KD-hybrid on road/storage and
//! comparable on checkin/landmark; relative error peaks at mid-size
//! queries.

use dpgrid_core::{guidelines, Method};
use dpgrid_geo::generators::PaperDataset;

use super::{size_ladder, DataBundle, ExpContext};
use crate::report::{by_size_table, profile_table};
use crate::Result;

/// Runs the experiment; writes per-panel CSVs and returns the markdown.
pub fn run(ctx: &ExpContext) -> Result<String> {
    let dir = ctx.dir("fig2");
    let mut md = String::from("## Figure 2 — KD trees vs UG size sweep\n\n");
    for which in PaperDataset::ALL {
        let bundle = DataBundle::prepare(which, ctx)?;
        let n = bundle.dataset.len();
        for &eps in &ctx.epsilons {
            let suggested = guidelines::guideline1(n, eps, guidelines::DEFAULT_C);
            let mut methods = vec![Method::KdStandard, Method::KdHybrid];
            methods.extend(size_ladder(suggested).into_iter().map(Method::ug));
            let stem = format!("{}_eps{eps}", which.name());
            let evals = bundle.run_panel(&dir, &stem, &methods, eps, ctx)?;
            let title = format!("fig2: {} ε={eps}", which.name());
            md.push_str(&by_size_table(&title, &evals).to_markdown());
            md.push_str(&profile_table(&format!("{title} (profile)"), &evals).to_markdown());
        }
    }
    Ok(md)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run() {
        let mut ctx = ExpContext::smoke(std::env::temp_dir().join("dpgrid_fig2_test"));
        ctx.scale = 1024;
        ctx.queries_per_size = 5;
        let md = run(&ctx).unwrap();
        assert!(md.contains("Khy"));
        assert!(ctx.dir("fig2").join("storage_eps1_by_size.csv").exists());
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
