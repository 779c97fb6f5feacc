//! Ablations of the design choices DESIGN.md calls out.
//!
//! Four questions, each isolated on the checkin and landmark datasets:
//!
//! 1. **Constrained inference** — how much does AG's two-level merge
//!    (§IV-B) buy? (`A*` vs `A*[noCI]`)
//! 2. **Guideline-2 adaptivity** — does adapting `m₂` to the noisy cell
//!    count beat partitioning every cell the same way? (`A*` vs
//!    `A*[m2=k]` for a fixed k matching the average leaf budget)
//! 3. **Noise source** — Laplace vs the integer geometric mechanism at
//!    the same ε (`U*` vs `U*[geo]`): the geometric's variance is
//!    slightly lower, so it should never hurt.
//! 4. **Square vs aspect-aware cells** — the paper always uses `m × m`
//!    even on non-square domains; does matching the aspect ratio help?
//!    (`U*` vs `U*[aspect]`; checkin's domain is 2.4 : 1)
//!
//! Plus the KD stopping rule (`Khy` vs `Khy[stop=0]`), which quantifies
//! why \[3\]'s data-dependent trees matter at small ε.

use dpgrid_core::{guidelines, Method};
use dpgrid_geo::generators::PaperDataset;

use super::{DataBundle, ExpContext};
use crate::report::profile_table;
use crate::Result;

/// Runs all ablation panels; writes CSVs and returns the markdown.
pub fn run(ctx: &ExpContext) -> Result<String> {
    let dir = ctx.dir("ablate");
    let mut md = String::from("## Ablations — design choices under the knife\n\n");
    for which in [PaperDataset::Checkin, PaperDataset::Landmark] {
        let bundle = DataBundle::prepare(which, ctx)?;
        let n = bundle.dataset.len();
        for &eps in &ctx.epsilons {
            let m1 = guidelines::suggested_m1(n, eps, guidelines::DEFAULT_C);
            // A fixed m2 with comparable total leaf count: the average
            // adaptive m2 is ≈ √(N'(1-α)ε/c₂) at N' = N/m1².
            let avg_n_prime = n as f64 / (m1 * m1) as f64;
            let fixed_m2 =
                guidelines::guideline2(avg_n_prime, (1.0 - 0.5) * eps, guidelines::DEFAULT_C2)
                    .max(1);

            let methods = vec![
                // 1. constrained inference
                Method::AgVariant {
                    m1: None,
                    ci: true,
                    fixed_m2: None,
                },
                Method::AgVariant {
                    m1: None,
                    ci: false,
                    fixed_m2: None,
                },
                // 2. Guideline-2 adaptivity
                Method::AgVariant {
                    m1: None,
                    ci: true,
                    fixed_m2: Some(fixed_m2),
                },
                // 3. noise source
                Method::UgVariant {
                    m: None,
                    geometric: false,
                    aspect: false,
                },
                Method::UgVariant {
                    m: None,
                    geometric: true,
                    aspect: false,
                },
                // 4. cell shape
                Method::UgVariant {
                    m: None,
                    geometric: false,
                    aspect: true,
                },
                // 5. KD adaptive stopping
                Method::KdHybridVariant { stop_factor: 3.0 },
                Method::KdHybridVariant { stop_factor: 0.0 },
            ];
            let stem = format!("{}_eps{eps}", which.name());
            let evals = bundle.run_panel(&dir, &stem, &methods, eps, ctx)?;
            let title = format!("ablate: {} ε={eps}", which.name());
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
        let mut ctx = ExpContext::smoke(std::env::temp_dir().join("dpgrid_ablate_test"));
        ctx.scale = 1024;
        ctx.queries_per_size = 5;
        let md = run(&ctx).unwrap();
        assert!(md.contains("noCI"));
        assert!(md.contains("[geo]"));
        assert!(md.contains("stop=0"));
        let _ = std::fs::remove_dir_all(&ctx.out_dir);
    }
}
