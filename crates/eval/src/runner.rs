//! Multi-threaded experiment runner.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use dpgrid_core::Method;
use dpgrid_geo::GeoDataset;

use crate::metrics::{absolute_error, relative_error, Candlestick};
use crate::truth::TruthTable;
use crate::workload::QueryWorkload;
use crate::Result;

/// Configuration of one evaluation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Privacy budget ε per synopsis build.
    pub epsilon: f64,
    /// Independent repetitions per method (fresh noise each time);
    /// reported numbers pool the errors of all trials.
    pub trials: usize,
    /// Master seed; per-(method, trial) seeds are derived from it, so
    /// results do not depend on scheduling order.
    pub seed: u64,
}

impl EvalConfig {
    /// Creates a config with the given ε, 3 trials and a fixed seed.
    pub fn new(epsilon: f64) -> Self {
        EvalConfig {
            epsilon,
            trials: 3,
            seed: 0xD9_6A_11,
        }
    }

    /// Overrides the trial count.
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }

    /// Overrides the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Pooled evaluation results of one method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodEval {
    /// The method's label (paper notation).
    pub label: String,
    /// Mean relative error per query-size class (the paper's line
    /// graphs).
    pub mean_rel_by_size: Vec<f64>,
    /// Candlestick of relative errors pooled over all sizes and trials
    /// (the paper's candlestick plots).
    pub rel_profile: Candlestick,
    /// Candlestick of absolute errors pooled over all sizes and trials
    /// (Figure 6).
    pub abs_profile: Candlestick,
    /// Mean wall-clock seconds per synopsis build.
    pub build_seconds: f64,
}

/// Evaluates `methods` over a dataset and workload: builds each method
/// `cfg.trials` times with independent noise and pools the per-query
/// errors.
///
/// Methods run on separate threads (`std::thread::scope`); the dataset,
/// workload and truth table are shared read-only.
pub fn evaluate(
    dataset: &GeoDataset,
    workload: &QueryWorkload,
    truth: &TruthTable,
    methods: &[Method],
    cfg: &EvalConfig,
) -> Result<Vec<MethodEval>> {
    if cfg.trials == 0 {
        return Err(crate::EvalError::InvalidConfig("trials must be ≥ 1".into()));
    }
    let results: Vec<Result<MethodEval>> = std::thread::scope(|scope| {
        let handles: Vec<_> = methods
            .iter()
            .enumerate()
            .map(|(mi, method)| {
                scope.spawn(move || evaluate_one(dataset, workload, truth, method, mi, cfg))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluation thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Evaluates a single method (sequentially over its trials).
pub fn evaluate_one(
    dataset: &GeoDataset,
    workload: &QueryWorkload,
    truth: &TruthTable,
    method: &Method,
    method_index: usize,
    cfg: &EvalConfig,
) -> Result<MethodEval> {
    let rho = truth.rho();
    let num_sizes = workload.num_sizes();
    let mut rel_by_size: Vec<Vec<f64>> = vec![Vec::new(); num_sizes];
    let mut rel_all = Vec::new();
    let mut abs_all = Vec::new();
    let mut build_time = 0.0f64;
    for trial in 0..cfg.trials {
        // Derived seed: independent of thread scheduling.
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((method_index as u64) << 32)
            .wrapping_add(trial as u64);
        let mut rng = StdRng::seed_from_u64(seed);
        let start = std::time::Instant::now();
        // The registry's single construction path — the same code the
        // publishing pipeline runs, so evaluated and published methods
        // cannot drift apart.
        let synopsis = method.build_boxed(dataset, cfg.epsilon, &mut rng)?;
        build_time += start.elapsed().as_secs_f64();
        for (i, batch) in rel_by_size.iter_mut().enumerate() {
            // One batched call per size class: synopses with a compiled
            // surface (e.g. releases) answer the whole class through
            // their index, and the default implementation fans the
            // chunk out across scoped threads.
            let estimates = synopsis.answer_all(workload.queries(i));
            for (j, est) in estimates.into_iter().enumerate() {
                let t = truth.answer(i, j);
                batch.push(relative_error(est, t, rho));
                abs_all.push(absolute_error(est, t));
            }
        }
    }
    for batch in &rel_by_size {
        rel_all.extend_from_slice(batch);
    }
    Ok(MethodEval {
        label: method.label(dataset.len(), cfg.epsilon),
        mean_rel_by_size: rel_by_size
            .iter()
            .map(|v| v.iter().sum::<f64>() / v.len().max(1) as f64)
            .collect(),
        rel_profile: Candlestick::from_values(&rel_all)
            .expect("workload produced at least one query"),
        abs_profile: Candlestick::from_values(&abs_all)
            .expect("workload produced at least one query"),
        build_seconds: build_time / cfg.trials as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadSpec;
    use dpgrid_geo::{generators, Domain, PointIndex};
    use rand::SeedableRng;

    fn setup() -> (GeoDataset, QueryWorkload, TruthTable) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let domain = Domain::from_corners(0.0, 0.0, 16.0, 16.0).unwrap();
        let ds = generators::uniform(domain, 5_000, &mut rng);
        let spec = WorkloadSpec {
            q1_width: 0.5,
            q1_height: 0.5,
            num_sizes: 4,
            queries_per_size: 30,
        };
        let w = QueryWorkload::generate(&domain, &spec, &mut rng).unwrap();
        let idx = PointIndex::build(&ds);
        let t = TruthTable::compute(&idx, &w);
        (ds, w, t)
    }

    #[test]
    fn evaluates_multiple_methods() {
        let (ds, w, t) = setup();
        let methods = [Method::ug(16), Method::ag(8), Method::Flat];
        let cfg = EvalConfig::new(1.0).with_trials(2);
        let out = evaluate(&ds, &w, &t, &methods, &cfg).unwrap();
        assert_eq!(out.len(), 3);
        for me in &out {
            assert_eq!(me.mean_rel_by_size.len(), 4);
            assert!(me.rel_profile.mean.is_finite());
            assert!(me.abs_profile.p95 >= me.abs_profile.p25);
            assert!(me.build_seconds >= 0.0);
        }
        assert_eq!(out[0].label, "U16");
        assert_eq!(out[2].label, "Flat");
    }

    #[test]
    fn results_are_seed_deterministic() {
        let (ds, w, t) = setup();
        let methods = [Method::ug(8)];
        let cfg = EvalConfig::new(0.5).with_trials(2).with_seed(77);
        let a = evaluate(&ds, &w, &t, &methods, &cfg).unwrap();
        let b = evaluate(&ds, &w, &t, &methods, &cfg).unwrap();
        assert_eq!(a[0].rel_profile.mean, b[0].rel_profile.mean);
        assert_eq!(a[0].mean_rel_by_size, b[0].mean_rel_by_size);
    }

    #[test]
    fn higher_epsilon_means_lower_error() {
        let (ds, w, t) = setup();
        let methods = [Method::ug(16)];
        let loose = evaluate(&ds, &w, &t, &methods, &EvalConfig::new(0.05).with_trials(3)).unwrap();
        let tight = evaluate(&ds, &w, &t, &methods, &EvalConfig::new(5.0).with_trials(3)).unwrap();
        assert!(
            tight[0].rel_profile.mean < loose[0].rel_profile.mean,
            "ε=5 mean {} should beat ε=0.05 mean {}",
            tight[0].rel_profile.mean,
            loose[0].rel_profile.mean
        );
    }

    #[test]
    fn zero_trials_rejected() {
        let (ds, w, t) = setup();
        let cfg = EvalConfig::new(1.0).with_trials(0);
        assert!(evaluate(&ds, &w, &t, &[Method::Flat], &cfg).is_err());
    }
}
