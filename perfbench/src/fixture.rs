//! Seeded inputs shared by the workloads: landmark-shaped points, the
//! paper's q1–q6 query rectangles and their exact answers.

use rand::rngs::StdRng;
use rand::SeedableRng;

use dpgrid_core::Release;
use dpgrid_eval::metrics::relative_error;
use dpgrid_eval::truth::TruthTable;
use dpgrid_eval::{QueryWorkload, WorkloadSpec};
use dpgrid_geo::generators::PaperDataset;
use dpgrid_geo::{GeoDataset, PointIndex, Rect};

use crate::stats::{mean, median, Ring};

/// The paper's query sizes q1–q6.
const SIZES: usize = 6;

/// The cluster layout of the landmark mixture is fixed, like a real
/// dataset's geography; the run seed draws the points, the queries and
/// the noise. Varying the layout too would move the accuracy figures
/// by more than any change to the noise path.
const LAYOUT_SEED: u64 = 0x1A4D_3A2C;

/// The privacy budget of every central release.
pub const EPSILON: f64 = 1.0;

/// An independent RNG stream for `stream` under the run seed.
pub fn rng(seed: u64, stream: &str) -> StdRng {
    StdRng::seed_from_u64(sub_seed(seed, stream))
}

/// A seed for `stream` under the run seed (FNV-1a of the name, mixed
/// with the seed).
pub fn sub_seed(seed: u64, stream: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for b in stream.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `n` landmark-shaped points drawn under `seed`.
pub fn dataset(seed: u64, n: usize) -> GeoDataset {
    PaperDataset::Landmark
        .mixture(LAYOUT_SEED)
        .expect("landmark mixture is valid")
        .sample(n, &mut rng(seed, "points"))
}

/// The paper's q1–q6 workload with `per_size` rectangles per size,
/// flattened so that consecutive rectangles cycle through the sizes
/// (every chunk of a request mixes all six), with each rectangle's
/// exact answer over `data` from `eval::truth`.
pub struct Queries {
    /// The rectangles, sizes interleaved.
    pub rects: Vec<Rect>,
    /// The exact count inside each rectangle.
    pub truth: Vec<f64>,
    /// The relative-error floor ρ = 0.001·|D|.
    pub rho: f64,
}

impl Queries {
    /// Draws the workload under `stream` of the run seed.
    pub fn generate(data: &GeoDataset, per_size: usize, seed: u64, stream: &str) -> Self {
        let spec = WorkloadSpec::paper(PaperDataset::Landmark).with_queries_per_size(per_size);
        debug_assert_eq!(spec.num_sizes, SIZES);
        let workload = QueryWorkload::generate(data.domain(), &spec, &mut rng(seed, stream))
            .expect("paper workload fits the landmark domain");
        let table = TruthTable::compute(&PointIndex::build(data), &workload);
        let mut rects = Vec::with_capacity(workload.total_queries());
        let mut truth = Vec::with_capacity(workload.total_queries());
        for j in 0..per_size {
            for i in 0..workload.num_sizes() {
                rects.push(workload.queries(i)[j]);
                truth.push(table.answer(i, j));
            }
        }
        Queries {
            rects,
            truth,
            rho: table.rho(),
        }
    }

    /// Adds the paper's relative error of `answers`, for the
    /// rectangles starting at `offset`, to `out`.
    pub fn relative_errors(&self, offset: usize, answers: &[f64], out: &mut Accuracy) {
        for (k, (a, t)) in answers.iter().zip(&self.truth[offset..]).enumerate() {
            out.push(offset + k, relative_error(*a, *t, self.rho));
        }
    }
}

/// Relative errors grouped by query size. The score is the mean over
/// q1–q6 of each size's median relative error: the paper reports one
/// median per size, and averaging them keeps the score from resting on
/// how many rectangles of each size happen to land in dense regions.
#[derive(Debug, Clone)]
pub struct Accuracy {
    sizes: Vec<Ring>,
}

impl Accuracy {
    /// Keeps the latest `cap` errors of each size.
    pub fn new(cap: usize) -> Self {
        Accuracy {
            sizes: (0..SIZES).map(|_| Ring::new(cap)).collect(),
        }
    }

    /// Records the error of rectangle `index` of a [`Queries`] pool
    /// (sizes interleave, so the size is `index % 6`).
    pub fn push(&mut self, index: usize, error: f64) {
        self.sizes[index % SIZES].push(error);
    }

    /// Mean over sizes of the median error; `NaN` when empty.
    pub fn score(&self) -> f64 {
        let medians: Vec<f64> = self
            .sizes
            .iter()
            .filter(|r| !r.values().is_empty())
            .map(|r| median(r.values()))
            .collect();
        mean(&medians)
    }

    /// Errors held.
    pub fn samples(&self) -> usize {
        self.sizes.iter().map(|r| r.values().len()).sum()
    }
}

/// Compares the compiled surface of `release` with its linear scan on
/// `rects`: the count of rectangles checked and the first disagreement.
pub fn check_against_scan(release: &Release, rects: &[Rect]) -> (u64, Option<String>) {
    let surface = release.surface();
    for q in rects {
        let compiled = surface.answer(q);
        let scan = release.answer_linear_scan(q);
        if (compiled - scan).abs() > 1e-9 * (1.0 + scan.abs()) {
            return (
                rects.len() as u64,
                Some(format!("surface {compiled} vs linear scan {scan} on {q:?}")),
            );
        }
    }
    (rects.len() as u64, None)
}
