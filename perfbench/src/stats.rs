//! Small statistics helpers: percentiles, medians, process memory.

/// The `q`-quantile (0..=1) of `values` by nearest rank; `NaN` when
/// empty. Sorts a copy, so callers can pass samples in arrival order.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Throughput is measured over windows of this length.
pub const WINDOW_S: f64 = 0.5;
/// Latency percentiles are taken over blocks of this many consecutive
/// requests of one connection, so p99 always has ten samples beyond it.
pub const BLOCK: usize = 1000;

/// Records completed requests into fixed-size windows and blocks as
/// they happen, so the benchmark's own memory does not grow with the
/// request rate (it would show in `peak_rss_mb`).
#[derive(Debug, Clone)]
pub struct Recorder {
    start: std::time::Instant,
    block: Vec<f64>,
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    window_rects: Vec<u64>,
    requests: u64,
    rects: u64,
}

/// A phase's throughput and latency, each the median over windows
/// (throughput) or blocks (latency), so that short bursts of host
/// noise do not move the result.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median over windows of rectangles answered per CPU second of the
    /// process.
    pub rects_per_cpu_s: f64,
    /// Windows with a CPU sample at both ends.
    pub cpu_windows: usize,
    /// The machine's speed index measured right after the phase
    /// ([`crate::reference`]); 1 until [`Summary::at_speed`] sets it.
    pub speed: f64,
    /// `rects_per_cpu_s` divided by `speed`: rectangles per CPU second
    /// of a machine as fast as the nominal one.
    pub rects_per_nominal_cpu_s: f64,
    /// The largest resident set size sampled, in MiB.
    pub peak_rss_mb: f64,
    /// Median over windows of rectangles answered per second.
    pub rects_per_s: f64,
    /// Median over blocks of the block's median latency.
    pub p50_ms: f64,
    /// Median over blocks of the block's 99th percentile latency.
    pub p99_ms: f64,
    /// Full throughput windows.
    pub windows: usize,
    /// Latency blocks.
    pub blocks: usize,
    /// Requests recorded.
    pub requests: u64,
    /// Rectangles answered.
    pub rects: u64,
}

impl Recorder {
    /// A recorder whose windows start at `start`.
    pub fn new(start: std::time::Instant) -> Self {
        Recorder {
            start,
            block: Vec::with_capacity(BLOCK),
            p50s: Vec::new(),
            p99s: Vec::new(),
            window_rects: Vec::new(),
            requests: 0,
            rects: 0,
        }
    }

    /// Records a request that completed now after `ms` milliseconds,
    /// answering `rects` rectangles.
    pub fn record(&mut self, ms: f64, rects: u64) {
        let window = (self.start.elapsed().as_secs_f64() / WINDOW_S) as usize;
        if self.window_rects.len() <= window {
            self.window_rects.resize(window + 1, 0);
        }
        self.window_rects[window] += rects;
        self.requests += 1;
        self.rects += rects;
        self.block.push(ms);
        if self.block.len() == BLOCK {
            self.close_block();
        }
    }

    /// Rectangles recorded so far.
    pub fn rects(&self) -> u64 {
        self.rects
    }

    fn close_block(&mut self) {
        self.p50s.push(percentile(&self.block, 0.5));
        self.p99s.push(percentile(&self.block, 0.99));
        self.block.clear();
    }

    /// Summarizes the recorders of a phase that ran for `wall_s`
    /// seconds, with its CPU samples. A phase too short for one full
    /// window or block is taken whole.
    pub fn summarize(recorders: Vec<Recorder>, wall_s: f64, cpu: &Sampler) -> Summary {
        let windows = (wall_s / WINDOW_S).floor() as usize;
        let mut rects = vec![0u64; windows];
        let (mut p50s, mut p99s, mut partial) = (Vec::new(), Vec::new(), Vec::new());
        let (mut requests, mut total) = (0, 0);
        for r in recorders {
            for (w, n) in r.window_rects.iter().enumerate().take(windows) {
                rects[w] += n;
            }
            p50s.extend(r.p50s);
            p99s.extend(r.p99s);
            partial.extend(r.block);
            requests += r.requests;
            total += r.rects;
        }
        if p50s.is_empty() {
            p50s.push(percentile(&partial, 0.5));
            p99s.push(percentile(&partial, 0.99));
        }
        let rates: Vec<f64> = if windows == 0 {
            vec![total as f64 / wall_s]
        } else {
            rects.iter().map(|&r| r as f64 / WINDOW_S).collect()
        };
        let rects_per_cpu_s = cpu.median_rate();
        Summary {
            rects_per_cpu_s,
            cpu_windows: cpu.rates().len(),
            speed: 1.0,
            rects_per_nominal_cpu_s: rects_per_cpu_s,
            peak_rss_mb: cpu.peak_rss_mb(),
            rects_per_s: median(&rates),
            p50_ms: median(&p50s),
            p99_ms: median(&p99s),
            windows: rates.len(),
            blocks: p50s.len(),
            requests,
            rects: total,
        }
    }
}

impl Summary {
    /// The summary of a phase after which the machine's speed index
    /// read `index`.
    pub fn at_speed(self, index: f64) -> Summary {
        Summary {
            speed: index,
            rects_per_nominal_cpu_s: self.rects_per_cpu_s / index,
            ..self
        }
    }

    /// Combines the summaries of consecutive phases: rates and
    /// latencies are the mean of the phases' medians, counts add up,
    /// and the memory peak is the largest.
    pub fn mean_of(phases: &[Summary]) -> Summary {
        let avg = |f: fn(&Summary) -> f64| mean(&phases.iter().map(f).collect::<Vec<_>>());
        Summary {
            rects_per_cpu_s: avg(|s| s.rects_per_cpu_s),
            cpu_windows: phases.iter().map(|s| s.cpu_windows).sum(),
            speed: avg(|s| s.speed),
            rects_per_nominal_cpu_s: avg(|s| s.rects_per_nominal_cpu_s),
            peak_rss_mb: phases.iter().map(|s| s.peak_rss_mb).fold(0.0, f64::max),
            rects_per_s: avg(|s| s.rects_per_s),
            p50_ms: avg(|s| s.p50_ms),
            p99_ms: avg(|s| s.p99_ms),
            windows: phases.iter().map(|s| s.windows).sum(),
            blocks: phases.iter().map(|s| s.blocks).sum(),
            requests: phases.iter().map(|s| s.requests).sum(),
            rects: phases.iter().map(|s| s.rects).sum(),
        }
    }
}

/// CPU seconds this process has used, all threads, user and system
/// (`CLOCK_PROCESS_CPUTIME_ID`); `NaN` where unavailable. A guest
/// kernel with paravirtual steal accounting leaves out the time the
/// hypervisor gave to other guests, and no clock counts the time a
/// thread waits for a CPU, so this figure moves with the program's own
/// work and not with its neighbours' load.
pub fn process_cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    f64::NAN
}

/// Samples the process once per throughput window: each sample pairs
/// the process CPU clock with the rectangles answered so far, taken at
/// the same instant, and reads the resident set size.
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    samples: Vec<(f64, u64)>,
    peak_rss_mb: f64,
}

impl Sampler {
    /// A sampler whose first sample is taken now, with `rects` answered.
    pub fn start(rects: u64) -> Self {
        let mut s = Sampler::default();
        s.sample(rects);
        s
    }

    /// Records the CPU clock and resident memory now, with `rects`
    /// answered so far.
    pub fn sample(&mut self, rects: u64) {
        self.samples.push((process_cpu_s(), rects));
        self.peak_rss_mb = self.peak_rss_mb.max(rss_mb());
    }

    /// The largest resident set size sampled, in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.peak_rss_mb
    }

    /// Samples once per window from `start` until `deadline`, reading
    /// the rectangles answered so far from `rects` (the load runs on
    /// other threads meanwhile).
    pub fn sample_windows(
        &mut self,
        start: std::time::Instant,
        deadline: std::time::Instant,
        rects: impl Fn() -> u64,
    ) {
        let window = std::time::Duration::from_secs_f64(WINDOW_S);
        let mut next = start + window;
        while next <= deadline {
            std::thread::sleep(next.saturating_duration_since(std::time::Instant::now()));
            self.sample(rects());
            next += window;
        }
    }

    /// Rectangles per CPU second between consecutive samples.
    pub fn rates(&self) -> Vec<f64> {
        self.samples
            .windows(2)
            .filter(|w| w[1].0 > w[0].0)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
            .collect()
    }

    /// Ends the phase with `rects` answered: a phase shorter than one
    /// window is taken whole.
    pub fn close(&mut self, rects: u64) {
        if self.samples.len() < 2 {
            self.sample(rects);
        }
    }

    /// The median over windows of rectangles per CPU second.
    pub fn median_rate(&self) -> f64 {
        median(&self.rates())
    }
}

/// The most recent values up to a fixed capacity. Its pages are all
/// written up front, so its memory does not depend on how long or how
/// fast the run is.
#[derive(Debug, Clone)]
pub struct Ring {
    buf: Vec<f64>,
    next: usize,
    full: bool,
}

impl Ring {
    /// An empty ring holding up to `cap` values.
    pub fn new(cap: usize) -> Self {
        Ring {
            buf: vec![f64::NAN; cap.max(1)],
            next: 0,
            full: false,
        }
    }

    /// Adds a value, replacing the oldest when full.
    pub fn push(&mut self, v: f64) {
        self.buf[self.next] = v;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
            self.full = true;
        }
    }

    /// The values held, in no particular order.
    pub fn values(&self) -> &[f64] {
        if self.full {
            &self.buf
        } else {
            &self.buf[..self.next]
        }
    }
}

/// The machine's CPU time counters (`/proc/stat`), to report how much
/// CPU time the hypervisor gave to other guests while a run measured:
/// a run slowed by its neighbours shows a high steal share.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    /// The counters now, where `/proc/stat` exists.
    pub fn now() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        Some(CpuTimes {
            steal: *fields.get(7)?,
            total: fields.iter().sum(),
        })
    }

    /// The percentage of CPU time stolen since `self`; `NaN` when no
    /// time passed or the counters are unavailable.
    pub fn steal_pct_since(this: Option<Self>) -> f64 {
        match (this, CpuTimes::now()) {
            (Some(a), Some(b)) if b.total > a.total => {
                100.0 * (b.steal - a.steal) as f64 / (b.total - a.total) as f64
            }
            _ => f64::NAN,
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set size of this process in MiB (`VmRSS`), or `NaN` where
/// `/proc` is unavailable.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(key: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Returns the heap's free memory to the system (glibc `malloc_trim`).
/// Set-up frees more than it keeps, and whether glibc holds on to the
/// freed pages depends on which of its per-thread arenas the set-up's
/// worker threads happened to allocate in: resident memory at the start
/// of a read run was either 24 or 28 MiB for the same live data. After
/// this call it is the live data alone.
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: malloc_trim only walks glibc's own heap structures.
        unsafe {
            malloc_trim(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn ring_keeps_the_latest_values() {
        let mut r = Ring::new(3);
        r.push(1.0);
        assert_eq!(r.values(), &[1.0]);
        for v in [2.0, 3.0, 4.0] {
            r.push(v);
        }
        let mut v = r.values().to_vec();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn cpu_rates_pair_rectangles_with_cpu_time() {
        let busy = || {
            let t = std::time::Instant::now();
            let mut x = 0u64;
            while t.elapsed() < std::time::Duration::from_millis(20) {
                x = std::hint::black_box(x.wrapping_add(1));
            }
        };
        let before = process_cpu_s();
        let mut cpu = Sampler::start(0);
        busy();
        cpu.sample(100);
        busy();
        cpu.sample(300);
        assert!(process_cpu_s() - before >= 0.03);
        let rates = cpu.rates();
        assert_eq!(rates.len(), 2);
        // The second window did twice the rectangles in about the same
        // CPU time.
        assert!(rates.iter().all(|r| r.is_finite() && *r > 0.0));
        assert!(rates[1] > rates[0]);
        let mut short = Sampler::start(0);
        busy();
        short.close(50);
        assert_eq!(short.rates().len(), 1);
    }

    #[test]
    fn summaries_take_medians_over_blocks() {
        let start = std::time::Instant::now();
        let mut a = Recorder::new(start);
        let mut b = Recorder::new(start);
        for i in 0..3000 {
            // One slow block on `a`; `b` stays fast.
            a.record(if i >= 2000 { 10.0 } else { 1.0 }, 1);
            b.record(1.0, 2);
        }
        let s = Recorder::summarize(vec![a, b], 0.2, &Sampler::default());
        assert_eq!((s.windows, s.blocks), (1, 6));
        assert_eq!((s.requests, s.rects), (6000, 9000));
        assert_eq!(s.p50_ms, 1.0);
        assert_eq!(s.p99_ms, 1.0);
        assert_eq!(s.rects_per_s, 9000.0 / 0.2);
    }
}
