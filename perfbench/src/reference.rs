//! A machine speed reference, measured between the rounds of a run.
//!
//! On a shared host the CPU time one unit of the same work costs drifts
//! by tens of percent over minutes, as neighbours load the cores and the
//! hypervisor behind them: between two sets of ten runs of the same code
//! the median CPU cost of every workload moved by 33–76 %. The drift
//! reaches the benchmark's own fixed code as much as the program, so
//! the benchmark times three fixed jobs of its own right after each
//! round, under the same conditions, and divides the round's throughput
//! by their speed relative to [`NOMINAL`]. None of the jobs calls the
//! program, so a change to the program moves only the numerator.
//!
//! The jobs cover the kinds of cost the workloads have: arithmetic and
//! cached memory access (`compute`), loopback TCP round trips between two
//! threads (`roundtrip`), and thread start-up with the parallelism probe
//! the engine makes per request (`spawn`).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use crate::stats::process_cpu_s;

/// Operations per CPU second of each job on the machine the benchmark
/// was written on (a 2-vCPU Xeon guest), so a speed index near 1 means
/// a machine as fast as that one was.
pub const NOMINAL: Speed = Speed {
    compute: 28_500.0,
    roundtrip: 55_000.0,
    spawn: 17_000.0,
};

/// Wall time each job runs per measurement.
const JOB: Duration = Duration::from_millis(100);

/// Operations per CPU second of each reference job.
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    /// 2^13 random read-modify-writes over a 64 KiB table, with a
    /// floating-point multiply-add each.
    pub compute: f64,
    /// 256-byte loopback TCP echoes between two threads.
    pub roundtrip: f64,
    /// Threads started and joined, each probing the CPU count.
    pub spawn: f64,
}

impl Speed {
    /// Times each job for [`JOB`].
    pub fn measure() -> Result<Speed, String> {
        Ok(Speed {
            compute: compute(),
            roundtrip: roundtrip().map_err(|e| format!("reference round trip: {e}"))?,
            spawn: spawn(),
        })
    }

    /// The geometric mean of the three jobs' speeds relative to
    /// [`NOMINAL`].
    pub fn index(&self) -> f64 {
        (self.compute / NOMINAL.compute
            * (self.roundtrip / NOMINAL.roundtrip)
            * (self.spawn / NOMINAL.spawn))
            .cbrt()
    }
}

/// Runs `step` until [`JOB`] has passed and returns steps per CPU second.
fn rate(mut step: impl FnMut()) -> f64 {
    let (cpu, start) = (process_cpu_s(), Instant::now());
    let mut n = 0u64;
    while start.elapsed() < JOB {
        step();
        n += 1;
    }
    n as f64 / (process_cpu_s() - cpu)
}

fn compute() -> f64 {
    // Small enough to come from the heap: a table of 128 KiB or more is
    // mapped on its own, and freeing it would raise the allocator's
    // mapping threshold for the program's allocations after it.
    const N: usize = 1 << 13;
    let mut table = vec![0u64; N];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut f = 1.0f64;
    let speed = rate(|| {
        for i in 0..N {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = x as usize & (N - 1);
            table[j] = table[j].wrapping_add(x) ^ table[i];
            f = f * 1.000_000_1 + (x & 0xff) as f64 * 1e-9;
        }
    });
    std::hint::black_box((&table, f));
    speed
}

fn roundtrip() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (mut server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; 256];
        // Ends when the client closes its end.
        while server.read_exact(&mut buf).is_ok() && server.write_all(&buf).is_ok() {}
    });
    let mut buf = [1u8; 256];
    let mut failed = None;
    let speed = rate(|| {
        if failed.is_none() {
            if let Err(e) = client
                .write_all(&buf)
                .and_then(|_| client.read_exact(&mut buf))
            {
                failed = Some(e);
            }
        }
    });
    drop(client);
    echo.join().expect("echo thread panicked");
    match failed {
        Some(e) => Err(e),
        None => Ok(speed),
    }
}

fn spawn() -> f64 {
    rate(|| {
        let probe = std::thread::spawn(|| std::thread::available_parallelism().ok());
        std::hint::black_box(probe.join().expect("probe thread panicked"));
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_runs_and_the_index_is_relative_to_nominal() {
        let speed = Speed::measure().expect("reference jobs run");
        for v in [speed.compute, speed.roundtrip, speed.spawn] {
            assert!(v.is_finite() && v > 0.0, "{speed:?}");
        }
        assert!(speed.index() > 0.0);
        assert!((NOMINAL.index() - 1.0).abs() < 1e-12);
    }
}
