//! Pieces every workload shares: the array and PFS shape, seeded inputs,
//! planning helpers, timers and process measurements.

use drx_core::plan::ChunkRun;
use drx_core::{index, ArrayMeta, Layout, Region};
use drx_mp::DrxFile;
use drx_pfs::{Pfs, PfsConfig, PfsFile};
use std::time::{Duration, Instant};

/// Chunk edge (64×64 f64 chunks are 32 KiB).
pub const CHUNK: usize = 64;
/// Edge of the full-size square array.
pub const SIDE: usize = 1024;
/// Edge of the array before set-up grows it.
pub const START_SIDE: usize = 256;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
pub const MIB: f64 = 1024.0 * 1024.0;

/// Memory-backed PFS shared by every workload: 4 servers, 64 KiB stripes,
/// 2 client I/O workers, optional emulated per-request latency.
pub fn pfs_config(request_latency: Option<Duration>) -> PfsConfig {
    PfsConfig {
        n_servers: 4,
        stripe_size: 64 * 1024,
        io_workers: 2,
        request_latency,
        ..PfsConfig::default()
    }
}

pub fn new_pfs(request_latency: Option<Duration>) -> Result<Pfs, String> {
    Pfs::new(pfs_config(request_latency)).map_err(|e| format!("pfs: {e}"))
}

/// The value a write tagged `tag` stores at `(i, j)`. Exact in f64 for
/// `tag < 2^29` and `i, j < 4096`, and distinct for every tag and position,
/// so a misplaced or stale element never matches.
pub fn val(tag: u64, i: usize, j: usize) -> f64 {
    (tag * (1 << 24) + (i * 4096 + j) as u64) as f64
}

/// First write tag of a run: different seeds write different values.
pub fn base_tag(seed: u64) -> u64 {
    1 + (seed % 100_000) * 1000
}

/// `val(tag, ..)` over a region, in the given layout.
pub fn region_values(tag: u64, region: &Region, layout: Layout) -> Vec<f64> {
    let strides = layout.strides(&region.extents());
    let mut out = vec![0.0; region.volume() as usize];
    for i in region.lo()[0]..region.hi()[0] {
        for j in region.lo()[1]..region.hi()[1] {
            let at =
                (i - region.lo()[0]) as u64 * strides[0] + (j - region.lo()[1]) as u64 * strides[1];
            out[at as usize] = val(tag, i, j);
        }
    }
    out
}

/// splitmix64: a small seeded generator for workload inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f` and return its result with its wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, ms(t.elapsed()))
}

/// Build the benchmark array on `pfs`: create it at 256×256, grow it to
/// 1024×1024 through 24 alternating 64-element extends, fill it with
/// `val(tag, ..)`. Returns the file and each extend's latency in ms.
pub fn build_array(pfs: &Pfs, name: &str, tag: u64) -> Result<(DrxFile<f64>, Vec<f64>), String> {
    let err = |e: drx_mp::MpError| format!("building {name}: {e}");
    let mut file: DrxFile<f64> =
        DrxFile::create(pfs, name, &[CHUNK, CHUNK], &[START_SIDE, START_SIDE]).map_err(err)?;
    let steps = 2 * (SIDE - START_SIDE) / CHUNK;
    let mut extend_ms = Vec::with_capacity(steps);
    for step in 0..steps {
        let (r, t) = timed(|| file.extend(step % 2, CHUNK));
        r.map_err(err)?;
        extend_ms.push(t);
    }
    let full = file.meta().element_region();
    file.write_region(&full, Layout::C, &region_values(tag, &full, Layout::C)).map_err(err)?;
    Ok((file, extend_ms))
}

/// The run-coalesced plan of a region, as `DrxFile` builds it: runs, the
/// address-sorted `(address, run, step)` entries and the merged byte
/// extents of the chunks.
pub struct Plan {
    pub runs: Vec<ChunkRun>,
    pub entries: Vec<(u64, u32, u32)>,
    pub extents: Vec<(u64, u64)>,
}

pub fn plan(meta: &ArrayMeta, region: &Region) -> Result<Plan, String> {
    if region.rank() != meta.rank()
        || region.hi().iter().zip(meta.element_bounds()).any(|(&h, &n)| h > n)
    {
        return Err(format!("region {region:?} outside bounds {:?}", meta.element_bounds()));
    }
    let chunks = meta.chunking().chunks_covering(region).map_err(|e| e.to_string())?;
    let runs = meta.grid().region_runs(&chunks).map_err(|e| e.to_string())?;
    let entries = drx_core::sorted_run_entries(&runs);
    let cb = meta.chunk_bytes();
    let mut extents: Vec<(u64, u64)> = Vec::new();
    for &(addr, _, _) in &entries {
        match extents.last_mut() {
            Some((off, len)) if *off + *len == addr * cb => *len += cb,
            _ => extents.push((addr * cb, cb)),
        }
    }
    Ok(Plan { runs, entries, extents })
}

/// Chunks a region touches.
pub fn chunks_covering(meta: &ArrayMeta, r: &Region) -> u64 {
    meta.chunking().chunks_covering(r).map_or(0, |c| c.volume())
}

/// PFS requests the direct `DrxFile` path issues to read `region`.
pub fn direct_requests(meta: &ArrayMeta, xta: &PfsFile, region: &Region) -> Result<u64, String> {
    let p = plan(meta, region)?;
    Ok(p.extents.iter().map(|&(off, len)| xta.request_count(off, len) as u64).sum())
}

/// Compare `got` with `val`-model contents; `None` when equal.
pub fn mismatch(got: &[f64], want: &[f64]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} elements, expected {}", got.len(), want.len()));
    }
    got.iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
        .map(|i| format!("element {i}: got {}, expected {}", got[i], want[i]))
}

/// A dense row-major image of the array's expected contents.
pub struct Model {
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Model {
    pub fn new(rows: usize, cols: usize, tag: u64) -> Model {
        let full = Region::new(vec![0, 0], vec![rows, cols]).expect("non-empty model");
        Model { cols, data: region_values(tag, &full, Layout::C) }
    }

    /// Record a write of `val(tag, ..)` over `region`.
    pub fn write(&mut self, tag: u64, region: &Region) {
        for i in region.lo()[0]..region.hi()[0] {
            for j in region.lo()[1]..region.hi()[1] {
                self.data[i * self.cols + j] = val(tag, i, j);
            }
        }
    }

    /// The expected read of `region` in `layout`.
    pub fn read(&self, region: &Region, layout: Layout) -> Vec<f64> {
        let strides = layout.strides(&region.extents());
        let mut out = vec![0.0; region.volume() as usize];
        for i in region.lo()[0]..region.hi()[0] {
            for j in region.lo()[1]..region.hi()[1] {
                let rel = [i - region.lo()[0], j - region.lo()[1]];
                out[index::offset_with_strides(&rel, &strides) as usize] =
                    self.data[i * self.cols + j];
            }
        }
        out
    }
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Latency samples of one kind of call, with the units (bytes or
/// operations) each call completed.
#[derive(Debug, Default, Clone)]
pub struct Calls {
    pub ms: Vec<f64>,
    pub units: Vec<u64>,
}

impl Calls {
    pub fn record(&mut self, ms: f64, units: u64) {
        self.ms.push(ms);
        self.units.push(units);
    }

    pub fn merge(&mut self, other: &Calls) {
        self.ms.extend_from_slice(&other.ms);
        self.units.extend_from_slice(&other.units);
    }

    /// Units per second spent inside the calls, for each run of `n`
    /// consecutive calls (a trailing partial run is dropped). Reporting
    /// the median of these rates, not the total, keeps one stall of a
    /// shared host from moving a whole run's throughput.
    pub fn block_rates(&self, n: usize) -> Vec<f64> {
        self.ms
            .chunks_exact(n)
            .zip(self.units.chunks_exact(n))
            .map(|(ms, u)| u.iter().sum::<u64>() as f64 / (ms.iter().sum::<f64>() / 1e3))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_reads_in_both_layouts() {
        let mut m = Model::new(4, 5, 1);
        let r = Region::new(vec![1, 2], vec![3, 5]).expect("region");
        m.write(2, &Region::new(vec![2, 4], vec![3, 5]).expect("region"));
        let c = m.read(&r, Layout::C);
        assert_eq!(c[0], val(1, 1, 2));
        assert_eq!(c[5], val(2, 2, 4));
        let f = m.read(&r, Layout::Fortran);
        assert_eq!(f[1], val(1, 2, 2));
        assert_eq!(
            region_values(1, &r, Layout::Fortran),
            Model::new(4, 5, 1).read(&r, Layout::Fortran)
        );
        assert!(mismatch(&c, &c).is_none());
        assert!(mismatch(&c, &f).is_some());
    }

    #[test]
    fn block_rates_drop_the_partial_block() {
        let mut c = Calls::default();
        for (ms, units) in [(1.0, 2), (3.0, 2), (6.0, 1), (10.0, 9)] {
            c.record(ms, units);
        }
        let close = |got: Vec<f64>, want: &[f64]| {
            got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9 * b)
        };
        assert!(close(c.block_rates(2), &[1000.0, 625.0]));
        assert!(close(c.block_rates(3), &[500.0]));
    }

    #[test]
    fn rng_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.below(100)
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.below(100)).collect::<Vec<_>>());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
