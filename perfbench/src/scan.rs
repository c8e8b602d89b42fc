//! `scan`: library bulk access with no server involved.
//!
//! Set-up grows a 256×256 array to 1024×1024 through 24 alternating
//! extends and fills it. One closed-loop thread then repeats a round of
//! five operations: a full `DrxFile::read_region` in C order, the same in
//! Fortran order, a full `write_region`, a chunk-misaligned
//! `write_region` over `[32, 992)²` (read-modify-write of the boundary
//! chunks), and a 2-rank `run_spmd` phase doing `read_my_zone(Fortran)`
//! and `write_my_zone` under BLOCK `[2, 1]`. It exercises planning, extent
//! I/O, the copy kernels and the collectives, and never the server or a
//! chunk cache.
//!
//! The traced run executes the library reads and writes as the same
//! sequence of public calls `DrxFile` makes (plan, vectored extent read or
//! per-chunk read/write, scatter/gather kernel), with a span around each.

use crate::common::*;
use crate::layers::Counters;
use crate::report::{Json, Outcome};
use crate::stats;
use crate::trace::{self, Attribution, Tracer};
use crate::{RunCfg, Workload};
use drx_core::{ArrayMeta, Layout, Region};
use drx_mp::{gather_chunk, kernel_stats, scatter_chunk, DistSpec, DrxFile, DrxmpHandle};
use drx_msg::{run_spmd, MsgError};
use drx_pfs::{Pfs, PfsFile};
use std::time::Instant;

const NAME: &str = "scan";
/// Rounds per untraced or traced block of the traced run.
const BLOCK_ROUNDS: usize = 8;
/// Rounds an untraced run makes at least: enough for a p90 with ten
/// samples beyond it.
const MIN_ROUNDS: usize = 100;

fn full() -> Region {
    Region::new(vec![0, 0], vec![SIDE, SIDE]).expect("non-empty region")
}

fn misaligned() -> Region {
    Region::new(vec![32, 32], vec![SIDE - 32, SIDE - 32]).expect("non-empty region")
}

/// Zone of each rank under BLOCK `[2, 1]`: halves of the rows.
fn zone(rank: usize) -> Region {
    Region::new(vec![rank * SIDE / 2, 0], vec![(rank + 1) * SIDE / 2, SIDE]).expect("zone")
}

struct Scan {
    pfs: Pfs,
    file: DrxFile<f64>,
    model: Model,
    tag: u64,
}

/// Timings of one round, in milliseconds.
#[derive(Default)]
struct Round {
    reads: Calls,
    writes: Calls,
    collective_ms: f64,
    op_ms: f64,
}

fn to_msg(e: drx_mp::MpError) -> MsgError {
    MsgError::Invalid(e.to_string())
}

impl Scan {
    fn setup(seed: u64) -> Result<(Scan, f64, Vec<f64>), String> {
        let t = Instant::now();
        let pfs = new_pfs(None)?;
        let tag = base_tag(seed);
        let (file, extend_ms) = build_array(&pfs, NAME, tag)?;
        let setup_s = t.elapsed().as_secs_f64();
        Ok((
            Scan { pfs, file, model: Model::new(SIDE, SIDE, tag), tag: tag + 1 },
            setup_s,
            extend_ms,
        ))
    }

    fn next_tag(&mut self) -> u64 {
        self.tag += 1;
        self.tag - 1
    }

    /// One round. With a tracer, the library calls run as traced
    /// compositions; without, they are the real calls and `counters`
    /// collects what each operation did.
    fn round(
        &mut self,
        tracer: Option<&Tracer>,
        counters: &mut Counters,
        out: &mut Outcome,
    ) -> Result<Round, String> {
        let mut r = Round::default();
        let full = full();
        let bytes = full.volume() * 8;
        for layout in [Layout::C, Layout::Fortran] {
            let snap = Snapshot::take(&self.pfs);
            let (got, t) = timed(|| match tracer {
                None => self.file.read_region(&full, layout).map_err(|e| e.to_string()),
                Some(tr) => tr.request("read", || {
                    traced_read(tr, self.file.meta(), self.file.payload_file(), &full, layout)
                }),
            });
            let got = got?;
            snap.finish(
                &self.pfs,
                counters,
                Some((self.file.meta(), self.file.payload_file(), &full)),
            )?;
            counters.plan_chunks += chunks_covering(self.file.meta(), &full);
            r.reads.record(t, bytes);
            r.op_ms += t;
            out.attempted += 1;
            if let Some(m) = mismatch(&got, &self.model.read(&full, layout)) {
                out.fail(format!("scan {layout:?} read: {m}"));
            }
        }
        for region in [full.clone(), misaligned()] {
            let tag = self.next_tag();
            let data = region_values(tag, &region, Layout::C);
            let snap = Snapshot::take(&self.pfs);
            let (res, t) = timed(|| match tracer {
                None => {
                    self.file.write_region(&region, Layout::C, &data).map_err(|e| e.to_string())
                }
                Some(tr) => tr.request("write", || {
                    traced_write(tr, self.file.meta(), self.file.payload_file(), &region, &data)
                }),
            });
            res?;
            snap.finish(&self.pfs, counters, None)?;
            counters.plan_chunks += chunks_covering(self.file.meta(), &region);
            self.model.write(tag, &region);
            r.writes.record(t, region.volume() * 8);
            r.op_ms += t;
            out.attempted += 1;
        }
        let tag = self.next_tag();
        let halves = [zone(0), zone(1)].map(|z| region_values(tag, &z, Layout::C));
        let snap = Snapshot::take(&self.pfs);
        let (reads, t) = timed(|| match tracer {
            None => self.collective(None, &halves),
            Some(tr) => tr.request("collective", || self.collective(Some(tr), &halves)),
        });
        let reads = reads.map_err(|e| format!("collective phase: {e}"))?;
        snap.finish(&self.pfs, counters, None)?;
        for (rank, got) in reads.iter().enumerate() {
            if let Some(m) = mismatch(got, &self.model.read(&zone(rank), Layout::Fortran)) {
                out.fail(format!("scan zone read, rank {rank}: {m}"));
            }
            self.model.write(tag, &zone(rank));
        }
        r.collective_ms = t;
        r.op_ms += t;
        out.attempted += 1;
        Ok(r)
    }

    /// The 2-rank collective phase; returns each rank's zone read. Only
    /// rank 0 records spans, so the phase's layer times are one rank's
    /// view and add up to its wall time.
    fn collective(
        &self,
        tracer: Option<&Tracer>,
        halves: &[Vec<f64>; 2],
    ) -> Result<Vec<Vec<f64>>, MsgError> {
        let ctx = trace::current();
        let pfs = &self.pfs;
        run_spmd(2, |comm| {
            let tr = tracer.filter(|_| comm.rank() == 0);
            let body = || -> Result<Vec<f64>, MsgError> {
                let rank = comm.rank();
                let mut h = trace::span_if(tr, "msg.collective", || {
                    DrxmpHandle::<f64>::open(comm, pfs, NAME, DistSpec::block(vec![2, 1]))
                })
                .map_err(to_msg)?;
                if h.my_zone() != Some(zone(rank)) {
                    return Err(MsgError::Invalid(format!("unexpected zone {:?}", h.my_zone())));
                }
                trace::span_if(tr, "msg.barrier_wait", || comm.barrier())?;
                let got = trace::span_if(tr, "msg.collective", || h.read_my_zone(Layout::Fortran))
                    .map_err(to_msg)?
                    .map(|(_, data)| data)
                    .unwrap_or_default();
                trace::span_if(tr, "msg.collective", || {
                    h.write_my_zone(Layout::C, Some(&halves[rank]))
                })
                .map_err(to_msg)?;
                trace::span_if(tr, "msg.collective", || h.close()).map_err(to_msg)?;
                trace::span_if(tr, "msg.barrier_wait", || comm.barrier())?;
                Ok(got)
            };
            match tr {
                Some(_) => trace::adopt(ctx, body),
                None => body(),
            }
        })
    }
}

/// PFS and kernel counters around one untraced operation.
struct Snapshot {
    requests: u64,
    bytes: u64,
    kernel: drx_mp::KernelStats,
}

impl Snapshot {
    fn take(pfs: &Pfs) -> Snapshot {
        let s = pfs.stats();
        Snapshot { requests: s.total_requests(), bytes: s.total_bytes(), kernel: kernel_stats() }
    }

    /// Add the operation's counts; `read` names the region of a library
    /// read, whose requests also enter the request ratio.
    fn finish(
        self,
        pfs: &Pfs,
        c: &mut Counters,
        read: Option<(&ArrayMeta, &PfsFile, &Region)>,
    ) -> Result<(), String> {
        let s = pfs.stats();
        let requests = s.total_requests() - self.requests;
        c.ops += 1;
        c.pfs_requests += requests;
        c.pfs_bytes += s.total_bytes() - self.bytes;
        c.add_kernel(&kernel_stats().delta_since(&self.kernel));
        if let Some((meta, xta, region)) = read {
            c.read_requests += requests;
            c.direct_requests += direct_requests(meta, xta, region)?;
        }
        Ok(())
    }
}

/// `DrxFile::read_region` as its public parts, one span per call.
fn traced_read(
    t: &Tracer,
    meta: &ArrayMeta,
    xta: &PfsFile,
    region: &Region,
    layout: Layout,
) -> Result<Vec<f64>, String> {
    let p = t.span("core.plan", || plan(meta, region))?;
    let cb = meta.chunk_bytes() as usize;
    let mut bytes = vec![0u8; p.entries.len() * cb];
    t.span("pfs.read", || xta.read_extents_into(&p.extents, &mut bytes))
        .map_err(|e| e.to_string())?;
    let strides = layout.strides(&region.extents());
    let chunking = meta.chunking();
    let mut out = vec![0.0f64; region.volume() as usize];
    let mut idx = Vec::new();
    for (i, &(_, run, step)) in p.entries.iter().enumerate() {
        p.runs[run as usize].write_index_at(step as usize, &mut idx);
        let chunk = chunking.chunk_elements(&idx).map_err(|e| e.to_string())?;
        let Some(valid) = chunk.intersect(region) else { continue };
        t.span("mp.kernel", || {
            scatter_chunk(
                &bytes[i * cb..(i + 1) * cb],
                chunk.lo(),
                chunking.strides(),
                &mut out,
                region.lo(),
                &strides,
                &valid,
            )
        });
    }
    Ok(out)
}

/// `DrxFile::write_region` (C-order data) as its public parts.
fn traced_write(
    t: &Tracer,
    meta: &ArrayMeta,
    xta: &PfsFile,
    region: &Region,
    data: &[f64],
) -> Result<(), String> {
    let p = t.span("core.plan", || plan(meta, region))?;
    let cb = meta.chunk_bytes();
    let strides = Layout::C.strides(&region.extents());
    let chunking = meta.chunking();
    let mut idx = Vec::new();
    for &(addr, run, step) in &p.entries {
        p.runs[run as usize].write_index_at(step as usize, &mut idx);
        let chunk = chunking.chunk_elements(&idx).map_err(|e| e.to_string())?;
        let Some(valid) = chunk.intersect(region) else { continue };
        let mut bytes = if valid == chunk {
            vec![0u8; cb as usize]
        } else {
            t.span("pfs.read", || xta.read_vec(addr * cb, cb as usize))
                .map_err(|e| e.to_string())?
        };
        t.span("mp.kernel", || {
            gather_chunk(
                data,
                region.lo(),
                &strides,
                &mut bytes,
                chunk.lo(),
                chunking.strides(),
                &valid,
            )
        });
        t.span("pfs.write", || xta.write_at(addr * cb, &bytes)).map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub struct ScanWorkload;

impl Workload for ScanWorkload {
    fn run(&self, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
        let mut setup_s = Vec::new();
        let mut extend_ms = Vec::new();
        let mut state = None;
        for _ in 0..SETUPS {
            drop(state.take());
            let (s, t, e) = Scan::setup(cfg.seed)?;
            setup_s.push(t);
            extend_ms.push(stats::median(&e));
            state = Some(s);
        }
        let mut scan = state.expect("at least one set-up");
        let started = Instant::now();
        let mut counters = Counters::default();
        let mut rounds: Vec<Round> = Vec::new();
        if !cfg.trace {
            while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < cfg.seconds {
                rounds.push(scan.round(None, &mut counters, out)?);
            }
            report_untraced(out, &rounds, &setup_s, &extend_ms);
        } else {
            let tracer = Tracer::default();
            let mut att = Attribution::default();
            let mut first: Option<Counters> = None;
            let mut repeat = true;
            let mut collective = Calls::default();
            let (mut untraced, mut traced) = (Calls::default(), Calls::default());
            let mut kept = Vec::new();
            let mut block = 0;
            while block < 2 || started.elapsed().as_secs_f64() < cfg.seconds {
                if block % 2 == 0 {
                    let mut c = Counters::default();
                    for _ in 0..BLOCK_ROUNDS {
                        untraced.record(scan.round(None, &mut c, out)?.op_ms, 0);
                    }
                    // Every untraced block does identical work.
                    repeat &= first.get_or_insert_with(|| c.clone()) == &c;
                    counters.add(&c);
                } else {
                    for _ in 0..BLOCK_ROUNDS {
                        let r = scan.round(Some(&tracer), &mut Counters::default(), out)?;
                        traced.record(r.op_ms, 0);
                        collective.record(r.collective_ms, (SIDE * SIDE * 16) as u64);
                    }
                    let spans = tracer.take();
                    att.add(&spans);
                    if block == 1 {
                        kept = spans;
                    }
                }
                block += 1;
            }
            out.detail("counters_repeat", Json::Bool(repeat));
            let collective_mib_s = stats::median(&collective.block_rates(1)) / MIB;
            crate::layers::emit(
                out,
                &att,
                &counters,
                collective_mib_s,
                crate::overhead_pct(&untraced, &traced),
            );
            cfg.write_spans(&kept)?;
        }
        out.detail(
            "config",
            Json::obj([
                ("array", Json::Str(format!("{SIDE}x{SIDE} f64, {CHUNK}x{CHUNK} chunks"))),
                ("setup", Json::Str("256x256 grown by 24 alternating 64-element extends".into())),
                ("collective", Json::Str("2 ranks, BLOCK [2,1]".into())),
                ("cache_chunks", Json::Int(0)),
            ]),
        );
        Ok(())
    }
}

fn report_untraced(out: &mut Outcome, rounds: &[Round], setup_s: &[f64], extend_ms: &[f64]) {
    let mut reads = Calls::default();
    let mut writes = Calls::default();
    let mut ops = Calls::default();
    let mut collective = Calls::default();
    for r in rounds {
        reads.merge(&r.reads);
        writes.merge(&r.writes);
        ops.record(r.op_ms, 5);
        collective.record(r.collective_ms, (SIDE * SIDE * 16) as u64);
    }
    // C and Fortran reads (and full and misaligned writes) form two modes;
    // a round's latency sample is the mean of its two calls, so the
    // percentiles do not jump between the modes. Rates are per round.
    let pair =
        |c: &Calls| -> Vec<f64> { c.ms.chunks_exact(2).map(|p| (p[0] + p[1]) / 2.0).collect() };
    let rates = crate::Rates {
        ops: ops.block_rates(1),
        read_bytes: reads.block_rates(2),
        write_bytes: writes.block_rates(2),
    };
    let whole = crate::Segment { rates, read_latency: pair(&reads), write_latency: pair(&writes) };
    crate::report_end_to_end(out, setup_s, &[whole], extend_ms);
    out.detail("rounds", Json::Int(rounds.len() as u64));
    out.detail("collective_mib_s", Json::Num(stats::median(&collective.block_rates(1)) / MIB));
}
