//! The array-server workloads, `serve_hot` and `grow`.
//!
//! Both drive a real `drx_server::Server` behind `serve` (2 worker
//! threads, default `ServerConfig`: a 64-chunk cache) through
//! `TcpClient`. The traced run cannot time the layers inside
//! `Server::handle` from outside, so it serves the same requests with the
//! server's region and extend pipeline composed from the same public calls
//! (`chunks_covering` + `region_addresses` planning, `RangeLockManager`,
//! `SharedChunkCache`, the per-element copy, `ArrayMeta::extend` and the
//! `.xmd` commit), framed with the same `proto` functions over a socket,
//! with a span around each call. Counters come from the real server.

use crate::common::*;
use crate::layers::Counters;
use crate::report::{Json, Outcome};
use crate::stats;
use crate::trace::{self, Attribution, Context, Tracer};
use crate::{RunCfg, Workload};
use drx_core::{index, ArrayMeta, Layout, Region};
use drx_mp::{DrxFile, PoolStats, XMD_SUFFIX, XTA_SUFFIX};
use drx_pfs::{Pfs, PfsFile};
use drx_server::proto::{
    decode_request, decode_response, encode_request, encode_response, error_response, read_frame,
    write_frame, MAX_FRAME,
};
use drx_server::{
    serve, LockMode, RangeLockManager, Request, Response, Server, ServerConfig, SharedChunkCache,
    StatReply, TcpClient,
};
use parking_lot::{Mutex, RwLock};
use std::io::{BufReader, BufWriter};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SERVE_THREADS: usize = 2;

fn lo_hi(r: &Region) -> (Vec<u64>, Vec<u64>) {
    (r.lo().iter().map(|&x| x as u64).collect(), r.hi().iter().map(|&x| x as u64).collect())
}

fn encode_f64(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn decode_f64(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk"))).collect()
}

/// One client connection, real or traced.
trait Endpoint: Send {
    fn read(&mut self, r: &Region) -> Result<Vec<u8>, String>;
    fn write(&mut self, r: &Region, data: &[u8]) -> Result<(), String>;
    fn extend(&mut self, dim: u32, by: u64) -> Result<Vec<u64>, String>;
    /// The real server's counters, where the endpoint can ask for them.
    fn counters(&mut self) -> Result<Option<Counters>, String> {
        Ok(None)
    }
}

/// A `TcpClient` session on the real server.
struct Real {
    client: TcpClient,
    handle: u32,
}

impl Real {
    fn connect(addr: std::net::SocketAddr, name: &str) -> Result<Real, String> {
        let mut client = TcpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let (handle, _) = client.open(name).map_err(|e| format!("open {name}: {e}"))?;
        Ok(Real { client, handle })
    }
}

impl Endpoint for Real {
    fn read(&mut self, r: &Region) -> Result<Vec<u8>, String> {
        let (lo, hi) = lo_hi(r);
        self.client.read_region(self.handle, &lo, &hi).map_err(|e| e.to_string())
    }

    fn write(&mut self, r: &Region, data: &[u8]) -> Result<(), String> {
        let (lo, hi) = lo_hi(r);
        self.client.write_region(self.handle, &lo, &hi, data).map_err(|e| e.to_string())
    }

    fn extend(&mut self, dim: u32, by: u64) -> Result<Vec<u64>, String> {
        self.client.extend(self.handle, dim, by).map_err(|e| e.to_string())
    }

    fn counters(&mut self) -> Result<Option<Counters>, String> {
        let stat = self.client.stat(self.handle).map_err(|e| format!("stat: {e}"))?;
        Ok(Some(server_counters(&stat)))
    }
}

/// A validated region and its chunks' `(index, address)` pairs, sorted by
/// address.
type Planned = (Region, Vec<(Vec<usize>, u64)>);

/// The server's per-array state and request pipeline, rebuilt from public
/// parts so every layer call can carry a span.
struct TracedArray {
    meta: RwLock<ArrayMeta>,
    xmd: PfsFile,
    xta: PfsFile,
    locks: RangeLockManager,
    cache: SharedChunkCache,
}

impl TracedArray {
    fn open(pfs: &Pfs, name: &str) -> Result<TracedArray, String> {
        let e = |e: &dyn std::fmt::Display| format!("opening {name}: {e}");
        let xmd = pfs.open(&format!("{name}{XMD_SUFFIX}")).map_err(|x| e(&x))?;
        let meta = ArrayMeta::decode(&xmd.read_vec(0, xmd.len() as usize).map_err(|x| e(&x))?)
            .map_err(|x| e(&x))?;
        let xta = pfs.open(&format!("{name}{XTA_SUFFIX}")).map_err(|x| e(&x))?;
        let cache = SharedChunkCache::new(
            xta.clone(),
            meta.chunk_bytes() as usize,
            ServerConfig::default().cache_chunks,
        )
        .map_err(|x| e(&x))?;
        Ok(TracedArray { meta: RwLock::new(meta), xmd, xta, locks: RangeLockManager::new(), cache })
    }

    fn handle(&self, t: &Tracer, session: u64, req: Request) -> Response {
        let res = match req {
            Request::ReadRegion { lo, hi, .. } => {
                self.read_region(t, session, &lo, &hi).map(|data| Response::Data { data })
            }
            Request::WriteRegion { lo, hi, data, .. } => {
                self.write_region(t, session, &lo, &hi, &data).map(|()| Response::Written)
            }
            Request::Extend { dim, by, .. } => {
                self.extend(t, dim, by).map(|bounds| Response::Extended { bounds })
            }
            other => Err(format!("request {other:?} is not part of the workload")),
        };
        res.unwrap_or_else(|message| Response::Error { code: 0, message })
    }

    fn plan(t: &Tracer, meta: &ArrayMeta, lo: &[u64], hi: &[u64]) -> Result<Planned, String> {
        let dims = |v: &[u64]| v.iter().map(|&x| x as usize).collect::<Vec<_>>();
        let region = Region::new(dims(lo), dims(hi)).map_err(|e| e.to_string())?;
        if region.hi().iter().zip(meta.element_bounds()).any(|(&h, &n)| h > n) {
            return Err(format!("region {region:?} outside bounds {:?}", meta.element_bounds()));
        }
        let pairs = t.span("core.plan", || -> Result<_, String> {
            let chunks = meta.chunking().chunks_covering(&region).map_err(|e| e.to_string())?;
            let mut pairs = meta.grid().region_addresses(&chunks).map_err(|e| e.to_string())?;
            pairs.sort_by_key(|&(_, a)| a);
            Ok(pairs)
        })?;
        Ok((region, pairs))
    }

    fn read_region(
        &self,
        t: &Tracer,
        session: u64,
        lo: &[u64],
        hi: &[u64],
    ) -> Result<Vec<u8>, String> {
        let meta = self.meta.read().clone();
        let (region, pairs) = Self::plan(t, &meta, lo, hi)?;
        let addrs: Vec<u64> = pairs.iter().map(|&(_, a)| a).collect();
        let _guard = t.span("server.lock", || self.locks.acquire(&addrs, LockMode::Read));
        let chunks = t
            .span("server.cache", || self.cache.read_chunks(session, &addrs))
            .map_err(|e| e.to_string())?;
        let esize = meta.dtype().size();
        let strides = index::row_major_strides(&region.extents());
        let chunking = meta.chunking();
        let mut out = vec![0u8; region.volume() as usize * esize];
        for ((chunk_idx, _), bytes) in pairs.iter().zip(&chunks) {
            let chunk = chunking.chunk_elements(chunk_idx).map_err(|e| e.to_string())?;
            let Some(valid) = chunk.intersect(&region) else { continue };
            t.span("server.copy", || {
                index::for_each_offset_pair(
                    &valid,
                    chunk.lo(),
                    chunking.strides(),
                    region.lo(),
                    &strides,
                    |s, d| {
                        let (s, d) = (s as usize * esize, d as usize * esize);
                        out[d..d + esize].copy_from_slice(&bytes[s..s + esize]);
                    },
                )
            });
        }
        Ok(out)
    }

    fn write_region(
        &self,
        t: &Tracer,
        session: u64,
        lo: &[u64],
        hi: &[u64],
        data: &[u8],
    ) -> Result<(), String> {
        let meta = self.meta.read().clone();
        let (region, pairs) = Self::plan(t, &meta, lo, hi)?;
        let esize = meta.dtype().size();
        if data.len() != region.volume() as usize * esize {
            return Err(format!("payload of {} bytes does not cover {region:?}", data.len()));
        }
        let addrs: Vec<u64> = pairs.iter().map(|&(_, a)| a).collect();
        let chunking = meta.chunking();
        let cb = meta.chunk_bytes() as usize;
        let _guard = t.span("server.lock", || self.locks.acquire(&addrs, LockMode::Write));
        let mut partial_addrs = Vec::new();
        let mut full = Vec::with_capacity(pairs.len());
        for (chunk_idx, addr) in &pairs {
            let chunk = chunking.chunk_elements(chunk_idx).map_err(|e| e.to_string())?;
            let covered = chunk.intersect(&region).is_some_and(|v| v.volume() == chunk.volume());
            full.push(covered);
            if !covered {
                partial_addrs.push(*addr);
            }
        }
        let fetched = t
            .span("server.cache", || self.cache.read_chunks(session, &partial_addrs))
            .map_err(|e| e.to_string())?;
        let mut partial: std::collections::HashMap<u64, Vec<u8>> =
            partial_addrs.into_iter().zip(fetched).collect();
        let strides = index::row_major_strides(&region.extents());
        for ((chunk_idx, addr), &is_full) in pairs.iter().zip(&full) {
            let chunk = chunking.chunk_elements(chunk_idx).map_err(|e| e.to_string())?;
            let Some(valid) = chunk.intersect(&region) else { continue };
            let mut bytes = if is_full {
                vec![0u8; cb]
            } else {
                partial.remove(addr).ok_or_else(|| format!("chunk {addr} missing from fetch"))?
            };
            t.span("server.copy", || {
                index::for_each_offset_pair(
                    &valid,
                    chunk.lo(),
                    chunking.strides(),
                    region.lo(),
                    &strides,
                    |d, s| {
                        let (d, s) = (d as usize * esize, s as usize * esize);
                        bytes[d..d + esize].copy_from_slice(&data[s..s + esize]);
                    },
                )
            });
            t.span("server.cache", || self.cache.put_chunk(session, *addr, &bytes))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    fn extend(&self, t: &Tracer, dim: u32, by: u64) -> Result<Vec<u64>, String> {
        let e = |x: &dyn std::fmt::Display| format!("extend: {x}");
        let mut meta = self.meta.write();
        t.span("server.cache", || self.cache.flush()).map_err(|x| e(&x))?;
        let outcome =
            t.span("core.extend", || meta.extend(dim as usize, by as usize)).map_err(|x| e(&x))?;
        if outcome.new_chunk_count > 0 {
            t.span("pfs.write", || self.xta.set_len(meta.payload_bytes())).map_err(|x| e(&x))?;
        }
        let bytes = t.span("core.extend", || meta.encode());
        t.span("pfs.write", || {
            self.xmd.write_at(0, &bytes)?;
            self.xmd.set_len(bytes.len() as u64)
        })
        .map_err(|x| e(&x))?;
        t.span("pfs.sync", || self.xmd.sync()).map_err(|x| e(&x))?;
        Ok(meta.element_bounds().iter().map(|&x| x as u64).collect())
    }
}

/// Client end of a traced connection. Before each request it publishes
/// its transport span so the server side can attach its spans to it.
struct Traced<'a> {
    t: &'a Tracer,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    ctx: Arc<Mutex<Context>>,
}

impl Traced<'_> {
    fn call(&mut self, name: &'static str, req: Request) -> Result<Response, String> {
        let t = self.t;
        t.request(name, || {
            let body = t.span("server.proto", || encode_request(&req));
            let reply = t.span("server.transport", || {
                *self.ctx.lock() = trace::current();
                write_frame(&mut self.writer, &body, MAX_FRAME)?;
                read_frame(&mut self.reader, MAX_FRAME)
            });
            let reply = reply.map_err(|e| e.to_string())?.ok_or("server closed the connection")?;
            match t.span("server.proto", || decode_response(&reply)).map_err(|e| e.to_string())? {
                Response::Error { message, .. } => Err(message),
                resp => Ok(resp),
            }
        })
    }
}

impl Endpoint for Traced<'_> {
    fn read(&mut self, r: &Region) -> Result<Vec<u8>, String> {
        let (lo, hi) = lo_hi(r);
        match self.call("read", Request::ReadRegion { handle: 0, lo, hi })? {
            Response::Data { data } => Ok(data),
            other => Err(format!("expected Data, got {other:?}")),
        }
    }

    fn write(&mut self, r: &Region, data: &[u8]) -> Result<(), String> {
        let (lo, hi) = lo_hi(r);
        match self.call("write", Request::WriteRegion { handle: 0, lo, hi, data: data.to_vec() })? {
            Response::Written => Ok(()),
            other => Err(format!("expected Written, got {other:?}")),
        }
    }

    fn extend(&mut self, dim: u32, by: u64) -> Result<Vec<u64>, String> {
        match self.call("extend", Request::Extend { handle: 0, dim, by })? {
            Response::Extended { bounds } => Ok(bounds),
            other => Err(format!("expected Extended, got {other:?}")),
        }
    }
}

/// Server side of one traced connection: the frame loop of
/// `drx_server::serve`, with spans around decode, handle and encode.
fn serve_traced(
    arr: &TracedArray,
    t: &Tracer,
    stream: TcpStream,
    ctx: &Mutex<Context>,
    session: u64,
) {
    let Ok(read_half) = stream.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    while let Ok(Some(body)) = read_frame(&mut reader, MAX_FRAME) {
        let parent = *ctx.lock();
        let reply = trace::adopt(parent, || {
            let resp = match t.span("server.proto", || decode_request(&body)) {
                Ok(req) => t.span("server.handle", || arr.handle(t, session, req)),
                Err(e) => error_response(&e),
            };
            t.span("server.proto", || encode_response(&resp))
        });
        if write_frame(&mut writer, &reply, MAX_FRAME).is_err() {
            return;
        }
    }
}

/// Serve `arr` to `conns` traced connections and run `f` on them; the
/// server threads end when `f` drops the connections.
fn with_traced<R>(
    arr: &TracedArray,
    t: &Tracer,
    conns: usize,
    f: impl FnOnce(Vec<Traced<'_>>) -> R,
) -> Result<R, String> {
    let io = |e: std::io::Error| format!("traced transport: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let ctxs: Vec<Arc<Mutex<Context>>> = (0..conns).map(|_| Arc::default()).collect();
    std::thread::scope(|s| {
        let mut clients = Vec::new();
        for (k, ctx) in ctxs.iter().enumerate() {
            // Connect and accept one at a time, so connection k is served
            // with context k.
            let stream = TcpStream::connect(addr).map_err(io)?;
            let (server_end, _) = listener.accept().map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            server_end.set_nodelay(true).map_err(io)?;
            s.spawn(move || serve_traced(arr, t, server_end, ctx, k as u64 + 1));
            let reader = BufReader::new(stream.try_clone().map_err(io)?);
            clients.push(Traced {
                t,
                reader,
                writer: BufWriter::new(stream),
                ctx: Arc::clone(ctx),
            });
        }
        Ok(f(clients))
    })
}

/// Cache, lock and PFS counters of the real server.
fn server_counters(stat: &StatReply) -> Counters {
    let g: &PoolStats = &stat.global_cache;
    Counters {
        pfs_requests: stat.pfs_requests,
        pfs_bytes: stat.pfs_bytes,
        cache_hits: g.hits,
        cache_misses: g.misses,
        cache_evictions: g.evictions,
        cache_writebacks: g.writebacks,
        cache_batches: stat.coalesced_batches,
        lock_waits: stat.lock_waits,
        ..Counters::default()
    }
}

fn counters_delta(after: &Counters, before: &Counters) -> Counters {
    Counters {
        pfs_requests: after.pfs_requests - before.pfs_requests,
        pfs_bytes: after.pfs_bytes - before.pfs_bytes,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        cache_evictions: after.cache_evictions - before.cache_evictions,
        cache_writebacks: after.cache_writebacks - before.cache_writebacks,
        cache_batches: after.cache_batches - before.cache_batches,
        lock_waits: after.lock_waits - before.lock_waits,
        ..Counters::default()
    }
}

/// A running real server with its TCP front end.
struct Running {
    server: Server,
    front: drx_server::ServeHandle,
}

impl Running {
    fn start(pfs: &Pfs) -> Result<Running, String> {
        let server = Server::new(pfs.clone(), ServerConfig::default());
        let front =
            serve(&server, "127.0.0.1:0", SERVE_THREADS).map_err(|e| format!("serve: {e}"))?;
        Ok(Running { server, front })
    }

    /// Stop the front end and flush; every client must be dropped first.
    fn stop(self) -> Result<(), String> {
        self.front.shutdown().map_err(|e| format!("shutdown: {e}"))
    }
}

// ---------------------------------------------------------------------------
// serve_hot
// ---------------------------------------------------------------------------

const HOT: &str = "hot";
/// Tiles land inside the top-left `WINDOW`×`WINDOW` elements (36 chunks,
/// which fit the 64-chunk cache).
const WINDOW: usize = 384;
const TILE: usize = 64;
const CONNS: usize = 2;
/// Each connection writes on every fourth operation: 3 reads per write.
const WRITE_EVERY: u64 = 4;
/// Operations per connection in a run at least (p90 support).
const MIN_OPS: u64 = 400;
/// The per-layer run samples the real server's counters this often (per
/// connection-0 operation) to report their spread.
const STAT_EVERY: u64 = 500;

/// Write tag of connection `conn`'s operation `n`.
fn hot_tag(fill_tag: u64, conn: usize, n: u64) -> u64 {
    fill_tag + 1 + conn as u64 + CONNS as u64 * n
}

/// The `serve_hot` oracle: every element of a tile read over `region` must
/// hold its fill value or the value of a logged write that covers it
/// (`write_of(conn, n)` gives connection `conn`'s operation `n` region if
/// it was a write).
pub fn check_tile(
    tile: &[f64],
    region: &Region,
    fill_tag: u64,
    write_of: impl Fn(usize, u64) -> Option<Region>,
) -> Result<(), String> {
    if tile.len() as u64 != region.volume() {
        return Err(format!("tile of {} elements for {region:?}", tile.len()));
    }
    let cols = region.hi()[1] - region.lo()[1];
    for (k, &v) in tile.iter().enumerate() {
        let (i, j) = (region.lo()[0] + k / cols, region.lo()[1] + k % cols);
        let bad = || format!("element ({i}, {j}) holds {v}");
        if !(v >= 0.0 && v.fract() == 0.0 && v < (1u64 << 53) as f64) {
            return Err(bad());
        }
        let tag = v as u64 >> 24;
        if val(tag, i, j) != v {
            return Err(bad());
        }
        if tag == fill_tag {
            continue;
        }
        let k = tag.checked_sub(fill_tag + 1).ok_or_else(bad)?;
        let (conn, n) = ((k % CONNS as u64) as usize, k / CONNS as u64);
        match write_of(conn, n) {
            Some(w) if w.contains(&[i, j]) => {}
            _ => return Err(bad()),
        }
    }
    Ok(())
}

/// What one connection did in a block.
#[derive(Default, Clone)]
struct ConnRun {
    reads: Calls,
    writes: Calls,
    /// Every operation, one unit each.
    calls: Calls,
    /// Per operation: seconds from the block's start to its completion,
    /// and whether it was a write.
    ends: Vec<(f64, bool)>,
    ops: u64,
    errors: Vec<String>,
    stats: Vec<(u64, Counters)>,
}

struct Hot {
    pfs: Pfs,
    fill_tag: u64,
    /// Per connection: the region of operation `n` if it was a write.
    logs: Vec<Mutex<Vec<Option<Region>>>>,
    rngs: Vec<Mutex<Rng>>,
}

impl Hot {
    /// Random 64×64 tile at a chunk-misaligned offset inside the window.
    fn tile(rng: &mut Rng) -> Region {
        // A chunk-row or -column below the window's last one, then an
        // offset of 1..63 inside it: never on a chunk boundary.
        let mut at = || {
            let chunk = rng.below((WINDOW / CHUNK - 1) as u64) as usize;
            chunk * CHUNK + 1 + rng.below(CHUNK as u64 - 1) as usize
        };
        let (r, c) = (at(), at());
        Region::new(vec![r, c], vec![r + TILE, c + TILE]).expect("non-empty tile")
    }

    /// One connection's closed loop until `deadline` (and at least
    /// `MIN_OPS` operations). With `sample`, records the real server's
    /// counters every `STAT_EVERY` operations.
    fn conn_loop(
        &self,
        conn: usize,
        ep: &mut dyn Endpoint,
        deadline: Instant,
        sample: bool,
    ) -> ConnRun {
        let start = Instant::now();
        let mut run = ConnRun::default();
        let mut rng = self.rngs[conn].lock();
        while run.ops < MIN_OPS || Instant::now() < deadline {
            let n = self.logs[conn].lock().len() as u64;
            let region = Self::tile(&mut rng);
            let bytes = region.volume() * 8;
            if n % WRITE_EVERY == WRITE_EVERY - 1 {
                let tag = hot_tag(self.fill_tag, conn, n);
                let data = encode_f64(&region_values(tag, &region, Layout::C));
                self.logs[conn].lock().push(Some(region.clone()));
                let (res, t) = timed(|| ep.write(&region, &data));
                if let Err(e) = res {
                    run.errors.push(format!("write {region:?}: {e}"));
                    break;
                }
                run.writes.record(t, bytes);
                run.calls.record(t, 1);
                run.ends.push((start.elapsed().as_secs_f64(), true));
            } else {
                self.logs[conn].lock().push(None);
                let (res, t) = timed(|| ep.read(&region));
                let got = match res {
                    Ok(b) => decode_f64(&b),
                    Err(e) => {
                        run.errors.push(format!("read {region:?}: {e}"));
                        break;
                    }
                };
                run.reads.record(t, bytes);
                run.calls.record(t, 1);
                run.ends.push((start.elapsed().as_secs_f64(), false));
                let write_of =
                    |c: usize, k: u64| self.logs[c].lock().get(k as usize).cloned().flatten();
                if let Err(e) = check_tile(&got, &region, self.fill_tag, write_of) {
                    run.errors.push(format!("tile {region:?} (connection {conn}, op {n}): {e}"));
                }
            }
            run.ops += 1;
            if sample && run.ops % STAT_EVERY == 0 {
                match ep.counters() {
                    Ok(Some(c)) => run.stats.push((run.ops, c)),
                    Ok(None) => {}
                    Err(e) => run.errors.push(e),
                }
            }
        }
        run
    }

    /// Run both connections until `deadline`; with `sample`, connection 0
    /// samples the server's counters.
    fn block(&self, eps: Vec<&mut dyn Endpoint>, deadline: Instant, sample: bool) -> Vec<ConnRun> {
        std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .enumerate()
                .map(|(conn, ep)| {
                    s.spawn(move || self.conn_loop(conn, ep, deadline, sample && conn == 0))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect()
        })
    }
}

/// Operations per throughput block of one connection (3 reads per write).
const HOT_BLOCK: usize = 20;
/// Stretches an untraced run is cut into for its end-to-end metrics.
const SEGMENTS: usize = 10;

/// Merged calls of a block's connections: reads, writes, all operations.
struct Merged {
    reads: Calls,
    writes: Calls,
    calls: Calls,
    rates: crate::Rates,
}

/// Count the connections' operations and errors into `out`.
fn tally(out: &mut Outcome, runs: &[ConnRun]) {
    for r in runs {
        out.attempted += r.ops;
        for e in &r.errors {
            out.fail(e.clone());
        }
    }
}

impl ConnRun {
    /// This connection's operations in `n` equal stretches of the block's
    /// `secs` seconds (operations past the end join the last stretch).
    fn segments(&self, n: usize, secs: f64) -> Vec<ConnRun> {
        let mut segs = vec![ConnRun::default(); n];
        for (&(at, write), &ms) in self.ends.iter().zip(&self.calls.ms) {
            let seg = &mut segs[((at / secs * n as f64) as usize).min(n - 1)];
            let bytes = (TILE * TILE * 8) as u64;
            if write {
                seg.writes.record(ms, bytes);
            } else {
                seg.reads.record(ms, bytes);
            }
            seg.calls.record(ms, 1);
            seg.ops += 1;
        }
        segs
    }
}

fn merge_runs(runs: &[ConnRun]) -> Merged {
    let mut m = Merged {
        reads: Calls::default(),
        writes: Calls::default(),
        calls: Calls::default(),
        rates: crate::Rates { ops: Vec::new(), read_bytes: Vec::new(), write_bytes: Vec::new() },
    };
    for r in runs {
        m.reads.merge(&r.reads);
        m.writes.merge(&r.writes);
        m.calls.merge(&r.calls);
        // The connections run side by side, so the server completes
        // `CONNS` times one connection's rate.
        m.rates.ops.extend(r.calls.block_rates(HOT_BLOCK).iter().map(|x| x * CONNS as f64));
        m.rates.read_bytes.extend(r.reads.block_rates(HOT_BLOCK * 3 / 4));
        m.rates.write_bytes.extend(r.writes.block_rates(HOT_BLOCK / 4));
    }
    m
}

pub struct ServeHot;

/// Start a real server on `pfs` and open `CONNS` connections, each
/// having read the tile window once so the cache is warm.
fn start_hot(pfs: &Pfs) -> Result<(Running, Vec<Real>), String> {
    let running = Running::start(pfs)?;
    let mut clients = Vec::new();
    for _ in 0..CONNS {
        let mut c = Real::connect(running.front.addr(), HOT)?;
        c.read(&hot_window())?;
        clients.push(c);
    }
    Ok((running, clients))
}

fn hot_window() -> Region {
    Region::new(vec![0, 0], vec![WINDOW, WINDOW]).expect("window")
}

fn endpoints<E: Endpoint>(eps: &mut [E]) -> Vec<&mut dyn Endpoint> {
    eps.iter_mut().map(|c| c as &mut dyn Endpoint).collect()
}

impl Workload for ServeHot {
    fn run(&self, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
        let fill_tag = base_tag(cfg.seed);
        let mut setup_s = Vec::new();
        let mut extend_ms = Vec::new();
        let mut last = None;
        for _ in 0..SETUPS {
            if let Some((running, clients)) = last.take() {
                drop::<Vec<Real>>(clients);
                Running::stop(running)?;
            }
            let t = Instant::now();
            let pfs = new_pfs(None)?;
            extend_ms.push(stats::median(&build_array(&pfs, HOT, fill_tag)?.1));
            last = Some(start_hot(&pfs)?);
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let (running, mut clients) = last.expect("at least one set-up");
        let hot = Hot {
            pfs: running.server.pfs().clone(),
            fill_tag,
            logs: (0..CONNS).map(|_| Mutex::new(Vec::new())).collect(),
            rngs: (0..CONNS)
                .map(|c| Mutex::new(Rng::new(cfg.seed.wrapping_mul(31) + c as u64)))
                .collect(),
        };
        let after = |s: f64| Instant::now() + Duration::from_secs_f64(s);
        if !cfg.trace {
            let runs = hot.block(endpoints(&mut clients), after(cfg.seconds), false);
            drop(clients);
            running.stop()?;
            tally(out, &runs);
            // Latencies and rates per tenth of the run, then the median
            // over tenths: a burst of interference on a shared host moves
            // a few tenths, not the result.
            let per_conn: Vec<Vec<ConnRun>> =
                runs.iter().map(|r| r.segments(SEGMENTS, cfg.seconds)).collect();
            let segments: Vec<crate::Segment> = (0..SEGMENTS)
                .map(|k| {
                    let m = merge_runs(&per_conn.iter().map(|c| c[k].clone()).collect::<Vec<_>>());
                    crate::Segment {
                        rates: m.rates,
                        read_latency: m.reads.ms,
                        write_latency: m.writes.ms,
                    }
                })
                .collect();
            crate::report_end_to_end(out, &setup_s, &segments, &extend_ms);
        } else {
            drop(clients);
            running.stop()?;
            self.traced(cfg, &hot, out)?;
        }
        out.detail("config", server_config_json(None, &format!("{CONNS} TcpClient connections, 64x64 misaligned tiles in the top-left {WINDOW}x{WINDOW}, 3 reads per write")));
        Ok(())
    }
}

impl ServeHot {
    /// Alternate blocks on a fresh real server and on the traced pipeline.
    /// Each side gets its own cache, flushed to the shared files when its
    /// block ends, so neither serves stale chunks.
    fn traced(&self, cfg: &RunCfg, hot: &Hot, out: &mut Outcome) -> Result<(), String> {
        let started = Instant::now();
        let block_secs = cfg.seconds / 8.0;
        let tracer = Tracer::default();
        let mut att = Attribution::default();
        let mut counters = Counters::default();
        let mut samples = Vec::new();
        let (mut untraced, mut traced) = (Calls::default(), Calls::default());
        let mut kept = Vec::new();
        let mut block = 0;
        while block < 2 || started.elapsed().as_secs_f64() < cfg.seconds {
            let deadline = Instant::now() + Duration::from_secs_f64(block_secs);
            if block % 2 == 0 {
                let (running, mut clients) = start_hot(&hot.pfs)?;
                let stat = |c: &mut Real| {
                    c.counters()?.ok_or_else(|| "no counters from the real server".to_string())
                };
                let before = stat(&mut clients[0])?;
                let runs = hot.block(endpoints(&mut clients), deadline, true);
                let mut c = counters_delta(&stat(&mut clients[0])?, &before);
                drop(clients);
                running.stop()?;
                tally(out, &runs);
                let m = merge_runs(&runs);
                c.ops = runs.iter().map(|r| r.ops).sum();
                c.plan_chunks = 4 * c.ops;
                c.read_requests = c.pfs_requests;
                c.direct_requests = m.reads.ms.len() as u64 * hot.direct_tile_requests()?;
                counters.add(&c);
                samples.push(runs[0].stats.clone());
                untraced.merge(&m.calls);
            } else {
                let arr = TracedArray::open(&hot.pfs, HOT)?;
                let runs = with_traced(&arr, &tracer, CONNS, |mut conns| {
                    for c in conns.iter_mut() {
                        c.read(&hot_window())?;
                    }
                    tracer.take();
                    Ok::<_, String>(hot.block(endpoints(&mut conns), deadline, false))
                })??;
                arr.cache.flush().map_err(|e| format!("flush: {e}"))?;
                tally(out, &runs);
                traced.merge(&merge_runs(&runs).calls);
                let spans = tracer.take();
                att.add(&spans);
                if kept.is_empty() {
                    kept = spans;
                }
            }
            block += 1;
        }
        out.detail("counter_spread", counter_spread(&samples, CONNS as u64));
        crate::layers::emit(out, &att, &counters, 0.0, crate::overhead_pct(&untraced, &traced));
        cfg.write_spans(&kept)
    }
}

impl Hot {
    /// PFS requests the direct path needs for one misaligned tile (every
    /// tile covers 2×2 chunks).
    fn direct_tile_requests(&self) -> Result<u64, String> {
        let f = DrxFile::<f64>::open(&self.pfs, HOT).map_err(|e| e.to_string())?;
        let tile = Region::new(vec![1, 1], vec![1 + TILE, 1 + TILE]).expect("tile");
        direct_requests(f.meta(), f.payload_file(), &tile)
    }
}

/// Quartiles of the cache counters per operation over the sampled
/// intervals (both connections run, so an interval holds about
/// `conns` × `STAT_EVERY` operations).
fn counter_spread(blocks: &[Vec<(u64, Counters)>], conns: u64) -> Json {
    let mut per_op: Vec<Vec<f64>> = Vec::new();
    for w in blocks.iter().flat_map(|b| b.windows(2)) {
        let mut d = counters_delta(&w[1].1, &w[0].1);
        d.ops = (w[1].0 - w[0].0) * conns;
        per_op.push(d.per_op().iter().map(|&(_, v, _)| v).collect());
    }
    if per_op.is_empty() {
        return Json::Str("fewer than two samples".into());
    }
    let names = Counters::default().per_op();
    Json::obj(
        names
            .iter()
            .enumerate()
            .filter(|(_, (n, _, _))| n.starts_with("cache.") || n.starts_with("server."))
            .map(|(k, (n, _, _))| {
                let col: Vec<f64> = per_op.iter().map(|row| row[k]).collect();
                let (q1, q2, q3) = stats::quartiles(&col);
                (*n, Json::Arr(vec![Json::Num(q1), Json::Num(q2), Json::Num(q3)]))
            }),
    )
}

fn server_config_json(latency: Option<Duration>, load: &str) -> Json {
    Json::obj([
        ("array", Json::Str(format!("{SIDE}x{SIDE} f64 at start, {CHUNK}x{CHUNK} chunks"))),
        ("pfs_request_latency_us", Json::Int(latency.map_or(0, |d| d.as_micros() as u64))),
        ("cache_chunks", Json::Int(ServerConfig::default().cache_chunks as u64)),
        ("serve_threads", Json::Int(SERVE_THREADS as u64)),
        ("load", Json::Str(load.into())),
    ])
}

// ---------------------------------------------------------------------------
// grow
// ---------------------------------------------------------------------------

const GROW: &str = "grow";
const LATENCY: Duration = Duration::from_micros(100);
/// Steps per episode; every 8th also extends dimension 1.
const STEPS: usize = 24;
const WINDOW_ROWS: usize = 640;
/// Episodes an untraced run makes at least (p90 support for reads and
/// writes: one of each per step).
const MIN_EPISODES: usize = 5;

/// One episode's array: served by the real or traced server, mirrored by
/// a serial `DrxFile` on its own PFS as the oracle.
struct Episode {
    pfs: Pfs,
    mirror: DrxFile<f64>,
    rows: usize,
    cols: usize,
    tag: u64,
}

impl Episode {
    fn setup(seed: u64) -> Result<Episode, String> {
        let tag = base_tag(seed);
        let pfs = new_pfs(Some(LATENCY))?;
        drop(build_array(&pfs, GROW, tag)?);
        let (mirror, _) = build_array(&new_pfs(None)?, GROW, tag)?;
        Ok(Episode { pfs, mirror, rows: SIDE, cols: SIDE, tag: tag + 1 })
    }
}

#[derive(Default)]
struct GrowRun {
    reads: Calls,
    writes: Calls,
    extends: Vec<f64>,
    /// Every operation, one unit each.
    calls: Calls,
    ops: u64,
    counters: Counters,
}

/// Run one episode's steps on `ep`, checking each window read against the
/// mirror. `real` (the real server's PFS) enables per-read request counts.
fn grow_steps(
    e: &mut Episode,
    ep: &mut dyn Endpoint,
    real: Option<&Pfs>,
    out: &mut Outcome,
) -> Result<GrowRun, String> {
    let mut run = GrowRun::default();
    let m = |x: drx_mp::MpError| format!("mirror: {x}");
    for step in 0..STEPS {
        let mut dims = vec![0u32];
        if step % 8 == 0 {
            dims.insert(0, 1);
        }
        for dim in dims {
            let (bounds, t) = timed(|| ep.extend(dim, CHUNK as u64));
            let bounds = bounds?;
            e.mirror.extend(dim as usize, CHUNK).map_err(m)?;
            if dim == 0 {
                e.rows += CHUNK
            } else {
                e.cols += CHUNK
            }
            run.extends.push(t);
            run.calls.record(t, 1);
            run.ops += 1;
            out.attempted += 1;
            if bounds != [e.rows as u64, e.cols as u64] {
                out.fail(format!("extend returned {bounds:?}, expected [{}, {}]", e.rows, e.cols));
            }
        }
        let slab = Region::new(vec![e.rows - CHUNK, 0], vec![e.rows, e.cols]).expect("slab");
        let data = region_values(e.tag, &slab, Layout::C);
        e.tag += 1;
        let bytes = encode_f64(&data);
        let (res, t) = timed(|| ep.write(&slab, &bytes));
        res?;
        e.mirror.write_region(&slab, Layout::C, &data).map_err(m)?;
        run.writes.record(t, bytes.len() as u64);
        run.calls.record(t, 1);
        run.ops += 1;
        out.attempted += 1;
        run.counters.plan_chunks += chunks_covering(e.mirror.meta(), &slab);

        let window =
            Region::new(vec![e.rows - WINDOW_ROWS, 0], vec![e.rows, SIDE]).expect("window");
        let before = real.map(|p| p.stats().total_requests());
        let (got, t) = timed(|| ep.read(&window));
        let got = decode_f64(&got?);
        if let (Some(p), Some(b)) = (real, before) {
            run.counters.read_requests += p.stats().total_requests() - b;
            run.counters.direct_requests +=
                direct_requests(e.mirror.meta(), e.mirror.payload_file(), &window)?;
        }
        run.counters.plan_chunks += chunks_covering(e.mirror.meta(), &window);
        run.reads.record(t, window.volume() * 8);
        run.calls.record(t, 1);
        run.ops += 1;
        out.attempted += 1;
        let want = e.mirror.read_region(&window, Layout::C).map_err(m)?;
        if let Some(x) = mismatch(&got, &want) {
            out.fail(format!("grow step {step} window {window:?}: {x}"));
        }
    }
    run.counters.ops = run.ops;
    Ok(run)
}

/// One episode on the real server; returns its run and set-up time.
fn real_episode(seed: u64, out: &mut Outcome) -> Result<(GrowRun, f64), String> {
    let t = Instant::now();
    let mut e = Episode::setup(seed)?;
    let running = Running::start(&e.pfs)?;
    let mut client = Real::connect(running.front.addr(), GROW)?;
    let setup_s = t.elapsed().as_secs_f64();
    let stat =
        |c: &mut Real| c.counters()?.ok_or_else(|| "no counters from the real server".to_string());
    let before = stat(&mut client)?;
    let pfs = e.pfs.clone();
    let mut run = grow_steps(&mut e, &mut client, Some(&pfs), out)?;
    let after = stat(&mut client)?;
    // The delta holds only the server's counters; the steps counted the rest.
    run.counters.add(&counters_delta(&after, &before));
    drop(client);
    running.stop()?;
    Ok((run, setup_s))
}

pub struct Grow;

impl Workload for Grow {
    fn run(&self, cfg: &RunCfg, out: &mut Outcome) -> Result<(), String> {
        let started = Instant::now();
        let mut setup_s = Vec::new();
        let mut all = GrowRun::default();
        let mut extend_medians = Vec::new();
        let mut episodes = 0;
        if !cfg.trace {
            while episodes < MIN_EPISODES.max(SETUPS)
                || started.elapsed().as_secs_f64() < cfg.seconds
            {
                let (run, s) = real_episode(cfg.seed, out)?;
                setup_s.push(s);
                all.reads.merge(&run.reads);
                all.writes.merge(&run.writes);
                extend_medians.push(stats::median(&run.extends));
                all.calls.merge(&run.calls);
                episodes += 1;
            }
            // Rates are per 8-step cycle: 25 operations, 8 reads, 8 writes.
            let rates = crate::Rates {
                ops: all.calls.block_rates(3 * 8 + 1),
                read_bytes: all.reads.block_rates(8),
                write_bytes: all.writes.block_rates(8),
            };
            let whole = crate::Segment {
                rates,
                read_latency: all.reads.ms.clone(),
                write_latency: all.writes.ms.clone(),
            };
            crate::report_end_to_end(out, &setup_s, &[whole], &extend_medians);
        } else {
            let tracer = Tracer::default();
            let mut att = Attribution::default();
            let mut first: Option<Counters> = None;
            let mut repeat = true;
            let mut counters = Counters::default();
            let (mut untraced, mut traced) = (Calls::default(), Calls::default());
            let mut kept = Vec::new();
            while episodes < 2 || started.elapsed().as_secs_f64() < cfg.seconds {
                if episodes % 2 == 0 {
                    let (run, _) = real_episode(cfg.seed, out)?;
                    untraced.record(run.calls.ms.iter().sum(), 0);
                    repeat &= first.get_or_insert_with(|| run.counters.clone()) == &run.counters;
                    counters.add(&run.counters);
                } else {
                    let mut e = Episode::setup(cfg.seed)?;
                    let arr = TracedArray::open(&e.pfs, GROW)?;
                    let run = with_traced(&arr, &tracer, 1, |mut conns| {
                        grow_steps(&mut e, &mut conns[0], None, out)
                    })??;
                    traced.record(run.calls.ms.iter().sum(), 0);
                    let spans = tracer.take();
                    att.add(&spans);
                    if episodes == 1 {
                        kept = spans;
                    }
                }
                episodes += 1;
            }
            out.detail("counters_repeat", Json::Bool(repeat));
            crate::layers::emit(out, &att, &counters, 0.0, crate::overhead_pct(&untraced, &traced));
            cfg.write_spans(&kept)?;
        }
        out.detail("episodes", Json::Int(episodes as u64));
        out.detail(
            "config",
            server_config_json(
                Some(LATENCY),
                &format!("1 TcpClient, {STEPS} steps per episode: extend rows by 64 (columns too every 8th step), write the new slab, read the trailing {WINDOW_ROWS}x{SIDE} window"),
            ),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_accepts_fill_and_covering_writes() {
        let fill = 5;
        let tile = Region::new(vec![3, 4], vec![5, 7]).expect("tile");
        let write = Region::new(vec![4, 0], vec![9, 6]).expect("write");
        let mut got = region_values(fill, &tile, Layout::C);
        // Connection 1's operation 2 was a write over `write`.
        let writes = |c: usize, n: u64| (c == 1 && n == 2).then(|| write.clone());
        for j in 4..6 {
            got[3 + (j - 4)] = val(hot_tag(fill, 1, 2), 4, j);
        }
        assert_eq!(check_tile(&got, &tile, fill, writes), Ok(()));
    }

    #[test]
    fn oracle_flags_a_corrupted_tile() {
        let fill = 5;
        let tile = Region::new(vec![3, 4], vec![5, 7]).expect("tile");
        let none = |_: usize, _: u64| None;
        let good = region_values(fill, &tile, Layout::C);
        assert_eq!(check_tile(&good, &tile, fill, none), Ok(()));
        // A flipped value, a value from the wrong position, a write that
        // was never logged, and a short tile are all caught.
        let mut bad = good.clone();
        bad[4] += 0.5;
        assert!(check_tile(&bad, &tile, fill, none).is_err());
        let mut bad = good.clone();
        bad.swap(0, 1);
        assert!(check_tile(&bad, &tile, fill, none).is_err());
        let mut bad = good.clone();
        bad[2] = val(hot_tag(fill, 0, 7), 3, 6);
        assert!(check_tile(&bad, &tile, fill, none).is_err());
        assert!(check_tile(&good[1..], &tile, fill, none).is_err());
    }

    #[test]
    fn tiles_are_misaligned_and_inside_the_window() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let t = Hot::tile(&mut rng);
            assert!(t.lo().iter().all(|&x| x % CHUNK != 0));
            assert!(t.hi().iter().all(|&x| x <= WINDOW));
        }
    }
}
