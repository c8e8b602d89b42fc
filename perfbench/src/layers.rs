//! Per-layer metrics: self time per layer from the traced run, counters
//! from the untraced run, in one fixed list for every workload (a layer a
//! workload never enters reports 0).

use crate::report::{Json, Outcome};
use crate::trace::Attribution;
use drx_mp::KernelStats;

/// Span name of each timed layer; its metric is `<name>_ms`.
pub const LAYERS: &[&str] = &[
    "core.plan",
    "core.extend",
    "pfs.read",
    "pfs.write",
    "pfs.sync",
    "mp.kernel",
    "msg.collective",
    "msg.barrier_wait",
    "server.handle",
    "server.lock",
    "server.cache",
    "server.copy",
    "server.proto",
    "server.transport",
];

/// Work counted during untraced operations, summed over `ops`.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counters {
    pub ops: u64,
    pub plan_chunks: u64,
    pub pfs_requests: u64,
    pub pfs_bytes: u64,
    /// PFS requests of region reads, and what the direct `DrxFile` path
    /// needs for the same regions.
    pub read_requests: u64,
    pub direct_requests: u64,
    pub memcpy_bytes: u64,
    pub tiled_elems: u64,
    pub generic_elems: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_writebacks: u64,
    pub cache_batches: u64,
    pub lock_waits: u64,
}

impl Counters {
    pub fn add_kernel(&mut self, d: &KernelStats) {
        self.memcpy_bytes += d.memcpy_bytes;
        self.tiled_elems += d.tiled_elems;
        self.generic_elems += d.generic_elems;
    }

    pub fn add(&mut self, o: &Counters) {
        self.ops += o.ops;
        self.plan_chunks += o.plan_chunks;
        self.pfs_requests += o.pfs_requests;
        self.pfs_bytes += o.pfs_bytes;
        self.read_requests += o.read_requests;
        self.direct_requests += o.direct_requests;
        self.memcpy_bytes += o.memcpy_bytes;
        self.tiled_elems += o.tiled_elems;
        self.generic_elems += o.generic_elems;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.cache_evictions += o.cache_evictions;
        self.cache_writebacks += o.cache_writebacks;
        self.cache_batches += o.cache_batches;
        self.lock_waits += o.lock_waits;
    }

    /// Counters per operation, as `(metric, value, unit)`.
    pub fn per_op(&self) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.ops.max(1) as f64;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("core.plan_chunks", self.plan_chunks as f64 / n, "count/op"),
            ("pfs.requests", self.pfs_requests as f64 / n, "count/op"),
            ("pfs.bytes", self.pfs_bytes as f64 / n, "B/op"),
            ("pfs.request_ratio", ratio(self.read_requests, self.direct_requests), "ratio"),
            ("mp.memcpy_bytes", self.memcpy_bytes as f64 / n, "B/op"),
            ("mp.tiled_elems", self.tiled_elems as f64 / n, "count/op"),
            ("mp.generic_elems", self.generic_elems as f64 / n, "count/op"),
            ("server.lock_waits", self.lock_waits as f64 / n, "count/op"),
            ("cache.hits", self.cache_hits as f64 / n, "count/op"),
            ("cache.misses", self.cache_misses as f64 / n, "count/op"),
            ("cache.evictions", self.cache_evictions as f64 / n, "count/op"),
            ("cache.writebacks", self.cache_writebacks as f64 / n, "count/op"),
            ("cache.batches", self.cache_batches as f64 / n, "count/op"),
            (
                "cache.hit_ratio",
                ratio(self.cache_hits, self.cache_hits + self.cache_misses),
                "ratio",
            ),
        ]
    }
}

/// Emit every per-layer metric: mean self time per traced operation for
/// each layer, the time no layer covers, the counters per untraced
/// operation, the collective throughput and the tracing overhead.
pub fn emit(
    out: &mut Outcome,
    att: &Attribution,
    counters: &Counters,
    collective_mib_s: f64,
    trace_overhead_pct: f64,
) {
    let per_op = |ns: u64| ns as f64 / 1e6 / att.requests.max(1) as f64;
    for layer in LAYERS {
        let ns = att.layer_ns.get(layer).copied().unwrap_or(0);
        out.metric(&format!("{layer}_ms"), per_op(ns), "ms");
    }
    out.metric("unattributed_ms", per_op(att.unattributed_ns), "ms");
    for (name, v, unit) in counters.per_op() {
        out.metric(name, v, unit);
    }
    out.metric("msg.collective_mib_s", collective_mib_s, "MiB/s");
    out.metric("trace_overhead_pct", trace_overhead_pct, "%");
    let unknown: Vec<&str> = att.layer_ns.keys().copied().filter(|k| !LAYERS.contains(k)).collect();
    assert!(unknown.is_empty(), "spans outside the layer list: {unknown:?}");
    out.detail("traced_ops", Json::Int(att.requests));
    out.detail("traced_op_ms", Json::Num(per_op(att.end_to_end_ns)));
    out.detail("untraced_counter_ops", Json::Int(counters.ops));
}
