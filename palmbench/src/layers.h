// Per-layer measurements of the traced run, shared by every workload.
//
// The traced run replays a workload's requests at each layer boundary,
// calling each module's public functions from outside, bottom up:
//   series (kernels) -> core/storage (RawSeriesStore, IoStats) ->
//   ctree/clsm (index) -> stream -> palm.service -> palm.dispatch ->
//   palm.http -> dist (coordinator).
// A layer's self time is its added cost over the layer below, taken as the
// median of per-request differences between the two replays.
#ifndef PALMBENCH_LAYERS_H_
#define PALMBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/raw_store.h"
#include "core/types.h"
#include "harness.h"
#include "storage/io_stats.h"

namespace palmbench {

/// Every per-layer metric, one field each. A layer that is not on a
/// workload's path keeps its zero.
struct LayerValues {
  double euclid_ns = 0, sax_ns = 0;
  double raw_get_us = 0, fetches_per_query = 0, fetch_yield = 0;
  double reads_per_query = 0, random_read_share = 0, bytes_read_per_query = 0;
  double write_amp = 0;
  double index_exact_ms = 0, index_approx_ms = 0, prune_share = 0;
  double leaves_per_query = 0, entries_per_query = 0;
  double floor_ms = 0;
  double build_s = 0, register_s = 0;
  double service_self_ms = 0, dispatch_self_ms = 0, http_self_ms = 0;
  double ingest_call_ms = 0, wal_self_ms = 0;
  double seals = 0, merges = 0, stall_ms_p99 = 0, pending_tasks_max = 0;
  double partitions_skipped_share = 0, query_interference = 0;
  double entry_skew = 0;
  double coord_self_ms = 0, shard_max_over_mean = 0;
  double late_ms_p99 = 0;
  double ingest_p50_ms = 0, ingest_p99_ms = 0, drain_s = 0;
  double trace_overhead_ms = 0;
};

/// Appends every per-layer metric, in BENCHMARK.json order.
void EmitLayerMetrics(const LayerValues& v, RunResult* result);

/// Sums of per-query counters over a fixed query set.
struct CounterTotals {
  uint64_t queries = 0;
  core::QueryCounters counters;
  coconut::storage::IoStats io;
};
/// Fills the count-derived fields (fetches, yield, reads, prune share,
/// leaves and entries per query).
void SetCountMetrics(const CounterTotals& totals, LayerValues* v);

/// Median over matched requests of (upper - lower) span durations, for
/// spans named "<upper>.<kind>" and "<lower>.<kind>", kind in
/// {exact, approx}.
double PairedSelfMs(const Tracer& tracer, const std::string& upper,
                    const std::string& lower);

/// Kernel costs on the workload's own rows: ns per 256-point Euclidean
/// distance and ns per PAA+SAX summarization. Spans "series.euclid" and
/// "series.sax" cover one batch each.
void MeasureKernels(std::span<const float> rows, size_t len,
                    const std::vector<std::vector<float>>& znorm_queries,
                    int num_segments, int bits, Tracer* tracer,
                    LayerValues* v);

/// The brute-force floor: the smallest squared distance from the query to
/// any row, scanned with the library's active distance kernel.
double KernelScan(std::span<const float> rows, size_t len,
                  std::span<const float> znorm_query);

/// Median microseconds per RawSeriesStore::Get over `ids_per_query` batches
/// (span "raw.get" per batch).
double MeasureRawGets(const coconut::core::RawSeriesStore& raw, size_t len,
                      const std::vector<std::vector<uint64_t>>& ids_per_query,
                      Tracer* tracer);

}  // namespace palmbench

#endif  // PALMBENCH_LAYERS_H_
