#include "layers.h"

#include <algorithm>
#include <limits>
#include <map>

#include "series/isax.h"
#include "series/kernels.h"

namespace palmbench {

void EmitLayerMetrics(const LayerValues& v, RunResult* r) {
  r->Add("series.euclid_ns", v.euclid_ns, "ns");
  r->Add("series.sax_ns", v.sax_ns, "ns");
  r->Add("raw.get_us", v.raw_get_us, "us");
  r->Add("raw.fetches_per_query", v.fetches_per_query, "count");
  r->Add("raw.fetch_yield", v.fetch_yield, "ratio");
  r->Add("storage.reads_per_query", v.reads_per_query, "count");
  r->Add("storage.random_read_share", v.random_read_share, "ratio");
  r->Add("storage.bytes_read_per_query", v.bytes_read_per_query, "bytes");
  r->Add("storage.write_amp", v.write_amp, "ratio");
  r->Add("index.exact_ms", v.index_exact_ms, "ms");
  r->Add("index.approx_ms", v.index_approx_ms, "ms");
  r->Add("index.prune_share", v.prune_share, "ratio");
  r->Add("index.leaves_visited_per_query", v.leaves_per_query, "count");
  r->Add("index.entries_examined_per_query", v.entries_per_query, "count");
  r->Add("floor.bruteforce_ms", v.floor_ms, "ms");
  r->Add("index.exact_over_floor",
         v.floor_ms > 0 ? v.index_exact_ms / v.floor_ms : 0.0, "ratio");
  r->Add("setup.build_s", v.build_s, "s");
  r->Add("setup.register_s", v.register_s, "s");
  r->Add("service.self_ms", v.service_self_ms, "ms");
  r->Add("dispatch.self_ms", v.dispatch_self_ms, "ms");
  r->Add("http.self_ms", v.http_self_ms, "ms");
  r->Add("stream.ingest_call_ms", v.ingest_call_ms, "ms");
  r->Add("wal.self_ms", v.wal_self_ms, "ms");
  r->Add("stream.seals", v.seals, "count");
  r->Add("stream.merges", v.merges, "count");
  r->Add("stream.stall_ms_p99", v.stall_ms_p99, "ms");
  r->Add("stream.pending_tasks_max", v.pending_tasks_max, "count");
  r->Add("stream.partitions_skipped_share", v.partitions_skipped_share,
         "ratio");
  r->Add("stream.query_interference", v.query_interference, "ratio");
  r->Add("stream.ingest_p50_ms", v.ingest_p50_ms, "ms");
  r->Add("stream.ingest_p99_ms", v.ingest_p99_ms, "ms");
  r->Add("stream.drain_s", v.drain_s, "s");
  r->Add("sharded.entry_skew", v.entry_skew, "ratio");
  r->Add("coord.self_ms", v.coord_self_ms, "ms");
  r->Add("dist.shard_max_over_mean", v.shard_max_over_mean, "ratio");
  r->Add("loadgen.late_ms_p99", v.late_ms_p99, "ms");
  r->Add("trace.overhead_ms", v.trace_overhead_ms, "ms");
}

void SetCountMetrics(const CounterTotals& t, LayerValues* v) {
  if (t.queries == 0) return;
  const double q = static_cast<double>(t.queries);
  const core::QueryCounters& c = t.counters;
  v->fetches_per_query = static_cast<double>(c.raw_fetches) / q;
  v->fetch_yield =
      c.raw_fetches > 0 ? q / static_cast<double>(c.raw_fetches) : 0.0;
  v->reads_per_query = static_cast<double>(t.io.total_reads()) / q;
  v->random_read_share =
      t.io.total_reads() > 0 ? static_cast<double>(t.io.random_reads) /
                                   static_cast<double>(t.io.total_reads())
                             : 0.0;
  v->bytes_read_per_query = static_cast<double>(t.io.bytes_read) / q;
  const uint64_t leaves = c.leaves_visited + c.leaves_pruned;
  v->prune_share = leaves > 0 ? static_cast<double>(c.leaves_pruned) /
                                    static_cast<double>(leaves)
                              : 0.0;
  v->leaves_per_query = static_cast<double>(c.leaves_visited) / q;
  v->entries_per_query = static_cast<double>(c.entries_examined) / q;
}

double PairedSelfMs(const Tracer& tracer, const std::string& upper,
                    const std::string& lower) {
  std::vector<double> diffs;
  for (const char* kind : {".exact", ".approx"}) {
    std::map<uint64_t, double> below;
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.name == lower + kind) {
        below[s.request] = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      }
    }
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.name != upper + kind) continue;
      const auto it = below.find(s.request);
      if (it == below.end()) continue;
      diffs.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6 -
                      it->second);
    }
  }
  return Median(diffs);
}

void MeasureKernels(std::span<const float> rows, size_t len,
                    const std::vector<std::vector<float>>& znorm_queries,
                    int num_segments, int bits, Tracer* tracer,
                    LayerValues* v) {
  constexpr size_t kBatch = 4096;
  const auto& kernels = series::kernels::Active();
  const size_t n = rows.size() / len;
  double sink = 0.0;
  std::vector<double> euclid_ns;
  for (size_t q = 0; q < znorm_queries.size(); ++q) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "series.euclid", q);
      for (size_t k = 0; k < kBatch; ++k) {
        const size_t row = (q * kBatch + k) % n;
        sink += kernels.euclidean_sq(znorm_queries[q].data(),
                                     rows.data() + row * len, len);
      }
    }
    euclid_ns.push_back(MsSince(t0) * 1e6 / kBatch);
  }
  const coconut::series::SaxConfig config{static_cast<int>(len), num_segments,
                                          bits};
  std::vector<double> sax_ns;
  for (size_t b = 0; b < 32; ++b) {
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "series.sax", b);
      for (size_t k = 0; k < kBatch; ++k) {
        const size_t row = (b * kBatch + k) % n;
        const auto word = coconut::series::ComputeSax(
            rows.subspan(row * len, len), config);
        sink += word[0];
      }
    }
    sax_ns.push_back(MsSince(t0) * 1e6 / kBatch);
  }
  // Keep the loops observable so they are not optimized away.
  if (sink == -1.0) v->euclid_ns = -1.0;
  v->euclid_ns = Median(euclid_ns);
  v->sax_ns = Median(sax_ns);
}

double KernelScan(std::span<const float> rows, size_t len,
                  std::span<const float> znorm_query) {
  const auto& kernels = series::kernels::Active();
  double best = std::numeric_limits<double>::infinity();
  for (size_t off = 0; off + len <= rows.size(); off += len) {
    best = std::min(best,
                    kernels.euclidean_sq(znorm_query.data(), rows.data() + off, len));
  }
  return best;
}

double MeasureRawGets(const coconut::core::RawSeriesStore& raw, size_t len,
                      const std::vector<std::vector<uint64_t>>& ids_per_query,
                      Tracer* tracer) {
  std::vector<float> buf(len);
  std::vector<double> per_get_us;
  for (size_t q = 0; q < ids_per_query.size(); ++q) {
    const auto& ids = ids_per_query[q];
    if (ids.empty()) continue;
    const auto t0 = Clock::now();
    {
      ScopedSpan span(tracer, "raw.get", q);
      for (uint64_t id : ids) {
        if (!raw.Get(id, buf).ok()) return 0.0;
      }
    }
    per_get_us.push_back(MsSince(t0) * 1e3 / static_cast<double>(ids.size()));
  }
  return Median(per_get_us);
}

}  // namespace palmbench
