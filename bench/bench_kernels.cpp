// Per-kernel throughput of the runtime-dispatched SIMD layer
// (series::kernels): PAA, SAX symbolization, squared Euclidean distance,
// its early-abandoning variant, the one-candidate/many-query batch
// kernel, and the MINDIST accumulator — each measured under every ISA
// tier this build AND this CPU support (scalar always; AVX2/AVX-512 when
// present). Benchmarks are registered at runtime from SupportedIsas(), so
// the same binary reports whatever the host can do.
//
// Counters: items_per_second is points processed (segments for the SAX
// and MINDIST kernels); speedup_vs_scalar compares each tier's measured
// ns/call against the scalar tier of the same kernel (scalar entries run
// first and seed the baseline, so filter expressions that exclude scalar
// report 0). The sortable-key codec (InterleaveSax / DeinterleaveKey) is
// plain C++ with no ISA tiers; it is measured per key at the 16x8 and 8x4
// shapes, since exact search decodes the key of every entry it examines.
// CI uploads the JSON as BENCH_kernels.json to track the
// scalar-vs-SIMD gap over time; single-core runners measure exactly this
// per-core kernel throughput, not any parallel speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "series/breakpoints.h"
#include "series/kernels.h"
#include "series/series.h"
#include "series/sortable.h"

namespace coconut {
namespace bench {
namespace {

namespace k = series::kernels;

constexpr size_t kLength = 256;
constexpr int kSegments = 16;
constexpr int kBits = 8;
constexpr size_t kBatchQueries = 8;

/// Shared inputs: z-normalized random walks, their PAA, and a SAX region.
struct KernelData {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<std::vector<float>> queries;
  std::vector<const float*> query_ptrs;
  std::vector<double> thresholds;
  std::vector<float> paa;
  std::vector<float> lower;
  std::vector<float> upper;
};

const KernelData& Data() {
  static const KernelData data = [] {
    KernelData d;
    Rng rng(42);
    auto walk = [&rng](size_t n) {
      std::vector<float> v(n);
      double x = 0.0;
      for (size_t i = 0; i < n; ++i) {
        x += rng.NextGaussian();
        v[i] = static_cast<float>(x);
      }
      series::ZNormalize(v);
      return v;
    };
    d.a = walk(kLength);
    d.b = walk(kLength);
    for (size_t q = 0; q < kBatchQueries; ++q) d.queries.push_back(walk(kLength));
    for (const auto& q : d.queries) d.query_ptrs.push_back(q.data());
    d.thresholds.assign(kBatchQueries, std::numeric_limits<double>::infinity());
    d.paa.resize(kSegments);
    k::Active().compute_paa(d.a.data(), kLength, kSegments, d.paa.data());
    // A region slightly off the query's PAA so mindist_acc does real work.
    for (int s = 0; s < kSegments; ++s) {
      d.lower.push_back(d.paa[s] + 0.25f);
      d.upper.push_back(d.paa[s] + 1.0f);
    }
    return d;
  }();
  return data;
}

/// Scalar ns/call per kernel, seeded by the scalar benchmarks (which are
/// registered, and therefore run, first).
std::map<std::string, double>& ScalarBaseline() {
  static std::map<std::string, double> ns;
  return ns;
}

/// Runs `fn` under `state` while manually timing the loop, then reports
/// throughput and the speedup against the recorded scalar baseline.
template <typename Fn>
void MeasureKernel(benchmark::State& state, const std::string& kernel,
                   k::Isa isa, size_t items_per_call, Fn&& fn) {
  if (!k::ForceIsa(isa)) {
    state.SkipWithError("ISA not supported on this host");
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    fn();
  }
  const double elapsed_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - start)
          .count();
  k::ResetForcedIsa();

  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(items_per_call));
  const double ns_per_call =
      state.iterations() > 0 ? elapsed_ns / state.iterations() : 0.0;
  if (isa == k::Isa::kScalar) ScalarBaseline()[kernel] = ns_per_call;
  const auto base = ScalarBaseline().find(kernel);
  state.counters["speedup_vs_scalar"] =
      (base != ScalarBaseline().end() && ns_per_call > 0.0)
          ? base->second / ns_per_call
          : 0.0;
  state.SetLabel(k::IsaName(isa));
}

void BM_Paa(benchmark::State& state, k::Isa isa) {
  const KernelData& d = Data();
  float out[kSegments];
  MeasureKernel(state, "paa", isa, kLength, [&] {
    k::Active().compute_paa(d.a.data(), kLength, kSegments, out);
    benchmark::DoNotOptimize(out[0]);
  });
}

void BM_Sax(benchmark::State& state, k::Isa isa) {
  const KernelData& d = Data();
  uint8_t out[kSegments];
  MeasureKernel(state, "sax", isa, kSegments, [&] {
    k::Active().sax_from_paa(d.paa.data(), kSegments, kBits, out);
    benchmark::DoNotOptimize(out[0]);
  });
}

void BM_Euclid(benchmark::State& state, k::Isa isa) {
  const KernelData& d = Data();
  MeasureKernel(state, "euclid", isa, kLength, [&] {
    double r = k::Active().euclidean_sq(d.a.data(), d.b.data(), kLength);
    benchmark::DoNotOptimize(r);
  });
}

void BM_EuclidEa(benchmark::State& state, k::Isa isa) {
  const KernelData& d = Data();
  // No-abandon threshold: measures the full-length EA code path.
  MeasureKernel(state, "euclid_ea", isa, kLength, [&] {
    double r = k::Active().euclidean_sq_ea(
        d.a.data(), d.b.data(), kLength,
        std::numeric_limits<double>::infinity());
    benchmark::DoNotOptimize(r);
  });
}

void BM_EuclidBatch(benchmark::State& state, k::Isa isa) {
  const KernelData& d = Data();
  double out[kBatchQueries];
  MeasureKernel(state, "euclid_batch", isa, kLength * kBatchQueries, [&] {
    k::Active().euclidean_sq_ea_batch(d.a.data(), kLength,
                                      d.query_ptrs.data(), kBatchQueries,
                                      d.thresholds.data(), out);
    benchmark::DoNotOptimize(out[0]);
  });
}

void BM_MinDist(benchmark::State& state, k::Isa isa) {
  const KernelData& d = Data();
  MeasureKernel(state, "mindist", isa, kSegments, [&] {
    double r = k::Active().mindist_acc(d.paa.data(), d.lower.data(),
                                       d.upper.data(), kSegments);
    benchmark::DoNotOptimize(r);
  });
}

/// A pool of random words of one shape and their keys, cycled through so
/// the codec cannot be folded to a constant.
struct CodecData {
  series::SaxConfig cfg;
  std::vector<series::SaxWord> words;
  std::vector<series::SortableKey> keys;
};

constexpr size_t kCodecPool = 256;

CodecData MakeCodecData(int segments, int bits) {
  CodecData d;
  d.cfg = series::SaxConfig{.series_length = kLength,
                            .num_segments = segments,
                            .bits_per_segment = bits};
  Rng rng(static_cast<uint64_t>(segments * 8 + bits));
  for (size_t i = 0; i < kCodecPool; ++i) {
    series::SaxWord w{};
    for (int s = 0; s < segments; ++s) {
      w[s] = static_cast<uint8_t>(rng.NextBounded(1u << bits));
    }
    d.words.push_back(w);
    d.keys.push_back(series::InterleaveSax(w, d.cfg));
  }
  return d;
}

void BM_InterleaveSax(benchmark::State& state, int segments, int bits) {
  const CodecData d = MakeCodecData(segments, bits);
  size_t i = 0;
  for (auto _ : state) {
    series::SortableKey key = series::InterleaveSax(d.words[i], d.cfg);
    benchmark::DoNotOptimize(key);
    i = (i + 1) % kCodecPool;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_DeinterleaveKey(benchmark::State& state, int segments, int bits) {
  const CodecData d = MakeCodecData(segments, bits);
  size_t i = 0;
  for (auto _ : state) {
    series::SaxWord word = series::DeinterleaveKey(d.keys[i], d.cfg);
    benchmark::DoNotOptimize(word);
    i = (i + 1) % kCodecPool;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void RegisterAll() {
  struct Entry {
    const char* name;
    void (*fn)(benchmark::State&, k::Isa);
  };
  const Entry entries[] = {
      {"BM_Paa", BM_Paa},           {"BM_Sax", BM_Sax},
      {"BM_Euclid", BM_Euclid},     {"BM_EuclidEa", BM_EuclidEa},
      {"BM_EuclidBatch", BM_EuclidBatch}, {"BM_MinDist", BM_MinDist},
  };
  // Scalar first so every SIMD entry finds its baseline recorded.
  for (const Entry& e : entries) {
    for (k::Isa isa : k::SupportedIsas()) {
      const std::string name = std::string(e.name) + "/" + k::IsaName(isa);
      benchmark::RegisterBenchmark(name.c_str(), e.fn, isa)
          ->Unit(benchmark::kNanosecond);
    }
  }
  struct Shape {
    const char* name;
    int segments;
    int bits;
  };
  for (const Shape& shape : {Shape{"16x8", 16, 8}, Shape{"8x4", 8, 4}}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_InterleaveSax/") + shape.name).c_str(),
        BM_InterleaveSax, shape.segments, shape.bits)
        ->Unit(benchmark::kNanosecond);
    benchmark::RegisterBenchmark(
        (std::string("BM_DeinterleaveKey/") + shape.name).c_str(),
        BM_DeinterleaveKey, shape.segments, shape.bits)
        ->Unit(benchmark::kNanosecond);
  }
}

}  // namespace
}  // namespace bench
}  // namespace coconut

int main(int argc, char** argv) {
  coconut::bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
