// Building blocks of the Palm benchmark: percentiles, the open-loop
// scheduler, the span tracer, the brute-force answer oracle, the compact
// JSON series encoder and process-level measurements. Everything here is
// benchmark-side code: it drives the library through its public headers
// and never reaches into it.
#ifndef PALMBENCH_HARNESS_H_
#define PALMBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "core/types.h"
#include "palm/http_client.h"
#include "series/series.h"

namespace palmbench {

namespace core = coconut::core;
namespace palm = coconut::palm;
namespace series = coconut::series;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

// ----------------------------------------------------------- statistics

/// A percentile is reported only when at least this many samples lie
/// beyond it, so p99 needs 1000 samples and p50 needs 20.
inline constexpr size_t kMinBeyond = 10;

/// Smallest sample count for which Percentile(_, p) is defined.
size_t MinSamplesFor(double p);

/// Nearest-rank percentile (p in (0, 1)): the ceil(p*n)-th smallest sample.
/// nullopt when fewer than kMinBeyond samples rank above it.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Plain median (lower middle for even counts); 0 for no samples.
double Median(std::vector<double> samples);

/// Mean of the middle half of the samples (interquartile mean). Set-up
/// times are bimodal on a shared host; this stays smooth where the median
/// flips between the modes, and ignores the outer quarters.
double InterquartileMean(std::vector<double> samples);

// --------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation reports: the verdict line's fields plus the
/// human-readable context printed above it.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Figures outside the verdict line's metric set (workload-specific
  /// end-to-end figures), printed on an "extras" line above it.
  std::vector<Metric> extras;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddExtra(const std::string& name, double value, const std::string& unit) {
    extras.push_back({name, value, unit});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// A failed, refused or wrong operation: counted and fails the run.
  void Fail(const std::string& why);
  /// A percentile metric (to `metrics`, or to `extras` when !gated); a
  /// sample count too small for it fails the run.
  void AddPercentile(const std::string& name, const std::vector<double>& ms,
                     double p, bool gated = true);
};

// --------------------------------------------------------------- tracer

/// In-memory span recorder. A span names a layer call, its start and end,
/// the span that caused it and the request it belongs to. Disabled tracers
/// record nothing (Begin returns 0), so the untraced run pays one branch.
/// Begin/End may be called from several threads; read the spans after
/// they have joined.
class Tracer {
 public:
  struct Span {
    std::string name;
    uint64_t request = 0;
    uint32_t parent = 0;  // 0 = no parent; span ids start at 1
    int64_t start_ns = 0;
    int64_t end_ns = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  uint32_t Begin(const std::string& name, uint64_t request,
                 uint32_t parent = 0);
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations (ms) of every finished span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Writes every span as one JSON line; false on I/O failure.
  bool WriteJsonLines(const std::string& path,
                      const std::string& header_json) const;

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_ while threads record
};

/// RAII span (no-op on a disabled tracer).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request,
             uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

// ----------------------------------------------------------- open loop

/// One open-loop request: latency and lateness, both measured from the
/// time the request was due, so a stall also charges the requests queued
/// behind it.
struct Timed {
  double latency_ms = 0.0;  // completion - due
  double late_ms = 0.0;     // actual send - due
};

/// Sends `count` requests at `rate_hz`, the k-th due at start + k/rate.
/// `prepare(k)` (optional) builds request k before its due time, outside
/// the timed span; `send(k)` performs it (blocking). Never sends early; a
/// late request is sent at once and timed from its due time.
std::vector<Timed> RunOpenLoop(double rate_hz, Clock::time_point start,
                               size_t count,
                               const std::function<void(size_t)>& prepare,
                               const std::function<void(size_t)>& send);

// --------------------------------------------------------------- oracle

/// One answer as the wire reports it.
struct Answer {
  bool ok = false;  // transport + HTTP 200 + parsed
  bool found = false;
  uint64_t id = 0;
  double distance = 0.0;
};

/// The brute-force nearest neighbour.
struct Truth {
  bool found = false;
  uint64_t id = 0;
  double distance = 0.0;
};

/// Relative tolerance between the server's and the scan's distance (the
/// SIMD kernels reassociate a 256-term double sum; the repo's oracles use
/// the same bound).
inline constexpr double kDistanceTolerance = 1e-6;

/// What the oracle scans: z-normalized series of `len` points, row i being
/// series id i at timestamp i.
struct Rows {
  std::span<const float> data;
  size_t len = 0;

  size_t count() const { return len == 0 ? 0 : data.size() / len; }
};

/// Euclidean distance between a query and row `id`, as a plain scalar sum
/// in double precision, independent of the library's kernels.
double ScalarDistance(const Rows& rows, size_t id,
                      std::span<const float> znorm_query);

/// Linear scan over the rows whose timestamp lies in `window`.
Truth BruteForce(const Rows& rows, std::span<const float> znorm_query,
                 const core::TimeWindow& window);

/// Exact answers must name a row inside the window at the brute-force
/// distance (ties between equidistant series allowed), and report the
/// distance from the query to that row.
bool ExactMatches(const Answer& answer, const Truth& truth, const Rows& rows,
                  std::span<const float> znorm_query,
                  const core::TimeWindow& window);
/// Approximate answers must name a row inside the window, report the
/// distance from the query to that row, and be no closer than the exact one.
bool ApproxAcceptable(const Answer& answer, const Truth& truth,
                      const Rows& rows, std::span<const float> znorm_query,
                      const core::TimeWindow& window);

// ----------------------------------------------------------------- wire

/// Rounds every value to the float nearest a multiple of 0.001, so the
/// compact JSON encoding below is lossless and the oracle sees exactly the
/// floats the server parses.
void Canonicalize(std::span<float> values);

/// Appends `"series_length":L,"series":[[...],...]` for rows [first, last).
void AppendSeriesMatrix(const series::SeriesCollection& rows, size_t first,
                        size_t last, std::string* out);
/// Appends a JSON array of floats.
void AppendFloatArray(std::span<const float> values, std::string* out);

/// One keep-alive client connection posting to /api/v1/<method>.
class Wire {
 public:
  explicit Wire(uint16_t port) : client_("127.0.0.1", port) {}
  /// Posts and returns the body of a 200 response; anything else is an
  /// error carrying the status and body.
  coconut::Result<std::string> Call(const std::string& method,
                                    const std::string& body);

 private:
  coconut::palm::BlockingHttpClient client_;
};

/// Parses a query report into an Answer (ok=false on malformed bodies).
Answer ParseAnswer(const std::string& body,
                   coconut::core::QueryCounters* counters = nullptr);

// -------------------------------------------------------------- process

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();
/// Resets the peak resident set to the current one (/proc/self/clear_refs)
/// and returns the current one (VmRSS), in MiB. What the process holds at
/// this point is then the baseline a later PeakRssMb() is read against.
double ResetPeakRss();
/// Bytes this process has caused to be written to storage
/// (/proc/self/io write_bytes), or 0 when the kernel does not report it.
uint64_t ProcessWriteBytes();
/// Total size of the regular files under `dir`.
uint64_t DiskBytes(const std::string& dir);
/// Hardware threads visible to this process.
unsigned Nproc();

/// SplitMix64 of (seed, stream, i): independent deterministic sub-seeds.
uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t i);

}  // namespace palmbench

#endif  // PALMBENCH_HARNESS_H_
