#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>

#include "palm/api.h"

namespace palmbench {

// ----------------------------------------------------------- statistics

size_t MinSamplesFor(double p) {
  // n - ceil(p*n) >= kMinBeyond  <=>  n >= kMinBeyond / (1 - p), rounded up.
  for (size_t n = 1;; ++n) {
    const size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
    if (n - rank >= kMinBeyond) return n;
  }
}

std::optional<double> Percentile(std::vector<double> samples, double p) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1), samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const size_t mid = (samples.size() - 1) / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  return samples[mid];
}

double InterquartileMean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t cut = samples.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < samples.size() - cut; ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * cut);
}

// --------------------------------------------------------------- result

void RunResult::Fail(const std::string& why) {
  correct = false;
  ++failed;
  // Keep the log readable when many operations fail the same way.
  if (failed <= 20) notes.push_back("FAILED: " + why);
}

void RunResult::AddPercentile(const std::string& name,
                              const std::vector<double>& ms, double p,
                              bool gated) {
  const std::optional<double> value = Percentile(ms, p);
  if (!value.has_value()) {
    correct = false;
    notes.push_back("FAILED: " + name + " has " + std::to_string(ms.size()) +
                    " samples; it needs " + std::to_string(MinSamplesFor(p)));
  } else {
    notes.push_back(name + " from " + std::to_string(ms.size()) + " samples");
  }
  (gated ? metrics : extras).push_back({name, value.value_or(0.0), "ms"});
}

// --------------------------------------------------------------- tracer

uint32_t Tracer::Begin(const std::string& name, uint64_t request,
                       uint32_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id) {
  if (id == 0) return;
  const int64_t end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = end_ns;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && s.end_ns >= s.start_ns) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& header_json) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << header_json << '\n';
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << (i + 1) << ",\"name\":\"" << s.name
        << "\",\"request\":" << s.request << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

// ----------------------------------------------------------- open loop

std::vector<Timed> RunOpenLoop(double rate_hz, Clock::time_point start,
                               size_t count,
                               const std::function<void(size_t)>& prepare,
                               const std::function<void(size_t)>& send) {
  std::vector<Timed> out;
  out.reserve(count);
  const auto interval = std::chrono::duration<double>(1.0 / rate_hz);
  for (size_t k = 0; k < count; ++k) {
    const auto due =
        start + std::chrono::duration_cast<Clock::duration>(interval * static_cast<double>(k));
    if (prepare) prepare(k);
    std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    send(k);
    const auto done = Clock::now();
    out.push_back({MsBetween(due, done), MsBetween(due, sent)});
  }
  return out;
}

// --------------------------------------------------------------- oracle

double ScalarDistance(const Rows& rows, size_t id,
                      std::span<const float> znorm_query) {
  const float* row = rows.data.data() + id * rows.len;
  // Four independent partial sums keep the scan fast without SIMD.
  double sum[4] = {0.0, 0.0, 0.0, 0.0};
  size_t j = 0;
  for (; j + 4 <= rows.len; j += 4) {
    for (size_t k = 0; k < 4; ++k) {
      const double d = static_cast<double>(znorm_query[j + k]) -
                       static_cast<double>(row[j + k]);
      sum[k] += d * d;
    }
  }
  for (; j < rows.len; ++j) {
    const double d =
        static_cast<double>(znorm_query[j]) - static_cast<double>(row[j]);
    sum[0] += d * d;
  }
  return std::sqrt((sum[0] + sum[1]) + (sum[2] + sum[3]));
}

Truth BruteForce(const Rows& rows, std::span<const float> znorm_query,
                 const core::TimeWindow& window) {
  Truth best;
  best.distance = std::numeric_limits<double>::infinity();
  if (window.end < 0) return Truth{};
  // Row i is at timestamp i: scan only the window.
  const size_t first = static_cast<size_t>(std::max<int64_t>(window.begin, 0));
  const size_t last =
      std::min<uint64_t>(rows.count(), static_cast<uint64_t>(window.end) + 1);
  for (size_t i = first; i < last; ++i) {
    const double d = ScalarDistance(rows, i, znorm_query);
    if (d < best.distance) {
      best.distance = d;
      best.found = true;
      best.id = i;
    }
  }
  if (!best.found) best.distance = 0.0;
  return best;
}

namespace {

bool Near(double a, double b) {
  return std::fabs(a - b) <= kDistanceTolerance * std::max(1.0, std::fabs(b));
}

/// The answer names a row inside the window and reports its distance.
bool NamesItsRow(const Answer& answer, const Rows& rows,
                 std::span<const float> znorm_query,
                 const core::TimeWindow& window) {
  return answer.id < rows.count() &&
         window.Contains(static_cast<int64_t>(answer.id)) &&
         Near(answer.distance, ScalarDistance(rows, answer.id, znorm_query));
}

}  // namespace

bool ExactMatches(const Answer& answer, const Truth& truth, const Rows& rows,
                  std::span<const float> znorm_query,
                  const core::TimeWindow& window) {
  if (!answer.ok || answer.found != truth.found) return false;
  if (!truth.found) return true;
  return Near(answer.distance, truth.distance) &&
         NamesItsRow(answer, rows, znorm_query, window);
}

bool ApproxAcceptable(const Answer& answer, const Truth& truth,
                      const Rows& rows, std::span<const float> znorm_query,
                      const core::TimeWindow& window) {
  if (!answer.ok || !truth.found || !answer.found) return false;
  return answer.distance >=
             truth.distance - kDistanceTolerance * std::max(1.0, truth.distance) &&
         NamesItsRow(answer, rows, znorm_query, window);
}

// ----------------------------------------------------------------- wire

namespace {

/// Values travel as decimals with three fractional digits. k/1000.0 is the
/// correctly rounded double of the decimal text k/1000, exactly what the
/// server's from_chars yields, so client and server see the same floats.
constexpr double kScale = 1000.0;

void AppendValue(float v, std::string* out) {
  const long long k = std::llround(static_cast<double>(v) * kScale);
  const unsigned long long a = k < 0 ? -static_cast<unsigned long long>(k)
                                     : static_cast<unsigned long long>(k);
  char buf[32];
  char* p = buf;
  if (k < 0) *p++ = '-';
  p = std::to_chars(p, buf + sizeof(buf), a / 1000).ptr;
  const unsigned frac = static_cast<unsigned>(a % 1000);
  *p++ = '.';
  *p++ = static_cast<char>('0' + frac / 100);
  *p++ = static_cast<char>('0' + frac / 10 % 10);
  *p++ = static_cast<char>('0' + frac % 10);
  out->append(buf, p);
}

}  // namespace

void Canonicalize(std::span<float> values) {
  for (float& v : values) {
    v = static_cast<float>(
        static_cast<double>(std::llround(static_cast<double>(v) * kScale)) /
        kScale);
  }
}

void AppendFloatArray(std::span<const float> values, std::string* out) {
  out->push_back('[');
  for (size_t j = 0; j < values.size(); ++j) {
    if (j != 0) out->push_back(',');
    AppendValue(values[j], out);
  }
  out->push_back(']');
}

void AppendSeriesMatrix(const series::SeriesCollection& rows, size_t first,
                        size_t last, std::string* out) {
  out->append("\"series_length\":" + std::to_string(rows.length()) +
              ",\"series\":[");
  for (size_t i = first; i < last; ++i) {
    if (i != first) out->push_back(',');
    AppendFloatArray(rows[i], out);
  }
  out->push_back(']');
}

coconut::Result<std::string> Wire::Call(const std::string& method,
                                        const std::string& body) {
  auto response = client_.Post("/api/v1/" + method, body);
  if (!response.ok()) return response.status();
  if (response.value().status != 200) {
    return coconut::Status::Internal(
        method + " answered HTTP " + std::to_string(response.value().status) +
        ": " + response.value().body.substr(0, 300));
  }
  return std::move(response.value().body);
}

Answer ParseAnswer(const std::string& body, core::QueryCounters* counters) {
  Answer answer;
  auto doc = coconut::JsonParse(body);
  if (!doc.ok()) return answer;
  auto report = palm::api::QueryReport::FromJson(doc.value());
  if (!report.ok()) return answer;
  answer.ok = true;
  answer.found = report.value().found;
  answer.id = report.value().series_id;
  answer.distance = report.value().distance;
  if (counters != nullptr) *counters = report.value().counters;
  return answer;
}

// -------------------------------------------------------------- process

namespace {

uint64_t ReadKeyedNumber(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0) {
      return std::strtoull(line.c_str() + key_len, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

double PeakRssMb() {
  return static_cast<double>(ReadKeyedNumber("/proc/self/status", "VmHWM:")) /
         1024.0;
}

double ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
  return static_cast<double>(ReadKeyedNumber("/proc/self/status", "VmRSS:")) /
         1024.0;
}

uint64_t ProcessWriteBytes() {
  return ReadKeyedNumber("/proc/self/io", "write_bytes:");
}

uint64_t DiskBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

unsigned Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

uint64_t SubSeed(uint64_t seed, uint64_t stream, uint64_t i) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL +
               i * 0x8CB92BA72F3D8DD7ULL + 0x2545F4914F6CDD1DULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace palmbench
