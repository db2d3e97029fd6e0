// Self-tests of the harness itself: the percentile rule, the answer
// checker, the open-loop scheduler, span recording and the lossless wire
// encoding. Every benchmark invocation runs them first.
#include <cmath>
#include <cstring>
#include <thread>

#include "common/rng.h"
#include "workloads.h"

namespace palmbench {
namespace {

struct Suite {
  std::string* log;
  int failures = 0;
  void Expect(bool ok, const std::string& what) {
    *log += (ok ? "selftest ok:   " : "selftest FAIL: ") + what + "\n";
    if (!ok) ++failures;
  }
};

std::vector<double> OneTo(size_t n) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void TestPercentile(Suite* t) {
  t->Expect(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  t->Expect(MinSamplesFor(0.50) == 20, "p50 needs 20 samples");
  t->Expect(!Percentile(OneTo(999), 0.99).has_value(),
            "p99 of 999 samples is refused (9 beyond it)");
  const auto p99 = Percentile(OneTo(1000), 0.99);
  t->Expect(p99.has_value() && *p99 == 990.0,
            "p99 of 1..1000 is 990 with 10 samples beyond");
  t->Expect(!Percentile(OneTo(19), 0.50).has_value(),
            "p50 of 19 samples is refused");
  const auto p50 = Percentile(OneTo(20), 0.50);
  t->Expect(p50.has_value() && *p50 == 10.0, "p50 of 1..20 is 10");
  t->Expect(InterquartileMean({100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -50.0}) == 3.5,
            "interquartile mean drops the outer quarters");
}

void TestChecker(Suite* t) {
  constexpr size_t kLen = 32, kRows = 200;
  coconut::Rng rng(99);
  std::vector<float> data(kLen * kRows);
  for (float& v : data) v = static_cast<float>(rng.NextGaussian());
  const Rows rows{data, kLen};
  const core::TimeWindow all = core::TimeWindow::All();
  std::vector<float> q(data.begin() + 17 * kLen, data.begin() + 18 * kLen);
  for (float& v : q) v += static_cast<float>(0.1 * rng.NextGaussian());
  const Truth truth = BruteForce(rows, q, all);
  t->Expect(truth.found && truth.id == 17, "brute force finds the planted neighbour");

  const Answer right{true, true, truth.id, truth.distance};
  t->Expect(ExactMatches(right, truth, rows, q, all),
            "checker accepts the right answer");
  Answer planted = right;
  planted.id = 18;
  planted.distance = truth.distance * 1.01 + 1e-3;
  t->Expect(!ExactMatches(planted, truth, rows, q, all),
            "checker rejects a planted wrong exact answer");
  Answer wrong_id = right;
  wrong_id.id = 18;
  t->Expect(!ExactMatches(wrong_id, truth, rows, q, all),
            "checker rejects the right distance reported for a wrong id");
  Answer out_of_range = right;
  out_of_range.id = kRows;
  t->Expect(!ExactMatches(out_of_range, truth, rows, q, all),
            "checker rejects an id outside the data");
  Answer missing = right;
  missing.found = false;
  t->Expect(!ExactMatches(missing, truth, rows, q, all),
            "checker rejects a missing exact answer");
  Answer failed = right;
  failed.ok = false;
  t->Expect(!ExactMatches(failed, truth, rows, q, all),
            "checker rejects a failed request");
  Answer closer = right;
  closer.distance = truth.distance * 0.9;
  t->Expect(!ApproxAcceptable(closer, truth, rows, q, all),
            "checker rejects an approximate answer closer than the exact one");
  Answer farther{true, true, 18, ScalarDistance(rows, 18, q)};
  t->Expect(ApproxAcceptable(farther, truth, rows, q, all),
            "checker accepts a farther approximate answer");
  Answer inflated = farther;
  inflated.distance *= 1.5;
  t->Expect(!ApproxAcceptable(inflated, truth, rows, q, all),
            "checker rejects an approximate answer with an inflated distance");

  core::TimeWindow window;
  window.begin = 100;
  window.end = 150;
  const Truth windowed = BruteForce(rows, q, window);
  t->Expect(windowed.found && windowed.id >= 100 && windowed.id <= 150,
            "windowed brute force stays inside the window");
  t->Expect(!ApproxAcceptable(farther, windowed, rows, q, window),
            "checker rejects an answer outside the query window");
  const Answer in_window{true, true, windowed.id, windowed.distance};
  t->Expect(ExactMatches(in_window, windowed, rows, q, window),
            "checker accepts the windowed exact answer");
}

void TestScheduler(Suite* t) {
  // Request 0 stalls for 35 ms; requests 1-3 were due every 10 ms behind
  // it, so they must be charged from their due times.
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  const auto timed = RunOpenLoop(100.0, start, 6, nullptr, [](size_t k) {
    if (k == 0) std::this_thread::sleep_for(std::chrono::milliseconds(35));
  });
  bool never_early = true;
  for (const Timed& x : timed) never_early = never_early && x.late_ms >= 0.0;
  t->Expect(timed.size() == 6 && never_early, "scheduler never sends early");
  t->Expect(timed[0].latency_ms >= 35.0, "stalled request timed in full");
  t->Expect(timed[1].late_ms >= 20.0 && timed[1].latency_ms >= timed[1].late_ms,
            "request queued behind a stall is timed from its due time");
  t->Expect(timed[3].late_ms >= 0.0 && timed[3].late_ms <= timed[1].late_ms,
            "lateness drains after the stall");
}

void TestTracer(Suite* t) {
  Tracer tracer(true);
  const uint32_t parent = tracer.Begin("outer", 1);
  const uint32_t child = tracer.Begin("inner", 1, parent);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  tracer.End(child);
  tracer.End(parent);
  const auto& spans = tracer.spans();
  t->Expect(spans.size() == 2 && spans[1].parent == parent &&
                spans[1].request == 1 && spans[0].end_ns >= spans[1].end_ns &&
                Median(tracer.DurationsMs("inner")) >= 2.0,
            "spans record parent, request and duration");
  Tracer off(false);
  t->Expect(off.Begin("x", 1) == 0 && off.spans().empty(),
            "a disabled tracer records nothing");
}

void TestWire(Suite* t) {
  coconut::Rng rng(7);
  std::vector<float> values(512);
  for (float& v : values) v = static_cast<float>(4.0 * rng.NextGaussian());
  values[0] = 0.0f;
  values[1] = -0.0004f;
  Canonicalize(values);
  std::string text;
  AppendFloatArray(values, &text);
  auto doc = coconut::JsonParse(text);
  bool same = doc.ok() && doc.value().array_size() == values.size();
  for (size_t i = 0; same && i < values.size(); ++i) {
    const float parsed = static_cast<float>(doc.value().NumberAt(i));
    same = std::memcmp(&parsed, &values[i], sizeof(float)) == 0 ||
           (parsed == 0.0f && values[i] == 0.0f);
  }
  t->Expect(same, "canonical floats survive the JSON encoding bit for bit");
}

}  // namespace

int RunSelfTests(std::string* log) {
  Suite suite{log};
  TestPercentile(&suite);
  TestChecker(&suite);
  TestScheduler(&suite);
  TestTracer(&suite);
  TestWire(&suite);
  return suite.failures;
}

}  // namespace palmbench
