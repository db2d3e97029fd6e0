// palmbench: the Palm benchmark program.
//
//   palmbench --workload static-explore|stream-ingest|dist-explore
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//             [--trace-out FILE]
//   palmbench --selftest
//
// Every invocation runs the harness self-tests first. The untraced run
// (--trace 0) reports the end-to-end metrics; the traced run (--trace 1)
// reports the per-layer ones. The last line of standard output is one JSON
// object: {"correct":...,"attempted":...,"failed":...,"metrics":{...}}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common/json.h"
#include "series/kernels.h"
#include "workloads.h"

namespace palmbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: palmbench --workload static-explore|stream-ingest|"
               "dist-explore --seed N --seconds S --trace 0|1 --work-dir DIR "
               "[--trace-out FILE]\n       palmbench --selftest\n");
  return 2;
}

void Print(const Options& o, const RunResult& r) {
  std::printf("workload=%s seed=%llu seconds=%g trace=%d nproc=%u kernels=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, Nproc(),
              coconut::series::kernels::IsaName(
                  coconut::series::kernels::ActiveIsa()));
  for (const std::string& note : r.notes) std::printf("  %s\n", note.c_str());
  std::printf("  error_rate=%.6g (%llu failed of %llu attempted)\n",
              r.attempted > 0 ? static_cast<double>(r.failed) /
                                    static_cast<double>(r.attempted)
                              : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const auto* list : {&r.metrics, &r.extras}) {
    for (const Metric& m : *list) {
      std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  coconut::JsonWriter extras;
  extras.BeginObject();
  extras.Field("error_rate", r.attempted > 0 ? static_cast<double>(r.failed) /
                                                   static_cast<double>(r.attempted)
                                             : 0.0);
  for (const Metric& m : r.extras) extras.Field(m.name, m.value);
  extras.EndObject();
  std::printf("extras %s\n", extras.TakeString().c_str());
  coconut::JsonWriter w;
  w.BeginObject();
  w.Field("correct", r.correct && r.failed == 0);
  w.Field("attempted", std::max<uint64_t>(r.attempted, 1));
  w.Field("failed", r.failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : r.metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Field("value", m.value);
    w.Field("unit", m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.TakeString().c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Options o;
  bool selftest_only = false;
  std::string trace_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--selftest") {
      selftest_only = true;
    } else if (arg == "--workload" && (v = next())) {
      o.workload = v;
    } else if (arg == "--seed" && (v = next())) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = next())) {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace" && (v = next())) {
      trace_flag = v;
    } else if (arg == "--work-dir" && (v = next())) {
      o.work_dir = v;
    } else if (arg == "--trace-out" && (v = next())) {
      o.trace_path = v;
    } else {
      return Usage();
    }
  }

  std::string log;
  const int selftest_failures = RunSelfTests(&log);
  std::fputs(log.c_str(), stderr);
  if (selftest_only) return selftest_failures == 0 ? 0 : 1;
  if (selftest_failures != 0) {
    std::fprintf(stderr, "palmbench: %d harness self-test(s) failed\n",
                 selftest_failures);
    return 1;
  }

  if (trace_flag != "0" && trace_flag != "1") return Usage();
  o.trace = trace_flag == "1";
  if (o.work_dir.empty() || o.seconds <= 0) return Usage();
  std::filesystem::create_directories(o.work_dir);

  RunResult result;
  if (o.workload == "static-explore") {
    result = RunExplore(o, /*distributed=*/false);
  } else if (o.workload == "dist-explore") {
    result = RunExplore(o, /*distributed=*/true);
  } else if (o.workload == "stream-ingest") {
    result = RunStreamIngest(o);
  } else {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::remove_all(o.work_dir, ec);
  Print(o, result);
  return 0;
}

}  // namespace
}  // namespace palmbench

int main(int argc, char** argv) { return palmbench::Main(argc, argv); }
