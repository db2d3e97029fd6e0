// The three Palm workloads and the harness self-tests.
#ifndef PALMBENCH_WORKLOADS_H_
#define PALMBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace palmbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 20.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Scratch directory for service roots; emptied by the workload.
  std::string work_dir;
  /// Where a traced run writes its spans.
  std::string trace_path;
};

/// static-explore (distributed = false) and dist-explore (true).
RunResult RunExplore(const Options& options, bool distributed);
/// stream-ingest.
RunResult RunStreamIngest(const Options& options);

/// Runs the harness self-tests; returns the number that failed and
/// appends one line per test to `log`.
int RunSelfTests(std::string* log);

}  // namespace palmbench

#endif  // PALMBENCH_WORKLOADS_H_
