// The three workloads.  Each fills a Loop (iteration samples, set-up
// samples, counters, oracle verdicts) and the workload-specific per-layer
// metrics; main.cpp derives the common metrics from the Loop.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

struct Outcome {
  Loop loop;
  /// Set by the workload when Options::trace asks for spans.
  std::unique_ptr<Trace> trace;
  /// Work items one iteration completes (for items_per_s).
  double items_per_iter = 0.0;
  /// Workload-specific per-layer metrics, by name.
  std::map<std::string, double> layer;
};

void paper_kernels(const Options& opt, Outcome& out);
void collective_storm(const Options& opt, Outcome& out);
void svc_stream(const Options& opt, Outcome& out);

}  // namespace perfbench
