// perfbench: one closed-loop workload per process, end-to-end metrics from
// an untraced run or per-layer metrics from a traced one, printed as one
// JSON line on stdout.  perfbench/run.py builds this program, runs it and
// turns the line into the benchmark's result.
//
//   perfbench --workload <paper_kernels|collective_storm|svc_stream>
//             --seed <n> --seconds <s> [--trace <0|1>] [--trace-out <csv>]
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> [--trace 0|1] [--trace-out <csv>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) usage("--seconds must be > 0");
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--trace-out") {
      opt.trace_out = value;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  return opt;
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return -1;
  return CPU_COUNT(&set);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_object(const std::map<std::string, double>& m) {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, value] : m) {
    if (out.size() > 1) out += ", ";
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof buf, "%.17g", value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    out += json_string(name) + ": " + buf;
  }
  return out + "}";
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  // The workloads set their own executor and pool; the environment must
  // not change them.
  for (const char* knob : {"RSMPI_WORKERS", "RSMPI_LOCAL_THREADS",
                           "RSMPI_LOCAL_GRAIN", "RSMPI_LOCAL_CHUNKED",
                           "RSMPI_STACK_BYTES"}) {
    ::unsetenv(knob);
  }

  const double probe_start = probe_ms();
  Outcome out;
  Loop& loop = out.loop;
  loop.budget_s = opt.seconds;
  if (opt.workload == "paper_kernels") {
    paper_kernels(opt, out);
  } else if (opt.workload == "collective_storm") {
    collective_storm(opt, out);
  } else if (opt.workload == "svc_stream") {
    svc_stream(opt, out);
  } else {
    usage(("unknown workload " + opt.workload).c_str());
  }
  const double probe_end = probe_ms();

  // End-to-end metrics.
  const double n = static_cast<double>(loop.iters.size());
  std::vector<double> wall;
  double wall_sum = 0.0, cpu_sum = 0.0, model_sum = 0.0;
  for (const IterSample& s : loop.iters) {
    wall.push_back(s.wall_s);
    wall_sum += s.wall_s;
    cpu_sum += s.cpu_s;
    model_sum += s.model_s;
  }
  std::map<std::string, double> e2e;
  e2e["setup_s"] = median(loop.setup_s);
  e2e["iter_ms_p50"] = quantile(wall, 0.5) * 1e3;
  e2e["iter_ms_p90"] = quantile(wall, 0.9) * 1e3;
  e2e["items_per_s"] = wall_sum > 0.0 ? out.items_per_iter * n / wall_sum : 0.0;
  e2e["cpu_ms_per_iter"] = n > 0.0 ? cpu_sum / n * 1e3 : 0.0;
  e2e["model_ms_per_iter"] = n > 0.0 ? model_sum / n * 1e3 : 0.0;
  e2e["peak_rss_mib"] = static_cast<double>(loop.peak_rss_kib) / 1024.0;
  e2e["error_rate"] = loop.attempted > 0
                          ? static_cast<double>(loop.failed) /
                                static_cast<double>(loop.attempted)
                          : 1.0;

  // Per-layer metrics.
  std::map<std::string, double> layer = out.layer;
  Counters sum{};
  for (const Counters& c : loop.deltas) {
    for (std::size_t k = 0; k < kCounterCount; ++k) sum[k] += c[k];
  }
  const double per_iter = n > 0.0 ? 1.0 / n : 0.0;
  layer["par.sections_per_iter"] = sum[kParSections] * per_iter;
  layer["par.chunks_per_iter"] = sum[kParChunks] * per_iter;
  layer["par.steals_per_iter"] = sum[kParSteals] * per_iter;
  layer["coll.autotune_per_iter"] = sum[kAutotune] * per_iter;
  layer["mprt.launch_ms"] = median(loop.launch_s) * 1e3;
  layer["mprt.join_ms"] = median(loop.join_s) * 1e3;
  layer["mprt.msgs_per_iter"] = sum[kMsgsSent] * per_iter;
  layer["mprt.bytes_per_iter"] = sum[kBytesSent] * per_iter;
  layer["mprt.payload_allocs_per_iter"] = sum[kPayloadAllocs] * per_iter;
  layer["mprt.pool_hit_ratio"] =
      sum[kPoolAcquires] > 0.0 ? sum[kPoolHits] / sum[kPoolAcquires] : 0.0;
  layer["mprt.park_events_per_iter"] = loop.park_events * per_iter;
  layer["mprt.recv_retries"] = sum[kRecvRetries];
  layer["mprt.rss_growth_kib_per_kmsg"] =
      loop.first_run_msgs_recv > 0.0
          ? loop.first_rss_growth_kib / (loop.first_run_msgs_recv / 1000.0)
          : 0.0;
  layer["host.nproc"] = usable_cpus();
  // The launching thread sleeps in mprt::run's join for the whole run.
  layer["host.os_threads"] = static_cast<double>(loop.peak_threads - 1);
  layer["host.probe_ms"] = (probe_start + probe_end) / 2.0;
  std::string span_table;
  if (out.trace != nullptr) {
    layer["coll.fence_wait_ms"] = out.trace->mean_rank_s("coll.fence") * 1e3;
    span_table = out.trace->write(opt.trace_out);
  }

  std::map<std::string, double> info;
  info["samples"] = n;
  info["setups"] = static_cast<double>(loop.setup_s.size());
  info["runs"] = static_cast<double>(loop.run_index + 1);
  info["probe_start_ms"] = probe_start;
  info["probe_end_ms"] = probe_end;
  info["os_threads_raw"] = static_cast<double>(loop.peak_threads);
  info["timed_s"] = wall_sum;

  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"traced\": %d, \"attempted\": %llu, "
      "\"failed\": %llu, \"error\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"e2e\": %s, \"layer\": %s, \"info\": %s, \"spans\": %s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      static_cast<unsigned long long>(loop.attempted),
      static_cast<unsigned long long>(loop.failed),
      json_string(loop.error).c_str(), json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(PERFBENCH_COMPILER).c_str(), json_object(e2e).c_str(),
      json_object(layer).c_str(), json_object(info).c_str(),
      json_string(span_table).c_str());
  return 0;
}
