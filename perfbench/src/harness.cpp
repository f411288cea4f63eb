#include "harness.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "coll/barrier.hpp"
#include "coll/local_reduce.hpp"
#include "mprt/runtime.hpp"

namespace perfbench {

namespace mprt = rsmpi::mprt;
namespace coll = rsmpi::coll;

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

long proc_status(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  const std::size_t n = std::strlen(field);
  char line[256];
  long value = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, n) == 0 && line[n] == ':') {
      value = std::strtol(line + n + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

namespace {
volatile std::uint64_t probe_sink = 0;
}  // namespace

double probe_ms() {
  const double t0 = now_s();
  std::uint64_t x = 1;
  for (int i = 0; i < 10'000'000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 17;
  }
  probe_sink = x;
  return (now_s() - t0) * 1e3;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

// -- Trace -------------------------------------------------------------------

int Trace::begin(int rank, const char* name, std::int64_t iter) {
  auto& spans = spans_[static_cast<std::size_t>(rank)];
  auto& open = open_[static_cast<std::size_t>(rank)];
  const int index = static_cast<int>(spans.size());
  spans.push_back(Span{name, now_s(), 0.0, open.empty() ? -1 : open.back(),
                       rank, iter});
  open.push_back(index);
  return index;
}

void Trace::end(int rank, int index) {
  spans_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(index)]
      .end_s = now_s();
  open_[static_cast<std::size_t>(rank)].pop_back();
}

namespace {

/// Per iteration id: the interval from the first rank's entry to the last
/// rank's exit of the named span.
std::vector<double> call_intervals(
    const std::vector<std::vector<Span>>& spans, const char* name,
    bool setup) {
  std::unordered_map<std::int64_t, std::pair<double, double>> calls;
  const std::string_view want(name);
  for (const auto& rank_spans : spans) {
    for (const Span& s : rank_spans) {
      if ((s.iter < 0) != setup || want != s.name) continue;
      auto [it, fresh] = calls.try_emplace(s.iter, s.start_s, s.end_s);
      if (!fresh) {
        it->second.first = std::min(it->second.first, s.start_s);
        it->second.second = std::max(it->second.second, s.end_s);
      }
    }
  }
  std::vector<double> out;
  out.reserve(calls.size());
  for (const auto& [iter, span] : calls) out.push_back(span.second - span.first);
  return out;
}

}  // namespace

double Trace::call_median_s(const char* name) const {
  return median(call_intervals(spans_, name, false));
}

double Trace::setup_median_s(const char* name) const {
  return median(call_intervals(spans_, name, true));
}

double Trace::mean_rank_s(const char* name) const {
  const std::string_view want(name);
  double total = 0.0;
  std::size_t count = 0;
  for (const auto& rank_spans : spans_) {
    for (const Span& s : rank_spans) {
      if (s.iter < 0 || want != s.name) continue;
      total += s.end_s - s.start_s;
      count += 1;
    }
  }
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

std::string Trace::write(const std::string& path) const {
  std::ofstream out;
  if (!path.empty()) {
    out.open(path);
    out << "name,rank,iter,parent,start_us,end_us,self_us\n";
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (const auto& rank_spans : spans_) {
    // Spans of one rank nest (a rank runs one call at a time), so the
    // children of a span are disjoint and their durations add up.
    std::vector<double> covered(rank_spans.size(), 0.0);
    for (const Span& s : rank_spans) {
      if (s.parent >= 0) {
        covered[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    for (std::size_t i = 0; i < rank_spans.size(); ++i) {
      const Span& s = rank_spans[i];
      const double dur = s.end_s - s.start_s;
      const double self = dur - covered[i];
      if (out.is_open()) {
        out << s.name << ',' << s.rank << ',' << s.iter << ',' << s.parent
            << ',' << s.start_s * 1e6 << ',' << s.end_s * 1e6 << ','
            << self * 1e6 << '\n';
      }
      auto& entry = by_name[s.name];
      entry.first.push_back(dur);
      entry.second.push_back(self);
    }
  }
  std::ostringstream table;
  char line[160];
  std::snprintf(line, sizeof line, "%-22s %10s %14s %14s\n", "span", "count",
                "median_ms", "median_self_ms");
  table << line;
  for (const auto& [name, samples] : by_name) {
    std::snprintf(line, sizeof line, "%-22s %10zu %14.4f %14.4f\n",
                  name.c_str(), samples.first.size(),
                  median(samples.first) * 1e3, median(samples.second) * 1e3);
    table << line;
  }
  return table.str();
}

// -- Counters ----------------------------------------------------------------

Counters read_counters(const mprt::Comm& comm) {
  Counters c{};
  const auto& pool = comm.pool_stats();
  c[kMsgsSent] = static_cast<double>(comm.messages_sent());
  c[kBytesSent] = static_cast<double>(comm.bytes_sent());
  c[kMsgsRecv] = static_cast<double>(comm.messages_received());
  c[kPayloadAllocs] = static_cast<double>(comm.payload_allocs());
  c[kPoolHits] = static_cast<double>(pool.hits);
  c[kPoolAcquires] = static_cast<double>(pool.hits + pool.misses);
  c[kAutotune] = static_cast<double>(comm.autotune_invocations());
  c[kParSections] = static_cast<double>(comm.local_parallel_sections());
  c[kParChunks] = static_cast<double>(comm.local_chunks());
  c[kParSteals] = static_cast<double>(comm.local_steals());
  c[kRecvRetries] = static_cast<double>(comm.recv_retries());
  return c;
}

// -- The closed loop ---------------------------------------------------------

void Loop::resize(int ranks) {
  const auto n = static_cast<std::size_t>(ranks);
  entry_s.assign(n, 0.0);
  exit_s.assign(n, 0.0);
  counters_at_start.assign(n, Counters{});
  run_recv.assign(n, 0.0);
  if (deltas.size() != n) deltas.assign(n, Counters{});
}

namespace {

void run_ranks(Loop& loop, int ranks,
               const std::function<void(mprt::Comm&)>& body,
               const mprt::CostModel& model, const mprt::ExecPolicy& exec) {
  const bool timed = !loop.budget_spent();
  loop.run_index += 1;
  loop.iter_base = loop.timed_iters();
  loop.run_rss_growth_kib = -1.0;
  loop.resize(ranks);
  loop.run_call_s = now_s();
  try {
    mprt::run(ranks, body, model, mprt::SimConfig{}, exec);
  } catch (const std::exception& e) {
    loop.attempted += 1;
    loop.failed += 1;
    if (loop.error.empty()) loop.error = e.what();
    return;
  }
  const double returned = now_s();
  if (timed) loop.peak_rss_kib = proc_status("VmHWM");
  loop.launch_s.push_back(
      *std::max_element(loop.entry_s.begin(), loop.entry_s.end()) -
      loop.run_call_s);
  loop.join_s.push_back(
      returned - *std::max_element(loop.exit_s.begin(), loop.exit_s.end()));
  if (loop.first_rss_growth_kib < 0.0 && loop.run_rss_growth_kib >= 0.0) {
    loop.first_rss_growth_kib = loop.run_rss_growth_kib;
    for (const double r : loop.run_recv) loop.first_run_msgs_recv += r;
  }
}

}  // namespace

void run_workload(Loop& loop, int ranks, int min_runs,
                  const std::function<void(mprt::Comm&)>& body,
                  const mprt::CostModel& model, const mprt::ExecPolicy& exec) {
  for (int run = 0;
       loop.failed == 0 && (run < min_runs || !loop.budget_spent()); ++run) {
    run_ranks(loop, ranks, body, model, exec);
  }
}

void enter_rank(Loop& loop, const mprt::Comm& comm) {
  loop.entry_s[static_cast<std::size_t>(comm.rank())] = now_s();
}

void leave_rank(Loop& loop, const mprt::Comm& comm) {
  loop.exit_s[static_cast<std::size_t>(comm.rank())] = now_s();
}

namespace {

/// The control allreduce: sums every rank's mismatch count and rank 0's
/// stop flag, so all ranks agree on both.
std::array<long, 2> control(mprt::Comm& comm, long bad, long stop) {
  std::array<long, 2> v{bad, stop};
  coll::local_allreduce(comm, std::span<long>(v),
                        coll::ElementwiseOp<long, coll::Sum<long>>{});
  return v;
}

}  // namespace

void closed_loop(Loop& loop, mprt::Comm& comm,
                 const std::function<void(std::int64_t)>& work,
                 const std::function<long()>& check) {
  const int rank = comm.rank();
  const auto slot = static_cast<std::size_t>(rank);
  const bool r0 = rank == 0;
  int warm_left = loop.warmup_iters;
  bool timed = false;
  std::int64_t done = 0;  // timed iterations completed in this run
  double t0 = 0.0, cpu0 = 0.0, model0 = 0.0;
  long rss0 = 0;
  std::uint64_t park0 = 0;

  std::array<long, 2> ctl = control(comm, 0, 0);
  for (;;) {
    if (!timed && warm_left == 0) {
      // All ranks agree this is the first timed iteration: set-up ends.
      timed = true;
      loop.counters_at_start[slot] = read_counters(comm);
      if (r0) {
        loop.setup_s.push_back(now_s() - loop.run_call_s);
        rss0 = proc_status("VmRSS");
        park0 = comm.park_events();
      }
    }
    if (ctl[1] != 0) break;
    if (r0) {
      t0 = now_s();
      cpu0 = process_cpu_s();
      model0 = comm.clock().now();
    }
    const std::int64_t id = timed ? loop.iter_base + done : -1;
    Trace* trace = timed ? loop.trace : nullptr;
    {
      SpanScope iter_span(trace, rank, "iter", id);
      work(id);
      SpanScope fence(trace, rank, "coll.fence", id);
      coll::barrier(comm);
    }
    long stop = 0;
    if (r0) {
      const double wall = now_s() - t0;
      if (timed) {
        loop.iters.push_back(
            IterSample{wall, process_cpu_s() - cpu0, comm.clock().now() - model0});
        loop.timed_s += wall;
      }
    }
    const long bad = check();
    if (timed) {
      done += 1;
    } else {
      warm_left -= 1;
    }
    if (r0) {
      loop.peak_threads = std::max(loop.peak_threads, proc_status("Threads"));
      if (timed) {
        stop = loop.budget_spent() ||
               (loop.iters_per_run > 0 && done >= loop.iters_per_run);
      } else {
        stop = warm_left == 0 && loop.budget_spent();
      }
    }
    ctl = control(comm, bad, stop);
    if (r0) {
      loop.attempted += 1;
      if (ctl[0] != 0) loop.failed += 1;
    }
  }
  if (timed) {
    const Counters now = read_counters(comm);
    for (std::size_t c = 0; c < kCounterCount; ++c) {
      loop.deltas[slot][c] += now[c] - loop.counters_at_start[slot][c];
    }
    loop.run_recv[slot] = now[kMsgsRecv] - loop.counters_at_start[slot][kMsgsRecv];
    if (r0 && done > 0) {
      loop.run_rss_growth_kib =
          static_cast<double>(proc_status("VmRSS") - rss0);
      loop.park_events += static_cast<double>(comm.park_events() - park0);
    }
  }
}

// -- Inputs ------------------------------------------------------------------

Rng::Rng(std::uint64_t seed, std::uint64_t a, std::uint64_t b)
    : state_(seed * 0x9E3779B97F4A7C15ULL ^ (a + 1) * 0xBF58476D1CE4E5B9ULL ^
             (b + 1) * 0x94D049BB133111EBULL) {}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
