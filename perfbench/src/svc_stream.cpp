// svc_stream: one svc::Service on p = 4 rank threads with four tenant
// streams, each sharded over every rank:
//
//   sum     Sum<long>                    tumbling window of 4 epochs
//   counts  Counts(1024)                 sliding 8/1 (the uncombine path)
//   hll     HyperLogLog<uint64_t>(12)    tumbling window of 4 epochs
//   min     Min<int>                     sliding 8/1 (the two-stack path)
//
// Each epoch every rank stages kEvents Zipf-skewed events per stream (a
// few hot keys, so one shard sets the epoch tail) and calls step_epoch.
// Plans are frozen at add_stream, so the warm path neither plans nor
// allocates; traffic is all-to-all routing of ~0.4 MB batches.
//
// Epoch e stages phase e % kPhases of each (rank, stream) event buffer;
// the phases are overlapping windows of one seeded buffer.  A window's
// expected result therefore depends only on e % kPhases and is computed
// at set-up by a serial re-aggregation of the window's raw events.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <ranges>
#include <span>

#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "rs/serial.hpp"
#include "svc/svc.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rsmpi;
using svc::Event;

constexpr int kRanks = 4;
constexpr int kStreams = 4;
constexpr std::size_t kEvents = 100'000;  // per rank, stream and epoch
constexpr int kPhases = 3;
constexpr std::size_t kShift = 25'000;
constexpr std::size_t kZipfKeys = 1 << 16;
constexpr double kZipfExponent = 1.0;
constexpr std::uint64_t kTumbling = 4;
constexpr std::uint64_t kSliding = 8;
constexpr int kWarmupEpochs = 16;  // fills the sliding windows, aligns tumbling
constexpr int kSetups = 5;

const auto kSumValue = [](const Event& e) { return static_cast<long>(e.value); };
const auto kBucket = [](const Event& e) { return static_cast<int>(e.key % 1024); };
const auto kKey = [](const Event& e) { return e.key; };
const auto kIntValue = [](const Event& e) { return static_cast<int>(e.value); };

/// Seeded event buffers, one per (rank, stream), each long enough for
/// every phase.
std::vector<std::vector<Event>> make_events(std::uint64_t seed) {
  std::vector<double> cdf(kZipfKeys);
  double total = 0.0;
  for (std::size_t i = 0; i < kZipfKeys; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  for (double& c : cdf) c /= total;
  std::vector<std::vector<Event>> buffers(kRanks * kStreams);
  for (int r = 0; r < kRanks; ++r) {
    for (int s = 0; s < kStreams; ++s) {
      Rng rng(seed, static_cast<std::uint64_t>(r), 100 + static_cast<std::uint64_t>(s));
      auto& buf = buffers[static_cast<std::size_t>(r * kStreams + s)];
      buf.resize(kEvents + (kPhases - 1) * kShift);
      for (Event& e : buf) {
        const auto popularity = static_cast<std::uint64_t>(
            std::lower_bound(cdf.begin(), cdf.end() - 1, rng.unit()) -
            cdf.begin());
        // Key identity is a seeded hash of (stream, popularity rank).
        e.key = Rng(seed, static_cast<std::uint64_t>(s), popularity).next();
        e.value = static_cast<double>(rng.below(1ULL << 30));
      }
    }
  }
  return buffers;
}

struct Phases {
  const std::vector<std::vector<Event>>* buffers;
  [[nodiscard]] std::span<const Event> slice(int rank, int stream,
                                             std::uint64_t epoch) const {
    const auto& buf = (*buffers)[static_cast<std::size_t>(rank * kStreams + stream)];
    return std::span<const Event>(buf).subspan((epoch % kPhases) * kShift,
                                               kEvents);
  }
};

/// Expected window result of stream `stream` emitted at epoch `e` (window
/// of `width` epochs ending at e): every rank's events, serially folded.
template <typename Op, typename Extract>
rs::reduce_result_t<Op> window_oracle(const Phases& ph, int stream,
                                      std::uint64_t e, std::uint64_t width,
                                      Op op, Extract extract) {
  for (std::uint64_t epoch = e + 1 - width; epoch <= e; ++epoch) {
    for (int r = 0; r < kRanks; ++r) {
      op = rs::serial::reduce_state(
          ph.slice(r, stream, epoch) | std::views::transform(extract),
          std::move(op));
    }
  }
  return rs::red_result(op);
}

/// Per stream, the expected result by (emission epoch % kPhases).
template <typename Op, typename Extract>
std::vector<rs::reduce_result_t<Op>> oracle_by_phase(const Phases& ph,
                                                     int stream,
                                                     std::uint64_t width,
                                                     bool tumbling, Op op,
                                                     Extract extract) {
  std::vector<rs::reduce_result_t<Op>> out(kPhases);
  for (int p = 0; p < kPhases; ++p) {
    std::uint64_t e = width;  // first emission epoch with e % kPhases == p
    while (e % kPhases != static_cast<std::uint64_t>(p)) e += tumbling ? width : 1;
    out[static_cast<std::size_t>(p)] = window_oracle(ph, stream, e, width, op, extract);
  }
  return out;
}

template <typename R>
long window_mismatch(const std::optional<R>& got, bool due, const R& want) {
  if (got.has_value() != due) return 1;
  return due && !(*got == want) ? 1 : 0;
}

svc::WindowConfig tumbling() {
  svc::WindowConfig w;
  w.window_epochs = kTumbling;
  return w;
}

svc::WindowConfig sliding() {
  svc::WindowConfig w;
  w.window_epochs = kSliding;
  w.slide_epochs = 1;
  return w;
}

}  // namespace

void svc_stream(const Options& opt, Outcome& out) {
  ::unsetenv("RSMPI_LOCAL_THREADS");
  const auto buffers = make_events(opt.seed);
  const Phases ph{&buffers};
  const auto want_sum =
      oracle_by_phase(ph, 0, kTumbling, true, rs::ops::Sum<long>{}, kSumValue);
  const auto want_counts =
      oracle_by_phase(ph, 1, kSliding, false, rs::ops::Counts(1024), kBucket);
  const auto want_hll = oracle_by_phase(
      ph, 2, kTumbling, true, rs::ops::HyperLogLog<std::uint64_t>(12), kKey);
  const auto want_min =
      oracle_by_phase(ph, 3, kSliding, false, rs::ops::Min<int>{}, kIntValue);

  Loop& loop = out.loop;
  if (opt.trace) {
    out.trace = std::make_unique<Trace>(kRanks);
    loop.trace = out.trace.get();
  }
  loop.warmup_iters = kWarmupEpochs;
  out.items_per_iter = static_cast<double>(kRanks * kStreams * kEvents);
  mprt::CostModel model;
  model.compute_scale = 0.0;

  // Per rank, over the timed epochs (all in the first run).
  std::vector<double> events(kRanks, 0.0), windows(kRanks, 0.0),
      degraded(kRanks, 0.0), p99_us(kRanks, 0.0);
  double epochs = 0.0;

  const auto body = [&](mprt::Comm& comm) {
    enter_rank(loop, comm);
    const int rank = comm.rank();
    std::vector<int> all(kRanks);
    for (int r = 0; r < kRanks; ++r) all[static_cast<std::size_t>(r)] = r;
    svc::Service service(comm);
    auto& sum = service.add_stream("sum", all, rs::ops::Sum<long>{}, kSumValue,
                                   tumbling());
    auto& counts = service.add_stream("counts", all, rs::ops::Counts(1024),
                                      kBucket, sliding());
    auto& hll = service.add_stream("hll", all,
                                   rs::ops::HyperLogLog<std::uint64_t>(12),
                                   kKey, tumbling());
    auto& min = service.add_stream("min", all, rs::ops::Min<int>{}, kIntValue,
                                   sliding());
    const std::array<svc::StreamBase*, kStreams> streams{&sum, &counts, &hll,
                                                         &min};

    const auto totals = [&] {
      double windows_now = 0.0;
      for (const auto& [name, s] : service.stats().streams()) {
        windows_now += static_cast<double>(s.windows_emitted);
      }
      return std::array<double, 2>{
          static_cast<double>(service.stats().total_events()), windows_now};
    };
    std::array<double, 2> at_start{};
    std::int64_t timed_epochs = 0;
    const auto work = [&](std::int64_t id) {
      if (id >= 0 && timed_epochs++ == 0) at_start = totals();
      Trace* t = id >= 0 ? loop.trace : nullptr;
      const std::uint64_t epoch = service.epoch() + 1;
      {
        SpanScope s(t, rank, "svc.stage", id);
        for (int k = 0; k < kStreams; ++k) {
          streams[static_cast<std::size_t>(k)]->stage(ph.slice(rank, k, epoch));
        }
      }
      SpanScope s(t, rank, "svc.step_epoch", id);
      service.step_epoch();
    };
    const auto check = [&]() -> long {
      const std::uint64_t e = service.epoch();
      const auto p = static_cast<std::size_t>(e % kPhases);
      const bool tumble = e % kTumbling == 0;
      const bool slide = e >= kSliding;
      long bad = 0;
      for (const auto* s : streams) bad += s->degraded() ? 1 : 0;
      bad += window_mismatch(sum.last_window(), tumble, want_sum[p]);
      bad += window_mismatch(counts.last_window(), slide, want_counts[p]);
      bad += window_mismatch(hll.last_window(), tumble, want_hll[p]);
      bad += window_mismatch(min.last_window(), slide, want_min[p]);
      return bad;
    };
    closed_loop(loop, comm, work, check);

    if (timed_epochs > 0) {
      const auto r = static_cast<std::size_t>(rank);
      const auto at_end = totals();
      events[r] = at_end[0] - at_start[0];
      windows[r] = at_end[1] - at_start[1];
      for (const auto& [name, s] : service.stats().streams()) {
        degraded[r] += static_cast<double>(s.degraded_epochs);
        p99_us[r] = std::max(p99_us[r], s.latency_quantile_s(0.99) * 1e6);
      }
      if (rank == 0) epochs = static_cast<double>(timed_epochs);
    }
    leave_rank(loop, comm);
  };

  run_workload(loop, kRanks, kSetups, body, model, mprt::ExecPolicy{0});

  double total_events = 0.0, total_windows = 0.0, total_degraded = 0.0,
         p99 = 0.0;
  for (int r = 0; r < kRanks; ++r) {
    total_events += events[static_cast<std::size_t>(r)];
    total_windows += windows[static_cast<std::size_t>(r)];
    total_degraded += degraded[static_cast<std::size_t>(r)];
    p99 = std::max(p99, p99_us[static_cast<std::size_t>(r)]);
  }
  const double per_epoch = epochs > 0.0 ? 1.0 / epochs : 0.0;
  out.layer["svc.events_per_epoch"] = total_events * per_epoch;
  // Every member emits each window; count each window once.
  out.layer["svc.windows_per_epoch"] = total_windows * per_epoch / kRanks;
  out.layer["svc.degraded_epochs"] = total_degraded;
  double warm_allocs = 0.0;
  for (const Counters& c : loop.deltas) warm_allocs += c[kPayloadAllocs];
  out.layer["svc.warm_allocs"] = warm_allocs;
  out.layer["svc.epoch_p99_model_us"] = p99;
  if (loop.trace != nullptr) {
    out.layer["svc.stage_ms"] = loop.trace->call_median_s("svc.stage") * 1e3;
    out.layer["svc.step_epoch_ms"] =
        loop.trace->call_median_s("svc.step_epoch") * 1e3;
  }
}

}  // namespace perfbench
