// Property-based simulation suite (ISSUE 4): random operators x schedules
// x fault plans, all derived deterministically from a case seed, asserting
// bit-identical results against the serial oracle (rs/serial.hpp).
//
// Fault plans here are *benign*: delays, duplicates, physical reorders,
// and compute skew — faults the runtime must absorb without changing any
// result bit (sequence numbers restore delivery order, the per-stream
// watermark suppresses duplicates, delays only move virtual arrival
// times).  Drops and kills are not benign and live in
// fault_injection_test.cpp, where the *detection* of each fault class is
// the property.
//
// Replay workflow (docs/testing.md):
//   RSMPI_SIM_SEED=<n>       run exactly one case, the one a failure named
//   RSMPI_SIM_CASE=<string>  replay an explicit (possibly shrunk) case
//   RSMPI_SIM_SEED_BASE=<n>  start the sweep at seed n (CI matrix blocks)
//   RSMPI_SIM_EXTENDED=1     ~2000 cases instead of the default 240
//
// On failure the suite prints the replay seed, a shrunk configuration,
// and the shrunk case's RSMPI_SIM_CASE encoding.  Shrinking is purely
// syntactic over that encoding — fault knobs cleared, rank slices
// emptied, suffixes halved, in a fixed order, each probe round-tripped
// through the codec — never a re-derivation from the RNG, so the minimal
// case is identical on every platform.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mprt/runtime.hpp"
#include "mprt/sim.hpp"
#include "rs/async.hpp"
#include "rs/ops/basic.hpp"
#include "rs/ops/concat.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/histogram.hpp"
#include "rs/ops/maxsubarray.hpp"
#include "rs/ops/mink.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rs/serial.hpp"
#include "rs/state_exchange.hpp"
#include "tests/rs/xscan_baseline.hpp"
#include "util/error.hpp"
#include "verify/registry.hpp"

namespace {

using namespace rsmpi;
using mprt::Comm;
using mprt::SimConfig;
using mprt::SimRng;
namespace ops = rs::ops;

// -- Case space --------------------------------------------------------------

enum Schedule : int {
  kReduceAuto = 0,    // rs::reduce, schedule picked from commutativity
  kReduceButterfly,   // forced recursive doubling (commutative ops only)
  kReduceBcast,       // forced order-preserving reduce+bcast
  kScanIncl,          // deferred-prefix inclusive scan
  kScanExcl,          // deferred-prefix exclusive scan
  kReduceAsync,       // nonblocking reduce through the progress engine
  kScanAsync,         // nonblocking scan through the progress engine
  kXscanBoth,         // state_xscan vs state_xscan_eager vs serial prefix
  kNumSchedules
};

const char* schedule_name(int s) {
  switch (s) {
    case kReduceAuto: return "reduce-auto";
    case kReduceButterfly: return "reduce-butterfly";
    case kReduceBcast: return "reduce-bcast";
    case kScanIncl: return "scan-inclusive";
    case kScanExcl: return "scan-exclusive";
    case kReduceAsync: return "reduce-async";
    case kScanAsync: return "scan-async";
    case kXscanBoth: return "xscan-deferred+eager";
    default: return "?";
  }
}

// Mostly exact (integer-state) operators: the bit-identical-to-oracle
// claim needs combine orders to be immaterial, which floating point would
// break on the commutative (arrival-order) schedules.  The two ordered
// stress operators from the shared verify registry ride along (ISSUE 9):
// OrderedWord is exact, and TSQR — floating point AND bit-level
// noncommutative — runs only the ordered reduce schedules, compared
// against the binomial-tree bracketing oracle the ordered paths share.
enum OpKind : int {
  kSumLong = 0,
  kMinInt,
  kMaxInt,
  kCounts,
  kConcat,       // non-commutative
  kMinK,
  kHistogram,
  kMaxSubarray,  // non-commutative
  kOrderedWord,  // non-commutative (verify registry)
  kCanonSet,     // commutative, fold-order-dependent bytes (verify registry)
  kTSQR,         // non-commutative floating point (verify registry)
  kNumOpKinds
};

const char* op_name(int o) {
  switch (o) {
    case kSumLong: return "Sum<long>";
    case kMinInt: return "Min<int>";
    case kMaxInt: return "Max<int>";
    case kCounts: return "Counts(8)";
    case kConcat: return "Concat";
    case kMinK: return "MinK<int>(4)";
    case kHistogram: return "Histogram<int>";
    case kMaxSubarray: return "MaxSubarray<long>";
    case kOrderedWord: return "OrderedWord";
    case kCanonSet: return "CanonSet";
    case kTSQR: return "TSQR(4)";
    default: return "?";
  }
}

bool kind_commutative(int o) {
  return o != kConcat && o != kMaxSubarray && o != kOrderedWord && o != kTSQR;
}

/// Deterministic schedule legality remap.  The butterfly requires
/// commutativity, so noncommutative operators get the order-preserving
/// allreduce instead.  TSQR is further restricted to the ordered *reduce*
/// schedules: its combine is bit-level nonassociative, so the scan
/// bracketings have no shared oracle — each scan schedule maps to a fixed
/// reduce schedule instead.  Applied both when deriving a case and when
/// running one, so hand-edited RSMPI_SIM_CASE replays normalize the same
/// way on every platform.
int remap_schedule(int op_kind, int schedule) {
  if (!kind_commutative(op_kind) && schedule == kReduceButterfly) {
    schedule = kReduceBcast;
  }
  if (op_kind == kTSQR) {
    switch (schedule) {
      case kScanIncl: return kReduceAuto;
      case kScanExcl: return kReduceBcast;
      case kXscanBoth: return kReduceBcast;
      case kScanAsync: return kReduceAsync;
      default: return schedule;
    }
  }
  return schedule;
}

struct Case {
  std::uint64_t seed = 0;
  int p = 2;
  int op_kind = kSumLong;
  int schedule = kReduceAuto;
  SimConfig sim;
  std::vector<std::vector<int>> data;  // raw per-rank values in [0, 128)

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << "p=" << p << " op=" << op_name(op_kind)
       << " schedule=" << schedule_name(schedule) << " sizes=[";
    for (std::size_t r = 0; r < data.size(); ++r) {
      os << (r == 0 ? "" : ",") << data[r].size();
    }
    os << "] plan={" << sim.describe() << "}";
    return os.str();
  }
};

/// Everything about a case — machine shape, operator, schedule, fault
/// plan, data — derives from its seed through one PRNG stream, so a seed
/// printed by a failure reconstructs the case exactly.
Case derive_case(std::uint64_t seed) {
  Case c;
  c.seed = seed;
  SimRng rng(mprt::splitmix64(seed ^ 0x5EEDF00Dull));
  static constexpr int kRanks[] = {2, 3, 5, 6, 7, 8, 12};
  c.p = kRanks[rng.below(sizeof(kRanks) / sizeof(kRanks[0]))];
  c.op_kind = static_cast<int>(rng.below(kNumOpKinds));
  c.schedule = remap_schedule(c.op_kind,
                              static_cast<int>(rng.below(kNumSchedules)));
  c.sim.seed = seed;
  if (rng.below(4) != 0) {  // 3/4 of cases run under a fault plan
    c.sim.delay_prob = 0.5 * rng.uniform();
    c.sim.max_extra_delay_s = 2e-5 * rng.uniform();
    c.sim.duplicate_prob = 0.5 * rng.uniform();
    c.sim.reorder_prob = 0.5 * rng.uniform();
    c.sim.max_compute_skew_s = 1e-5 * rng.uniform();
  }
  c.data.resize(static_cast<std::size_t>(c.p));
  for (auto& d : c.data) {
    const auto n = rng.below(17);  // includes empty local slices
    for (std::uint64_t i = 0; i < n; ++i) {
      d.push_back(static_cast<int>(rng.below(128)));
    }
  }
  return c;
}

// -- Oracle comparison -------------------------------------------------------

/// Runs one case with operator `prototype` over inputs map(raw) and
/// compares every rank's result bit-for-bit against the serial oracle.
/// Returns "" on success, a description of the first mismatch otherwise.
template <typename Op, typename MapFn>
std::string check_case(const Case& c, const Op& prototype, MapFn map) {
  using In = std::decay_t<decltype(map(0))>;
  const auto p = static_cast<std::size_t>(c.p);
  std::vector<std::vector<In>> local(p);
  std::vector<In> global;
  for (std::size_t r = 0; r < p; ++r) {
    for (const int v : c.data[r]) {
      local[r].push_back(map(v));
      global.push_back(map(v));
    }
  }

  using Red = rs::reduce_result_t<Op>;
  using ScanOut = rs::scan_result_t<Op, In>;
  std::vector<Red> red(p);
  std::vector<std::vector<ScanOut>> scans(p);
  std::vector<char> eager_mismatch(p, 0);

  try {
    mprt::run(
        c.p,
        [&](Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          switch (c.schedule) {
            case kReduceAuto:
              red[r] = rs::reduce(comm, local[r], prototype);
              break;
            case kReduceButterfly:
              red[r] = rs::red_result(
                  rs::reduce_state(comm, local[r], prototype, true));
              break;
            case kReduceBcast:
              red[r] = rs::red_result(
                  rs::reduce_state(comm, local[r], prototype, false));
              break;
            case kScanIncl:
              scans[r] = rs::scan(comm, local[r], prototype,
                                  rs::ScanKind::kInclusive);
              break;
            case kScanExcl:
              scans[r] = rs::scan(comm, local[r], prototype,
                                  rs::ScanKind::kExclusive);
              break;
            case kReduceAsync: {
              auto fut = rs::reduce_async(comm, local[r], prototype);
              red[r] = fut.get();
              break;
            }
            case kScanAsync: {
              auto fut = rs::scan_async(comm, local[r], prototype,
                                        rs::ScanKind::kInclusive);
              scans[r] = fut.get();
              break;
            }
            case kXscanBoth: {
              Op deferred = prototype;
              for (const In& x : local[r]) deferred.accum(x);
              rs::detail::state_xscan(comm, deferred, prototype);
              red[r] = rs::red_result(deferred);
              Op eager = prototype;
              for (const In& x : local[r]) eager.accum(x);
              test::state_xscan_eager(comm, eager, prototype);
              if (!(rs::red_result(eager) == red[r])) {
                eager_mismatch[r] = 1;
              }
              break;
            }
            default:
              break;
          }
        },
        mprt::CostModel{}, c.sim);
  } catch (const Error& e) {
    return std::string("run threw ") + e.what();
  }

  if (c.schedule == kScanIncl || c.schedule == kScanAsync ||
      c.schedule == kScanExcl) {
    const auto expected = c.schedule == kScanExcl
                              ? rs::serial::xscan(global, prototype)
                              : rs::serial::scan(global, prototype);
    std::size_t pos = 0;
    for (std::size_t r = 0; r < p; ++r) {
      if (scans[r].size() != local[r].size()) {
        return "rank " + std::to_string(r) + " scan length mismatch";
      }
      for (std::size_t i = 0; i < scans[r].size(); ++i, ++pos) {
        if (!(scans[r][i] == expected[pos])) {
          return "rank " + std::to_string(r) + " scan position " +
                 std::to_string(i) + " differs from serial oracle";
        }
      }
    }
    return "";
  }

  if (c.schedule == kXscanBoth) {
    std::vector<In> prefix;
    for (std::size_t r = 0; r < p; ++r) {
      if (eager_mismatch[r] != 0) {
        return "rank " + std::to_string(r) +
               " eager/deferred xscan disagreement";
      }
      const Red expected =
          rs::red_result(rs::serial::reduce_state(prefix, prototype));
      if (!(red[r] == expected)) {
        return "rank " + std::to_string(r) +
               " exclusive prefix differs from serial oracle";
      }
      prefix.insert(prefix.end(), local[r].begin(), local[r].end());
    }
    return "";
  }

  const Red expected = rs::serial::reduce(global, prototype);
  for (std::size_t r = 0; r < p; ++r) {
    if (!(red[r] == expected)) {
      return "rank " + std::to_string(r) +
             " reduction differs from serial oracle";
    }
  }
  return "";
}

/// TSQR cases are state-fed (ISSUE 9): each rank accumulates its rows
/// serially, then the case drives the state exchange directly, so the
/// expected bits are exactly verify::binomial_fold's bracketing — the
/// local worker pool's chunking never enters the comparison (production
/// rs::reduce coverage for TSQR under the pool lives in
/// tests/rs/reproducibility_test.cpp).  The forced reduce+bcast case also
/// runs the pipelined binomial tree with tiny segments, putting the
/// streamed column-panel merge under the random fault plans at machine
/// sizes the exhaustive checker (p <= 4) cannot reach.
std::string check_case_tsqr(const Case& c) {
  constexpr std::size_t kCols = 4;
  const auto p = static_cast<std::size_t>(c.p);
  std::vector<ops::TSQR> states;
  states.reserve(p);
  for (std::size_t r = 0; r < p; ++r) {
    ops::TSQR s(kCols);
    for (const int v : c.data[r]) {
      s.accum(verify::tsqr_row_from_token(v, kCols));
    }
    states.push_back(std::move(s));
  }
  const ops::TsqrResult expected =
      rs::red_result(verify::binomial_fold(states));  // folds a copy

  std::vector<ops::TsqrResult> red(p);
  std::vector<char> panel_mismatch(p, 0);
  try {
    mprt::run(
        c.p,
        [&](Comm& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          ops::TSQR op = states[r];
          switch (c.schedule) {
            case kReduceAuto:
              rs::detail::state_allreduce(comm, op);
              break;
            case kReduceBcast: {
              rs::detail::state_allreduce_with_schedule(
                  comm, op, rs::detail::Schedule::kTwoMessage,
                  rs::detail::kDefaultSegmentBytes, /*commutative=*/false);
              ops::TSQR pipelined = states[r];
              rs::detail::state_allreduce_pipelined(comm, pipelined,
                                                    /*segment_bytes=*/8);
              if (!(rs::red_result(pipelined) == rs::red_result(op))) {
                panel_mismatch[r] = 1;
              }
              break;
            }
            case kReduceAsync: {
              auto state = std::make_shared<ops::TSQR>(states[r]);
              rs::detail::launch_state_allreduce(comm, state,
                                                 /*commutative=*/false)
                  .wait();
              op = *state;
              break;
            }
            default:
              break;
          }
          red[r] = rs::red_result(op);
        },
        mprt::CostModel{}, c.sim);
  } catch (const Error& e) {
    return std::string("run threw ") + e.what();
  }

  for (std::size_t r = 0; r < p; ++r) {
    if (panel_mismatch[r] != 0) {
      return "rank " + std::to_string(r) +
             " pipelined-panel merge differs from reduce+bcast";
    }
    if (!(red[r] == expected)) {
      return "rank " + std::to_string(r) +
             " TSQR R factor differs from the binomial-tree oracle";
    }
  }
  return "";
}

std::string run_case(const Case& raw) {
  // Normalize here as well as in derive_case, so hand-edited
  // RSMPI_SIM_CASE replays land on the same legal schedule everywhere.
  Case c = raw;
  c.schedule = remap_schedule(c.op_kind, c.schedule);
  switch (c.op_kind) {
    case kSumLong:
      return check_case(c, ops::Sum<long>{},
                        [](int v) { return static_cast<long>(v); });
    case kMinInt:
      return check_case(c, ops::Min<int>{}, [](int v) { return v; });
    case kMaxInt:
      return check_case(c, ops::Max<int>{}, [](int v) { return v; });
    case kCounts:
      return check_case(c, ops::Counts(8), [](int v) { return v % 8; });
    case kConcat:
      return check_case(c, ops::Concat{}, [](int v) {
        return static_cast<char>('a' + v % 26);
      });
    case kMinK:
      return check_case(c, ops::MinK<int>(4), [](int v) { return v; });
    case kHistogram:
      return check_case(c, ops::Histogram<int>({0, 32, 64, 96, 128}),
                        [](int v) { return v; });
    case kMaxSubarray:
      return check_case(c, ops::MaxSubarray<long>{},
                        [](int v) { return static_cast<long>(v - 50); });
    case kOrderedWord:
      return check_case(c, verify::OrderedWord{}, [](int v) { return v; });
    case kCanonSet:
      // Fold into [0, 32) so rank slices overlap and the union dedups.
      return check_case(c, verify::CanonSet{}, [](int v) { return v % 32; });
    case kTSQR:
      return check_case_tsqr(c);
    default:
      return "unknown operator kind";
  }
}

// -- Case codec --------------------------------------------------------------
//
// A failing case is reported (and replayed) as an explicit encoded string,
// not as a PRNG seed: shrinking edits the case, so a shrunk case no longer
// derives from any seed.  Doubles travel as hexfloats for exact
// cross-platform round trips.
//
//   cv1;p=<n>;op=<k>;sched=<s>;sim=<seed>,<delay>,<maxdelay>,<dup>,<reorder>,<skew>;data=<r0>|<r1>|...

std::string encode_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string encode_case(const Case& c) {
  std::ostringstream os;
  os << "cv1;p=" << c.p << ";op=" << c.op_kind << ";sched=" << c.schedule
     << ";sim=" << c.sim.seed << ',' << encode_double(c.sim.delay_prob) << ','
     << encode_double(c.sim.max_extra_delay_s) << ','
     << encode_double(c.sim.duplicate_prob) << ','
     << encode_double(c.sim.reorder_prob) << ','
     << encode_double(c.sim.max_compute_skew_s) << ";data=";
  for (std::size_t r = 0; r < c.data.size(); ++r) {
    if (r > 0) os << '|';
    for (std::size_t i = 0; i < c.data[r].size(); ++i) {
      if (i > 0) os << ',';
      os << c.data[r][i];
    }
  }
  return os.str();
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

Case decode_case(const std::string& encoded) {
  const auto fields = split(encoded, ';');
  if (fields.size() != 6 || fields[0] != "cv1") {
    throw ArgumentError("decode_case: malformed case string");
  }
  const auto field = [&](std::size_t i, const char* key) {
    const std::string prefix = std::string(key) + "=";
    if (fields[i].rfind(prefix, 0) != 0) {
      throw ArgumentError(std::string("decode_case: expected '") + key +
                          "=' field");
    }
    return fields[i].substr(prefix.size());
  };
  Case c;
  c.p = std::stoi(field(1, "p"));
  c.op_kind = std::stoi(field(2, "op"));
  c.schedule = std::stoi(field(3, "sched"));
  const auto sim = split(field(4, "sim"), ',');
  if (sim.size() != 6) {
    throw ArgumentError("decode_case: expected 6 sim knobs");
  }
  c.sim.seed = std::strtoull(sim[0].c_str(), nullptr, 10);
  c.sim.delay_prob = std::strtod(sim[1].c_str(), nullptr);
  c.sim.max_extra_delay_s = std::strtod(sim[2].c_str(), nullptr);
  c.sim.duplicate_prob = std::strtod(sim[3].c_str(), nullptr);
  c.sim.reorder_prob = std::strtod(sim[4].c_str(), nullptr);
  c.sim.max_compute_skew_s = std::strtod(sim[5].c_str(), nullptr);
  for (const std::string& section : split(field(5, "data"), '|')) {
    std::vector<int> d;
    if (!section.empty()) {
      for (const std::string& v : split(section, ',')) {
        d.push_back(std::stoi(v));
      }
    }
    c.data.push_back(std::move(d));
  }
  if (c.data.size() != static_cast<std::size_t>(c.p)) {
    throw ArgumentError("decode_case: data sections != p");
  }
  return c;
}

// -- Shrinking ---------------------------------------------------------------

/// Minimizes a failing case.  Every candidate is a syntactic edit of the
/// encoded case — knobs cleared, rank slices emptied, suffixes halved — in
/// a fixed order, and each probe round-trips through the codec (the exact
/// artifact a replay will decode).  No step consults an RNG or re-derives
/// from the original seed, so the shrunk case is identical on every
/// platform and replays via RSMPI_SIM_CASE verbatim.
Case shrink_case(const Case& failing) {
  Case best = decode_case(encode_case(failing));
  const auto still_fails = [](const Case& candidate) {
    return !run_case(decode_case(encode_case(candidate))).empty();
  };

  // 1. Clear fault knobs one at a time, fixed order.
  struct FaultKnob {
    const char* name;
    void (*clear)(SimConfig&);
  };
  static constexpr FaultKnob kKnobs[] = {
      {"delay", [](SimConfig& s) { s.delay_prob = 0.0; s.max_extra_delay_s = 0.0; }},
      {"duplicate", [](SimConfig& s) { s.duplicate_prob = 0.0; }},
      {"reorder", [](SimConfig& s) { s.reorder_prob = 0.0; }},
      {"skew", [](SimConfig& s) { s.max_compute_skew_s = 0.0; }},
  };
  for (const FaultKnob& knob : kKnobs) {
    Case candidate = best;
    knob.clear(candidate.sim);
    if (still_fails(candidate)) best = std::move(candidate);
  }

  // 2. Empty whole rank slices, ranks ascending (p itself must stay —
  // the machine shape is part of the schedule under test).
  for (std::size_t r = 0; r < best.data.size(); ++r) {
    if (best.data[r].empty()) continue;
    Case candidate = best;
    candidate.data[r].clear();
    if (still_fails(candidate)) best = std::move(candidate);
  }

  // 3. Halve the surviving slices' suffixes while the failure persists.
  for (int round = 0; round < 16; ++round) {
    Case candidate = best;
    bool any = false;
    for (auto& d : candidate.data) {
      if (d.size() > 1) {
        d.resize(d.size() / 2);
        any = true;
      }
    }
    if (!any || !still_fails(candidate)) break;
    best = std::move(candidate);
  }
  return best;
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 10);
}

// -- The sweep ---------------------------------------------------------------

TEST(SimProperty, SeededSweep) {
  if (const char* replay = std::getenv("RSMPI_SIM_CASE")) {
    // Replay of an explicit (possibly shrunk) case string.
    const Case c = decode_case(replay);
    const std::string err = run_case(c);
    EXPECT_TRUE(err.empty()) << "RSMPI_SIM_CASE replay: " << err << "\n  "
                             << c.describe();
    return;
  }
  if (const char* replay = std::getenv("RSMPI_SIM_SEED")) {
    const std::uint64_t seed = std::strtoull(replay, nullptr, 10);
    const Case c = derive_case(seed);
    const std::string err = run_case(c);
    EXPECT_TRUE(err.empty()) << "RSMPI_SIM_SEED=" << seed << ": " << err
                             << "\n  " << c.describe();
    return;
  }

  const std::uint64_t base = env_u64("RSMPI_SIM_SEED_BASE", 0);
  const int count = std::getenv("RSMPI_SIM_EXTENDED") != nullptr ? 2000 : 240;
  int failures = 0;
  for (int i = 0; i < count && failures < 3; ++i) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(i);
    const Case c = derive_case(seed);
    const std::string err = run_case(c);
    if (err.empty()) continue;
    ++failures;
    const Case shrunk = shrink_case(c);
    ADD_FAILURE() << err << "\n  replay: RSMPI_SIM_SEED=" << seed
                  << " ctest -R SimProperty"
                  << "\n  case:   " << c.describe()
                  << "\n  shrunk: " << shrunk.describe()
                  << "\n  shrunk replay: RSMPI_SIM_CASE='"
                  << encode_case(shrunk) << "'";
  }
}

// One pinned case per schedule so a regression names the schedule directly
// (the sweep would eventually hit it, but with a randomized label).
TEST(SimProperty, EverySchedulePinnedUnderFaults) {
  for (int schedule = 0; schedule < kNumSchedules; ++schedule) {
    for (const int op_kind : {kSumLong, kConcat, kOrderedWord, kTSQR}) {
      Case c;
      c.seed = 9000 + static_cast<std::uint64_t>(schedule);
      c.p = 7;
      c.op_kind = op_kind;
      c.schedule = schedule;
      if (!kind_commutative(op_kind) && schedule == kReduceButterfly) {
        continue;
      }
      c.sim.seed = c.seed;
      c.sim.delay_prob = 0.3;
      c.sim.max_extra_delay_s = 1e-5;
      c.sim.duplicate_prob = 0.3;
      c.sim.reorder_prob = 0.3;
      c.sim.max_compute_skew_s = 5e-6;
      SimRng rng(mprt::splitmix64(c.seed));
      c.data.resize(7);
      for (auto& d : c.data) {
        for (std::uint64_t i = 0, n = 4 + rng.below(8); i < n; ++i) {
          d.push_back(static_cast<int>(rng.below(128)));
        }
      }
      const std::string err = run_case(c);
      EXPECT_TRUE(err.empty())
          << schedule_name(schedule) << " / " << op_name(op_kind) << ": "
          << err << "\n  " << c.describe();
    }
  }
}

// The case codec is the shrinker's substrate: every derived case must
// round-trip exactly (hexfloat knobs included) or replays would diverge
// from the case that failed.
TEST(SimProperty, CaseCodecRoundTrips) {
  for (const std::uint64_t seed : {0ull, 7ull, 123456789ull}) {
    const Case c = derive_case(seed);
    const Case back = decode_case(encode_case(c));
    EXPECT_EQ(back.p, c.p);
    EXPECT_EQ(back.op_kind, c.op_kind);
    EXPECT_EQ(back.schedule, c.schedule);
    EXPECT_EQ(back.sim.seed, c.sim.seed);
    EXPECT_EQ(back.sim.delay_prob, c.sim.delay_prob);
    EXPECT_EQ(back.sim.max_extra_delay_s, c.sim.max_extra_delay_s);
    EXPECT_EQ(back.sim.duplicate_prob, c.sim.duplicate_prob);
    EXPECT_EQ(back.sim.reorder_prob, c.sim.reorder_prob);
    EXPECT_EQ(back.sim.max_compute_skew_s, c.sim.max_compute_skew_s);
    EXPECT_EQ(back.data, c.data);
    EXPECT_EQ(encode_case(back), encode_case(c));
  }
  EXPECT_THROW(decode_case(""), ArgumentError);
  EXPECT_THROW(decode_case("cv1;p=2;op=0;sched=0;sim=0,0,0,0,0,0;data="),
               ArgumentError);  // one data section for p=2
}

// Satellite 6: the shared verify registry is the source of truth for the
// operator zoo — every registered operator must have an OpKind here, so a
// new zoo entry cannot silently skip the property tier.
TEST(SimProperty, EveryRegistryOpIsCovered) {
  const std::vector<std::pair<std::string, int>> covered = {
      {"counts", kCounts},
      {"word", kOrderedWord},
      {"canon", kCanonSet},
      {"tsqr", kTSQR}};
  for (const std::string& name : verify::zoo_names()) {
    bool found = false;
    for (const auto& [zoo_name, kind] : covered) {
      if (zoo_name == name) {
        EXPECT_LT(kind, kNumOpKinds);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "registry operator '" << name
                       << "' has no OpKind in the property suite";
  }
}

// -- Rank virtualization (ISSUE 10) ------------------------------------------
//
// The scheduler must be invisible to results: the same collectives
// produce bit-identical answers however many worker threads the rank
// fibers are multiplexed onto.

/// Allreduce of registry operator Op at width p under `exec`; returns every
/// rank's result.  The schedule dispatch is production state_allreduce, so
/// commutative ops autotune and ordered ops take the order-preserving path.
template <typename Op>
std::vector<rs::reduce_result_t<Op>> registry_allreduce(
    int p, const mprt::ExecPolicy& exec) {
  std::vector<rs::reduce_result_t<Op>> results(static_cast<std::size_t>(p));
  mprt::run(
      p,
      [&](Comm& comm) {
        Op op = verify::accumulated<Op>(comm.rank());
        rs::detail::state_allreduce(comm, op);
        results[static_cast<std::size_t>(comm.rank())] = rs::red_result(op);
      },
      mprt::CostModel{}, SimConfig{}, exec);
  return results;
}

// Widths well past the host's core count, including awkward
// non-powers-of-two, each on a handful of workers and bit-compared against
// the registry oracle on every rank.
TEST(SimProperty, VirtualizedWidthsMatchOracle) {
  for (const int p : {33, 100, 257}) {
    const mprt::ExecPolicy exec{/*workers=*/6, /*stack_bytes=*/0};
    const auto counts = registry_allreduce<rs::ops::Counts>(p, exec);
    const auto want_counts = verify::expected_result<rs::ops::Counts>(p);
    for (int r = 0; r < p; ++r) {
      ASSERT_TRUE(counts[static_cast<std::size_t>(r)] == want_counts)
          << "counts p=" << p << " rank " << r;
    }
    const auto words = registry_allreduce<verify::OrderedWord>(p, exec);
    const auto want_word = verify::expected_result<verify::OrderedWord>(p);
    for (int r = 0; r < p; ++r) {
      ASSERT_TRUE(words[static_cast<std::size_t>(r)] == want_word)
          << "word p=" << p << " rank " << r;
    }
  }
}

// One-worker vs three-worker bit-identity across the whole verify
// registry (TSQR included) at the same widths: one worker runs the ranks
// in a fixed order, three interleave them on real threads, but every
// schedule the dispatch picks is deterministic in its combine bracketing,
// so results must match bit for bit.
TEST(SimProperty, WorkerCountBitIdentity) {
  const mprt::ExecPolicy one{/*workers=*/1, /*stack_bytes=*/0};
  const mprt::ExecPolicy three{/*workers=*/3, /*stack_bytes=*/0};
  for (const int p : {2, 3, 5, 8, 13, 16}) {
    verify::for_each_zoo_op([&](auto tag, const verify::ZooOpInfo& info) {
      using Op = typename decltype(tag)::type;
      const auto a = registry_allreduce<Op>(p, one);
      const auto b = registry_allreduce<Op>(p, three);
      for (int r = 0; r < p; ++r) {
        ASSERT_TRUE(a[static_cast<std::size_t>(r)] ==
                    b[static_cast<std::size_t>(r)])
            << info.name << " p=" << p << " rank " << r
            << ": one-worker and three-worker runs disagree";
      }
    });
  }
}

// Shrinking the same case twice yields byte-identical encodings — the
// candidate order is fixed and nothing consults an RNG (run_case itself
// is deterministic per case, so the accept/reject sequence repeats).
TEST(SimProperty, ShrinkIsDeterministic) {
  std::vector<Case> cases = {derive_case(4242)};
  // The registry's ordered operators shrink through the same syntactic
  // pipeline — pin one case each so the platform-identical claim covers
  // them explicitly (ISSUE 9 satellite).
  for (const int op_kind : {kOrderedWord, kTSQR}) {
    Case c = derive_case(97);
    c.op_kind = op_kind;
    c.schedule = remap_schedule(op_kind, c.schedule);
    cases.push_back(std::move(c));
  }
  for (const Case& c : cases) {
    const std::string a = encode_case(shrink_case(c));
    const std::string b = encode_case(shrink_case(c));
    EXPECT_EQ(a, b) << op_name(c.op_kind);
  }
}

}  // namespace
