// Scenario matrix for the exhaustive model checker (ISSUE 7), built over
// the shared operator registry (src/verify/registry.hpp, ISSUE 9): the
// zoo, per-rank inputs, and oracles live there so the sim / par suites
// enumerate the same list.  Scenario builders cover the four autotuned
// schedules (blocking path), the planted mutation, the nonblocking paths
// (the commutative two-message allreduce through the progress engine, plus
// reduce_async), and the persistent-plan replay from src/svc — each
// scenario a self-checking Runner comparing every completed rank's result
// against the registry's oracle (serial fold for exact operators, the
// binomial-tree bracketing for TSQR).
#pragma once

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coll/nb/progress.hpp"
#include "mprt/runtime.hpp"
#include "rs/async.hpp"
#include "rs/ops/counts.hpp"
#include "rs/serial.hpp"
#include "rs/state_exchange.hpp"
#include "svc/persistent.hpp"
#include "verify/explorer.hpp"
#include "verify/registry.hpp"

namespace rsmpi::verify {

// -- Runner factory ---------------------------------------------------------

namespace detail {

/// Wraps a per-rank collective body into a self-checking Runner: run the
/// machine under the oracle, then compare every completed rank's result
/// against the serial oracle bit-for-bit (operator results are compared
/// through operator==; for these ops that is exact).  Typed rsmpi errors
/// unwinding the run land in typed_error; anything untyped is itself a
/// violation (the liveness contract says result or *typed* error).
template <typename Op, typename Collective>
Runner make_runner(int p, Collective collective) {
  return [p, collective](RecordingOracle& oracle) -> ExecutionResult {
    using Result = rs::reduce_result_t<Op>;
    const Result want = expected_result<Op>(p);
    std::vector<std::optional<Result>> got(static_cast<std::size_t>(p));
    ExecutionResult result;
    mprt::SimConfig sim;
    sim.oracle = &oracle;
    try {
      mprt::run(
          p,
          [&](mprt::Comm& comm) {
            got[static_cast<std::size_t>(comm.rank())] =
                collective(comm);
          },
          mprt::CostModel{}, sim);
    } catch (const Error& e) {
      result.typed_error = true;
      result.error_what = e.what();
    } catch (const std::exception& e) {
      result.failed = true;
      result.detail =
          std::string("untyped exception escaped the run: ") + e.what();
      return result;
    }
    for (int r = 0; r < p; ++r) {
      const auto& mine = got[static_cast<std::size_t>(r)];
      if (mine.has_value() && !(*mine == want)) {
        result.failed = true;
        result.detail = "rank " + std::to_string(r) +
                        ": result differs from the serial oracle";
        return result;
      }
    }
    return result;
  };
}

}  // namespace detail

// -- Scenario builders ------------------------------------------------------

inline std::string schedule_name(rs::detail::Schedule schedule) {
  using S = rs::detail::Schedule;
  switch (schedule) {
    case S::kAuto:
      return "auto";
    case S::kTwoMessage:
      return "two_message";
    case S::kButterfly:
      return "butterfly";
    case S::kRabenseifner:
      return "rabenseifner";
    case S::kRing:
      return "ring";
    case S::kHierarchical:
      return "hierarchical";
  }
  return "unknown";
}

/// Blocking allreduce through one pinned schedule.
template <typename Op>
Scenario blocking_scenario(const std::string& op_name, int p,
                           rs::detail::Schedule schedule) {
  Scenario s;
  s.name = op_name + "-" + schedule_name(schedule) + "-p" + std::to_string(p);
  s.num_ranks = p;
  s.runner = detail::make_runner<Op>(p, [schedule](mprt::Comm& comm) {
    Op op = accumulated<Op>(comm.rank());
    rs::detail::state_allreduce_with_schedule(comm, op, schedule,
                                              rs::op_commutative<Op>());
    return rs::red_result(op);
  });
  return s;
}

/// The planted ordering bug: the deliberately-wrong variant that routes
/// any operator through the commutative-only combine-as-available tree.
/// With OrderedWord the explorer must catch it (mutation_test).
template <typename Op>
Scenario mutation_scenario(const std::string& op_name, int p) {
  Scenario s;
  s.name = op_name + "-mutation-p" + std::to_string(p);
  s.num_ranks = p;
  s.runner = detail::make_runner<Op>(p, [](mprt::Comm& comm) {
    Op op = accumulated<Op>(comm.rank());
    rs::detail::state_allreduce_mutation_unordered(comm, op);
    return rs::red_result(op);
  });
  return s;
}

/// The commutative two-message allreduce — its fold-on-arrival tree is
/// state_reduce_unordered — run through the nonblocking progress engine
/// (the autotuner rarely picks it, so it is named here explicitly).  Only
/// valid for commutative operators.
template <typename Op>
Scenario nb_tree_scenario(const std::string& op_name, int p) {
  static_assert(rs::op_commutative<Op>(),
                "nb_tree_scenario drives the commutative branch");
  Scenario s;
  s.name = op_name + "-nbtree-p" + std::to_string(p);
  s.num_ranks = p;
  s.runner = detail::make_runner<Op>(p, [](mprt::Comm& comm) {
    Op op = accumulated<Op>(comm.rank());
    auto request = coll::nb::ProgressEngine::current().launch(
        comm, [&](mprt::Comm& c) {
          rs::detail::state_allreduce_with_schedule(
              c, op, rs::detail::Schedule::kTwoMessage, /*commutative=*/true);
        });
    request.wait();
    return rs::red_result(op);
  });
  return s;
}

/// The production async path: rs::reduce_async (state_allreduce's own
/// pick on the progress engine).
template <typename Op>
Scenario async_scenario(const std::string& op_name, int p) {
  Scenario s;
  s.name = op_name + "-async-p" + std::to_string(p);
  s.num_ranks = p;
  s.runner = detail::make_runner<Op>(p, [](mprt::Comm& comm) {
    auto future = rs::reduce_async(comm, rank_inputs<Op>(comm.rank()),
                                   make_prototype<Op>());
    return future.get();
  });
  return s;
}

inline constexpr int kPersistentEpochs = 2;

/// Persistent-plan replay (satellite 3): plan once, execute two epochs.
/// Every completed epoch's result must equal the serial oracle — a
/// pre-fault epoch must replay bit-identically even when a later epoch is
/// killed mid-collective.
template <typename Op>
Scenario persistent_scenario(const std::string& op_name, int p) {
  Scenario s;
  s.name = op_name + "-persistent-p" + std::to_string(p);
  s.num_ranks = p;
  s.runner = [p](RecordingOracle& oracle) -> ExecutionResult {
    using Result = rs::reduce_result_t<Op>;
    const Result want = expected_result<Op>(p);
    std::vector<std::vector<std::optional<Result>>> got(
        kPersistentEpochs,
        std::vector<std::optional<Result>>(static_cast<std::size_t>(p)));
    ExecutionResult result;
    mprt::SimConfig sim;
    sim.oracle = &oracle;
    try {
      mprt::run(
          p,
          [&](mprt::Comm& comm) {
            svc::PersistentReduce<Op> handle(comm, make_prototype<Op>());
            for (int epoch = 0; epoch < kPersistentEpochs; ++epoch) {
              const Result r =
                  handle.execute(rank_inputs<Op>(comm.rank()));
              got[static_cast<std::size_t>(epoch)]
                 [static_cast<std::size_t>(comm.rank())] = r;
            }
          },
          mprt::CostModel{}, sim);
    } catch (const Error& e) {
      result.typed_error = true;
      result.error_what = e.what();
    } catch (const std::exception& e) {
      result.failed = true;
      result.detail =
          std::string("untyped exception escaped the run: ") + e.what();
      return result;
    }
    for (int epoch = 0; epoch < kPersistentEpochs; ++epoch) {
      for (int r = 0; r < p; ++r) {
        const auto& mine = got[static_cast<std::size_t>(epoch)]
                              [static_cast<std::size_t>(r)];
        if (mine.has_value() && !(*mine == want)) {
          result.failed = true;
          result.detail = "epoch " + std::to_string(epoch) + " rank " +
                          std::to_string(r) +
                          ": persistent replay differs from the serial "
                          "oracle";
          return result;
        }
      }
    }
    return result;
  };
  return s;
}

// -- Scenario registry ------------------------------------------------------

class ScenarioSet {
 public:
  void add(Scenario scenario) { scenarios_.push_back(std::move(scenario)); }

  [[nodiscard]] const std::vector<Scenario>& all() const { return scenarios_; }

  [[nodiscard]] const Scenario* find(const std::string& name) const {
    for (const Scenario& s : scenarios_) {
      if (s.name == name) return &s;
    }
    return nullptr;
  }

 private:
  std::vector<Scenario> scenarios_;
};

/// The standard checker matrix at one machine size, enumerated from the
/// shared registry: every zoo operator gets the blocking schedules its
/// traits admit (all four for partitionable or noncommutative operators —
/// noncommutative ones route every name to the order-preserving path — two
/// for the rest), the commutative ones the two-message allreduce through
/// the progress engine, plus the async and persistent tiers per the
/// registry flags.  The planted mutation is NOT in the standard set —
/// mutation_scenario builds it for the detection test only.
inline ScenarioSet standard_scenarios(int p) {
  using S = rs::detail::Schedule;
  ScenarioSet set;
  for_each_zoo_op([&](auto tag, const ZooOpInfo& info) {
    using Op = typename decltype(tag)::type;
    const std::string name = info.name;
    const bool all_schedules = info.partitionable || !info.commutative;
    for (const S schedule :
         {S::kTwoMessage, S::kButterfly, S::kRabenseifner, S::kRing}) {
      if (!all_schedules && schedule != S::kTwoMessage &&
          schedule != S::kButterfly) {
        continue;
      }
      set.add(blocking_scenario<Op>(name, p, schedule));
    }
    if constexpr (rs::op_commutative<Op>()) {
      set.add(nb_tree_scenario<Op>(name, p));
    }
    if (info.async_tier) set.add(async_scenario<Op>(name, p));
    if (info.persistent_tier) set.add(persistent_scenario<Op>(name, p));
  });
  return set;
}

/// Every scenario a trace might name, across the machine sizes the tests
/// explore (p in [2, max_p]), plus the mutation targets.
inline ScenarioSet replayable_scenarios(int max_p = 5) {
  ScenarioSet set;
  for (int p = 2; p <= max_p; ++p) {
    const ScenarioSet base = standard_scenarios(p);
    for (const Scenario& s : base.all()) set.add(s);
    set.add(mutation_scenario<OrderedWord>("word", p));
    set.add(mutation_scenario<rs::ops::TSQR>("tsqr", p));
  }
  return set;
}

/// RSMPI_VERIFY_TRACE replay hook: when the variable is set, decodes it,
/// resolves the scenario, and replays that single execution — the
/// one-violation reproduction loop.  Returns std::nullopt when the
/// variable is unset.  Throws ArgumentError on malformed traces or
/// unknown scenario names.
inline std::optional<ExecutionResult> replay_from_env(
    const ScenarioSet& set) {
  const char* raw = std::getenv("RSMPI_VERIFY_TRACE");
  if (raw == nullptr || *raw == '\0') return std::nullopt;
  const Trace trace = decode_trace(raw);
  const Scenario* scenario = set.find(trace.scenario);
  if (scenario == nullptr) {
    throw ArgumentError("RSMPI_VERIFY_TRACE: unknown scenario '" +
                        trace.scenario + "'");
  }
  return replay(*scenario, trace);
}

}  // namespace rsmpi::verify
