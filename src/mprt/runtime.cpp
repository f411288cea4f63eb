#include "mprt/runtime.hpp"

#include <sched.h>

#include <algorithm>
#include <exception>

#include "mprt/scheduler.hpp"
#include "util/error.hpp"

namespace rsmpi::mprt {

namespace {

/// ExecPolicy::workers when positive, else min(ranks, usable CPUs).
int worker_count(int num_ranks, int requested) {
  if (requested > 0) return requested;
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
  return std::clamp(cpus, 1, num_ranks);
}

}  // namespace

Comm& this_comm() {
  FiberSlot* slot = current_fiber_slot();
  if (slot == nullptr || slot->comm == nullptr) {
    throw Error("this_comm: no rank is active here (only valid inside a "
                "run() body)");
  }
  return *slot->comm;
}

Runtime::Runtime(int num_ranks, CostModel model, SimConfig sim)
    : model_(model) {
  if (num_ranks < 1) {
    throw ArgumentError("Runtime: need at least one rank, got " +
                        std::to_string(num_ranks));
  }
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
  }
  states_.resize(static_cast<std::size_t>(num_ranks));
  if (sim.enabled()) {
    chaos_ = std::make_unique<ChaosController>(sim, num_ranks);
  }
  if (sim.oracle != nullptr) {
    // Model-checking mode: wildcard matching is made canonical so a
    // recorded decision string replays the identical execution.
    for (auto& mb : mailboxes_) mb->set_deterministic_wildcard(true);
  }
}

Mailbox& Runtime::mailbox(int global_rank) {
  return *mailboxes_[static_cast<std::size_t>(global_rank)];
}

RankState& Runtime::rank_state(int global_rank) {
  return states_[static_cast<std::size_t>(global_rank)];
}

Metrics Runtime::metrics(int global_rank) const {
  const auto r = static_cast<std::size_t>(global_rank);
  Metrics m = states_[r].metrics;
  m[Metric::kDuplicatesSuppressed] = mailboxes_[r]->duplicates_suppressed();
  if (scheduler_ != nullptr) {
    m[Metric::kWorkers] = static_cast<std::uint64_t>(scheduler_->workers());
    m[Metric::kParkedRanks] =
        static_cast<std::uint64_t>(scheduler_->peak_parked());
    m[Metric::kParkEvents] = scheduler_->park_events();
  }
  if (chaos_ != nullptr) {
    const SimStats sim = chaos_->stats();
    m[Metric::kChaosDropped] = sim.dropped;
    m[Metric::kChaosDuplicated] = sim.duplicated;
    m[Metric::kChaosDelayed] = sim.delayed;
    m[Metric::kChaosReordered] = sim.reordered;
    m[Metric::kChaosRankKilled] = sim.rank_killed ? 1 : 0;
  }
  return m;
}

void Runtime::abort_all() {
  for (auto& mb : mailboxes_) mb->abort();
}

void Runtime::notify_peer_lost(int global_rank) {
  for (auto& mb : mailboxes_) mb->notify_peer_lost(global_rank);
}

RunResult run(int num_ranks, const std::function<void(Comm&)>& body,
              const CostModel& model, const SimConfig& sim,
              const ExecPolicy& exec) {
  Runtime runtime(num_ranks, model, sim);

  std::vector<std::unique_ptr<Comm>> comms;
  comms.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    comms.push_back(std::make_unique<Comm>(runtime, r));
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks));

  // One rank's body plus its error discipline.
  const auto rank_main = [&](int r) {
    FiberSlot* slot = current_fiber_slot();
    try {
      Comm& comm = *comms[static_cast<std::size_t>(r)];
      slot->comm = &comm;
      body(comm);
    } catch (const RankKilledError&) {
      // A fault-plan kill is a modelled failure, not a teardown: peers
      // get the typed PeerLostError (and may handle it and continue)
      // rather than the indiscriminate abort.
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      runtime.notify_peer_lost(r);
    } catch (...) {
      errors[static_cast<std::size_t>(r)] = std::current_exception();
      runtime.abort_all();
    }
    // Nonblocking operations the body left unfinished unwind here, on the
    // rank's own fiber, while the run is still whole.
    slot->nb_engine.reset();
  };

  RunResult result;
  {
    VirtualScheduler sched(num_ranks, worker_count(num_ranks, exec.workers),
                           exec.stack_bytes);
    for (int r = 0; r < num_ranks; ++r) {
      runtime.mailbox(r).set_rank_waiter(&sched.waiter(r));
    }
    runtime.set_scheduler(&sched);
    sched.run(rank_main);
    // Every rank has finished, so each snapshot is final.
    for (int r = 0; r < num_ranks; ++r) {
      result.metrics.merge(runtime.metrics(r));
    }
    runtime.set_scheduler(nullptr);
  }

  // Rethrow the first real (non-cascade) failure, preferring low ranks so
  // the reported error is deterministic.  AbortError/PeerLostError on a
  // rank is only a symptom of some other rank's failure; surface one only
  // if nothing else threw (which would indicate a stray abort).
  std::exception_ptr symptom_only;
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const AbortError&) {
      if (!symptom_only) symptom_only = e;
    } catch (const PeerLostError&) {
      if (!symptom_only) symptom_only = e;
    } catch (...) {
      std::rethrow_exception(e);
    }
  }
  if (symptom_only) std::rethrow_exception(symptom_only);

  result.rank_times_s.reserve(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    const RankState& s = runtime.rank_state(r);
    const double t = s.clock.now();
    result.rank_times_s.push_back(t);
    if (t > result.makespan_s) result.makespan_s = t;
    for (const auto& [name, value] : s.published_stats) {
      result.user_stats[name] += value;
    }
  }
  if (ChaosController* chaos = runtime.chaos()) {
    result.sim = chaos->stats();
  }
  return result;
}

}  // namespace rsmpi::mprt
