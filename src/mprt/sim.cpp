#include "mprt/sim.hpp"

#include <sstream>

namespace rsmpi::mprt {

std::string SimConfig::describe() const {
  std::ostringstream os;
  os << "SimConfig{seed=" << seed;
  if (delay_prob > 0.0) {
    os << ", delay=" << delay_prob << "x" << max_extra_delay_s << "s";
  }
  if (duplicate_prob > 0.0) os << ", dup=" << duplicate_prob;
  if (drop_prob > 0.0) os << ", drop=" << drop_prob;
  if (reorder_prob > 0.0) os << ", reorder=" << reorder_prob;
  if (max_compute_skew_s > 0.0) os << ", skew=" << max_compute_skew_s << "s";
  if (kill_rank >= 0) {
    os << ", kill rank " << kill_rank << " after " << kill_after_sends
       << " sends";
  }
  if (oracle != nullptr) os << ", oracle-dictated";
  os << "}";
  return os.str();
}

/// Each rank's decision stream: its own PRNG plus its send count.  Slots
/// are only ever touched by the owning rank, so no locks; they
/// are padded apart to keep the simulator from serializing ranks on one
/// cache line.
struct alignas(64) ChaosController::PerRank {
  SimRng rng{0};
  std::uint64_t sends = 0;
  std::uint64_t msgs = 0;  // deliveries consulted through a ScheduleOracle
};

ChaosController::ChaosController(const SimConfig& config, int num_ranks)
    : config_(config),
      ranks_(new PerRank[static_cast<std::size_t>(num_ranks)]),
      num_ranks_(num_ranks) {
  for (int r = 0; r < num_ranks; ++r) {
    // Distinct, seed-derived stream per rank; +1 keeps rank 0's stream
    // from collapsing onto the bare seed.
    ranks_[r].rng = SimRng(splitmix64(config.seed) ^
                           splitmix64(static_cast<std::uint64_t>(r) + 1));
  }
}

ChaosController::~ChaosController() { delete[] ranks_; }

double ChaosController::pre_send(int rank) {
  PerRank& me = ranks_[rank];
  if (config_.oracle != nullptr) {
    // Dictated mode: the oracle names the exact send to die at; skew is
    // never injected (the checker owns all nondeterminism explicitly).
    if (config_.oracle->kill_before_send(rank, me.sends)) {
      rank_killed_.store(true, std::memory_order_relaxed);
      throw RankKilledError("rank " + std::to_string(rank) +
                            " killed by schedule oracle instead of send #" +
                            std::to_string(me.sends));
    }
    me.sends += 1;
    return 0.0;
  }
  if (rank == config_.kill_rank && me.sends >= config_.kill_after_sends) {
    rank_killed_.store(true, std::memory_order_relaxed);
    throw RankKilledError("rank " + std::to_string(rank) +
                          " killed by fault plan after " +
                          std::to_string(me.sends) + " sends (" +
                          config_.describe() + ")");
  }
  me.sends += 1;
  if (config_.max_compute_skew_s <= 0.0) return 0.0;
  skew_events_.fetch_add(1, std::memory_order_relaxed);
  return me.rng.uniform() * config_.max_compute_skew_s;
}

DeliveryFault ChaosController::on_message(int rank) {
  PerRank& me = ranks_[rank];
  if (config_.oracle != nullptr) {
    const DeliveryFault fault =
        config_.oracle->message_fault(rank, me.msgs++);
    if (fault.drop) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return fault;
    }
    delivered_.fetch_add(1, std::memory_order_relaxed);
    if (fault.duplicate) duplicated_.fetch_add(1, std::memory_order_relaxed);
    if (fault.reorder_front) {
      reordered_.fetch_add(1, std::memory_order_relaxed);
    }
    if (fault.extra_delay_s > 0.0) {
      delayed_.fetch_add(1, std::memory_order_relaxed);
    }
    return fault;
  }
  DeliveryFault fault;
  // Every branch consumes its draw unconditionally so the stream stays
  // aligned across plans that differ only in probabilities.
  if (me.rng.uniform() < config_.drop_prob) fault.drop = true;
  if (me.rng.uniform() < config_.duplicate_prob) fault.duplicate = true;
  if (me.rng.uniform() < config_.reorder_prob) fault.reorder_front = true;
  const double delay_draw = me.rng.uniform();
  const double delay_amount = me.rng.uniform() * config_.max_extra_delay_s;
  const double dup_delay = me.rng.uniform() * config_.max_extra_delay_s;
  if (delay_draw < config_.delay_prob) {
    fault.extra_delay_s = delay_amount;
    fault.duplicate_delay_s = dup_delay;
  }

  if (fault.drop) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return fault;
  }
  delivered_.fetch_add(1, std::memory_order_relaxed);
  if (fault.duplicate) duplicated_.fetch_add(1, std::memory_order_relaxed);
  if (fault.reorder_front) reordered_.fetch_add(1, std::memory_order_relaxed);
  if (fault.extra_delay_s > 0.0) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
  }
  return fault;
}

SimStats ChaosController::stats() const {
  SimStats s;
  s.delivered = delivered_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.duplicated = duplicated_.load(std::memory_order_relaxed);
  s.delayed = delayed_.load(std::memory_order_relaxed);
  s.reordered = reordered_.load(std::memory_order_relaxed);
  s.skew_events = skew_events_.load(std::memory_order_relaxed);
  s.rank_killed = rank_killed_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rsmpi::mprt
