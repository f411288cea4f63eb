#include "verify/oracle.hpp"

#include <utility>

#include "util/error.hpp"

namespace rsmpi::verify {

RecordingOracle::RecordingOracle(int num_ranks,
                                 std::vector<std::vector<int>> prefix,
                                 FaultPlacement fault)
    : ranks_(static_cast<std::size_t>(num_ranks)), fault_(fault) {
  if (num_ranks < 1) {
    throw ArgumentError("RecordingOracle: need at least one rank");
  }
  if (prefix.size() > ranks_.size()) {
    throw ArgumentError("RecordingOracle: prefix has more ranks than the "
                        "machine");
  }
  for (std::size_t r = 0; r < prefix.size(); ++r) {
    ranks_[r].prefix = std::move(prefix[r]);
  }
}

int RecordingOracle::choose(int rank, int alternatives) {
  PerRank& me = ranks_[static_cast<std::size_t>(rank)];
  const std::size_t step = me.choices.size();
  int chosen = 0;
  if (step < me.prefix.size()) {
    chosen = me.prefix[step];
    if (chosen < 0 || chosen >= alternatives) {
      // The forced branch no longer exists (the execution tree changed
      // shape, e.g. under a different fault).  Clamp rather than crash the
      // rank; the explorer discards the run via prefix_mismatch().
      chosen = alternatives - 1;
      prefix_mismatch_.store(true, std::memory_order_relaxed);
    }
  }
  me.choices.push_back({chosen, alternatives});
  return chosen;
}

void RecordingOracle::note_pruned(int rank, std::uint64_t orders) {
  (void)rank;
  pruned_.fetch_add(orders, std::memory_order_relaxed);
}

mprt::DeliveryFault RecordingOracle::message_fault(int rank,
                                                  std::uint64_t index) {
  PerRank& me = ranks_[static_cast<std::size_t>(rank)];
  me.msgs = index + 1;
  mprt::DeliveryFault fault;
  if (rank == fault_.rank && index == fault_.index) {
    switch (fault_.kind) {
      case FaultPlacement::Kind::kDrop:
        fault.drop = true;
        break;
      case FaultPlacement::Kind::kDuplicate:
        fault.duplicate = true;
        break;
      case FaultPlacement::Kind::kReorder:
        fault.reorder_front = true;
        break;
      case FaultPlacement::Kind::kNone:
      case FaultPlacement::Kind::kKill:
        break;
    }
  }
  return fault;
}

bool RecordingOracle::kill_before_send(int rank, std::uint64_t index) {
  PerRank& me = ranks_[static_cast<std::size_t>(rank)];
  me.sends = index + 1;
  return fault_.kind == FaultPlacement::Kind::kKill && rank == fault_.rank &&
         index == fault_.index;
}

std::vector<std::vector<int>> RecordingOracle::decisions() const {
  std::vector<std::vector<int>> out;
  out.reserve(ranks_.size());
  for (const PerRank& r : ranks_) {
    std::vector<int> d;
    d.reserve(r.choices.size());
    for (const ChoiceRecord& c : r.choices) d.push_back(c.chosen);
    out.push_back(std::move(d));
  }
  return out;
}

}  // namespace rsmpi::verify
