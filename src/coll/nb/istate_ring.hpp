// Nonblocking ring allreduce over partitionable operator states: the
// state_allreduce_ring schedule of coll/ring.hpp as a polled state
// machine for the per-rank progress engine (ISSUE 5).
//
// Each of the 2·(p−1) ring steps sends one chunk downstream and waits
// (nonblockingly) for the upstream chunk; between polls the rank is free
// to compute, so the bandwidth-optimal schedule overlaps with application
// work exactly like the butterfly operation in rs/async.hpp.  A single
// collective tag suffices: the runtime's per-source sequence numbers keep
// the chunks of consecutive steps ordered.
//
// Commutative, partitionable operators only — the blocking dispatcher
// enforces the same constraint before selecting the ring.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "coll/nb/progress.hpp"
#include "coll/rabenseifner.hpp"
#include "coll/ring.hpp"
#include "mprt/comm.hpp"

namespace rsmpi::coll::nb {

/// `StateHolder` is any shared-ownership wrapper exposing an `op` member
/// (rs::detail::AsyncOpState in practice); templating on the holder keeps
/// this header free of rs/async.hpp and breaks the include cycle.
template <typename StateHolder>
class IStateRingAllreduceOp final : public Operation {
  using Op = std::remove_reference_t<decltype(std::declval<StateHolder&>().op)>;
  static_assert(rs::PartitionableState<Op>,
                "ring allreduce requires a partitionable operator state");

 public:
  IStateRingAllreduceOp(mprt::Comm& comm, std::shared_ptr<StateHolder> state,
                        int tag)
      : comm_(comm),
        state_(std::move(state)),
        tag_(tag),
        n_(state_->op.part_extent()) {}

  bool step() override {
    bool progressed = false;
    const int p = comm_.size();
    const int rank = comm_.rank();
    const int next = (rank + 1) % p;
    const int prev = (rank + p - 1) % p;
    while (phase_ != Phase::kDone) {
      switch (phase_) {
        case Phase::kReduceScatter: {
          if (s_ >= p - 1) {
            s_ = 0;
            sent_ = false;
            phase_ = Phase::kAllgather;
            continue;
          }
          if (!sent_) {
            const auto [lo, hi] = bounds(rank - s_);
            rs::detail::send_state_part(comm_, next, tag_, state_->op, lo, hi);
            sent_ = true;
            progressed = true;
          }
          auto msg = comm_.try_recv_message(prev, tag_);
          if (!msg.has_value()) return progressed;
          const auto [lo, hi] = bounds(rank - s_ - 1);
          rs::detail::combine_part_received(comm_, state_->op, lo, hi,
                                            std::move(*msg));
          ++s_;
          sent_ = false;
          progressed = true;
          continue;
        }
        case Phase::kAllgather: {
          if (s_ >= p - 1) {
            phase_ = Phase::kDone;
            continue;
          }
          if (!sent_) {
            const auto [lo, hi] = bounds(rank + 1 - s_);
            rs::detail::send_state_part(comm_, next, tag_, state_->op, lo, hi);
            sent_ = true;
            progressed = true;
          }
          auto msg = comm_.try_recv_message(prev, tag_);
          if (!msg.has_value()) return progressed;
          const auto [lo, hi] = bounds(rank - s_);
          rs::detail::load_part_received(comm_, state_->op, lo, hi,
                                         std::move(*msg));
          ++s_;
          sent_ = false;
          progressed = true;
          continue;
        }
        case Phase::kDone:
          break;
      }
    }
    return progressed;
  }

  [[nodiscard]] bool done() const override { return phase_ == Phase::kDone; }

 private:
  enum class Phase { kReduceScatter, kAllgather, kDone };

  [[nodiscard]] std::pair<std::size_t, std::size_t> bounds(int c) const {
    const int p = comm_.size();
    const int cc = ((c % p) + p) % p;
    return {coll::detail::chunk_start(n_, p, cc),
            coll::detail::chunk_start(n_, p, cc + 1)};
  }

  mprt::Comm& comm_;
  std::shared_ptr<StateHolder> state_;
  int tag_;
  std::size_t n_;
  int s_ = 0;
  bool sent_ = false;
  Phase phase_ = Phase::kReduceScatter;
};

}  // namespace rsmpi::coll::nb
