// Nonblocking dissemination barrier (MPI_Ibarrier).
//
// Same schedule as coll/barrier.cpp — ceil(log2 p) rounds of pairwise
// token exchange — but each round's receive is polled instead of blocked
// on, so a rank can keep computing while the barrier's wavefront works its
// way around the ring.
#pragma once

#include <cstdint>
#include <memory>

#include "coll/nb/progress.hpp"
#include "mprt/comm.hpp"
#include "mprt/topology.hpp"

namespace rsmpi::coll::nb {

namespace detail {

class IBarrierOp final : public Operation {
 public:
  IBarrierOp(mprt::Comm& comm, int tag)
      : comm_(comm),
        tag_(tag),
        rounds_(mprt::topology::num_rounds(comm.size())) {}

  bool step() override {
    bool progressed = false;
    const int p = comm_.size();
    const int rank = comm_.rank();
    while (round_ < rounds_) {
      const int dist = 1 << round_;
      if (!sent_) {
        comm_.send((rank + dist) % p, tag_, std::uint8_t{1});
        sent_ = true;
        progressed = true;
      }
      const auto token = comm_.try_recv_message((rank - dist + p) % p, tag_);
      if (!token.has_value()) return progressed;
      ++round_;
      sent_ = false;
      progressed = true;
    }
    return progressed;
  }

  [[nodiscard]] bool done() const override { return round_ >= rounds_; }

 private:
  mprt::Comm& comm_;
  int tag_;
  int rounds_;
  int round_ = 0;
  bool sent_ = false;
};

}  // namespace detail

/// Starts a nonblocking barrier on `comm`.  The barrier is complete (its
/// request done) once every rank has entered it.
inline Request ibarrier(mprt::Comm& comm) {
  const int tag = comm.next_collective_tag();
  return ProgressEngine::current().launch(
      comm, std::make_unique<detail::IBarrierOp>(comm, tag), tag, 1);
}

}  // namespace rsmpi::coll::nb
