// Nonblocking reduce / allreduce over local-view buffer operators
// (MPI_Ireduce / MPI_Iallreduce).
//
// Two allreduce schedules, mirroring the blocking collectives:
//   * binomial — order-preserving reduce to rank 0 plus binomial
//     broadcast; safe for non-commutative operators;
//   * Rabenseifner — the recursive-halving reduce-scatter + recursive-
//     doubling allgather of coll/rabenseifner.hpp, restated as a state
//     machine over the same chunk arithmetic (detail::chunk_start) and the
//     same MPICH-style non-power-of-two fold; commutative operators only.
//
// Each operation reserves a tag window on its communicator and advances in
// the rank's ProgressEngine; user buffers must outlive completion.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "coll/local_reduce.hpp"
#include "coll/nb/progress.hpp"
#include "coll/rabenseifner.hpp"
#include "mprt/comm.hpp"
#include "mprt/topology.hpp"
#include "util/error.hpp"

namespace rsmpi::coll::nb {

/// Schedule selection for iallreduce.
enum class IAllreduceAlgo {
  kBinomial,      ///< reduce-to-zero + bcast; any associative operator
  kRabenseifner,  ///< reduce-scatter + allgather; commutative only
};

namespace detail {

/// Binomial reduce to a root, optionally followed by a forward hop (for
/// non-commutative operators with a nonzero root) or by a binomial
/// broadcast of the finished buffer (allreduce).
template <typename T, LocalViewOp<T> Op>
class IReduceOp final : public Operation {
 public:
  IReduceOp(mprt::Comm& comm, int root, std::span<T> values, Op op,
            bool bcast_after, int reduce_tag, int second_tag)
      : comm_(comm),
        op_(std::move(op)),
        values_(values),
        root_(root),
        reduce_tag_(reduce_tag),
        second_tag_(second_tag),
        bcast_after_(bcast_after) {
    const int p = comm.size();
    // Rotating the tree breaks rank-order contiguity, so non-commutative
    // reductions to a nonzero root reduce to rank 0 in order and forward
    // the finished buffer — same policy as the blocking local_reduce.
    forward_ = !is_commutative<Op>() && root != 0 && !bcast_after;
    const int tree_root = forward_ ? 0 : root;
    vrank_ = (comm.rank() - tree_root + p) % p;
    tree_root_ = tree_root;
    reduce_steps_ = mprt::topology::binomial_reduce_schedule(vrank_, p);
    if (bcast_after) {
      bcast_steps_ = mprt::topology::binomial_bcast_schedule(vrank_, p);
    }
  }

  bool step() override {
    bool progressed = false;
    const int p = comm_.size();
    while (phase_ != Phase::kDone) {
      switch (phase_) {
        case Phase::kReduce: {
          if (next_ >= reduce_steps_.size()) {
            next_ = 0;
            phase_ = forward_ ? Phase::kForward
                              : (bcast_after_ ? Phase::kBcast : Phase::kDone);
            continue;
          }
          const auto& s = reduce_steps_[next_];
          const int partner = (s.partner + tree_root_) % p;
          if (s.role == mprt::topology::BinomialStep::Role::kSend) {
            comm_.send_span(partner, reduce_tag_,
                            std::span<const T>(values_));
          } else {
            auto msg = comm_.try_recv_message(partner, reduce_tag_);
            if (!msg.has_value()) return progressed;
            if (msg->payload_size() != values_.size_bytes()) {
              throw ProtocolError(
                  "iallreduce: buffer extent differs across ranks");
            }
            std::vector<T> received(values_.size());
            if (!received.empty()) {
              std::memcpy(received.data(), msg->payload().data(),
                          msg->payload_size());
            }
            // Receiver is the lower virtual rank: its block is on the left.
            coll::detail::combine_received(op_, values_,
                                           /*inout_is_left=*/true,
                                           std::span<const T>(received));
          }
          ++next_;
          progressed = true;
          continue;
        }
        case Phase::kForward: {
          if (comm_.rank() == 0) {
            comm_.send_span(root_, second_tag_, std::span<const T>(values_));
            phase_ = Phase::kDone;
            progressed = true;
          } else if (comm_.rank() == root_) {
            auto msg = comm_.try_recv_message(0, second_tag_);
            if (!msg.has_value()) return progressed;
            if (msg->payload_size() != values_.size_bytes()) {
              throw ProtocolError(
                  "ireduce: buffer extent differs across ranks");
            }
            if (!values_.empty()) {
              std::memcpy(values_.data(), msg->payload().data(),
                          msg->payload_size());
            }
            phase_ = Phase::kDone;
            progressed = true;
          } else {
            phase_ = Phase::kDone;
          }
          continue;
        }
        case Phase::kBcast: {
          if (next_ >= bcast_steps_.size()) {
            phase_ = Phase::kDone;
            continue;
          }
          const auto& s = bcast_steps_[next_];
          const int partner = (s.partner + tree_root_) % p;
          if (s.role == mprt::topology::BinomialStep::Role::kRecv) {
            auto msg = comm_.try_recv_message(partner, second_tag_);
            if (!msg.has_value()) return progressed;
            if (msg->payload_size() != values_.size_bytes()) {
              throw ProtocolError(
                  "iallreduce: buffer extent differs across ranks");
            }
            if (!values_.empty()) {
              std::memcpy(values_.data(), msg->payload().data(),
                          msg->payload_size());
            }
          } else {
            comm_.send_span(partner, second_tag_,
                            std::span<const T>(values_));
          }
          ++next_;
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
  enum class Phase { kReduce, kForward, kBcast, kDone };

  mprt::Comm& comm_;
  Op op_;
  std::span<T> values_;
  int root_;
  int tree_root_;
  int vrank_;
  int reduce_tag_;
  int second_tag_;
  bool bcast_after_;
  bool forward_ = false;
  std::vector<mprt::topology::BinomialStep> reduce_steps_;
  std::vector<mprt::topology::BinomialStep> bcast_steps_;
  std::size_t next_ = 0;
  Phase phase_ = Phase::kReduce;
};

/// Rabenseifner's allreduce as a state machine.  Stage structure, chunk
/// arithmetic, and the remainder fold are those of
/// local_allreduce_rabenseifner; every receive is polled.
template <typename T, LocalViewOp<T> Op>
class IAllreduceRabenseifnerOp final : public Operation {
 public:
  IAllreduceRabenseifnerOp(mprt::Comm& comm, std::span<T> values, Op op,
                           int tag)
      : comm_(comm), op_(std::move(op)), values_(values), tag_(tag) {
    const int p = comm.size();
    pof2_ = 1 << mprt::topology::floor_log2(p);
    rem_ = p - pof2_;
    const int rank = comm.rank();
    if (rank < 2 * rem_) {
      if (rank % 2 == 1) {
        phase_ = Phase::kFoldSend;
        vrank_ = -1;
      } else {
        phase_ = Phase::kFoldRecv;
        vrank_ = rank / 2;
      }
    } else {
      phase_ = Phase::kReduceScatter;
      vrank_ = rank - rem_;
    }
    lo_ = 0;
    hi_ = pof2_;
    dist_ = pof2_ / 2;
  }

  bool step() override {
    bool progressed = false;
    const int rank = comm_.rank();
    const std::size_t n = values_.size();
    while (phase_ != Phase::kDone) {
      switch (phase_) {
        case Phase::kFoldSend: {  // odd remainder rank: hand off, wait out
          comm_.send_span(rank - 1, tag_, std::span<const T>(values_));
          phase_ = Phase::kFoldAwaitFinal;
          progressed = true;
          continue;
        }
        case Phase::kFoldAwaitFinal: {
          auto msg = comm_.try_recv_message(rank - 1, tag_);
          if (!msg.has_value()) return progressed;
          copy_payload(*msg, values_);
          phase_ = Phase::kDone;
          progressed = true;
          continue;
        }
        case Phase::kFoldRecv: {  // even remainder rank: absorb neighbour
          auto msg = comm_.try_recv_message(rank + 1, tag_);
          if (!msg.has_value()) return progressed;
          std::vector<T> other = to_values(*msg, n);
          op_.combine(values_, std::span<const T>(other));
          phase_ = Phase::kReduceScatter;
          progressed = true;
          continue;
        }
        case Phase::kReduceScatter: {
          if (dist_ < 1 || pof2_ == 1) {
            phase_ = Phase::kAllgather;
            dist_ = 1;
            continue;
          }
          const int partner = vrank_ ^ dist_;
          const int mid = (lo_ + hi_) / 2;
          const bool keep_low = vrank_ < mid;
          const int keep_lo = keep_low ? lo_ : mid;
          const int keep_hi = keep_low ? mid : hi_;
          if (!sent_) {
            const int send_lo = keep_low ? mid : lo_;
            const int send_hi = keep_low ? hi_ : mid;
            const std::size_t s0 = coll::detail::chunk_start(n, pof2_, send_lo);
            const std::size_t s1 = coll::detail::chunk_start(n, pof2_, send_hi);
            comm_.send_span(real_rank(partner), tag_,
                            std::span<const T>(values_.data() + s0, s1 - s0));
            sent_ = true;
            progressed = true;
          }
          auto msg = comm_.try_recv_message(real_rank(partner), tag_);
          if (!msg.has_value()) return progressed;
          const std::size_t k0 = coll::detail::chunk_start(n, pof2_, keep_lo);
          const std::size_t k1 = coll::detail::chunk_start(n, pof2_, keep_hi);
          std::vector<T> other = to_values(*msg, k1 - k0);
          op_.combine(values_.subspan(k0, k1 - k0),
                      std::span<const T>(other));
          lo_ = keep_lo;
          hi_ = keep_hi;
          dist_ /= 2;
          sent_ = false;
          progressed = true;
          continue;
        }
        case Phase::kAllgather: {
          if (dist_ >= pof2_) {
            phase_ = (rank < 2 * rem_) ? Phase::kUnfoldSend : Phase::kDone;
            continue;
          }
          const int partner = vrank_ ^ dist_;
          if (!sent_) {
            const std::size_t h0 = coll::detail::chunk_start(n, pof2_, lo_);
            const std::size_t h1 = coll::detail::chunk_start(n, pof2_, hi_);
            comm_.send_span(real_rank(partner), tag_,
                            std::span<const T>(values_.data() + h0, h1 - h0));
            sent_ = true;
            progressed = true;
          }
          auto msg = comm_.try_recv_message(real_rank(partner), tag_);
          if (!msg.has_value()) return progressed;
          const int block = 2 * dist_;
          const int base = (vrank_ / block) * block;
          const int plo = (lo_ == base) ? base + dist_ : base;
          const int phi = plo + dist_;
          const std::size_t q0 = coll::detail::chunk_start(n, pof2_, plo);
          const std::size_t q1 = coll::detail::chunk_start(n, pof2_, phi);
          copy_payload(*msg, values_.subspan(q0, q1 - q0));
          lo_ = base;
          hi_ = base + block;
          dist_ *= 2;
          sent_ = false;
          progressed = true;
          continue;
        }
        case Phase::kUnfoldSend: {  // hand the folded-away neighbour its copy
          comm_.send_span(rank + 1, tag_, std::span<const T>(values_));
          phase_ = Phase::kDone;
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
  enum class Phase {
    kFoldSend,
    kFoldAwaitFinal,
    kFoldRecv,
    kReduceScatter,
    kAllgather,
    kUnfoldSend,
    kDone,
  };

  [[nodiscard]] int real_rank(int vr) const {
    return vr < rem_ ? 2 * vr : vr + rem_;
  }

  static void copy_payload(const mprt::Message& msg, std::span<T> out) {
    if (msg.payload_size() != out.size_bytes()) {
      throw ProtocolError(
          "iallreduce (rabenseifner): buffer extent differs across ranks");
    }
    if (!out.empty()) {
      std::memcpy(out.data(), msg.payload().data(), msg.payload_size());
    }
  }

  static std::vector<T> to_values(const mprt::Message& msg,
                                  std::size_t expected) {
    if (msg.payload_size() != expected * sizeof(T)) {
      throw ProtocolError(
          "iallreduce (rabenseifner): buffer extent differs across ranks");
    }
    std::vector<T> out(expected);
    if (!out.empty()) {
      std::memcpy(out.data(), msg.payload().data(), msg.payload_size());
    }
    return out;
  }

  mprt::Comm& comm_;
  Op op_;
  std::span<T> values_;
  int tag_;
  int pof2_;
  int rem_;
  int vrank_;
  int lo_;
  int hi_;
  int dist_;
  bool sent_ = false;
  Phase phase_;
};

}  // namespace detail

/// Starts a nonblocking in-place allreduce of `values`; on completion every
/// rank's buffer holds the combined result.  The buffer must have the same
/// extent on every rank and outlive the request.
template <typename T, LocalViewOp<T> Op>
Request iallreduce(mprt::Comm& comm, std::span<T> values, const Op& op,
                   IAllreduceAlgo algo = IAllreduceAlgo::kBinomial) {
  if (comm.size() == 1) return Request{};
  if (algo == IAllreduceAlgo::kRabenseifner) {
    if (!is_commutative<Op>()) {
      throw ArgumentError(
          "iallreduce: rabenseifner schedule requires a commutative operator");
    }
    const int tag = comm.reserve_collective_tags(1);
    return ProgressEngine::current().launch(
        comm,
        std::make_unique<detail::IAllreduceRabenseifnerOp<T, Op>>(comm, values,
                                                                  op, tag),
        tag, 1);
  }
  const int tag = comm.reserve_collective_tags(2);
  return ProgressEngine::current().launch(
      comm,
      std::make_unique<detail::IReduceOp<T, Op>>(comm, /*root=*/0, values, op,
                                                 /*bcast_after=*/true, tag,
                                                 tag + 1),
      tag, 2);
}

/// Starts a nonblocking in-place reduce of `values` to `root`.  On
/// completion the result is valid on `root` only; other ranks' buffers are
/// clobbered with partial results (as in the blocking local_reduce).
template <typename T, LocalViewOp<T> Op>
Request ireduce(mprt::Comm& comm, int root, std::span<T> values,
                const Op& op) {
  if (root < 0 || root >= comm.size()) {
    throw ArgumentError("ireduce: root rank out of range");
  }
  if (comm.size() == 1) return Request{};
  const int tag = comm.reserve_collective_tags(2);
  return ProgressEngine::current().launch(
      comm,
      std::make_unique<detail::IReduceOp<T, Op>>(comm, root, values, op,
                                                 /*bcast_after=*/false, tag,
                                                 tag + 1),
      tag, 2);
}

}  // namespace rsmpi::coll::nb
