// Nonblocking binomial broadcast (MPI_Ibcast).
//
// The blocking bcast (coll/bcast.hpp) lets non-root ranks receive a
// payload of unknown size; a nonblocking broadcast cannot — the caller
// hands over a buffer that must keep living while the operation is in
// flight, so (as in MPI_Ibcast) its extent must match on every rank.
#pragma once

#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "coll/nb/progress.hpp"
#include "mprt/comm.hpp"
#include "mprt/topology.hpp"
#include "util/error.hpp"

namespace rsmpi::coll::nb {

namespace detail {

class IBcastOp final : public Operation {
 public:
  IBcastOp(mprt::Comm& comm, int root, int tag, std::span<std::byte> buffer)
      : comm_(comm), root_(root), tag_(tag), buffer_(buffer) {
    const int p = comm.size();
    const int vrank = (comm.rank() - root + p) % p;
    steps_ = mprt::topology::binomial_bcast_schedule(vrank, p);
  }

  bool step() override {
    bool progressed = false;
    const int p = comm_.size();
    while (next_ < steps_.size()) {
      const auto& s = steps_[next_];
      const int partner = (s.partner + root_) % p;
      if (s.role == mprt::topology::BinomialStep::Role::kRecv) {
        auto msg = comm_.try_recv_message(partner, tag_);
        if (!msg.has_value()) return progressed;
        if (msg->payload_size() != buffer_.size()) {
          throw ProtocolError("ibcast: buffer extent differs across ranks");
        }
        if (!buffer_.empty()) {
          std::memcpy(buffer_.data(), msg->payload().data(),
                      msg->payload_size());
        }
      } else {
        comm_.send_bytes(partner, tag_, buffer_);
      }
      ++next_;
      progressed = true;
    }
    return progressed;
  }

  [[nodiscard]] bool done() const override { return next_ >= steps_.size(); }

 private:
  mprt::Comm& comm_;
  int root_;
  int tag_;
  std::span<std::byte> buffer_;
  std::vector<mprt::topology::BinomialStep> steps_;
  std::size_t next_ = 0;
};

}  // namespace detail

/// Starts a nonblocking broadcast of `buffer` from `root`.  The buffer
/// must have the same extent on every rank and must outlive the request's
/// completion; on completion every rank's buffer holds the root's bytes.
inline Request ibcast_bytes(mprt::Comm& comm, int root,
                            std::span<std::byte> buffer) {
  if (root < 0 || root >= comm.size()) {
    throw ArgumentError("ibcast: root rank out of range");
  }
  const int tag = comm.next_collective_tag();
  return ProgressEngine::current().launch(
      comm, std::make_unique<detail::IBcastOp>(comm, root, tag, buffer), tag,
      1);
}

/// Typed nonblocking broadcast of a buffer of trivially-copyable values.
template <typename T>
  requires std::is_trivially_copyable_v<T>
Request ibcast_span(mprt::Comm& comm, int root, std::span<T> values) {
  return ibcast_bytes(
      comm, root,
      std::span<std::byte>(reinterpret_cast<std::byte*>(values.data()),
                           values.size_bytes()));
}

}  // namespace rsmpi::coll::nb
