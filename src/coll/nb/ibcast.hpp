// Nonblocking binomial broadcast (MPI_Ibcast): the blocking bcast_span of
// coll/bcast.hpp on an operation coroutine.
//
// The blocking bcast_bytes lets non-root ranks receive a payload of
// unknown size; a nonblocking broadcast cannot — the caller hands over a
// buffer that must keep living while the operation is in flight, so (as in
// MPI_Ibcast) its extent must match on every rank.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "coll/bcast.hpp"
#include "coll/nb/progress.hpp"
#include "mprt/comm.hpp"

namespace rsmpi::coll::nb {

/// Starts a nonblocking broadcast of `buffer` from `root` (a root out of
/// range throws ArgumentError).  The buffer must have the same extent on
/// every rank and must outlive the request's completion; on completion
/// every rank's buffer holds the root's bytes.
inline Request ibcast_bytes(mprt::Comm& comm, int root,
                            std::span<std::byte> buffer) {
  return ProgressEngine::current().launch(
      comm, [root, buffer](mprt::Comm& c) { bcast_span(c, root, buffer); });
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
