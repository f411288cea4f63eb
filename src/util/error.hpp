// Error types shared across the rsmpi library.
#pragma once

#include <stdexcept>
#include <string>

namespace rsmpi {

/// Base class for all errors raised by the rsmpi library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Raised on a rank when the parallel region is being torn down because
/// another rank threw.  Blocking receives unblock by throwing this, so a
/// single failing rank cannot deadlock the whole virtual machine.
class AbortError : public Error {
 public:
  explicit AbortError(const std::string& what) : Error(what) {}
};

/// Raised for malformed arguments (bad rank, negative count, ...).
class ArgumentError : public Error {
 public:
  explicit ArgumentError(const std::string& what) : Error(what) {}
};

/// Raised when deserialization runs past the end of a message payload or a
/// payload has an unexpected size.  Indicates a protocol bug or a corrupted
/// user-provided save/load pair.
class ProtocolError : public Error {
 public:
  explicit ProtocolError(const std::string& what) : Error(what) {}
};

/// Raised by a blocking receive whose RecvDeadline expired before a
/// matching message arrived (e.g. because a fault plan dropped it).  The
/// receive has consumed nothing; the caller may retry or give up.
class TimeoutError : public Error {
 public:
  explicit TimeoutError(const std::string& what) : Error(what) {}
};

/// Raised by a receive path when a rank of the machine has exited (killed
/// by a fault plan, or crashed) while this rank would otherwise block
/// forever waiting for it.  Surfaced through the C API as
/// RSMPI_ERR_PEER_LOST rather than a hang.
class PeerLostError : public Error {
 public:
  explicit PeerLostError(const std::string& what) : Error(what) {}
};

/// Thrown inside a rank body when the fault plan kills that rank
/// mid-collective.  The runtime converts it into PeerLostError on every
/// sibling rank and rethrows it to run()'s caller as the root cause.
class RankKilledError : public Error {
 public:
  explicit RankKilledError(const std::string& what) : Error(what) {}
};

/// Raised when the fiber scheduler (mprt/scheduler.hpp) proves that every
/// live rank is parked with no deliverable message anywhere — a global
/// deadlock.  Only ranks can enqueue messages, so the condition is stable
/// once observed; surfacing it as a typed error is what turns "no silent
/// hang" from a wall-clock timeout into a structural check, including
/// under the model-checking tier (mprt/sim.hpp ScheduleOracle).
class DeadlockError : public Error {
 public:
  explicit DeadlockError(const std::string& what) : Error(what) {}
};

}  // namespace rsmpi
