// Nonblocking reduce / allreduce over local-view buffer operators
// (MPI_Ireduce / MPI_Iallreduce): the blocking local_reduce,
// local_allreduce and local_allreduce_rabenseifner, each run on an
// operation coroutine of the rank's ProgressEngine.  User buffers must
// outlive completion.
#pragma once

#include <span>

#include "coll/local_reduce.hpp"
#include "coll/nb/progress.hpp"
#include "mprt/comm.hpp"

namespace rsmpi::coll::nb {

/// Schedule selection for iallreduce.
enum class IAllreduceAlgo {
  kBinomial,      ///< reduce-to-zero + bcast; any associative operator
  kRabenseifner,  ///< reduce-scatter + allgather; commutative element-wise
                  ///< operators only
};

/// Starts a nonblocking in-place allreduce of `values`; on completion every
/// rank's buffer holds the combined result.  The buffer must have the same
/// extent on every rank and outlive the request.
template <typename T, LocalViewOp<T> Op>
Request iallreduce(mprt::Comm& comm, std::span<T> values, const Op& op,
                   IAllreduceAlgo algo = IAllreduceAlgo::kBinomial) {
  if (comm.size() == 1) return Request{};
  if (algo == IAllreduceAlgo::kRabenseifner) {
    return ProgressEngine::current().launch(comm, [values, op](mprt::Comm& c) {
      local_allreduce_rabenseifner(c, values, op);
    });
  }
  return ProgressEngine::current().launch(comm, [values, op](mprt::Comm& c) {
    local_allreduce(c, values, op, ReduceAlgo::kBinomial);
  });
}

/// Starts a nonblocking in-place reduce of `values` to `root`.  On
/// completion the result is valid on `root` only; other ranks' buffers are
/// clobbered with partial results (as in the blocking local_reduce, which
/// also rejects a root out of range).
template <typename T, LocalViewOp<T> Op>
Request ireduce(mprt::Comm& comm, int root, std::span<T> values,
                const Op& op) {
  return ProgressEngine::current().launch(
      comm, [root, values, op](mprt::Comm& c) {
        local_reduce(c, root, values, op, ReduceAlgo::kBinomial);
      });
}

}  // namespace rsmpi::coll::nb
