// Nonblocking dissemination barrier (MPI_Ibarrier): the blocking barrier
// of coll/barrier.cpp on an operation coroutine, so a rank can keep
// computing while the barrier's wavefront works its way around the ring.
#pragma once

#include "coll/barrier.hpp"
#include "coll/nb/progress.hpp"
#include "mprt/comm.hpp"

namespace rsmpi::coll::nb {

/// Starts a nonblocking barrier on `comm`.  The barrier is complete (its
/// request done) once every rank has entered it.
inline Request ibarrier(mprt::Comm& comm) {
  return ProgressEngine::current().launch(
      comm, [](mprt::Comm& c) { barrier(c); });
}

}  // namespace rsmpi::coll::nb
