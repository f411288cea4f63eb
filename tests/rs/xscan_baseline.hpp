// The eager recursive-doubling exclusive scan of operator states: the
// baseline rs::detail::state_xscan is tested against (tests/rs/
// state_exchange_test.cpp, tests/sim/property_test.cpp).  It maintains
// the inclusive window *and* the exclusive prefix at every doubling step,
// paying two combines per step on the critical path; state_xscan defers
// the prefix fold past its last send and must stay bit-identical to this.
#pragma once

#include <utility>

#include "mprt/comm.hpp"
#include "rs/op_concepts.hpp"
#include "rs/state_exchange.hpp"

namespace rsmpi::test {

template <rs::Combinable Op>
void state_xscan_eager(mprt::Comm& comm, Op& op, const Op& prototype) {
  const int p = comm.size();
  const int rank = comm.rank();
  if (p == 1) {
    op = prototype;
    return;
  }
  const int tag = comm.next_collective_tag();

  Op incl = op;          // combination of [max(0, rank-2d+1), rank]
  Op excl = prototype;   // combination of [max(0, rank-2d+1), rank-1]
  for (int d = 1; d < p; d <<= 1) {
    if (rank + d < p) {
      rs::detail::send_state(comm, rank + d, tag, incl);
    }
    if (rank - d >= 0) {
      auto msg = comm.recv_message(rank - d, tag);
      Op received = rs::load_op(prototype, msg.payload());
      comm.recycle_buffer(msg.release_storage());
      auto timer = comm.compute_section();
      Op tmp = received;
      tmp.combine(incl);
      incl = std::move(tmp);
      received.combine(excl);
      excl = std::move(received);
    }
  }
  op = std::move(excl);
}

}  // namespace rsmpi::test
