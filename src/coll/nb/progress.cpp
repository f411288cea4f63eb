#include "coll/nb/progress.hpp"

#include "mprt/scheduler.hpp"
#include "util/error.hpp"

namespace rsmpi::coll::nb {

ProgressEngine& ProgressEngine::current() {
  // The engine lives in the rank's fiber slot: a worker hosts many ranks,
  // and a fiber may migrate workers between launch and wait.
  mprt::FiberSlot* slot = mprt::current_fiber_slot();
  if (slot == nullptr) {
    throw Error("coll::nb: no rank is active here (nonblocking operations "
                "are only valid inside a run() body)");
  }
  if (!slot->nb_engine) {
    slot->nb_engine = std::make_shared<ProgressEngine>();
  }
  return *static_cast<ProgressEngine*>(slot->nb_engine.get());
}

namespace {

/// Repositions a rank clock to an arbitrary virtual time (the clock's own
/// API only moves forward; reset-then-advance lands exactly on `t`).
void set_clock(mprt::VirtualClock& clock, double t) {
  clock.reset();
  clock.advance(t);
}

}  // namespace

bool ProgressEngine::advance(Slot& slot) {
  // Swap the rank clock to the operation's last progress point so
  // arrival-time merges, compute_section charges and outgoing send stamps
  // land on the operation's timeline; swap back even if the step throws.
  struct Swap {
    mprt::VirtualClock& clock;
    double& op_time;
    double rank_time;
    ~Swap() {
      op_time = clock.now();
      set_clock(clock, rank_time);
    }
  } swap{slot.comm->clock(), slot.vtime, slot.comm->clock().now()};
  set_clock(swap.clock, slot.vtime);
  return slot.op->step();
}

Request ProgressEngine::launch(mprt::Comm& comm,
                               std::unique_ptr<Operation> op, int first_tag,
                               int tag_count) {
  Slot slot;
  slot.op = std::move(op);
  slot.comm = &comm;
  slot.vtime = comm.clock().now();
  // Advance greedily: initial sends are posted here.  A lost peer met now
  // is left for the wait or test that observes the operation; the loss
  // stays recorded, so that pass meets it again.
  try {
    while (!slot.op->done() && advance(slot)) {
    }
  } catch (const PeerLostError&) {
  }
  slot.id = next_id_++;
  if (slot.op->done()) {
    // Whether the pass got this far depends on which messages the other
    // ranks had already sent, so even now the finish time waits for the
    // rank to observe the completion; only the table entry is skipped.
    finished_.push_back({slot.id, &comm, slot.vtime});
    return Request(this, slot.id);
  }
  slot.pending_id = comm.register_pending_op(first_tag, tag_count);
  slots_.push_back(std::move(slot));
  return Request(this, slots_.back().id);
}

bool ProgressEngine::poll() {
  bool progressed = false;
  for (auto& slot : slots_) {
    if (!slot.op->done() && advance(slot)) progressed = true;
  }
  std::erase_if(slots_, [this](Slot& slot) {
    if (!slot.op->done()) return false;
    slot.comm->complete_pending_op(slot.pending_id);
    finished_.push_back({slot.id, slot.comm, slot.vtime});
    return true;
  });
  return progressed;
}

bool ProgressEngine::is_complete(std::uint64_t id) const {
  for (const auto& slot : slots_) {
    if (slot.id == id) return false;
  }
  return true;
}

void ProgressEngine::observe(std::uint64_t id) {
  for (auto it = finished_.begin(); it != finished_.end(); ++it) {
    if (it->id == id) {
      it->comm->clock().merge(it->vtime);
      finished_.erase(it);
      return;
    }
  }
}

void ProgressEngine::wait(std::uint64_t id) {
  for (;;) {
    mprt::Comm* comm = nullptr;
    for (auto& slot : slots_) {
      if (slot.id == id) comm = slot.comm;
    }
    if (comm == nullptr) break;
    // A pass with no progress means another rank is still working: park
    // until the mailbox sees a new event.  The event count is snapshotted
    // *before* the pass so an arrival mid-pass is never slept through.
    const std::uint64_t seen = comm->mail_events();
    if (!poll()) comm->idle_wait(seen);
  }
  observe(id);
}

bool Request::done() const {
  return engine_ == nullptr || engine_->is_complete(id_);
}

bool Request::test() {
  if (engine_ == nullptr) return true;
  engine_->poll();  // as in MPI_Test: one progress pass
  if (!engine_->is_complete(id_)) return false;
  engine_->observe(id_);
  return true;
}

void Request::wait() {
  if (engine_ != nullptr) engine_->wait(id_);
}

void wait_all(std::span<Request> requests) {
  for (auto& request : requests) request.wait();
}

int test_any(std::span<Request> requests) {
  for (const auto& request : requests) {
    if (request.valid()) {
      request.engine_->poll();  // one progress pass for the whole batch
      break;
    }
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].done()) {
      requests[i].wait();  // complete: observes it without another pass
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace rsmpi::coll::nb
