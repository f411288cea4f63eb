#include "coll/nb/progress.hpp"

#include "util/error.hpp"

namespace rsmpi::coll::nb {

namespace {

/// Repositions a rank clock to an arbitrary virtual time (the clock's own
/// API only moves forward; reset-then-advance lands exactly on `t`).
void set_clock(mprt::VirtualClock& clock, double t) {
  clock.reset();
  clock.advance(t);
}

}  // namespace

Operation::Operation(std::uint64_t id, mprt::Comm comm,
                     std::function<void(mprt::Comm&)> body,
                     std::unique_ptr<mprt::Fiber> spare,
                     std::size_t stack_bytes)
    : id_(id),
      comm_(std::move(comm)),
      body_(std::move(body)),
      vtime_(comm_.clock().now()) {
  auto run = [this] {
    try {
      body_(comm_);
    } catch (...) {
      error_ = std::current_exception();
    }
  };
  if (spare == nullptr) {
    fiber_ = std::make_unique<mprt::Fiber>(stack_bytes, std::move(run));
  } else {
    fiber_ = std::move(spare);
    fiber_->rearm(std::move(run));
  }
}

Operation::~Operation() {
  if (fiber_ != nullptr && !fiber_->finished()) fiber_->unwind();
}

bool Operation::step(mprt::FiberSlot& slot) {
  // Run on the operation's timeline, so arrival-time merges, compute
  // charges and outgoing send stamps land there; the body catches its own
  // exceptions, so the rank clock is always restored.
  mprt::VirtualClock& clock = comm_.clock();
  const double rank_time = clock.now();
  const std::uint64_t traffic =
      comm_.messages_sent() + comm_.messages_received();
  set_clock(clock, vtime_);
  slot.op_fiber = fiber_.get();
  fiber_->resume();
  slot.op_fiber = nullptr;
  vtime_ = clock.now();
  set_clock(clock, rank_time);
  return fiber_->finished() ||
         comm_.messages_sent() + comm_.messages_received() != traffic;
}

ProgressEngine::~ProgressEngine() = default;

ProgressEngine& ProgressEngine::current() {
  // The engine lives in the rank's fiber slot: a worker hosts many ranks,
  // and a fiber may migrate workers between launch and wait.
  mprt::FiberSlot* slot = mprt::current_fiber_slot();
  if (slot == nullptr) {
    throw Error("coll::nb: no rank is active here (nonblocking operations "
                "are only valid inside a run() body)");
  }
  if (!slot->nb_engine) {
    slot->nb_engine = std::make_shared<ProgressEngine>(*slot);
  }
  return *static_cast<ProgressEngine*>(slot->nb_engine.get());
}

Request ProgressEngine::launch(mprt::Comm& comm,
                               std::function<void(mprt::Comm&)> body) {
  const mprt::Comm::TagBlock block = comm.reserve_tag_block(kOperationTags);
  std::unique_ptr<mprt::Fiber> spare;
  if (!spare_.empty()) {
    spare = std::move(spare_.back());
    spare_.pop_back();
  }
  auto op = std::make_unique<Operation>(next_id_++, comm.with_tag_block(block),
                                        std::move(body), std::move(spare),
                                        slot_.stack_bytes);
  // The first sends are posted here.  A lost peer met now is left for the
  // wait or test that observes the operation; any other failure is the
  // caller's at once.
  op->step(slot_);
  if (const std::exception_ptr error = op->error()) {
    try {
      std::rethrow_exception(error);
    } catch (const PeerLostError&) {
    }
  }
  const Request request(this, op->id());
  ops_.push_back(std::move(op));
  // An operation that already completed still waits for the rank to
  // observe it: whether the pass got this far depends on which messages
  // the other ranks had already sent.
  retire_done();
  return request;
}

void ProgressEngine::retire_done() {
  std::erase_if(ops_, [this](std::unique_ptr<Operation>& op) {
    if (!op->done()) return false;
    finished_.push_back({op->id(), op->vtime(), op->error()});
    spare_.push_back(op->release_fiber());
    return true;
  });
}

bool ProgressEngine::poll() {
  if (ops_.empty()) return false;
  slot_.op_deadline = std::chrono::steady_clock::time_point::max();
  bool progressed = false;
  for (auto& op : ops_) {
    if (op->step(slot_)) progressed = true;
  }
  retire_done();
  if (!progressed) slot_.comm->yield_rank();
  return progressed;
}

bool ProgressEngine::is_complete(std::uint64_t id) const {
  for (const auto& op : ops_) {
    if (op->id() == id) return false;
  }
  return true;
}

void ProgressEngine::observe(std::uint64_t id) {
  for (auto it = finished_.begin(); it != finished_.end(); ++it) {
    if (it->id == id) {
      slot_.comm->clock().merge(it->vtime);
      // A failure stays with its request, so every observation rethrows.
      if (it->error) std::rethrow_exception(it->error);
      finished_.erase(it);
      return;
    }
  }
}

void ProgressEngine::wait(std::uint64_t id) {
  while (!is_complete(id)) {
    // A pass with no progress means another rank is still working: park
    // until the mailbox sees a new event, or until the earliest receive
    // deadline an operation waits under, so it sees its slice expire.  The
    // event count is snapshotted *before* the pass so an arrival mid-pass
    // is never slept through.
    const std::uint64_t seen = slot_.comm->mail_events();
    if (!poll()) slot_.comm->idle_wait(seen, slot_.op_deadline);
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
