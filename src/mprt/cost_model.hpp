// LogGP-style communication cost model and per-rank virtual clock.
//
// The paper's figures plot efficiency against processor count on a 92-node
// IBM P655 cluster.  This repository runs every rank as a fiber on a few
// worker threads of one process on a (possibly single-core) laptop, so
// wall-clock speedup across ranks is meaningless.  Instead each rank
// carries a *virtual clock*:
//
//   * local computation advances the clock by the measured CPU time of the
//     worker thread running it (immune to timesharing, because a thread is
//     only charged while it is actually running, and a compute section
//     never spans a switch to another rank), and
//   * every message carries its sender's virtual send-completion time; the
//     receiver's clock becomes max(own, sender + L + bytes*G) + o_r.
//
// The maximum clock over all ranks at the end of a phase is the modelled
// critical-path execution time — the quantity the paper's figures plot.
// Defaults approximate an early-2000s cluster interconnect (10 us latency,
// ~1 GB/s bandwidth), but every experiment can supply its own model.
#pragma once

#include <chrono>
#include <cstddef>
#include <ctime>

#include "mprt/topology.hpp"

namespace rsmpi::mprt {

/// LogGP-flavoured communication parameters, all in seconds.
struct CostModel {
  /// CPU overhead charged on the sender per message (o_s).
  double send_overhead_s = 1.0e-6;
  /// CPU overhead charged on the receiver per message (o_r).
  double recv_overhead_s = 1.0e-6;
  /// Wire latency per message (L).
  double latency_s = 10.0e-6;
  /// Transfer time per payload byte (G); default 1 ns/byte = 1 GB/s.
  double per_byte_s = 1.0e-9;
  /// CPU time charged per byte for a sender-side payload copy (the legacy
  /// span-based send path; the move-based path never pays it).  Default 0
  /// keeps the modelled timeline of existing experiments unchanged —
  /// copies are still *counted* via Comm's stats either way.
  double copy_per_byte_s = 0.0;
  /// Scale factor applied to measured local compute time.  1.0 charges the
  /// host's real per-thread CPU time; values != 1 let experiments model a
  /// faster or slower processor than the host.
  double compute_scale = 1.0;
  /// Cores the *model* grants each rank for parallel local sections (the
  /// work-stealing accumulate in src/par/).  A section's summed worker
  /// CPU is divided by min(cores_per_rank, pool width) before being
  /// charged — the host may timeshare the workers on fewer physical
  /// cores, but the modelled timeline reflects the configured machine,
  /// exactly as ranks already timeshare one host core yet model a
  /// cluster node each.  Default 1 keeps every pre-existing experiment's
  /// timeline unchanged even with RSMPI_LOCAL_THREADS set.
  int cores_per_rank = 1;

  /// Modelled duration of a parallel local section that consumed
  /// `total_cpu_s` of summed per-thread CPU across a pool of `workers`.
  [[nodiscard]] double parallel_section_seconds(double total_cpu_s,
                                                unsigned workers) const {
    double effective = static_cast<double>(cores_per_rank < 1 ? 1
                                                              : cores_per_rank);
    if (workers >= 1 && static_cast<double>(workers) < effective) {
      effective = static_cast<double>(workers);
    }
    return compute_scale * total_cpu_s / effective;
  }

  /// Time from send initiation to availability at the receiver.
  [[nodiscard]] double wire_time(std::size_t payload_bytes) const {
    return latency_s + static_cast<double>(payload_bytes) * per_byte_s;
  }

  // -- Two-level topology (ISSUE 10) ----------------------------------------
  // Real clusters are nodes-of-cores: ranks sharing a node talk over shared
  // memory, ranks on different nodes over the fabric.  Setting
  // ranks_per_node > 1 maps rank r onto node r / ranks_per_node
  // (contiguous blocks) and charges the intra_* parameters for same-node
  // traffic; the flat parameters above become the *inter-node* tier.  The
  // default of 1 keeps every existing experiment's timeline bit-identical.

  /// Ranks per modelled node; <= 1 means a flat (single-tier) machine.
  int ranks_per_node = 1;
  /// Same-node (shared-memory class) parameters, used only when
  /// ranks_per_node > 1.
  double intra_send_overhead_s = 0.2e-6;
  double intra_recv_overhead_s = 0.2e-6;
  double intra_latency_s = 0.5e-6;
  double intra_per_byte_s = 0.1e-9;
  /// Per-message injection gap at a node's fabric port (LogGP g).  A node
  /// has one port: when k ranks of the same node send inter-node in the
  /// same schedule round, the port serializes them — each message pays the
  /// shared wire k times over plus (k−1) gaps.  This is why leader-based
  /// hierarchical schedules win at scale even though a contiguous rank map
  /// makes the early rounds of flat power-of-two schedules intra-node.
  /// Only the closed-form ScheduleCost predictions charge it (the per-rank
  /// simulator clocks cannot observe sibling ranks' concurrent sends);
  /// 0 disables the effect.
  double inter_gap_s = 0.0;

  [[nodiscard]] bool two_tier() const { return ranks_per_node > 1; }

  /// The fabric between nodes as a flat machine, every rank its own node:
  /// the model a schedule among one rank per node (the hierarchical
  /// schedule's leaders) runs on.
  [[nodiscard]] CostModel inter_tier() const {
    CostModel m = *this;
    m.ranks_per_node = 1;
    return m;
  }

  /// Node housing global rank `rank` (identity when flat).
  [[nodiscard]] int node_of(int rank) const {
    return two_tier() ? rank / ranks_per_node : rank;
  }

  [[nodiscard]] bool same_node(int a, int b) const {
    return two_tier() && node_of(a) == node_of(b);
  }

  /// Tier-resolved parameters for a message between two *global* ranks.
  /// Bit-identical to the flat accessors when the model is single-tier.
  [[nodiscard]] double wire_time_between(int a, int b,
                                         std::size_t payload_bytes) const {
    if (same_node(a, b)) {
      return intra_latency_s +
             static_cast<double>(payload_bytes) * intra_per_byte_s;
    }
    return wire_time(payload_bytes);
  }
  [[nodiscard]] double send_overhead_between(int a, int b) const {
    return same_node(a, b) ? intra_send_overhead_s : send_overhead_s;
  }
  [[nodiscard]] double recv_overhead_between(int a, int b) const {
    return same_node(a, b) ? intra_recv_overhead_s : recv_overhead_s;
  }

  /// A model in which communication is free; virtual time then measures
  /// pure computation.  Used by unit tests that check clock plumbing.
  static CostModel free() {
    CostModel m;
    m.send_overhead_s = m.recv_overhead_s = m.latency_s = m.per_byte_s = 0.0;
    return m;
  }

  // -- Interconnect presets (rough early/mid-2000s cluster fabrics) ---------
  // Used by the sensitivity benchmarks to show which reproduced results
  // depend on the interconnect and which are structural.

  /// Commodity gigabit ethernet: high latency, ~100 MB/s.
  static CostModel gigabit_ethernet() {
    CostModel m;
    m.send_overhead_s = m.recv_overhead_s = 5.0e-6;
    m.latency_s = 50.0e-6;
    m.per_byte_s = 10.0e-9;
    return m;
  }

  /// Myrinet-class fabric: ~7 us latency, ~250 MB/s.
  static CostModel myrinet() {
    CostModel m;
    m.send_overhead_s = m.recv_overhead_s = 1.0e-6;
    m.latency_s = 7.0e-6;
    m.per_byte_s = 4.0e-9;
    return m;
  }

  /// Infiniband-class fabric: ~2 us latency, ~1 GB/s.
  static CostModel infiniband() {
    CostModel m;
    m.send_overhead_s = m.recv_overhead_s = 0.5e-6;
    m.latency_s = 2.0e-6;
    m.per_byte_s = 1.0e-9;
    return m;
  }

  /// Shared-memory transport: sub-microsecond latency, ~10 GB/s.
  static CostModel shared_memory() {
    CostModel m;
    m.send_overhead_s = m.recv_overhead_s = 0.2e-6;
    m.latency_s = 0.5e-6;
    m.per_byte_s = 0.1e-9;
    return m;
  }

  /// Cluster of SMP nodes: infiniband-class fabric between nodes,
  /// shared-memory transport inside each `rpn`-rank node.  The asymmetry
  /// (4x latency, 10x bandwidth between tiers) is what makes hierarchical
  /// schedules win at scale.
  static CostModel cluster_of_smp(int rpn) {
    CostModel m = infiniband();
    m.ranks_per_node = rpn < 1 ? 1 : rpn;
    m.intra_send_overhead_s = m.intra_recv_overhead_s = 0.2e-6;
    m.intra_latency_s = 0.5e-6;
    m.intra_per_byte_s = 0.1e-9;
    m.inter_gap_s = 0.3e-6;
    return m;
  }
};

/// Closed-form critical-path predictions for the state-allreduce schedules
/// (ISSUE 5).  Each formula counts the modelled hops on the longest
/// dependency chain of the schedule, with hop(b) = o_s + L + b·G + o_r —
/// exactly what a rank's virtual clock accrues for one send/recv pair when
/// compute is free.  The schedule autotuner in rs/state_exchange.hpp picks
/// the argmin of these over (p, state bytes, partitionability); the
/// decision-table tests and the large-message benchmark's `--check` mode
/// hold the implementations to them.
///
/// The formulas deliberately ignore measured compute (combine cost is
/// schedule-independent to first order) and model only the p > 1 case —
/// callers short-circuit p == 1 before dispatching.
struct ScheduleCost {
  /// One message hop of b payload bytes under `m`'s flat (inter-node)
  /// parameters.
  [[nodiscard]] static double hop(const CostModel& m, std::size_t b) {
    return m.send_overhead_s + m.latency_s +
           static_cast<double>(b) * m.per_byte_s + m.recv_overhead_s;
  }

  /// One same-node hop under a two-tier model.
  [[nodiscard]] static double hop_intra(const CostModel& m, std::size_t b) {
    return m.intra_send_overhead_s + m.intra_latency_s +
           static_cast<double>(b) * m.intra_per_byte_s +
           m.intra_recv_overhead_s;
  }

  /// One inter-node hop whose node port is shared by `senders` concurrent
  /// same-node senders this round: the port serializes their wire time and
  /// charges a LogGP gap between injections.  senders == 1 is exactly
  /// hop().
  [[nodiscard]] static double hop_inter_shared(const CostModel& m,
                                               std::size_t b, int senders) {
    const double k = senders < 1 ? 1.0 : static_cast<double>(senders);
    return m.send_overhead_s + m.latency_s +
           k * static_cast<double>(b) * m.per_byte_s +
           (k - 1.0) * m.inter_gap_s + m.recv_overhead_s;
  }

  /// One hop between ranks `distance` apart in the contiguous node map:
  /// intra-node when the exchange distance fits inside a node (exact for
  /// power-of-two ranks_per_node, the case the presets use), inter-node
  /// otherwise.  `senders` is how many ranks per node inject inter-node in
  /// the same round (port contention; 1 = contention-free).  Collapses to
  /// hop() on a flat model, keeping every single-tier prediction
  /// bit-identical to the pre-tier formulas.
  [[nodiscard]] static double hop_at(const CostModel& m, int distance,
                                     std::size_t b, int senders = 1) {
    if (m.two_tier() && distance < m.ranks_per_node) return hop_intra(m, b);
    return hop_inter_shared(m, b, senders);
  }

  /// Reduce-to-zero + broadcast, whole state on every tree edge: one hop
  /// per tree level each way, the level-k edges spanning distance 2^k.
  /// Contention-free: by the time a binomial level spans nodes, at most
  /// one rank per node is still live (power-of-two ranks_per_node).
  [[nodiscard]] static double two_message(const CostModel& m, int p,
                                          std::size_t bytes) {
    if (!m.two_tier()) return 2.0 * topology::num_rounds(p) * hop(m, bytes);
    double t = 0.0;
    for (int k = 0; k < topology::num_rounds(p); ++k) {
      t += 2.0 * hop_at(m, 1 << k, bytes);
    }
    return t;
  }

  /// Recursive-doubling butterfly: log2(p2) full-state exchange rounds at
  /// distances 1, 2, ..., p2/2, plus a fold-in and a fold-out full-state
  /// hop to an adjacent rank when p is not a power of two (p2 = largest
  /// power of two <= p).
  [[nodiscard]] static double butterfly(const CostModel& m, int p,
                                        std::size_t bytes) {
    const int p2 = 1 << topology::floor_log2(p);
    if (!m.two_tier()) {
      double t = topology::floor_log2(p2) * hop(m, bytes);
      if (p != p2) t += 2.0 * hop(m, bytes);
      return t;
    }
    // Every rank is active in every butterfly round, so the inter-node
    // rounds drive all ranks_per_node ranks through each node's one port.
    double t = 0.0;
    for (int d = 1; d < p2; d *= 2) {
      t += hop_at(m, d, bytes, m.ranks_per_node);
    }
    if (p != p2) t += 2.0 * hop_at(m, 1, bytes);
    return t;
  }

  /// Chunked Rabenseifner (recursive halving + recursive doubling): each
  /// of the log2(p2) levels moves half, quarter, ... of the state twice
  /// (once per phase), plus two whole-state hops to fold non-power-of-two
  /// remainders in and out.  The (distance, bytes) pairing mirrors the
  /// implementation's reduce-scatter loop: the first exchange pairs the
  /// widest distance p2/2 with half the state, halving both each level.
  [[nodiscard]] static double rabenseifner(const CostModel& m, int p,
                                           std::size_t bytes) {
    const int p2 = 1 << topology::floor_log2(p);
    double t = 0.0;
    std::size_t b = bytes;
    // Like the butterfly, every rank exchanges in every round, so the
    // inter-node levels contend for each node's port.
    for (int d = p2 / 2; d >= 1; d /= 2) {
      b /= 2;
      t += 2.0 * hop_at(m, d, b, m.ranks_per_node);
    }
    if (p != p2) t += 2.0 * hop_at(m, 1, bytes);
    return t;
  }

  /// Ring reduce-scatter + allgather: 2·(p−1) hops of one chunk (~n/p
  /// bytes) each — bandwidth-optimal volume, latency-heavy at large p.
  /// Under a two-tier model the chain of neighbour hops crosses a node
  /// boundary only where the contiguous blocks meet: at most
  /// min(#nodes, p−1) of each phase's p−1 hops are inter-node.
  [[nodiscard]] static double ring(const CostModel& m, int p,
                                   std::size_t bytes) {
    const std::size_t chunk =
        (bytes + static_cast<std::size_t>(p) - 1) / static_cast<std::size_t>(p);
    if (!m.two_tier()) return 2.0 * (p - 1) * hop(m, chunk);
    const int rpn = m.ranks_per_node;
    const int nnodes = (p + rpn - 1) / rpn;
    const int inter = nnodes < p - 1 ? nnodes : p - 1;
    const int intra = (p - 1) - inter;
    return 2.0 * (intra * hop_intra(m, chunk) + inter * hop(m, chunk));
  }

  /// The allreduce the hierarchical schedule runs among the node leaders.
  enum class LeaderTier { kTwoMessage, kRing, kRabenseifner };
  struct LeaderPick {
    LeaderTier tier;
    double seconds;
  };

  /// The leader tier of the two-level allreduce, shared by its closed form
  /// and its implementation (coll/hierarchical.hpp), so the two never
  /// disagree: the cheapest of the flat two-message, ring and Rabenseifner
  /// schedules on the inter-tier model at `nnodes` ranks.  `seg_ok` gates
  /// ring and Rabenseifner — they partition the state and fold chunks out
  /// of rank order, so only partitionable commutative operators may take
  /// them.  Ties go to Rabenseifner, then the ring.
  [[nodiscard]] static LeaderPick hierarchical_leader(const CostModel& m,
                                                      int nnodes,
                                                      std::size_t bytes,
                                                      bool seg_ok = true) {
    const CostModel inter = m.inter_tier();
    const LeaderPick ordered{LeaderTier::kTwoMessage,
                             two_message(inter, nnodes, bytes)};
    if (!seg_ok) return ordered;
    const double ring_t = ring(inter, nnodes, bytes);
    const double rab_t = rabenseifner(inter, nnodes, bytes);
    if (rab_t < ordered.seconds && rab_t <= ring_t) {
      return {LeaderTier::kRabenseifner, rab_t};
    }
    if (ring_t < ordered.seconds) return {LeaderTier::kRing, ring_t};
    return ordered;
  }

  /// Two-level allreduce: binomial reduce to the node leader (intra),
  /// allreduce among leaders (hierarchical_leader), binomial broadcast
  /// back (intra).
  [[nodiscard]] static double hierarchical(const CostModel& m, int p,
                                           std::size_t bytes,
                                           bool seg_ok = true) {
    const int rpn = m.two_tier() ? m.ranks_per_node : 1;
    const int s = rpn < p ? rpn : p;
    return 2.0 * topology::num_rounds(s) * hop_intra(m, bytes) +
           hierarchical_leader(m, (p + rpn - 1) / rpn, bytes, seg_ok).seconds;
  }

  /// Pipelined binomial reduce to rank 0, fill + drain.  Wire time (L +
  /// b·G) is charged to the receiver's arrival stamp and does not occupy
  /// the sender, so segments in flight on different tree levels overlap:
  /// the first segment pays the full ceil(log2 p)-level climb, after which
  /// the pipeline drains at the root's service rate of ceil(log2 p)
  /// receives (one per level) per segment.
  [[nodiscard]] static double pipelined_tree_reduce(const CostModel& m, int p,
                                                    std::size_t bytes,
                                                    std::size_t segment_bytes) {
    const std::size_t nseg = segment_count(bytes, segment_bytes);
    const std::size_t seg = (bytes + nseg - 1) / nseg;
    const double levels = topology::num_rounds(p);
    const double per_segment =
        levels * (m.send_overhead_s > m.recv_overhead_s ? m.send_overhead_s
                                                        : m.recv_overhead_s);
    return levels * hop(m, seg) +
           (static_cast<double>(nseg) - 1.0) * per_segment;
  }

  /// Pipelined reduce followed by pipelined broadcast.
  [[nodiscard]] static double pipelined_tree_allreduce(
      const CostModel& m, int p, std::size_t bytes,
      std::size_t segment_bytes) {
    return 2.0 * pipelined_tree_reduce(m, p, bytes, segment_bytes);
  }

  /// Whole-state binomial reduce to rank 0 (the legacy reduce path).
  [[nodiscard]] static double tree_reduce(const CostModel& m, int p,
                                          std::size_t bytes) {
    return topology::num_rounds(p) * hop(m, bytes);
  }

 private:
  [[nodiscard]] static constexpr std::size_t segment_count(
      std::size_t bytes, std::size_t segment_bytes) {
    if (segment_bytes == 0 || bytes <= segment_bytes) return 1;
    return (bytes + segment_bytes - 1) / segment_bytes;
  }
};

/// Monotone virtual clock owned by one rank.  Not thread-safe; each rank
/// touches only its own clock, and message timestamps transfer time between
/// ranks without shared mutable state.
class VirtualClock {
 public:
  [[nodiscard]] double now() const { return now_s_; }

  /// Advances by a modelled duration (never negative).
  void advance(double seconds) {
    if (seconds > 0.0) now_s_ += seconds;
  }

  /// Joins a causal dependency: the clock may only move forward.
  void merge(double other_time_s) {
    if (other_time_s > now_s_) now_s_ = other_time_s;
  }

  void reset() { now_s_ = 0.0; }

 private:
  double now_s_ = 0.0;
};

/// Reads the calling thread's CPU time.  Thread CPU time (as opposed to
/// wall time) makes measured compute segments independent of how many
/// sibling ranks are timesharing the host's cores.
inline double thread_cpu_seconds() {
  ::timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1.0e-9;
}

namespace detail {
/// Compute sections open on the calling thread that read its CPU clock.
/// The fiber scheduler refuses to park or yield a rank while its worker
/// has one open; a fiber cannot migrate without doing one of the two, so a
/// per-thread count is a per-rank count.
inline thread_local int open_compute_sections = 0;
}  // namespace detail

/// RAII guard that measures a local compute section with the per-thread CPU
/// clock and charges it (scaled by CostModel::compute_scale) to a rank's
/// virtual clock.  At compute_scale == 0 the section is free and no clock
/// is read: the per-thread CPU clock is a syscall, not a vDSO read.
///
///   {
///     ComputeTimer t(comm.clock(), comm.cost_model());
///     ... pure local work, no messaging ...
///   }  // clock advanced here
///
/// A section must not span a blocking receive or a poll: the rank's
/// worker thread would run other ranks meanwhile, and their CPU time would
/// land on this rank's clock.  The scheduler throws instead.
class ComputeTimer {
 public:
  ComputeTimer(VirtualClock& clock, const CostModel& model)
      : clock_(clock), scale_(model.compute_scale),
        start_(scale_ == 0.0 ? 0.0 : thread_cpu_seconds()),
        stopped_(scale_ == 0.0) {
    if (!stopped_) ++detail::open_compute_sections;
  }

  ComputeTimer(const ComputeTimer&) = delete;
  ComputeTimer& operator=(const ComputeTimer&) = delete;

  ~ComputeTimer() { stop(); }

  /// Stops early; subsequent destruction is a no-op.
  void stop() {
    if (!stopped_) {
      stopped_ = true;
      --detail::open_compute_sections;
      clock_.advance((thread_cpu_seconds() - start_) * scale_);
    }
  }

 private:
  VirtualClock& clock_;
  double scale_;
  double start_;
  bool stopped_;
};

}  // namespace rsmpi::mprt
