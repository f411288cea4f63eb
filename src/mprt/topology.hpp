// Rank-topology arithmetic shared by the collective algorithms.
//
// The collectives in src/coll are expressed over three virtual topologies:
// binomial trees (reduce, bcast), hypercube/recursive-doubling pairings
// (allreduce, scan), and dissemination rings (barrier).  The functions here
// keep that index arithmetic in one tested place, together with the rank
// maps the state schedules run over and their chunk boundaries.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rsmpi::mprt::topology {

/// Smallest power of two >= n (n >= 1).  std::bit_ceil instead of a shift
/// loop: for n above 2^30 the doubling `p <<= 1` would overflow int before
/// the comparison terminates (UB), and virtualized runs push p into ranges
/// where that ceiling is in sight.
[[nodiscard]] constexpr int ceil_pow2(int n) {
  return static_cast<int>(std::bit_ceil(static_cast<unsigned>(n < 1 ? 1 : n)));
}

/// floor(log2(n)) for n >= 1.
[[nodiscard]] constexpr int floor_log2(int n) {
  return std::bit_width(static_cast<unsigned>(n)) - 1;
}

/// Number of rounds of a dissemination/recursive-doubling schedule over n
/// ranks: ceil(log2(n)), and 0 for a single rank.  The stride is 64-bit so
/// the final doubling cannot overflow for any int n.
[[nodiscard]] constexpr int num_rounds(int n) {
  int rounds = 0;
  for (std::int64_t d = 1; d < n; d <<= 1) ++rounds;
  return rounds;
}

/// Binomial reduce tree rooted at rank 0, preserving rank order: in round
/// k (k = 0, 1, ...), every rank with bit k set sends its partial result to
/// `rank - 2^k` and leaves; a rank with bit k clear receives from
/// `rank + 2^k` if that rank exists and still holds data.
///
/// The key property for non-commutative operators: the partial result held
/// by rank r always covers the *contiguous* rank interval [r, r + extent),
/// and a receive appends the partner's interval on the right, so combines
/// can always be evaluated as (left block) op (right block).
struct BinomialStep {
  enum class Role { kSend, kRecv };
  Role role;
  int partner;
};

/// The schedule of rounds executed by `rank` in a p-rank binomial reduce to
/// rank 0.  A rank's schedule ends with at most one kSend step.
[[nodiscard]] inline std::vector<BinomialStep> binomial_reduce_schedule(
    int rank, int p) {
  std::vector<BinomialStep> steps;
  for (int d = 1; d < p; d <<= 1) {
    if ((rank & d) != 0) {
      steps.push_back({BinomialStep::Role::kSend, rank - d});
      break;
    }
    if (rank + d < p) {
      steps.push_back({BinomialStep::Role::kRecv, rank + d});
    }
  }
  return steps;
}

/// Contiguous rank→node map for two-level (cluster-of-SMPs) schedules
/// (ISSUE 10): node i holds ranks [i·rpn, min((i+1)·rpn, p)), its lowest
/// rank acting as leader.  Contiguity is what keeps hierarchical reduction
/// legal for noncommutative operators — each node's partial covers a
/// contiguous rank interval, so the leader tier combines whole intervals
/// in rank order, exactly like the binomial tree above.
struct NodeMap {
  int p = 1;    ///< total ranks
  int rpn = 1;  ///< ranks per node (last node may be ragged)

  constexpr NodeMap(int num_ranks, int ranks_per_node)
      : p(num_ranks < 1 ? 1 : num_ranks),
        rpn(ranks_per_node < 1 ? 1 : ranks_per_node) {}

  [[nodiscard]] constexpr int num_nodes() const { return (p + rpn - 1) / rpn; }
  [[nodiscard]] constexpr int node_of(int rank) const { return rank / rpn; }
  [[nodiscard]] constexpr int leader_of(int node) const { return node * rpn; }
  [[nodiscard]] constexpr bool is_leader(int rank) const {
    return rank % rpn == 0;
  }
  /// Ranks on `node` (the last node may hold fewer than rpn).
  [[nodiscard]] constexpr int node_size(int node) const {
    const int lo = leader_of(node);
    const int hi = lo + rpn;
    return (hi < p ? hi : p) - lo;
  }
  /// Rank's index within its node, in [0, node_size).
  [[nodiscard]] constexpr int local_rank(int rank) const { return rank % rpn; }
};

/// The ranks one run of a schedule spans: schedule position i in
/// [0, size) is communicator rank (base + i·stride) mod p.  Each state
/// schedule is written once over a map and runs over four of them: the
/// whole communicator, the communicator rotated to a root (the local
/// view's rooted trees), one node of a NodeMap (the hierarchical
/// schedule's intra-node phases) and the node leaders (its inter-node
/// phase).  A map only renames ranks, so it costs no messages, unlike a
/// split into a subcommunicator.
struct RankMap {
  int size = 1;    ///< positions in the schedule
  int pos = 0;     ///< this rank's position
  int p = 1;       ///< communicator size
  int base = 0;    ///< rank at position 0
  int stride = 1;  ///< rank distance between adjacent positions

  /// Communicator rank at schedule position `i`.
  [[nodiscard]] constexpr int rank(int i) const {
    return static_cast<int>((base + static_cast<std::int64_t>(i) * stride) %
                            p);
  }

  /// Every rank, position = rank.
  [[nodiscard]] static constexpr RankMap whole(int p, int rank) {
    return {p, rank, p};
  }
  /// Every rank, rotated so `root` sits at position 0.
  [[nodiscard]] static constexpr RankMap rotated(int p, int rank, int root) {
    return {p, (rank - root + p) % p, p, root};
  }
  /// The ranks of `rank`'s node, its leader at position 0.
  [[nodiscard]] static constexpr RankMap node(const NodeMap& nodes,
                                              int rank) {
    const int node = nodes.node_of(rank);
    return {nodes.node_size(node), nodes.local_rank(rank), nodes.p,
            nodes.leader_of(node)};
  }
  /// The node leaders in node order; `rank` must be a leader.
  [[nodiscard]] static constexpr RankMap leaders(const NodeMap& nodes,
                                                 int rank) {
    return {nodes.num_nodes(), nodes.node_of(rank), nodes.p, 0, nodes.rpn};
  }
};

/// Element index where chunk `c` of `chunks` begins in a range of n
/// elements (monotone, exactly covering [0, n)): the segment boundaries of
/// the ring, Rabenseifner and pipelined schedules.  The product n * c can
/// exceed 64 bits for large element counts, so it is computed in 128-bit
/// arithmetic.
[[nodiscard]] inline std::size_t chunk_start(std::size_t n, int chunks,
                                             int c) {
  return static_cast<std::size_t>(static_cast<unsigned __int128>(n) *
                                  static_cast<unsigned>(c) /
                                  static_cast<unsigned>(chunks));
}

/// The mirror schedule for a binomial broadcast from rank 0: the reduce
/// schedule reversed with roles flipped.
[[nodiscard]] inline std::vector<BinomialStep> binomial_bcast_schedule(
    int rank, int p) {
  std::vector<BinomialStep> steps = binomial_reduce_schedule(rank, p);
  std::vector<BinomialStep> out(steps.rbegin(), steps.rend());
  for (auto& s : out) {
    s.role = (s.role == BinomialStep::Role::kSend) ? BinomialStep::Role::kRecv
                                                   : BinomialStep::Role::kSend;
  }
  return out;
}

}  // namespace rsmpi::mprt::topology
