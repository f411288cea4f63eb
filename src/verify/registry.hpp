// The shared operator registry for the verification tiers (ISSUE 9,
// satellite 6).  Every operator the checkers stress lives here exactly
// once — the exhaustive model checker (tests/verify), the seeded property
// suite (tests/sim), and the parallel determinism suite (tests/par) all
// enumerate this list, so an operator added to the zoo cannot silently
// miss a tier: each suite carries a coverage test that walks
// for_each_zoo_op and fails on any name it does not handle.
//
// This header is deliberately light (operators + serial oracles only, no
// explorer or runtime machinery) so test suites outside tests/verify can
// include it without dragging the model checker in.
//
// Two kinds of oracle ride here:
//
//   * exact operators (integer state, or bitwise-associative combine):
//     the serial left fold over all ranks' inputs is the expected result
//     under *every* schedule;
//   * TSQR (floating-point, bit-level nonassociative): every ordered path
//     in the runtime — blocking reduce+bcast, the pipelined binomial
//     tree, either of them run by reduce_async on the progress engine,
//     the persistent-plan replay — folds states along mprt::topology's
//     binomial reduce schedule, so binomial_reduce_oracle replicates that
//     bracketing locally and is the bit-exact expectation for all of them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <type_traits>
#include <vector>

#include "rs/op_concepts.hpp"
#include "rs/ops/counts.hpp"
#include "rs/ops/tsqr.hpp"

namespace rsmpi::verify {

// -- Stress operators --------------------------------------------------------

/// Noncommutative ordered concatenation of rank-tagged tokens.  Any
/// schedule that folds ranks out of order scrambles the word, so the
/// explorer flags a commutative-only schedule being selected for it the
/// moment it happens.
class OrderedWord {
 public:
  static constexpr bool commutative = false;

  void accum(const int& token) {
    word_ += "<" + std::to_string(token) + ">";
  }
  void combine(const OrderedWord& other) { word_ += other.word_; }
  [[nodiscard]] std::string gen() const { return word_; }

  void save(bytes::Writer& w) const { w.put_string(word_); }
  void load(bytes::Reader& r) { word_ = r.get_string(); }

 private:
  std::string word_;
};

/// Set union with insertion-ordered state bytes and sorted output.
/// Commutative by the operator trait (absent => true), but its serialized
/// state depends on fold order — the explorer's all-orders probe cannot
/// prune, yet the result check still must pass on every branch.
class CanonSet {
 public:
  void accum(const int& x) { insert(x); }
  void combine(const CanonSet& other) {
    for (const int x : other.elems_) insert(x);
  }
  [[nodiscard]] std::vector<int> gen() const {
    std::vector<int> sorted = elems_;
    std::sort(sorted.begin(), sorted.end());
    return sorted;
  }

  void save(bytes::Writer& w) const { w.put_vector(elems_); }
  void load(bytes::Reader& r) { elems_ = r.get_vector<int>(); }

 private:
  void insert(int x) {
    if (std::find(elems_.begin(), elems_.end(), x) == elems_.end()) {
      elems_.push_back(x);
    }
  }

  std::vector<int> elems_;
};

// -- Inputs and prototypes ---------------------------------------------------

inline constexpr std::size_t kCheckerBuckets = 6;
inline constexpr int kCheckerTokensPerRank = 3;
inline constexpr std::size_t kCheckerTsqrCols = 3;

/// Deterministic rank-tagged raw tokens: rank r contributes
/// {10r, 10r+1, 10r+2}.  Each operator maps them into its own input
/// domain below.
inline std::vector<int> rank_tokens(int rank) {
  std::vector<int> tokens;
  tokens.reserve(kCheckerTokensPerRank);
  for (int i = 0; i < kCheckerTokensPerRank; ++i) {
    tokens.push_back(rank * 10 + i);
  }
  return tokens;
}

/// One TSQR input row derived from a raw token: small exact integers, so
/// the row is identical on every platform, and token-distinct so fold
/// orders produce bit-distinct rounding (what the mutation test needs).
inline std::vector<double> tsqr_row_from_token(int token,
                                               std::size_t cols =
                                                   kCheckerTsqrCols) {
  std::vector<double> row(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    row[c] =
        static_cast<double>((token * 7 + static_cast<int>(c) * 13) % 19 - 9);
  }
  return row;
}

template <typename Op>
struct zoo_input {
  using type = int;
};
template <>
struct zoo_input<rs::ops::TSQR> {
  using type = std::vector<double>;
};
template <typename Op>
using zoo_input_t = typename zoo_input<Op>::type;

template <typename Op>
std::vector<zoo_input_t<Op>> rank_inputs(int rank) {
  if constexpr (std::is_same_v<Op, rs::ops::TSQR>) {
    std::vector<std::vector<double>> rows;
    for (const int t : rank_tokens(rank)) rows.push_back(tsqr_row_from_token(t));
    return rows;
  } else {
    std::vector<int> inputs = rank_tokens(rank);
    if constexpr (std::is_same_v<Op, rs::ops::Counts>) {
      for (int& x : inputs) x %= static_cast<int>(kCheckerBuckets);
    } else if constexpr (std::is_same_v<Op, CanonSet>) {
      // Overlap across ranks so the union actually deduplicates.
      inputs.push_back(7);
    }
    return inputs;
  }
}

template <typename Op>
Op make_prototype() {
  if constexpr (std::is_same_v<Op, rs::ops::Counts>) {
    return rs::ops::Counts(kCheckerBuckets);
  } else if constexpr (std::is_same_v<Op, rs::ops::TSQR>) {
    return rs::ops::TSQR(kCheckerTsqrCols);
  } else {
    return Op{};
  }
}

/// Accumulates this rank's inputs into a fresh identity state.
template <typename Op>
Op accumulated(int rank) {
  Op op = make_prototype<Op>();
  for (const auto& x : rank_inputs<Op>(rank)) op.accum(x);
  return op;
}

// -- Oracles -----------------------------------------------------------------

/// Folds per-rank states along the binomial reduce tree's bracketing
/// (mprt::topology::binomial_reduce_schedule): at step d, rank r with
/// r % 2d == 0 absorbs rank r+d's subtree state, steps ascending.  This
/// is the combine order every order-preserving path in the runtime
/// performs — the bit-exact oracle for operators whose combine is not
/// bitwise associative (TSQR).
template <typename Op>
Op binomial_fold(std::vector<Op> states) {
  const std::size_t p = states.size();
  for (std::size_t d = 1; d < p; d <<= 1) {
    for (std::size_t r = 0; r + d < p; r += 2 * d) {
      states[r].combine(states[r + d]);
    }
  }
  return std::move(states[0]);
}

/// The expected allreduce result at machine size p: serial left fold of
/// raw inputs for exact operators, the binomial-tree bracketing for TSQR.
template <typename Op>
rs::reduce_result_t<Op> expected_result(int p) {
  if constexpr (std::is_same_v<Op, rs::ops::TSQR>) {
    std::vector<Op> states;
    states.reserve(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) states.push_back(accumulated<Op>(r));
    return rs::red_result(binomial_fold(std::move(states)));
  } else {
    Op op = make_prototype<Op>();
    for (int r = 0; r < p; ++r) {
      for (const auto& x : rank_inputs<Op>(r)) op.accum(x);
    }
    return rs::red_result(op);
  }
}

// -- The registry ------------------------------------------------------------

/// Per-operator metadata driving which tiers and schedules apply.
struct ZooOpInfo {
  const char* name;    // scenario-name prefix, stable across PRs
  bool commutative;    // rs::op_commutative<Op>()
  bool partitionable;  // segmented schedules + panel scenarios apply
  bool exact;          // combine bitwise associative: serial fold is the
                       // oracle under any bracketing; false => only
                       // ordered schedules + binomial_fold oracle
  bool async_tier;     // exercised through rs::reduce_async
  bool persistent_tier;  // exercised through svc::PersistentReduce
};

template <typename Op>
struct ZooTag {
  using type = Op;
};

/// THE operator list.  Adding an operator here enrolls it in the
/// exhaustive checker matrix automatically and breaks the sim / par
/// suites' coverage tests until they handle the new name — no tier can be
/// missed silently.
template <typename Fn>
void for_each_zoo_op(Fn&& fn) {
  fn(ZooTag<rs::ops::Counts>{},
     ZooOpInfo{"counts", true, true, true, true, true});
  fn(ZooTag<OrderedWord>{},
     ZooOpInfo{"word", false, false, true, true, true});
  fn(ZooTag<CanonSet>{},
     ZooOpInfo{"canon", true, false, true, false, false});
  fn(ZooTag<rs::ops::TSQR>{},
     ZooOpInfo{"tsqr", false, true, false, true, true});
}

/// The registered names, for coverage assertions.
inline std::vector<std::string> zoo_names() {
  std::vector<std::string> names;
  for_each_zoo_op([&](auto, const ZooOpInfo& info) {
    names.emplace_back(info.name);
  });
  return names;
}

}  // namespace rsmpi::verify
