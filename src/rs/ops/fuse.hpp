// Operator fusion: run two (or, by nesting, any number of) reductions over
// the same input in a single accumulate pass and a single combine tree.
//
// This is the paper's §2.1 aggregation idea hoisted to the operator level:
// instead of aggregating k instances of the *same* operator, Fuse
// aggregates *different* operators — e.g. the NAS MG rewrite's "ten
// largest and ten smallest in one reduction" is TopBottomK, which is
// morally Fuse<MaxK-with-loc, MinK-with-loc>.  One message per tree edge
// carries both states.
#pragma once

#include <utility>

#include "rs/op_concepts.hpp"

namespace rsmpi::rs::ops {

template <typename OpA, typename OpB>
class Fuse {
 public:
  static constexpr bool commutative =
      op_commutative<OpA>() && op_commutative<OpB>();

  Fuse(OpA a, OpB b) : a_(std::move(a)), b_(std::move(b)) {}

  template <typename In>
    requires Accumulates<OpA, In> && Accumulates<OpB, In>
  void accum(const In& x) {
    a_.accum(x);
    b_.accum(x);
  }

  template <typename In>
    requires Accumulates<OpA, In> && Accumulates<OpB, In>
  void pre_accum(const In& x) {
    pre_accum_if(a_, x);
    pre_accum_if(b_, x);
  }

  template <typename In>
    requires Accumulates<OpA, In> && Accumulates<OpB, In>
  void post_accum(const In& x) {
    post_accum_if(a_, x);
    post_accum_if(b_, x);
  }

  void combine(const Fuse& other) {
    a_.combine(other.a_);
    b_.combine(other.b_);
  }

  /// Reduction output: the pair of both operators' results.
  [[nodiscard]] auto red_gen() const {
    return std::make_pair(red_result(a_), red_result(b_));
  }

  template <typename In>
  [[nodiscard]] auto scan_gen(const In& x) const {
    return std::make_pair(scan_result(a_, x), scan_result(b_, x));
  }

  [[nodiscard]] const OpA& first() const { return a_; }
  [[nodiscard]] const OpB& second() const { return b_; }

  void save(bytes::Writer& w) const {
    w.put_vector(save_op(a_));
    w.put_vector(save_op(b_));
  }
  void load(bytes::Reader& r) {
    load_op_into(a_, r.get_counted_raw<std::byte>());
    load_op_into(b_, r.get_counted_raw<std::byte>());
  }

 private:
  OpA a_;
  OpB b_;
};

/// Factory with deduction: fuse(ops::Min<int>{}, ops::Max<int>{}).
template <typename OpA, typename OpB>
[[nodiscard]] Fuse<OpA, OpB> fuse(OpA a, OpB b) {
  return Fuse<OpA, OpB>(std::move(a), std::move(b));
}

}  // namespace rsmpi::rs::ops
