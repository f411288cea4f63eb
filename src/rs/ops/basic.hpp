// Elementary global-view operators: the built-in reductions every
// high-level language ships (sum, product, min, max, logical all/any),
// restated against the operator-class protocol so they compose with the
// same reduce/scan machinery as user-defined operators.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <type_traits>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::ops {

/// Partitionable-state hooks (ISSUE 5) for trivially-copyable scalar
/// operators: the state is a single element whose wire format is the
/// operator's memcpy representation, matching the whole-state fallback.
/// CRTP mixin so each operator's hooks see its concrete type; the base is
/// empty, keeping the derived operator trivially copyable and its size
/// unchanged.
template <typename Derived>
class ScalarPartitionable {
 public:
  [[nodiscard]] std::size_t part_extent() const { return 1; }
  [[nodiscard]] std::size_t part_bytes(std::size_t lo, std::size_t hi) const {
    return (hi - lo) * sizeof(Derived);
  }
  void save_part(std::size_t lo, std::size_t hi, bytes::Writer& w) const {
    check_range(lo, hi);
    if (hi > lo) w.put(static_cast<const Derived&>(*this));
  }
  void load_part(std::size_t lo, std::size_t hi,
                 std::span<const std::byte> data) {
    check_range(lo, hi);
    if (data.size() != part_bytes(lo, hi)) {
      throw ProtocolError("scalar operator: segment has mismatched size");
    }
    if (hi > lo) {
      std::memcpy(static_cast<void*>(static_cast<Derived*>(this)),
                  data.data(), sizeof(Derived));
    }
  }
  void combine_part(std::size_t lo, std::size_t hi,
                    std::span<const std::byte> data) {
    check_range(lo, hi);
    if (data.size() != part_bytes(lo, hi)) {
      throw ProtocolError("scalar operator: segment has mismatched size");
    }
    if (hi > lo) {
      static_cast<Derived*>(this)->combine(
          bytes::load_unaligned<Derived>(data.data()));
    }
  }

 private:
  static void check_range(std::size_t lo, std::size_t hi) {
    if (lo > hi || hi > 1) {
      throw ProtocolError("scalar operator: segment range out of bounds");
    }
  }
};

/// Element folds an array state may name: acc = acc (+) x.
struct FoldAdd {
  template <typename T>
  void operator()(T& acc, T x) const {
    acc += x;
  }
};
struct FoldMax {
  template <typename T>
  void operator()(T& acc, T x) const {
    acc = std::max(acc, x);
  }
};
struct FoldOr {
  template <typename T>
  void operator()(T& acc, T x) const {
    acc |= x;
  }
};

/// Protocol hooks for an operator whose state is one std::vector of
/// trivially copyable elements.  The operator names the vector once, in a
/// private static member that ArrayState, a friend, calls:
///
///   static auto& elems(auto& self) { return self.v_; }
///
/// and names its element fold (FoldAdd, FoldMax, FoldOr; void for none)
/// when its combine is that fold applied element by element.  The wire form is the
/// vector's bytes::Writer::put_span form: a 64-bit element count, then the
/// elements.  The count is configuration, fixed at construction: a load or
/// fold whose count differs throws ProtocolError.  Derived from that:
///
///   * wire_bytes(), save() and load(), which overwrites the elements in
///     place, for every array state;
///   * combine_from_bytes(), when a fold is named: the fold applied
///     straight out of the receive buffer;
///   * the partitionable-state hooks, when kPartitionable is set (a fold is
///     then required): element ranges travel as raw elements, with no
///     count, and fold independently.
template <typename Derived, typename T, typename Fold = void,
          bool kPartitionable = false>
  requires std::is_trivially_copyable_v<T> &&
           (!kPartitionable || !std::is_void_v<Fold>)
class ArrayState {
 public:
  [[nodiscard]] std::size_t wire_bytes() const {
    return sizeof(std::uint64_t) + array().size_bytes();
  }
  void save(bytes::Writer& w) const { w.put_span(array()); }
  void load(bytes::Reader& r) { r.get_span(array()); }

  void combine_from_bytes(std::span<const std::byte> data)
    requires(!std::is_void_v<Fold>)
  {
    bytes::Reader r(data);
    std::uint64_t n = 0;
    const auto raw = r.get_counted_raw<T>(&n);
    if (n != array().size() || !r.exhausted()) {
      throw ProtocolError("array state: mismatched element count in combine");
    }
    fold_raw(0, raw);
  }

  [[nodiscard]] std::size_t part_extent() const
    requires kPartitionable
  {
    return array().size();
  }
  [[nodiscard]] std::size_t part_bytes(std::size_t lo, std::size_t hi) const
    requires kPartitionable
  {
    return (hi - lo) * sizeof(T);
  }
  void save_part(std::size_t lo, std::size_t hi, bytes::Writer& w) const
    requires kPartitionable
  {
    check_range(lo, hi);
    w.put_raw(std::as_bytes(array().subspan(lo, hi - lo)));
  }
  void load_part(std::size_t lo, std::size_t hi,
                 std::span<const std::byte> data)
    requires kPartitionable
  {
    check_segment(lo, hi, data);
    if (!data.empty()) {
      std::memcpy(array().data() + lo, data.data(), data.size());
    }
  }
  void combine_part(std::size_t lo, std::size_t hi,
                    std::span<const std::byte> data)
    requires kPartitionable
  {
    check_segment(lo, hi, data);
    fold_raw(lo, data);
  }

 private:
  [[nodiscard]] std::span<T> array() {
    return Derived::elems(static_cast<Derived&>(*this));
  }
  [[nodiscard]] std::span<const T> array() const {
    return Derived::elems(static_cast<const Derived&>(*this));
  }

  /// array()[lo + i] = array()[lo + i] (+) element i of `raw`, whose
  /// elements have byte alignment only.
  void fold_raw(std::size_t lo, std::span<const std::byte> raw) {
    T* out = array().data() + lo;
    const std::byte* p = raw.data();
    for (T* const end = out + raw.size() / sizeof(T); out != end;
         ++out, p += sizeof(T)) {
      Fold{}(*out, bytes::load_unaligned<T>(p));
    }
  }

  void check_range(std::size_t lo, std::size_t hi) const {
    if (lo > hi || hi > array().size()) {
      throw ProtocolError("array state: segment range out of bounds");
    }
  }
  void check_segment(std::size_t lo, std::size_t hi,
                     std::span<const std::byte> data) const {
    check_range(lo, hi);
    if (data.size() != (hi - lo) * sizeof(T)) {
      throw ProtocolError("array state: segment arrived with mismatched size");
    }
  }
};

/// Running sum.  State, input, and output types coincide — the degenerate
/// case in which the global-view abstraction collapses to the local view.
template <typename T>
class Sum : public ScalarPartitionable<Sum<T>> {
 public:
  static constexpr bool commutative = true;

  void accum(const T& x) { value_ += x; }
  void combine(const Sum& other) { value_ += other.value_; }
  /// Inverse of combine (sums form a group): the invertible-window hook.
  void uncombine(const Sum& other) { value_ -= other.value_; }
  [[nodiscard]] T gen() const { return value_; }

 private:
  T value_{};
};

/// Running product.
template <typename T>
class Product : public ScalarPartitionable<Product<T>> {
 public:
  static constexpr bool commutative = true;

  void accum(const T& x) { value_ *= x; }
  void combine(const Product& other) { value_ *= other.value_; }
  [[nodiscard]] T gen() const { return value_; }

 private:
  T value_{1};
};

/// Minimum value.
template <typename T>
class Min : public ScalarPartitionable<Min<T>> {
 public:
  static constexpr bool commutative = true;

  void accum(const T& x) {
    if (x < value_) value_ = x;
  }
  void combine(const Min& other) { accum(other.value_); }
  [[nodiscard]] T gen() const { return value_; }

 private:
  T value_ = std::numeric_limits<T>::max();
};

/// Maximum value.
template <typename T>
class Max : public ScalarPartitionable<Max<T>> {
 public:
  static constexpr bool commutative = true;

  void accum(const T& x) {
    if (x > value_) value_ = x;
  }
  void combine(const Max& other) { accum(other.value_); }
  [[nodiscard]] T gen() const { return value_; }

 private:
  T value_ = std::numeric_limits<T>::lowest();
};

/// Logical conjunction over a predicate-valued input.
class All {
 public:
  static constexpr bool commutative = true;

  void accum(const bool& x) { value_ = value_ && x; }
  void combine(const All& other) { value_ = value_ && other.value_; }
  [[nodiscard]] bool gen() const { return value_; }

 private:
  bool value_ = true;
};

/// Logical disjunction over a predicate-valued input.
class Any {
 public:
  static constexpr bool commutative = true;

  void accum(const bool& x) { value_ = value_ || x; }
  void combine(const Any& other) { value_ = value_ || other.value_; }
  [[nodiscard]] bool gen() const { return value_; }

 private:
  bool value_ = false;
};

/// Counts inputs satisfying a predicate.  Demonstrates configuration state
/// (the predicate) riding along in the operator prototype while only the
/// counter participates in combines.
template <typename T, typename Pred>
class CountIf {
 public:
  static constexpr bool commutative = true;

  explicit CountIf(Pred pred) : pred_(std::move(pred)) {}

  void accum(const T& x) {
    if (pred_(x)) ++count_;
  }
  void combine(const CountIf& other) { count_ += other.count_; }
  [[nodiscard]] long gen() const { return count_; }

 private:
  Pred pred_;
  long count_ = 0;
};

/// Boyer–Moore majority vote, parallelized: the pairwise summary
/// (candidate, weight) merges by cancelling opposing weights, so if any
/// value holds a strict global majority it is guaranteed to be the
/// surviving candidate under *any* combine tree.  (Whether the candidate
/// truly is a majority needs one verification pass — CountIf — as in the
/// sequential algorithm.)
template <typename T>
class MajorityVote {
 public:
  static constexpr bool commutative = true;

  void accum(const T& x) {
    if (weight_ == 0) {
      candidate_ = x;
      weight_ = 1;
    } else if (candidate_ == x) {
      ++weight_;
    } else {
      --weight_;
    }
  }

  void combine(const MajorityVote& o) {
    if (o.weight_ == 0) return;
    if (weight_ == 0 || candidate_ == o.candidate_) {
      if (weight_ == 0) candidate_ = o.candidate_;
      weight_ += o.weight_;
      return;
    }
    if (o.weight_ > weight_) {
      candidate_ = o.candidate_;
      weight_ = o.weight_ - weight_;
    } else {
      weight_ -= o.weight_;
    }
  }

  /// The only possible majority value (meaningless if no majority exists).
  [[nodiscard]] T gen() const { return candidate_; }

 private:
  T candidate_{};
  long weight_ = 0;
};

}  // namespace rsmpi::rs::ops
