// Mergeable-sketch operators: the modern descendants of the paper's
// user-defined reductions.  Each carries a fixed-size summary state whose
// combine is exactly a set-union/merge — the shape the global-view
// abstraction was built for: the accumulate phase streams the local data
// once, and the combine tree moves only sketch bytes.
//
// All three sketches here are deterministic (given the prototype's
// parameters), so the parallel == serial property tests apply verbatim.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "rs/ops/basic.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace rsmpi::rs::ops {

namespace detail {

/// splitmix64: cheap, well-mixed 64-bit hash for sketch indexing.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

template <typename T>
  requires std::is_integral_v<T>
std::uint64_t sketch_hash(const T& x, std::uint64_t salt = 0) {
  return mix64(static_cast<std::uint64_t>(x) ^ salt);
}

}  // namespace detail

/// Approximate count of distinct values (HyperLogLog).  State: 2^b
/// 6-bit-ish registers; combine is the element-wise maximum, so the
/// operator is commutative and idempotent.  The registers are an array
/// state (rs/ops/basic.hpp) folded by FoldMax; they are not offered to the
/// segmented schedules.
template <typename T>
class HyperLogLog : public ArrayState<HyperLogLog<T>, std::uint8_t,
                                      FoldMax> {
 public:
  static constexpr bool commutative = true;

  /// `precision_bits` b in [4, 16]: 2^b registers, standard error about
  /// 1.04 / sqrt(2^b).
  explicit HyperLogLog(int precision_bits) : b_(precision_bits) {
    if (b_ < 4 || b_ > 16) {
      throw ArgumentError("HyperLogLog: precision_bits must be in [4, 16]");
    }
    registers_.assign(std::size_t{1} << b_, 0);
  }

  void accum(const T& x) {
    const std::uint64_t h = detail::sketch_hash(x);
    const std::size_t idx = static_cast<std::size_t>(h >> (64 - b_));
    // Rank = position of the first 1-bit in the remaining 64-b bits.
    const std::uint64_t rest = (h << b_) | (std::uint64_t{1} << (b_ - 1));
    const auto rank = static_cast<std::uint8_t>(std::countl_zero(rest) + 1);
    if (rank > registers_[idx]) registers_[idx] = rank;
  }

  void combine(const HyperLogLog& o) {
    if (o.registers_.size() != registers_.size()) {
      throw ProtocolError("HyperLogLog: mismatched precision in combine");
    }
    for (std::size_t i = 0; i < registers_.size(); ++i) {
      registers_[i] = std::max(registers_[i], o.registers_[i]);
    }
  }

  /// Estimated distinct count (with the standard small-range correction).
  [[nodiscard]] double gen() const {
    const double m = static_cast<double>(registers_.size());
    double sum = 0.0;
    int zeros = 0;
    for (const auto r : registers_) {
      sum += std::ldexp(1.0, -static_cast<int>(r));
      if (r == 0) ++zeros;
    }
    const double alpha =
        m <= 16 ? 0.673 : (m <= 32 ? 0.697 : (m <= 64 ? 0.709
                                                      : 0.7213 / (1 + 1.079 / m)));
    double est = alpha * m * m / sum;
    if (est <= 2.5 * m && zeros > 0) {
      est = m * std::log(m / static_cast<double>(zeros));  // linear counting
    }
    return est;
  }

 private:
  friend ArrayState<HyperLogLog, std::uint8_t, FoldMax>;
  static auto& elems(auto& self) { return self.registers_; }

  int b_;
  std::vector<std::uint8_t> registers_;
};

/// Heavy hitters (Misra–Gries summary): every value occurring more than
/// n / (k+1) times globally is guaranteed to appear in the output, with
/// its count underestimated by at most n / (k+1).  Combine is the
/// standard mergeable form: add counters, then decrement everything by
/// the (k+1)-largest count and drop the non-positive remainder.
template <typename T>
  requires std::is_integral_v<T>
class HeavyHitters {
 public:
  static constexpr bool commutative = true;

  struct Entry {
    T value;
    long count;
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  explicit HeavyHitters(std::size_t k) : k_(k) {
    if (k == 0) throw ArgumentError("HeavyHitters: k must be positive");
  }

  void accum(const T& x) {
    auto it = counters_.find(x);
    if (it != counters_.end()) {
      it->second += 1;
      return;
    }
    if (counters_.size() < k_) {
      counters_.emplace(x, 1);
      return;
    }
    // Misra–Gries decrement: everyone loses one; zeros evicted.
    for (auto c = counters_.begin(); c != counters_.end();) {
      if (--c->second == 0) {
        c = counters_.erase(c);
      } else {
        ++c;
      }
    }
  }

  void combine(const HeavyHitters& o) {
    if (o.k_ != k_) {
      throw ProtocolError("HeavyHitters: mismatched k in combine");
    }
    for (const auto& [value, count] : o.counters_) {
      counters_[value] += count;
    }
    if (counters_.size() <= k_) return;
    // Find the (k+1)-th largest count and subtract it everywhere.
    std::vector<long> counts;
    counts.reserve(counters_.size());
    for (const auto& [value, count] : counters_) counts.push_back(count);
    std::nth_element(counts.begin(), counts.begin() + static_cast<long>(k_),
                     counts.end(), std::greater<>());
    const long cut = counts[k_];
    for (auto c = counters_.begin(); c != counters_.end();) {
      c->second -= cut;
      if (c->second <= 0) {
        c = counters_.erase(c);
      } else {
        ++c;
      }
    }
  }

  /// Surviving candidates, most frequent first (ties by value for
  /// determinism).  Counts are lower bounds on true frequencies.
  [[nodiscard]] std::vector<Entry> gen() const {
    std::vector<Entry> out;
    out.reserve(counters_.size());
    for (const auto& [value, count] : counters_) out.push_back({value, count});
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      if (a.count != b.count) return a.count > b.count;
      return a.value < b.value;
    });
    return out;
  }

  void save(bytes::Writer& w) const {
    w.put<std::uint64_t>(counters_.size());
    for (const auto& [value, count] : counters_) {
      w.put(value);
      w.put(count);
    }
  }
  void load(bytes::Reader& r) {
    const auto n = r.get<std::uint64_t>();
    counters_.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      const T value = r.get<T>();
      const long count = r.get<long>();
      counters_.emplace(value, count);
    }
  }

 private:
  std::size_t k_;
  std::map<T, long> counters_;  // ordered: deterministic iteration
};

/// Approximate-membership filter (Bloom).  Combine is the bitwise OR of
/// the bit arrays; queries after the reduction answer "possibly present"
/// with a false-positive rate set by the sizing, and never a false
/// negative.  The words are an array state (rs/ops/basic.hpp) folded by
/// FoldOr; they are not offered to the segmented schedules.
template <typename T>
  requires std::is_integral_v<T>
class BloomFilter : public ArrayState<BloomFilter<T>, std::uint64_t,
                                      FoldOr> {
 public:
  static constexpr bool commutative = true;

  BloomFilter(std::size_t num_bits, int num_hashes)
      : nbits_(num_bits), nhashes_(num_hashes),
        words_((num_bits + 63) / 64, 0) {
    if (num_bits == 0 || num_hashes < 1) {
      throw ArgumentError("BloomFilter: need bits and at least one hash");
    }
  }

  void accum(const T& x) {
    for (int h = 0; h < nhashes_; ++h) {
      set_bit(bit_index(x, h));
    }
  }

  void combine(const BloomFilter& o) {
    if (o.words_.size() != words_.size()) {
      throw ProtocolError("BloomFilter: mismatched size in combine");
    }
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
  }

  /// The reduction result is the filter itself.
  [[nodiscard]] BloomFilter gen() const { return *this; }

  /// Possibly-present query (no false negatives).
  [[nodiscard]] bool maybe_contains(const T& x) const {
    for (int h = 0; h < nhashes_; ++h) {
      if (!get_bit(bit_index(x, h))) return false;
    }
    return true;
  }

  /// Fraction of set bits (load factor; FPR ~ load^k).
  [[nodiscard]] double fill_ratio() const {
    std::size_t set = 0;
    for (const auto w : words_) set += std::popcount(w);
    return static_cast<double>(set) / static_cast<double>(nbits_);
  }

 private:
  friend ArrayState<BloomFilter, std::uint64_t, FoldOr>;
  static auto& elems(auto& self) { return self.words_; }

  [[nodiscard]] std::size_t bit_index(const T& x, int h) const {
    return static_cast<std::size_t>(
        detail::sketch_hash(x, 0x5bd1e995u * static_cast<unsigned>(h + 1)) %
        nbits_);
  }
  void set_bit(std::size_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  [[nodiscard]] bool get_bit(std::size_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }

  std::size_t nbits_;
  int nhashes_;
  std::vector<std::uint64_t> words_;
};

}  // namespace rsmpi::rs::ops
