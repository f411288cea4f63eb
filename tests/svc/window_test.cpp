// Window-semantics tests (svc/window.hpp): tumbling and sliding windows
// over any operator must be bit-identical to a serial oracle that
// re-aggregates the last W per-epoch global states from scratch — via the
// uncombine fast path for invertible ops and the two-stack evict for
// non-invertible ones (Min, Max, HyperLogLog).
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "mprt/runtime.hpp"
#include "rs/op_concepts.hpp"
#include "rs/ops/ops.hpp"
#include "rs/state_exchange.hpp"
#include "svc/window.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using rs::save_op;

/// Serial oracle: keeps every merged per-epoch state and recomputes each
/// window as a from-scratch left fold over the last W of them.
template <typename Op>
class WindowOracle {
 public:
  WindowOracle(Op prototype, svc::WindowConfig cfg)
      : prototype_(std::move(prototype)),
        window_(cfg.window_epochs),
        slide_(cfg.slide_epochs == 0 ? cfg.window_epochs : cfg.slide_epochs) {}

  std::optional<Op> push(Op merged_epoch_state) {
    history_.push_back(std::move(merged_epoch_state));
    epochs_ += 1;
    if (epochs_ < window_ || (epochs_ - window_) % slide_ != 0) {
      return std::nullopt;
    }
    Op agg = prototype_;
    for (std::size_t i = history_.size() - window_; i < history_.size(); ++i) {
      agg.combine(history_[i]);
    }
    return agg;
  }

 private:
  Op prototype_;
  std::size_t window_;
  std::size_t slide_;
  std::size_t epochs_ = 0;
  std::vector<Op> history_;
};

/// Runs `epochs` epochs through both the stream and the oracle at every
/// rank count, comparing emitted windows byte-for-byte via save_op.
template <typename Op, typename Fill>
void stream_matches_oracle(const Op& prototype, svc::WindowConfig cfg,
                           int epochs, Fill fill, bool expect_inversion) {
  for (const int p : {2, 3, 5, 8}) {
    mprt::run(p, [&](Comm& comm) {
      svc::WindowedStream<Op> stream(comm, prototype, cfg);
      EXPECT_EQ(stream.uses_inversion(), expect_inversion);
      WindowOracle<Op> oracle(prototype, cfg);
      int emitted = 0;

      for (int e = 0; e < epochs; ++e) {
        Op mine = prototype;
        fill(mine, comm.rank(), e);

        // The oracle sees the same merged global state the stream merges.
        Op merged = mine;
        rs::detail::state_allreduce(comm, merged);
        const auto want = oracle.push(std::move(merged));

        const auto got = stream.push_state(std::move(mine));
        ASSERT_EQ(got.has_value(), want.has_value())
            << "p=" << p << " epoch=" << e;
        if (got) {
          EXPECT_EQ(*got, rs::red_result(*want)) << "p=" << p << " epoch=" << e;
          emitted += 1;
        }
      }
      EXPECT_EQ(stream.windows_emitted(), static_cast<std::size_t>(emitted));
      EXPECT_GT(emitted, 0) << "test never exercised an emission";
    });
  }
}

svc::WindowConfig tumbling(std::size_t w) {
  svc::WindowConfig cfg;
  cfg.window_epochs = w;
  cfg.slide_epochs = 0;
  return cfg;
}

svc::WindowConfig sliding(std::size_t w, std::size_t s,
                          bool allow_inversion = true) {
  svc::WindowConfig cfg;
  cfg.window_epochs = w;
  cfg.slide_epochs = s;
  cfg.allow_inversion = allow_inversion;
  return cfg;
}

// --- invertible fast path ---------------------------------------------------

TEST(Window, TumblingSum) {
  stream_matches_oracle(
      ops::Sum<long>{}, tumbling(4), 13,
      [](ops::Sum<long>& op, int r, int e) {
        for (int i = 0; i < 8; ++i) op.accum(r * 100 + e * 10 + i);
      },
      /*expect_inversion=*/false);  // tumbling never needs to evict
}

TEST(Window, SlidingSumUsesInversion) {
  static_assert(rs::InvertibleOp<ops::Sum<long>>);
  stream_matches_oracle(
      ops::Sum<long>{}, sliding(4, 1), 12,
      [](ops::Sum<long>& op, int r, int e) {
        for (int i = 0; i < 8; ++i) op.accum(r * 100 + e * 10 + i);
      },
      /*expect_inversion=*/true);
}

TEST(Window, SlidingCountsStride2) {
  stream_matches_oracle(
      ops::Counts(8), sliding(3, 2), 11,
      [](ops::Counts& op, int r, int e) {
        for (int i = 0; i < 16; ++i) op.accum((r * 7 + e * 3 + i) % 8);
      },
      /*expect_inversion=*/true);
}

TEST(Window, SlidingMeanVarInvertible) {
  stream_matches_oracle(
      ops::MeanVar{}, sliding(4, 1), 10,
      [](ops::MeanVar& op, int r, int e) {
        for (int i = 0; i < 6; ++i) op.accum(0.5 * r + 0.25 * e + 0.125 * i);
      },
      /*expect_inversion=*/true);
}

// --- two-stack path (non-invertible, or inversion disabled) -----------------

TEST(Window, SlidingMinTwoStack) {
  static_assert(!rs::InvertibleOp<ops::Min<int>>);
  stream_matches_oracle(
      ops::Min<int>{}, sliding(4, 1), 12,
      [](ops::Min<int>& op, int r, int e) {
        // Values drift upward so evicted epochs really did hold the minimum.
        for (int i = 0; i < 5; ++i) op.accum(e * 100 + ((r * 13 + i * 7) % 50));
      },
      /*expect_inversion=*/false);
}

TEST(Window, SlidingMaxTwoStack) {
  stream_matches_oracle(
      ops::Max<int>{}, sliding(3, 1), 10,
      [](ops::Max<int>& op, int r, int e) {
        for (int i = 0; i < 5; ++i) {
          op.accum(1000 - e * 100 + ((r * 17 + i * 11) % 50));
        }
      },
      /*expect_inversion=*/false);
}

TEST(Window, SlidingHyperLogLogTwoStack) {
  static_assert(!rs::InvertibleOp<ops::HyperLogLog<std::uint64_t>>);
  stream_matches_oracle(
      ops::HyperLogLog<std::uint64_t>(10), sliding(4, 2), 12,
      [](ops::HyperLogLog<std::uint64_t>& op, int r, int e) {
        for (int i = 0; i < 64; ++i) {
          op.accum(static_cast<std::uint64_t>(e) * 10000 + r * 100 + i);
        }
      },
      /*expect_inversion=*/false);
}

TEST(Window, ForcedTwoStackMatchesInversion) {
  // Same epochs through both evict strategies: identical emissions.
  mprt::run(4, [](Comm& comm) {
    const auto cfg_inv = sliding(4, 1, /*allow_inversion=*/true);
    const auto cfg_two = sliding(4, 1, /*allow_inversion=*/false);
    svc::WindowedStream<ops::Counts> inv(comm, ops::Counts(16), cfg_inv);
    svc::WindowedStream<ops::Counts> two(comm, ops::Counts(16), cfg_two);
    EXPECT_TRUE(inv.uses_inversion());
    EXPECT_FALSE(two.uses_inversion());

    for (int e = 0; e < 10; ++e) {
      ops::Counts mine(16);
      for (int i = 0; i < 24; ++i) mine.accum((comm.rank() * 5 + e + i) % 16);
      ops::Counts copy = mine;
      const auto a = inv.push_state(std::move(mine));
      const auto b = two.push_state(std::move(copy));
      ASSERT_EQ(a.has_value(), b.has_value()) << "epoch=" << e;
      if (a) {
        EXPECT_EQ(*a, *b) << "epoch=" << e;
      }
    }
    EXPECT_EQ(inv.windows_emitted(), 7u);
    EXPECT_EQ(two.windows_emitted(), 7u);
  });
}

TEST(Window, PushEpochAccumulatesRawInput) {
  // push_epoch folds raw elements through accum before merging; must agree
  // with pre-accumulated push_state.
  mprt::run(3, [](Comm& comm) {
    svc::WindowedStream<ops::Sum<long>> via_epoch(comm, ops::Sum<long>{},
                                                  tumbling(2));
    svc::WindowedStream<ops::Sum<long>> via_state(comm, ops::Sum<long>{},
                                                  tumbling(2));
    for (int e = 0; e < 6; ++e) {
      std::vector<long> batch;
      for (int i = 0; i < 4; ++i) batch.push_back(comm.rank() * 10 + e + i);
      ops::Sum<long> state;
      for (long x : batch) state.accum(x);

      const auto a = via_epoch.push_epoch(batch);
      const auto b = via_state.push_state(std::move(state));
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a) {
        EXPECT_EQ(*a, *b);
      }
    }
  });
}

TEST(Window, RejectsZeroWindow) {
  mprt::run(2, [](Comm& comm) {
    svc::WindowConfig cfg;
    cfg.window_epochs = 0;
    EXPECT_THROW(
        (svc::WindowedStream<ops::Sum<long>>(comm, ops::Sum<long>{}, cfg)),
        ArgumentError);
  });
}

}  // namespace
