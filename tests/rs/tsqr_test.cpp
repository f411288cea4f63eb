// Flagship verification for rs::ops::TSQR (ISSUE 9 tentpole):
//
//   * unit contract — argument validation, identity combines, equality,
//     serialization (save/load, in-place load into a live state,
//     combine_from_bytes), and the column-panel hooks including the
//     streamed-session demux and its out-of-order rejection;
//   * bitwise schedule sweep — every blocking schedule name, the auto
//     dispatch, the pipelined binomial tree at several segment sizes, and
//     reduce_async on the progress engine all reproduce
//     verify::binomial_fold's bracketing exactly, at p in {2..16},
//     fault-free and under benign fault plans;
//   * numerical oracle — the reduced R agrees with a serial Householder
//     factorization: ||QtQ - I||inf and ||A - QR||/||A|| within
//     100 * eps * cols for every benched shape (the micro_tsqr gate);
//   * svc windows — TSQR is not invertible, so WindowedStream must take
//     the two-stack path; tumbling windows reproduce the left fold
//     bitwise.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "mprt/runtime.hpp"
#include "mprt/sim.hpp"
#include "par/do_all.hpp"
#include "rs/async.hpp"
#include "rs/ops/tsqr.hpp"
#include "rs/reduce.hpp"
#include "rs/serial.hpp"
#include "rs/state_exchange.hpp"
#include "svc/window.hpp"
#include "util/bytes.hpp"
#include "util/dense_qr.hpp"
#include "util/error.hpp"
#include "verify/registry.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
namespace qr = util::qr;
using mprt::Comm;
using mprt::SimConfig;
using rs::save_op;
using rs::detail::Schedule;

/// Deterministic row entries: small rationals, exact on every platform,
/// token-distinct so combine orders produce bit-distinct rounding.
std::vector<double> make_row(int rank, std::size_t i, std::size_t cols) {
  std::vector<double> row(cols);
  for (std::size_t c = 0; c < cols; ++c) {
    const int t = rank * 131 + static_cast<int>(i) * 31 + static_cast<int>(c) * 7;
    row[c] = static_cast<double>(t % 211) / 8.0 - 13.0;
  }
  return row;
}

/// Per-rank accumulated state over `rows_per_rank` deterministic rows.
ops::TSQR local_state(int rank, std::size_t rows_per_rank, std::size_t cols) {
  ops::TSQR s(cols);
  for (std::size_t i = 0; i < rows_per_rank; ++i) {
    s.accum(make_row(rank, i, cols));
  }
  return s;
}

/// The ordered-schedule oracle: per-rank states folded along the binomial
/// reduce tree's bracketing (the combine order every order-preserving
/// path in the runtime performs).
ops::TSQR binomial_oracle(int p, std::size_t rows_per_rank, std::size_t cols) {
  std::vector<ops::TSQR> states;
  for (int r = 0; r < p; ++r) states.push_back(local_state(r, rows_per_rank, cols));
  return verify::binomial_fold(std::move(states));
}

/// What the production local accumulate produces under the *ambient* env:
/// the serial fold at pool width 1 (or a single chunk), the canonical
/// chunked fold otherwise — mirroring par::accumulate_indexed so the
/// end-to-end tests stay bitwise-pinned when CI forces a wide pool
/// (RSMPI_LOCAL_THREADS=4, small grain) onto this suite.
ops::TSQR ambient_local_state(int rank, std::size_t rows_per_rank,
                              std::size_t cols) {
  const char* raw = std::getenv("RSMPI_LOCAL_THREADS");
  const int width = raw != nullptr && *raw != '\0' ? std::atoi(raw) : 1;
  const std::size_t grain = par::grain_from_env();
  const std::size_t nchunks = par::chunk_count(rows_per_rank, grain);
  if (nchunks <= 1 || width <= 1) {
    return local_state(rank, rows_per_rank, cols);
  }
  ops::TSQR op(cols);
  for (std::size_t chunk = 0; chunk < nchunks; ++chunk) {
    const std::size_t lo = chunk * grain;
    const std::size_t hi = std::min(rows_per_rank, lo + grain);
    ops::TSQR state(cols);
    for (std::size_t i = lo; i < hi; ++i) state.accum(make_row(rank, i, cols));
    op.combine(state);
  }
  return op;
}

/// binomial_oracle over ambient_local_state — the expectation for tests
/// that drive the full production path (pool accumulate + exchange).
ops::TSQR ambient_oracle(int p, std::size_t rows_per_rank, std::size_t cols) {
  std::vector<ops::TSQR> states;
  for (int r = 0; r < p; ++r) {
    states.push_back(ambient_local_state(r, rows_per_rank, cols));
  }
  return verify::binomial_fold(std::move(states));
}

// --- unit contract ----------------------------------------------------------

TEST(Tsqr, ArgumentValidation) {
  EXPECT_THROW(ops::TSQR(0), ArgumentError);
  ops::TSQR op(3);
  EXPECT_EQ(op.cols(), 3u);
  EXPECT_THROW(op.accum({1.0, 2.0}), ArgumentError);
  EXPECT_THROW(op.combine(ops::TSQR(4)), ProtocolError);
  EXPECT_THROW(static_cast<void>(ops::TSQR(3).gen().entry(0, 3)),
               ArgumentError);
}

TEST(Tsqr, DiagonalIsNonnegativeByConstruction) {
  ops::TSQR op = local_state(0, 40, 5);
  ops::TSQR other = local_state(1, 40, 5);
  op.combine(other);
  const auto result = op.gen();
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_GE(result.entry(j, j), 0.0) << "column " << j;
  }
}

TEST(Tsqr, IdentityCombinesAreBitwiseExact) {
  const ops::TSQR x = local_state(2, 25, 4);
  ops::TSQR left(4);
  left.combine(x);  // identity (+) x
  EXPECT_EQ(save_op(left), save_op(x));
  ops::TSQR right = x;
  right.combine(ops::TSQR(4));  // x (+) identity
  EXPECT_EQ(save_op(right), save_op(x));
}

TEST(Tsqr, SerializationRoundTripsBitwise) {
  const ops::TSQR src = local_state(3, 30, 6);
  const auto bytes_saved = save_op(src);

  ops::TSQR via_load(6);
  {
    bytes::Reader r(bytes_saved);
    via_load.load(r);
  }
  EXPECT_EQ(save_op(via_load), bytes_saved);

  // The load is in place and overwrites a live state completely, and the
  // declared wire size is the saved size.
  ops::TSQR via_live = local_state(4, 30, 6);
  {
    bytes::Reader r(bytes_saved);
    via_live.load(r);
  }
  EXPECT_EQ(save_op(via_live), bytes_saved);
  EXPECT_EQ(src.wire_bytes(), bytes_saved.size());

  ops::TSQR wrong(5);
  bytes::Reader r(bytes_saved);
  EXPECT_THROW(wrong.load(r), ProtocolError);
}

TEST(Tsqr, CombineFromBytesMatchesCombine) {
  const ops::TSQR peer = local_state(4, 20, 5);
  ops::TSQR a = local_state(5, 20, 5);
  ops::TSQR b = a;
  a.combine(peer);
  b.combine_from_bytes(save_op(peer));
  EXPECT_EQ(save_op(a), save_op(b));
  EXPECT_THROW(b.combine_from_bytes(save_op(local_state(0, 5, 4))),
               ProtocolError);
}

TEST(Tsqr, PanelHooksRoundTripAndValidate) {
  const ops::TSQR src = local_state(6, 30, 7);
  EXPECT_EQ(src.part_extent(), 7u);
  // Column j weighs (j+1) doubles — panels are inherently uneven.
  EXPECT_EQ(src.part_bytes(0, 1), sizeof(double));
  EXPECT_EQ(src.part_bytes(6, 7), 7 * sizeof(double));
  EXPECT_THROW(static_cast<void>(src.part_bytes(3, 2)), ProtocolError);
  EXPECT_THROW(static_cast<void>(src.part_bytes(0, 8)), ProtocolError);

  ops::TSQR dst(7);
  for (std::size_t lo = 0; lo < 7; lo += 3) {  // widths 3,3,1 — odd splits
    const std::size_t hi = std::min<std::size_t>(7, lo + 3);
    bytes::Writer w;
    src.save_part(lo, hi, w);
    EXPECT_EQ(w.size(), src.part_bytes(lo, hi));
    dst.load_part(lo, hi, w.view());
  }
  EXPECT_EQ(save_op(dst), save_op(src));
}

TEST(Tsqr, PanelCombineRejectsOutOfOrderArrival) {
  ops::TSQR into = local_state(7, 12, 4);
  const ops::TSQR peer = local_state(8, 12, 4);
  bytes::Writer tail;
  peer.save_part(2, 4, tail);
  // No session expects column 2: nothing started at column 0.
  EXPECT_THROW(into.combine_part(2, 4, tail.view()), ProtocolError);
  // Size validation.
  bytes::Writer head;
  peer.save_part(0, 2, head);
  EXPECT_THROW(into.combine_part(0, 3, head.view()), ProtocolError);
}

TEST(Tsqr, InterleavedPanelSessionsMatchSequentialCombines) {
  // Two peers stream their panels interleaved column-by-column — the
  // pipelined tree's two-child pattern.  The per-peer sessions must demux
  // and land bitwise on the sequential whole-state combines.
  constexpr std::size_t kCols = 6;
  const ops::TSQR peer_b = local_state(9, 18, kCols);
  const ops::TSQR peer_c = local_state(10, 18, kCols);

  ops::TSQR sequential = local_state(11, 18, kCols);
  ops::TSQR streamed = sequential;
  sequential.combine(peer_b);
  sequential.combine(peer_c);

  for (std::size_t lo = 0; lo < kCols; lo += 2) {
    const std::size_t hi = std::min(kCols, lo + 2);
    for (const ops::TSQR* peer : {&peer_b, &peer_c}) {
      bytes::Writer w;
      peer->save_part(lo, hi, w);
      streamed.combine_part(lo, hi, w.view());
    }
  }
  EXPECT_EQ(save_op(streamed), save_op(sequential));
}

// --- bitwise schedule sweep -------------------------------------------------

/// Benign fault plan (delays, duplicates, reorders, skew — no drops).
SimConfig benign_plan(int p, int variant) {
  SimConfig sim;
  sim.seed = 90000 + 100ull * static_cast<std::uint64_t>(p) +
             static_cast<std::uint64_t>(variant);
  sim.delay_prob = 0.4;
  sim.max_extra_delay_s = 1.5e-5;
  sim.duplicate_prob = 0.4;
  sim.reorder_prob = 0.4;
  sim.max_compute_skew_s = 6e-6;
  return sim;
}

/// Runs `exchange` on every rank (states pre-accumulated — the exchange
/// is the subject) and expects every rank's final bytes to equal the
/// binomial oracle's.
template <typename Exchange>
void expect_bitwise(int p, std::size_t rows_per_rank, std::size_t cols,
                    const SimConfig& sim, const std::string& label,
                    Exchange&& exchange) {
  const auto expected = save_op(binomial_oracle(p, rows_per_rank, cols));
  std::vector<std::vector<std::byte>> got(static_cast<std::size_t>(p));
  mprt::run(
      p,
      [&](Comm& comm) {
        ops::TSQR op = local_state(comm.rank(), rows_per_rank, cols);
        exchange(comm, op);
        got[static_cast<std::size_t>(comm.rank())] = save_op(op);
      },
      mprt::CostModel{}, sim);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], expected)
        << label << " p=" << p << " rank " << r
        << " diverged from the binomial-fold oracle";
  }
}

TEST(TsqrSchedules, EveryScheduleBitIdenticalAcrossMachineSizes) {
  constexpr std::size_t kCols = 5;
  const Schedule schedules[] = {Schedule::kTwoMessage, Schedule::kButterfly,
                                Schedule::kRabenseifner, Schedule::kRing,
                                Schedule::kPipelined};
  for (const int p : {2, 3, 5, 8, 13, 16}) {
    for (const bool faulted : {false, true}) {
      const SimConfig sim = faulted ? benign_plan(p, 1) : SimConfig{};
      // All five schedule names: the dispatch must route every one of
      // them to the order-preserving path for a noncommutative operator.
      for (const Schedule sched : schedules) {
        expect_bitwise(p, 9, kCols, sim,
                       std::string("schedule=") +
                           std::to_string(static_cast<int>(sched)) +
                           (faulted ? " faulted" : ""),
                       [sched](Comm& comm, ops::TSQR& op) {
                         rs::detail::state_allreduce_with_schedule(
                             comm, op, sched, /*segment_bytes=*/24,
                             /*commutative=*/false);
                       });
      }
      // The auto dispatch (env-driven planning path).
      expect_bitwise(p, 9, kCols, sim, faulted ? "auto faulted" : "auto",
                     [](Comm& comm, ops::TSQR& op) {
                       rs::detail::state_allreduce(comm, op);
                     });
    }
  }
}

TEST(TsqrSchedules, PipelinedSegmentSizesBitIdentical) {
  // The streamed column-panel merge must land on the same bits whatever
  // the segment size carves the panels into — single columns, odd panel
  // groups, or the whole state in one message.
  constexpr std::size_t kCols = 6;
  for (const int p : {2, 5, 8}) {
    for (const std::size_t segment_bytes : {std::size_t{8}, std::size_t{24},
                                            std::size_t{56}, std::size_t{4096}}) {
      expect_bitwise(p, 11, kCols, SimConfig{},
                     "pipelined seg=" + std::to_string(segment_bytes),
                     [segment_bytes](Comm& comm, ops::TSQR& op) {
                       rs::detail::state_allreduce_pipelined(comm, op,
                                                             segment_bytes);
                     });
      expect_bitwise(p, 11, kCols, benign_plan(p, 2),
                     "pipelined faulted seg=" + std::to_string(segment_bytes),
                     [segment_bytes](Comm& comm, ops::TSQR& op) {
                       rs::detail::state_allreduce_pipelined(comm, op,
                                                             segment_bytes);
                     });
    }
  }
}

TEST(TsqrSchedules, AsyncMatchesBinomialOracle) {
  constexpr std::size_t kCols = 4;
  for (const int p : {2, 6, 11}) {
    const auto expected = rs::red_result(ambient_oracle(p, 8, kCols));
    std::vector<ops::TsqrResult> got(static_cast<std::size_t>(p));
    mprt::run(p, [&](Comm& comm) {
      std::vector<std::vector<double>> rows;
      for (std::size_t i = 0; i < 8; ++i) {
        rows.push_back(make_row(comm.rank(), i, kCols));
      }
      auto future = rs::reduce_async(comm, rows, ops::TSQR(kCols));
      got[static_cast<std::size_t>(comm.rank())] = future.get();
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(got[static_cast<std::size_t>(r)], expected)
          << "async p=" << p << " rank " << r;
    }
  }
}

// --- numerical oracle -------------------------------------------------------

TEST(TsqrNumerics, MatchesHouseholderWithinTolerance) {
  constexpr int kP = 4;
  struct Shape {
    std::size_t rows_per_rank;
    std::size_t cols;
  };
  for (const Shape shape : {Shape{10, 3}, Shape{25, 5}, Shape{16, 8},
                            Shape{40, 4}}) {
    const std::size_t rows = shape.rows_per_rank * kP;
    const std::size_t cols = shape.cols;
    const double tol = 100.0 * std::numeric_limits<double>::epsilon() *
                       static_cast<double>(cols);

    // The full stacked matrix A, rank-major — the global row order the
    // reduction observes.
    std::vector<double> a;
    a.reserve(rows * cols);
    for (int r = 0; r < kP; ++r) {
      for (std::size_t i = 0; i < shape.rows_per_rank; ++i) {
        const auto row = make_row(r, i, cols);
        a.insert(a.end(), row.begin(), row.end());
      }
    }

    const ops::TsqrResult reduced =
        rs::red_result(binomial_oracle(kP, shape.rows_per_rank, cols));
    const std::vector<double> r_dense = reduced.dense();

    // R vs the serial Householder reference, entry-wise.
    const qr::QrFactors ref = qr::householder_qr(rows, cols, a);
    double max_diff = 0.0;
    double max_mag = 0.0;
    for (std::size_t i = 0; i < cols; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        max_diff = std::max(
            max_diff, std::fabs(r_dense[i * cols + j] - ref.r_entry(i, j)));
        max_mag = std::max(max_mag, std::fabs(ref.r_entry(i, j)));
      }
    }
    EXPECT_LE(max_diff, tol * std::max(1.0, max_mag))
        << "R drift, shape " << rows << "x" << cols;

    // Q manufactured from the reduced R: orthonormal and reconstructing.
    const std::vector<double> q = qr::solve_q(rows, cols, a, r_dense);
    const qr::QrFactors assembled{rows, cols, q, r_dense};
    EXPECT_LE(qr::orthogonality_error(assembled), tol)
        << "orthogonality, shape " << rows << "x" << cols;
    EXPECT_LE(qr::relative_residual(rows, cols, a, q, r_dense), tol)
        << "residual, shape " << rows << "x" << cols;
  }
}

TEST(TsqrNumerics, DistributedBitsEqualOracleBitsThenPassTheGate) {
  // End-to-end: the production reduce at p=6 produces the oracle's exact
  // bytes, and those bytes pass the numerical gate — the same pairing
  // micro_tsqr checks in CI.
  constexpr int kP = 6;
  constexpr std::size_t kRowsPerRank = 20;
  constexpr std::size_t kCols = 5;
  const auto oracle = ambient_oracle(kP, kRowsPerRank, kCols);
  std::vector<std::vector<std::byte>> got(kP);
  mprt::run(kP, [&](Comm& comm) {
    std::vector<std::vector<double>> rows;
    for (std::size_t i = 0; i < kRowsPerRank; ++i) {
      rows.push_back(make_row(comm.rank(), i, kCols));
    }
    const ops::TSQR state = rs::reduce_state(comm, rows, ops::TSQR(kCols));
    got[static_cast<std::size_t>(comm.rank())] = save_op(state);
  });
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(r)], save_op(oracle))
        << "rank " << r;
  }

  std::vector<double> a;
  for (int r = 0; r < kP; ++r) {
    for (std::size_t i = 0; i < kRowsPerRank; ++i) {
      const auto row = make_row(r, i, kCols);
      a.insert(a.end(), row.begin(), row.end());
    }
  }
  const std::vector<double> r_dense = oracle.gen().dense();
  const std::vector<double> q =
      qr::solve_q(kP * kRowsPerRank, kCols, a, r_dense);
  const double tol = 100.0 * std::numeric_limits<double>::epsilon() *
                     static_cast<double>(kCols);
  EXPECT_LE(qr::relative_residual(kP * kRowsPerRank, kCols, a, q, r_dense),
            tol);
}

// --- svc windows ------------------------------------------------------------

TEST(TsqrWindows, NotInvertibleSoWindowsTakeTheTwoStackPath) {
  EXPECT_FALSE(svc::WindowedStream<ops::TSQR>::kInvertible);
  EXPECT_FALSE(rs::InvertibleOp<ops::TSQR>);
}

TEST(TsqrWindows, TumblingWindowsReproduceTheLeftFoldBitwise) {
  // Tumbling windows combine epoch states left-to-right into one running
  // aggregate — for TSQR that is exactly the serial left fold of the
  // epochs' merged states, bitwise.
  constexpr int kP = 2;
  constexpr std::size_t kCols = 4;
  constexpr std::size_t kEpochs = 6;
  constexpr std::size_t kWindow = 3;

  // Expected: per-epoch cross-rank merges (binomial fold at p=2 == the
  // single ordered combine), then the left fold of each window's epochs.
  std::vector<ops::TSQR> epoch_states;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    std::vector<ops::TSQR> per_rank;
    for (int r = 0; r < kP; ++r) {
      per_rank.push_back(local_state(r + static_cast<int>(e) * kP, 7, kCols));
    }
    epoch_states.push_back(verify::binomial_fold(std::move(per_rank)));
  }
  std::vector<std::vector<std::byte>> expected_windows;
  for (std::size_t w = 0; w + kWindow <= kEpochs; w += kWindow) {
    ops::TSQR agg(kCols);
    for (std::size_t e = w; e < w + kWindow; ++e) {
      agg.combine(epoch_states[e]);
    }
    expected_windows.push_back(save_op(agg));
  }

  std::vector<std::vector<std::vector<std::byte>>> emitted(kP);
  mprt::run(kP, [&](Comm& comm) {
    svc::WindowedStream<ops::TSQR> stream(
        comm, ops::TSQR(kCols), svc::WindowConfig{kWindow, 0, true});
    EXPECT_FALSE(stream.uses_inversion());
    for (std::size_t e = 0; e < kEpochs; ++e) {
      auto out = stream.push_state(
          local_state(comm.rank() + static_cast<int>(e) * kP, 7, kCols));
      if (out.has_value()) {
        // Re-pack the emitted TsqrResult as state bytes for comparison.
        ops::TSQR as_state(kCols);
        bytes::Writer w;
        w.put_vector(out->r);
        bytes::Reader rd(w.view());
        as_state.load(rd);
        emitted[static_cast<std::size_t>(comm.rank())].push_back(
            save_op(as_state));
      }
    }
    EXPECT_EQ(stream.windows_emitted(), expected_windows.size());
  });
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(emitted[static_cast<std::size_t>(r)], expected_windows)
        << "rank " << r;
  }
}

TEST(TsqrWindows, SlidingTwoStackWindowsStayNumericallyConsistent) {
  // Sliding windows re-associate the window fold (the two-stack flip
  // builds suffix aggregates), so the bits legitimately differ from the
  // left fold — but every emitted R must still agree numerically.
  constexpr int kP = 2;
  constexpr std::size_t kCols = 3;
  constexpr std::size_t kEpochs = 7;
  constexpr std::size_t kWindow = 3;

  std::vector<ops::TSQR> epoch_states;
  for (std::size_t e = 0; e < kEpochs; ++e) {
    std::vector<ops::TSQR> per_rank;
    for (int r = 0; r < kP; ++r) {
      per_rank.push_back(local_state(r + static_cast<int>(e) * kP, 6, kCols));
    }
    epoch_states.push_back(verify::binomial_fold(std::move(per_rank)));
  }

  std::vector<std::vector<ops::TsqrResult>> emitted(kP);
  mprt::run(kP, [&](Comm& comm) {
    svc::WindowedStream<ops::TSQR> stream(
        comm, ops::TSQR(kCols), svc::WindowConfig{kWindow, 1, true});
    for (std::size_t e = 0; e < kEpochs; ++e) {
      auto out = stream.push_state(
          local_state(comm.rank() + static_cast<int>(e) * kP, 6, kCols));
      if (out.has_value()) {
        emitted[static_cast<std::size_t>(comm.rank())].push_back(*out);
      }
    }
  });

  ASSERT_EQ(emitted[0].size(), kEpochs - kWindow + 1);
  EXPECT_EQ(emitted[0].size(), emitted[1].size());
  for (std::size_t w = 0; w < emitted[0].size(); ++w) {
    ops::TSQR reference(kCols);
    for (std::size_t e = w; e < w + kWindow; ++e) {
      reference.combine(epoch_states[e]);
    }
    const auto expected = reference.gen();
    for (std::size_t j = 0; j < kCols; ++j) {
      for (std::size_t i = 0; i <= j; ++i) {
        EXPECT_NEAR(emitted[0][w].entry(i, j), expected.entry(i, j),
                    1e-9 * (1.0 + std::fabs(expected.entry(i, j))))
            << "window " << w << " entry (" << i << "," << j << ")";
      }
    }
  }
}

}  // namespace
