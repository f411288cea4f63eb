// paper_kernels: the paper's own case studies plus its headline scan, on
// NAS class B at p = 2 rank threads, each with a 2-wide par pool.
//
// One iteration: IS verification (Sorted reduce over the bucket-sorted
// keys), IS ranking (the 2 MiB aggregated histogram allreduce), MG ZRAN3
// (TopBottomK over the 96^3 grid) and a Counts(256) scan over the sorted
// keys' buckets (Listing 6).  NPB's fixed generator makes the inputs, so
// the seed does not change them.
#include <algorithm>
#include <cstdlib>
#include <ranges>

#include "mprt/runtime.hpp"
#include "nas/is.hpp"
#include "nas/mg.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rs/serial.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace rsmpi;

constexpr nas::ProblemClass kClass = nas::ProblemClass::B;
constexpr int kRanks = 2;
constexpr int kScanBuckets = 256;
constexpr int kSetups = 3;

struct Oracle {
  bool sorted = false;
  /// Exclusive prefix of the global key histogram: the rank of every value.
  std::vector<std::int64_t> rank_of_value;
  /// Inclusive Counts scan over the buckets of the globally sorted keys.
  std::vector<long> bucket_scan;
  nas::MgCharges charges;
};

int bucket_of(nas::Key key, std::int64_t max_key) {
  return static_cast<int>(static_cast<std::int64_t>(key) * kScanBuckets /
                          max_key);
}

auto located(const std::vector<double>& values, std::int64_t base) {
  return std::views::iota(std::size_t{0}, values.size()) |
         std::views::transform([&values, base](std::size_t i) {
           return rs::ops::Located<double, std::int64_t>{
               values[i], base + static_cast<std::int64_t>(i)};
         });
}

/// Serial oracle over the whole key sequence and grid (generated on one
/// rank: NPB's generators are independent of the rank count).
Oracle make_oracle(nas::IsParams is, nas::MgParams mg) {
  std::vector<nas::Key> keys;
  nas::MgGrid grid;
  mprt::run(1, [&](mprt::Comm& comm) {
    keys = nas::is_generate_keys(comm, is);
    grid = nas::mg_fill_grid(comm, mg);
  });
  Oracle o;
  std::vector<std::int64_t> hist(static_cast<std::size_t>(is.max_key), 0);
  for (const nas::Key k : keys) hist[static_cast<std::size_t>(k)] += 1;
  o.rank_of_value = rs::serial::xscan(hist, rs::ops::Sum<std::int64_t>{});
  std::sort(keys.begin(), keys.end());
  o.sorted = rs::serial::reduce(keys, rs::ops::Sorted<nas::Key>{});
  std::vector<int> buckets(keys.size());
  std::ranges::transform(keys, buckets.begin(), [&](nas::Key k) {
    return bucket_of(k, is.max_key);
  });
  o.bucket_scan = rs::serial::scan(buckets, rs::ops::Counts(kScanBuckets));
  const auto top = rs::serial::reduce(
      located(grid.values, 0), rs::ops::TopBottomK<double, std::int64_t>(10));
  for (const auto& c : top.largest) o.charges.positive.push_back(c.index);
  for (const auto& c : top.smallest) o.charges.negative.push_back(c.index);
  return o;
}

}  // namespace

void paper_kernels(const Options& opt, Outcome& out) {
  ::setenv("RSMPI_LOCAL_THREADS", "2", 1);
  const nas::IsParams is = nas::is_params(kClass);
  const nas::MgParams mg = nas::mg_params(kClass);
  const Oracle oracle = make_oracle(is, mg);

  Loop& loop = out.loop;
  if (opt.trace) {
    out.trace = std::make_unique<Trace>(kRanks);
    loop.trace = out.trace.get();
  }
  out.items_per_iter = 3.0 * static_cast<double>(is.total_keys) +
                       static_cast<double>(mg.nx) * mg.ny * mg.nz;
  mprt::CostModel model;
  model.compute_scale = 0.0;

  const auto body = [&](mprt::Comm& comm) {
    enter_rank(loop, comm);
    const int rank = comm.rank();
    const std::int64_t setup_id = -(loop.run_index + 1);
    std::vector<nas::Key> keys, sorted;
    nas::MgGrid grid;
    {
      SpanScope s(loop.trace, rank, "nas.is_generate", setup_id);
      keys = nas::is_generate_keys(comm, is);
    }
    {
      SpanScope s(loop.trace, rank, "nas.is_sort", setup_id);
      sorted = nas::is_bucket_sort(comm, keys, is);
    }
    {
      SpanScope s(loop.trace, rank, "nas.mg_fill", setup_id);
      grid = nas::mg_fill_grid(comm, mg);
    }
    std::vector<int> buckets(sorted.size());
    std::ranges::transform(sorted, buckets.begin(), [&](nas::Key k) {
      return bucket_of(k, is.max_key);
    });
    const long slice = static_cast<long>(sorted.size());
    const long offset =
        rs::xscan_state(comm, std::views::single(slice), rs::ops::Sum<long>{})
            .gen();

    bool verified = false;
    std::vector<std::int64_t> ranks;
    nas::MgCharges charges;
    std::vector<long> scanned;
    const auto work = [&](std::int64_t id) {
      Trace* t = id >= 0 ? loop.trace : nullptr;
      {
        SpanScope s(t, rank, "nas.is_verify", id);
        verified = nas::is_verify_rsmpi(comm, sorted);
      }
      {
        SpanScope s(t, rank, "nas.is_rank", id);
        ranks = nas::is_rank_keys(comm, keys, is);
      }
      {
        SpanScope s(t, rank, "nas.mg_zran3", id);
        charges = nas::mg_zran3_rsmpi(comm, grid);
      }
      {
        SpanScope s(t, rank, "rs.scan_counts", id);
        scanned = rs::scan(comm, buckets, rs::ops::Counts(kScanBuckets));
      }
    };
    const auto check = [&]() -> long {
      long bad = verified != oracle.sorted ? 1 : 0;
      bool ranks_ok = ranks.size() == keys.size();
      for (std::size_t i = 0; ranks_ok && i < keys.size(); ++i) {
        ranks_ok = ranks[i] ==
                   oracle.rank_of_value[static_cast<std::size_t>(keys[i])];
      }
      bad += ranks_ok ? 0 : 1;
      bad += charges.positive == oracle.charges.positive &&
                     charges.negative == oracle.charges.negative
                 ? 0
                 : 1;
      const bool slice_fits =
          offset >= 0 && scanned.size() == buckets.size() &&
          static_cast<std::size_t>(offset) + scanned.size() <=
              oracle.bucket_scan.size();
      bad += slice_fits && std::equal(scanned.begin(), scanned.end(),
                                      oracle.bucket_scan.begin() + offset)
                 ? 0
                 : 1;
      return bad;
    };
    closed_loop(loop, comm, work, check);
    leave_rank(loop, comm);
  };

  // The timed run, then more set-ups (launch, generation, sort, fill,
  // warm-up) for the set-up median.
  run_workload(loop, kRanks, kSetups, body, model, mprt::ExecPolicy{0});

  if (loop.trace != nullptr) {
    const Trace& t = *loop.trace;
    out.layer["nas.is_verify_ms"] = t.call_median_s("nas.is_verify") * 1e3;
    out.layer["nas.is_rank_ms"] = t.call_median_s("nas.is_rank") * 1e3;
    out.layer["nas.mg_zran3_ms"] = t.call_median_s("nas.mg_zran3") * 1e3;
    out.layer["nas.is_generate_ms"] = t.setup_median_s("nas.is_generate") * 1e3;
    out.layer["nas.is_sort_ms"] = t.setup_median_s("nas.is_sort") * 1e3;
    out.layer["nas.mg_fill_ms"] = t.setup_median_s("nas.mg_fill") * 1e3;
    out.layer["rs.scan_counts_ms"] = t.call_median_s("rs.scan_counts") * 1e3;
  }
}

}  // namespace perfbench
