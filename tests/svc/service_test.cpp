// Service tests (svc/service.hpp): multi-tenant sharded streams must be
// bit-identical to a serial oracle (sharding and merging are transparent
// for exact commutative operators), and degradation must be per-stream —
// a killed shard retires exactly its streams, a killed ingester costs one
// torn epoch, and surviving streams keep emitting oracle-exact windows.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mprt/runtime.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "svc/service.hpp"
#include "verify/oracle.hpp"

namespace {

using namespace rsmpi;
namespace ops = rs::ops;
using mprt::Comm;
using svc::Event;

/// Deterministic event load: what rank r stages for stream `salt` in
/// epoch e.  Tests regenerate the same events serially for the oracle.
std::vector<Event> load(int rank, int epoch, int salt, int count = 16) {
  std::vector<Event> events;
  events.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const auto key = static_cast<std::uint64_t>(salt * 1'000'000 +
                                                rank * 10'000 + epoch * 100 + i);
    events.push_back(Event{key, static_cast<double>((key * 31 + 7) % 1000)});
  }
  return events;
}

/// Oracle: accumulate every event of `epochs` × `ranks` for one stream
/// into a fresh operator and read the result.  Valid for exact
/// commutative operators, where fold/merge order cannot matter.
template <typename Op, typename Extract>
rs::reduce_result_t<Op> oracle(const Op& prototype, Extract extract,
                               const std::vector<int>& ranks,
                               const std::vector<int>& epochs, int salt) {
  Op agg = prototype;
  for (const int e : epochs) {
    for (const int r : ranks) {
      for (const Event& ev : load(r, e, salt)) agg.accum(extract(ev));
    }
  }
  return rs::red_result(agg);
}

const auto kSumValues = [](const Event& e) {
  return static_cast<long>(e.value);
};
const auto kKeyMod8 = [](const Event& e) {
  return static_cast<int>(e.key % 8);
};
const auto kKeys = [](const Event& e) { return e.key; };
const auto kMinValues = [](const Event& e) { return static_cast<int>(e.value); };

svc::WindowConfig tumbling1() {
  svc::WindowConfig cfg;
  cfg.window_epochs = 1;
  return cfg;
}

svc::WindowConfig sliding(std::size_t w, std::size_t s) {
  svc::WindowConfig cfg;
  cfg.window_epochs = w;
  cfg.slide_epochs = s;
  return cfg;
}

TEST(Service, MultiTenantMatchesSerialOracle) {
  constexpr int kRanks = 8;
  constexpr int kEpochs = 6;
  std::vector<int> all_ranks;
  for (int r = 0; r < kRanks; ++r) all_ranks.push_back(r);
  const std::vector<int> counts_members = {1, 3, 4, 6};
  const std::vector<int> hll_members = {0, 2, 5, 7};
  const std::vector<int> min_members = {2, 3};

  // [rank][epoch] emissions, harvested from inside the run.
  std::vector<std::vector<std::optional<long>>> sum_out(kRanks);
  std::vector<std::vector<std::optional<rs::reduce_result_t<ops::Counts>>>>
      counts_out(kRanks);
  std::vector<std::vector<
      std::optional<rs::reduce_result_t<ops::HyperLogLog<std::uint64_t>>>>>
      hll_out(kRanks);
  std::vector<std::vector<std::optional<int>>> min_out(kRanks);

  mprt::run(kRanks, [&](Comm& comm) {
    svc::Service service(comm);
    auto& sum = service.add_stream("sum", all_ranks, ops::Sum<long>{},
                                   kSumValues, tumbling1());
    auto& counts = service.add_stream("counts", counts_members, ops::Counts(8),
                                      kKeyMod8, tumbling1());
    auto& hll = service.add_stream("hll", hll_members,
                                   ops::HyperLogLog<std::uint64_t>(10), kKeys,
                                   tumbling1());
    auto& min = service.add_stream("min", min_members, ops::Min<int>{},
                                   kMinValues, sliding(3, 1));

    for (int e = 1; e <= kEpochs; ++e) {
      sum.stage(load(comm.rank(), e, /*salt=*/1));
      counts.stage(load(comm.rank(), e, /*salt=*/2));
      hll.stage(load(comm.rank(), e, /*salt=*/3));
      min.stage(load(comm.rank(), e, /*salt=*/4));
      service.step_epoch();
      const auto r = static_cast<std::size_t>(comm.rank());
      sum_out[r].push_back(sum.last_window());
      counts_out[r].push_back(counts.last_window());
      hll_out[r].push_back(hll.last_window());
      min_out[r].push_back(min.last_window());
    }
    EXPECT_EQ(service.epoch(), static_cast<std::uint64_t>(kEpochs));
    EXPECT_EQ(service.stats().degraded_streams(), 0u);
  });

  auto is_member = [](const std::vector<int>& members, int r) {
    for (const int m : members) {
      if (m == r) return true;
    }
    return false;
  };

  for (int r = 0; r < kRanks; ++r) {
    for (int e = 1; e <= kEpochs; ++e) {
      const auto i = static_cast<std::size_t>(e - 1);
      // Tumbling width-1 windows: every member emits the epoch's global
      // aggregate; non-members never emit.
      if (is_member(all_ranks, r)) {
        ASSERT_TRUE(sum_out[r][i].has_value()) << "r=" << r << " e=" << e;
        EXPECT_EQ(*sum_out[r][i],
                  oracle(ops::Sum<long>{}, kSumValues, all_ranks, {e}, 1));
      }
      if (is_member(counts_members, r)) {
        ASSERT_TRUE(counts_out[r][i].has_value());
        EXPECT_EQ(*counts_out[r][i],
                  oracle(ops::Counts(8), kKeyMod8, all_ranks, {e}, 2));
      } else {
        EXPECT_FALSE(counts_out[r][i].has_value());
      }
      if (is_member(hll_members, r)) {
        ASSERT_TRUE(hll_out[r][i].has_value());
        EXPECT_EQ(*hll_out[r][i],
                  oracle(ops::HyperLogLog<std::uint64_t>(10), kKeys, all_ranks,
                         {e}, 3));
      }
      // Sliding W=3 S=1: emissions start at epoch 3 and cover the last
      // three epochs, evicting through the two-stack path (Min is not
      // invertible).
      if (is_member(min_members, r)) {
        ASSERT_EQ(min_out[r][i].has_value(), e >= 3) << "r=" << r << " e=" << e;
        if (e >= 3) {
          EXPECT_EQ(*min_out[r][i], oracle(ops::Min<int>{}, kMinValues,
                                           all_ranks, {e - 2, e - 1, e}, 4));
        }
      }
    }
  }
}

TEST(Service, DeadShardRetiresOnlyItsStreams) {
  constexpr int kRanks = 4;
  constexpr int kEpochs = 5;
  const std::vector<int> hot_members = {0, 1, 2, 3};   // includes the victim
  const std::vector<int> cold_members = {0, 1, 3};     // survives
  const std::vector<int> survivors = {0, 1, 3};

  mprt::SimConfig sim;
  sim.seed = 11;
  sim.kill_rank = 2;
  // Setup is deterministic: each add_stream's split sends p-1 messages
  // per rank and nothing else in setup sends.  Two streams at p=4 means
  // the victim's 7th send is its first epoch-1 routing send.
  sim.kill_after_sends = 2 * (kRanks - 1);

  std::vector<std::vector<std::optional<long>>> cold_out(kRanks);
  std::vector<int> hot_degraded(kRanks, -1);
  std::vector<int> cold_degraded(kRanks, -1);
  std::vector<std::uint64_t> degraded_streams(kRanks, 0);
  std::vector<std::vector<int>> live(kRanks);

  EXPECT_THROW(
      mprt::run(
          kRanks,
          [&](Comm& comm) {
            svc::Service service(comm);
            auto& hot = service.add_stream("hot", hot_members, ops::Sum<long>{},
                                           kSumValues, tumbling1());
            auto& cold = service.add_stream("cold", cold_members,
                                            ops::Sum<long>{}, kSumValues,
                                            tumbling1());
            for (int e = 1; e <= kEpochs; ++e) {
              hot.stage(load(comm.rank(), e, /*salt=*/1));
              cold.stage(load(comm.rank(), e, /*salt=*/2));
              service.step_epoch();
              cold_out[static_cast<std::size_t>(comm.rank())].push_back(
                  cold.last_window());
            }
            const auto r = static_cast<std::size_t>(comm.rank());
            hot_degraded[r] = hot.degraded() ? 1 : 0;
            cold_degraded[r] = cold.degraded() ? 1 : 0;
            degraded_streams[r] = service.stats().degraded_streams();
            live[r] = service.live_sources();
            EXPECT_EQ(hot.windows_emitted(), 0u) << "rank " << comm.rank();
          },
          mprt::CostModel{}, sim),
      RankKilledError);

  for (const int r : survivors) {
    const auto s = static_cast<std::size_t>(r);
    EXPECT_EQ(hot_degraded[s], 1) << "rank " << r;
    EXPECT_EQ(cold_degraded[s], 0) << "rank " << r;
    EXPECT_EQ(degraded_streams[s], 1u) << "rank " << r;
    EXPECT_EQ(live[s], survivors) << "rank " << r;
    ASSERT_EQ(cold_out[s].size(), static_cast<std::size_t>(kEpochs));
    for (int e = 1; e <= kEpochs; ++e) {
      // The victim died before routing anything, so "cold" epochs carry
      // only the survivors' events.  Epoch 1 may be torn (nullopt) on a
      // rank that observed the loss through "cold" itself; afterwards
      // every epoch must emit the exact survivor-side oracle.
      const auto& got = cold_out[s][static_cast<std::size_t>(e - 1)];
      if (e > 1) {
        ASSERT_TRUE(got.has_value()) << "rank " << r << " e=" << e;
      }
      if (got.has_value()) {
        EXPECT_EQ(*got, oracle(ops::Sum<long>{}, kSumValues, survivors, {e}, 2))
            << "rank " << r << " e=" << e;
      }
    }
  }
}

TEST(Service, DeadIngesterCostsOneTornEpoch) {
  constexpr int kRanks = 4;
  constexpr int kEpochs = 5;
  // The victim shards nothing; it sits in the middle of the source order,
  // so members abandon epoch 1 before draining later sources — whose
  // stale epoch-1 batches must then be discarded by the epoch header.
  const std::vector<int> members = {0, 2, 3};
  const std::vector<int> survivors = {0, 2, 3};

  mprt::SimConfig sim;
  sim.seed = 13;
  sim.kill_rank = 1;
  // One add_stream split (p-1 sends per rank) is all of setup; the next
  // send is the victim's first epoch-1 routing send.
  sim.kill_after_sends = kRanks - 1;
  // Peer loss is scoped to the whole group, so the victim must not die
  // before every survivor has finished add_stream's split (which would
  // then rightly throw PeerLostError): each survivor tells it so on a
  // user tag, which adds no send to the victim's count.
  constexpr int kReadyTag = 11;

  std::vector<std::vector<std::optional<long>>> out(kRanks);
  std::vector<int> degraded(kRanks, -1);
  std::vector<std::uint64_t> torn(kRanks, 0);
  std::vector<std::uint64_t> degraded_streams(kRanks, 99);

  EXPECT_THROW(
      mprt::run(
          kRanks,
          [&](Comm& comm) {
            svc::Service service(comm);
            auto& s = service.add_stream("s", members, ops::Sum<long>{},
                                         kSumValues, tumbling1());
            if (comm.rank() == sim.kill_rank) {
              for (const int r : survivors) (void)comm.recv<int>(r, kReadyTag);
            } else {
              comm.send(sim.kill_rank, kReadyTag, 1);
            }
            for (int e = 1; e <= kEpochs; ++e) {
              s.stage(load(comm.rank(), e, /*salt=*/9));
              service.step_epoch();
              out[static_cast<std::size_t>(comm.rank())].push_back(
                  s.last_window());
            }
            const auto r = static_cast<std::size_t>(comm.rank());
            degraded[r] = s.degraded() ? 1 : 0;
            torn[r] = service.stats().streams().at("s").degraded_epochs;
            degraded_streams[r] = service.stats().degraded_streams();
          },
          mprt::CostModel{}, sim),
      RankKilledError);

  for (const int r : survivors) {
    const auto s = static_cast<std::size_t>(r);
    EXPECT_EQ(degraded[s], 0) << "rank " << r;
    EXPECT_EQ(torn[s], 1u) << "rank " << r;
    EXPECT_EQ(degraded_streams[s], 0u) << "rank " << r;
    ASSERT_EQ(out[s].size(), static_cast<std::size_t>(kEpochs))
        << "rank " << r;
    EXPECT_FALSE(out[s][0].has_value()) << "rank " << r;  // torn epoch 1
    for (int e = 2; e <= kEpochs; ++e) {
      const auto& got = out[s][static_cast<std::size_t>(e - 1)];
      ASSERT_TRUE(got.has_value()) << "rank " << r << " e=" << e;
      EXPECT_EQ(*got, oracle(ops::Sum<long>{}, kSumValues, survivors, {e}, 9))
          << "rank " << r << " e=" << e;
    }
  }
}

TEST(Service, DroppedRoutingBatchCostsOneEpoch) {
  constexpr int kRanks = 4;
  constexpr int kEpochs = 5;
  // The source shards nothing, so it sends only routing batches: after the
  // add_stream split (p - 1 messages), one batch per member per epoch, in
  // member order.  Its message 3 + 3 + 1 is the epoch-2 batch to rank 2.
  const std::vector<int> members = {0, 2, 3};
  constexpr int kSource = 1;
  const std::vector<int> all = {0, 1, 2, 3};
  verify::RecordingOracle drop_one(
      kRanks, {},
      verify::FaultPlacement{verify::FaultPlacement::Kind::kDrop, kSource,
                             (kRanks - 1) + members.size() + 1});
  mprt::SimConfig sim;
  sim.oracle = &drop_one;
  svc::ServiceConfig cfg;
  cfg.deadline = mprt::RecvDeadline{0.5, 2, 2.0};

  std::vector<std::vector<std::optional<long>>> out(kRanks);
  std::vector<std::vector<std::uint64_t>> torn(kRanks);
  const auto rr = mprt::run(
      kRanks,
      [&](Comm& comm) {
        svc::Service service(comm, cfg);
        auto& s = service.add_stream("s", members, ops::Sum<long>{},
                                     kSumValues, tumbling1());
        const auto r = static_cast<std::size_t>(comm.rank());
        for (int e = 1; e <= kEpochs; ++e) {
          s.stage(load(comm.rank(), e, /*salt=*/5));
          service.step_epoch();
          if (comm.rank() == kSource) continue;
          out[r].push_back(s.last_window());
          torn[r].push_back(service.stats().streams().at("s").degraded_epochs);
        }
      },
      mprt::CostModel{}, sim);

  // Rank 2 times out on the lost batch and the others in the merge that
  // waits for rank 2: epoch 2 tears on every member.  The timeout ends
  // the mailbox's hold on the source's routing stream, so the epoch-3
  // batch behind the lost one is delivered and every later epoch matches
  // the serial oracle.
  EXPECT_EQ(rr.sim.dropped, 1u);
  EXPECT_EQ(drop_one.messages(kSource),
            (kRanks - 1) + members.size() * kEpochs);  // the count above
  for (const int r : members) {
    const auto m = static_cast<std::size_t>(r);
    ASSERT_EQ(out[m].size(), static_cast<std::size_t>(kEpochs)) << "rank " << r;
    for (int e = 1; e <= kEpochs; ++e) {
      const auto i = static_cast<std::size_t>(e - 1);
      EXPECT_EQ(torn[m][i], e < 2 ? 0u : 1u) << "rank " << r << " e=" << e;
      if (e == 2) continue;
      ASSERT_TRUE(out[m][i].has_value()) << "rank " << r << " e=" << e;
      EXPECT_EQ(*out[m][i], oracle(ops::Sum<long>{}, kSumValues, all, {e}, 5))
          << "rank " << r << " e=" << e;
    }
  }
}

TEST(Service, WarmEpochsDoNotPlanOrAllocate) {
  mprt::run(4, [](Comm& comm) {
    svc::Service service(comm);
    auto& s = service.add_stream("w", std::vector<int>{0, 1, 2, 3},
                                 ops::Counts(8), kKeyMod8, tumbling1());
    auto run_epoch = [&](int e) {
      s.stage(load(comm.rank(), e, /*salt=*/5, /*count=*/64));
      service.step_epoch();
    };
    for (int e = 1; e <= 4; ++e) run_epoch(e);  // warm-up
    const std::uint64_t allocs = comm.payload_allocs();
    const std::uint64_t autotunes = comm.autotune_invocations();
    const std::int64_t tags = comm.collective_tags_consumed();
    for (int e = 5; e <= 24; ++e) run_epoch(e);
    EXPECT_EQ(comm.payload_allocs(), allocs) << "warm epochs heap-allocated";
    EXPECT_EQ(comm.autotune_invocations(), autotunes);
    EXPECT_EQ(comm.collective_tags_consumed(), tags);
  });
}

// Staging holds one batch open per member of every stream, so the pool
// must retain buffers for all streams together, not one stream's fan-in.
// Hot keys skew the batches, their sizes change between epochs, and every
// rank sends one empty batch per stream and epoch — to a member that
// rotates, so that every rank also receives one and the buffers that
// migrate with the batches balance out.
TEST(Service, WarmEpochsWithSeveralStreamsDoNotAllocate) {
  constexpr int kRanks = 8;
  constexpr int kStreams = 4;
  std::vector<int> all_ranks;
  for (int r = 0; r < kRanks; ++r) all_ranks.push_back(r);
  // What rank r stages for stream s in epoch e: every other event carries
  // one of three hot keys, and no key belongs to member (r + e) % 8.
  const auto skewed = [](int rank, int epoch, int s) {
    const auto count = static_cast<std::size_t>(200 + 120 * (epoch % 3));
    const int skip = (rank + epoch) % kRanks;
    const auto base = static_cast<std::uint64_t>(s * 1'000'000 + rank * 10'000);
    std::vector<Event> events;
    for (std::uint64_t i = 0; events.size() < count; ++i) {
      const std::uint64_t key = i % 2 == 0 ? base + 9'000 + i % 3 : base + i;
      if (svc::HashShard{}(key, kRanks) != skip) {
        events.push_back(Event{key, static_cast<double>(i % 100)});
      }
    }
    return events;
  };
  mprt::run(kRanks, [&](Comm& comm) {
    svc::Service service(comm);
    std::vector<svc::StreamBase*> streams;
    for (int s = 0; s < kStreams; ++s) {
      streams.push_back(&service.add_stream("s" + std::to_string(s), all_ranks,
                                            ops::Sum<long>{}, kSumValues,
                                            tumbling1()));
    }
    auto run_epoch = [&](int e) {
      for (int s = 0; s < kStreams; ++s) {
        streams[static_cast<std::size_t>(s)]->stage(skewed(comm.rank(), e, s));
      }
      service.step_epoch();
    };
    for (int e = 1; e <= 6; ++e) run_epoch(e);  // warm-up
    const std::uint64_t allocs = comm.payload_allocs();
    for (int e = 7; e <= 30; ++e) run_epoch(e);
    EXPECT_EQ(comm.payload_allocs(), allocs) << "warm epochs heap-allocated";
    EXPECT_EQ(service.stats().degraded_streams(), 0u);
  });
}

// Routing keeps each rank's staging order within a batch, whether events
// arrive one by one or as spans, so a noncommutative stream folds the
// concatenation in (member, source rank, staging order).
TEST(Service, StagingOrderIsKeptPerSourceAndMember) {
  constexpr int kRanks = 4;
  constexpr int kEpochs = 3;
  const std::vector<int> members = {0, 1, 2, 3};
  const auto letter = [](const Event& e) { return static_cast<char>(e.value); };
  // Rank r's events of epoch e, in staging order: enough that some
  // member's batch outgrows its first buffer.
  const auto events_of = [](int rank, int epoch) {
    std::vector<Event> events;
    for (int i = 0; i < 300 + 40 * epoch; ++i) {
      const auto key = static_cast<std::uint64_t>(rank * 100'000 + epoch * 1'000 + i);
      events.push_back(
          Event{key, static_cast<double>(33 + (rank * 31 + i * 7 + epoch) % 90)});
    }
    return events;
  };
  std::vector<std::vector<std::optional<std::string>>> out(kRanks);
  mprt::run(kRanks, [&](Comm& comm) {
    svc::Service service(comm);
    auto& s = service.add_stream("concat", members, ops::Concat{}, letter,
                                 tumbling1());
    for (int e = 1; e <= kEpochs; ++e) {
      const std::vector<Event> events = events_of(comm.rank(), e);
      // Alternate one event with a span of 1, 2, ... 9 events.
      std::size_t i = 0;
      for (std::size_t n = 1; i < events.size(); n = n % 9 + 1) {
        s.stage(events[i++]);
        const std::size_t len = std::min(n, events.size() - i);
        s.stage(std::span<const Event>(events).subspan(i, len));
        i += len;
      }
      service.step_epoch();
      out[static_cast<std::size_t>(comm.rank())].push_back(s.last_window());
    }
  });

  for (int e = 1; e <= kEpochs; ++e) {
    std::string want;
    for (int m = 0; m < static_cast<int>(members.size()); ++m) {
      for (int r = 0; r < kRanks; ++r) {
        for (const Event& ev : events_of(r, e)) {
          if (svc::HashShard{}(ev.key, static_cast<int>(members.size())) == m) {
            want.push_back(letter(ev));
          }
        }
      }
    }
    for (int r = 0; r < kRanks; ++r) {
      const auto& got = out[static_cast<std::size_t>(r)][static_cast<std::size_t>(e - 1)];
      ASSERT_TRUE(got.has_value()) << "rank " << r << " e=" << e;
      EXPECT_EQ(*got, want) << "rank " << r << " e=" << e;
    }
  }
}

// The default map is splitmix64(key) % n for every shard count, including
// the powers of two it reduces with a mask.
TEST(Service, DefaultShardMapIsSplitmixModulo) {
  std::vector<std::uint64_t> keys = {0, ~std::uint64_t{0}};
  std::uint64_t x = 2024;
  for (int i = 0; i < 1000; ++i) keys.push_back(x = mprt::splitmix64(x));
  std::vector<int> counts;
  for (int n = 1; n <= 17; ++n) counts.push_back(n);
  for (const int n : {31, 64, 100, 256, 4096}) counts.push_back(n);
  for (const int n : counts) {
    for (const std::uint64_t key : keys) {
      ASSERT_EQ(svc::HashShard{}(key, n),
                static_cast<int>(mprt::splitmix64(key) %
                                 static_cast<std::uint64_t>(n)))
          << "key " << key << " n " << n;
    }
  }
}

// A custom map's answer is range-checked where the event is routed: in
// stage.  Events staged before the bad one still reach their shard.
TEST(Service, CustomShardMapOutOfRangeThrowsFromStage) {
  constexpr std::uint64_t kTooHigh = 7;
  constexpr std::uint64_t kNegative = 8;
  std::vector<std::optional<long>> out(2);
  mprt::run(2, [&](Comm& comm) {
    svc::Service service(comm);
    auto& s = service.add_stream(
        "custom", std::vector<int>{0, 1}, ops::Sum<long>{}, kSumValues,
        tumbling1(), svc::ShardMap([](std::uint64_t key, int n) {
          if (key == kTooHigh) return n;
          if (key == kNegative) return -1;
          return static_cast<int>(key % 2);
        }));
    s.stage(Event{1, 5.0});
    EXPECT_THROW(s.stage(Event{kTooHigh, 100.0}), ArgumentError);
    const std::vector<Event> span = {{2, 1.0}, {kNegative, 100.0}};
    EXPECT_THROW(s.stage(span), ArgumentError);
    service.step_epoch();
    out[static_cast<std::size_t>(comm.rank())] = s.last_window();
  });
  for (const auto& got : out) {
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, 2 * (5 + 1));
  }
}

TEST(Service, PublishSurfacesAggregateUserStats) {
  constexpr int kRanks = 4;
  constexpr int kEpochs = 3;
  constexpr int kEventsPerRank = 16;
  const auto result = mprt::run(kRanks, [&](Comm& comm) {
    svc::Service service(comm);
    auto& s = service.add_stream("pub", std::vector<int>{0, 1, 2, 3},
                                 ops::Sum<long>{}, kSumValues, tumbling1());
    for (int e = 1; e <= kEpochs; ++e) {
      s.stage(load(comm.rank(), e, /*salt=*/6, kEventsPerRank));
      service.step_epoch();
    }
    const std::string json = service.stats_json();
    EXPECT_NE(json.find("\"pub\""), std::string::npos);
    EXPECT_NE(json.find("\"mprt.pool_hits\""), std::string::npos);
    service.publish();
  });

  // Every member records each epoch once; every event is folded by
  // exactly one shard, so the summed event total is the global ingest.
  EXPECT_EQ(result.user_stats.at("svc.epochs"),
            static_cast<double>(kRanks * kEpochs));
  EXPECT_EQ(result.user_stats.at("svc.events"),
            static_cast<double>(kRanks * kEpochs * kEventsPerRank));
  EXPECT_EQ(result.user_stats.at("svc.windows"),
            static_cast<double>(kRanks * kEpochs));
  EXPECT_EQ(result.user_stats.at("svc.degraded_streams"), 0.0);
}

TEST(Service, RejectsBadMembers) {
  mprt::run(2, [](Comm& comm) {
    svc::Service service(comm);
    EXPECT_THROW(service.add_stream("bad", std::vector<int>{},
                                    ops::Sum<long>{}, kSumValues),
                 ArgumentError);
    EXPECT_THROW(service.add_stream("bad", std::vector<int>{1, 0},
                                    ops::Sum<long>{}, kSumValues),
                 ArgumentError);
    EXPECT_THROW(service.add_stream("bad", std::vector<int>{0, 7},
                                    ops::Sum<long>{}, kSumValues),
                 ArgumentError);
  });
}

}  // namespace
