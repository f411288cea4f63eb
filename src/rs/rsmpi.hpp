// Convenience umbrella for the whole public API:
//
//   #include "rs/rsmpi.hpp"
//
//   rsmpi::mprt::run(8, [](rsmpi::mprt::Comm& comm) {
//     std::vector<int> mine = my_slice(comm.rank());
//     auto mins = rsmpi::rs::reduce(comm, mine, rsmpi::rs::ops::MinK<int>(10));
//     auto ranks = rsmpi::rs::scan(comm, octants, rsmpi::rs::ops::Counts(8));
//   });
#pragma once

#include "coll/barrier.hpp"
#include "coll/bcast.hpp"
#include "coll/gather.hpp"
#include "coll/local_reduce.hpp"
#include "coll/local_scan.hpp"
#include "coll/nb/iallreduce.hpp"
#include "coll/nb/ibarrier.hpp"
#include "coll/nb/ibcast.hpp"
#include "coll/nb/progress.hpp"
#include "coll/nb/request.hpp"
#include "coll/persistent.hpp"
#include "dist/block_array.hpp"
#include "dist/block_matrix.hpp"
#include "mprt/comm.hpp"
#include "mprt/runtime.hpp"
#include "rs/algos/compact.hpp"
#include "rs/algos/radix_sort.hpp"
#include "rs/algos/rle.hpp"
#include "rsmpi_c/rsmpi_c.hpp"
#include "rs/async.hpp"
#include "rs/op_concepts.hpp"
#include "rs/ops/ops.hpp"
#include "rs/reduce.hpp"
#include "rs/scan.hpp"
#include "rs/serial.hpp"
#include "svc/svc.hpp"
