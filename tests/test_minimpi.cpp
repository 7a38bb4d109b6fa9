// Unit tests for the mini-MPI substrate: point-to-point messaging,
// collectives, Cartesian decomposition and halo exchange.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>

#include "minimpi/cart.hpp"
#include "minimpi/comm.hpp"
#include "minimpi/halo.hpp"

namespace mpi = syclport::mpi;

TEST(Comm, RankAndSize) {
  std::atomic<int> sum{0};
  mpi::run(4, [&](mpi::Comm& c) {
    EXPECT_EQ(c.size(), 4);
    sum.fetch_add(c.rank());
  });
  EXPECT_EQ(sum.load(), 0 + 1 + 2 + 3);
}

TEST(Comm, PingPong) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      int v = 42;
      c.send(1, 7, v);
      int back = 0;
      c.recv(1, 8, back);
      EXPECT_EQ(back, 43);
    } else {
      int v = 0;
      c.recv(0, 7, v);
      v += 1;
      c.send(0, 8, v);
    }
  });
}

TEST(Comm, TagsKeepMessagesApart) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, 111);
      c.send(1, 2, 222);
    } else {
      int b = 0, a = 0;
      c.recv(0, 2, b);  // receive out of send order
      c.recv(0, 1, a);
      EXPECT_EQ(a, 111);
      EXPECT_EQ(b, 222);
    }
  });
}

TEST(Comm, FifoPerSourceAndTag) {
  mpi::run(2, [](mpi::Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.send(1, 5, i);
    } else {
      for (int i = 0; i < 10; ++i) {
        int v = -1;
        c.recv(0, 5, v);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Comm, VectorPayload) {
  mpi::run(2, [](mpi::Comm& c) {
    std::vector<double> data(100);
    if (c.rank() == 0) {
      std::iota(data.begin(), data.end(), 0.0);
      c.send(1, 3, std::span<const double>(data));
    } else {
      c.recv(0, 3, std::span<double>(data));
      for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(data[static_cast<std::size_t>(i)], i);
    }
  });
}

TEST(Comm, SizeMismatchThrows) {
  EXPECT_THROW(mpi::run(2,
                        [](mpi::Comm& c) {
                          if (c.rank() == 0) {
                            int v = 1;
                            c.send(1, 9, v);
                          } else {
                            double d;
                            c.recv(0, 9, d);  // 4 bytes sent, 8 expected
                          }
                        }),
               std::length_error);
}

TEST(Comm, AllreduceSumMinMax) {
  mpi::run(5, [](mpi::Comm& c) {
    const double mine = static_cast<double>(c.rank() + 1);
    EXPECT_DOUBLE_EQ(c.allreduce(mine, mpi::Op::Sum), 15.0);
    EXPECT_DOUBLE_EQ(c.allreduce(mine, mpi::Op::Min), 1.0);
    EXPECT_DOUBLE_EQ(c.allreduce(mine, mpi::Op::Max), 5.0);
  });
}

TEST(Comm, RepeatedCollectivesDoNotInterfere) {
  mpi::run(3, [](mpi::Comm& c) {
    for (int round = 1; round <= 10; ++round) {
      const int s = c.allreduce(round * (c.rank() + 1), mpi::Op::Sum);
      EXPECT_EQ(s, round * 6);
    }
  });
}

TEST(Comm, Allgather) {
  mpi::run(4, [](mpi::Comm& c) {
    auto all = c.allgather(c.rank() * 10);
    ASSERT_EQ(all.size(), 4u);
    for (int r = 0; r < 4; ++r) EXPECT_EQ(all[static_cast<std::size_t>(r)], r * 10);
  });
}

TEST(Comm, BarrierOrdersPhases) {
  std::atomic<int> phase1{0};
  mpi::run(4, [&](mpi::Comm& c) {
    phase1.fetch_add(1);
    c.barrier();
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(Cart, GridCoversAllRanks) {
  for (int n : {1, 2, 6, 8, 12, 64}) {
    std::vector<int> seen;
    for (int r = 0; r < n; ++r) {
      mpi::CartDecomp cart(r, n, 3);
      EXPECT_EQ(cart.grid()[0] * cart.grid()[1] * cart.grid()[2], n);
    }
  }
}

TEST(Cart, NeighbourSymmetry) {
  const int n = 12;
  for (int r = 0; r < n; ++r) {
    mpi::CartDecomp cart(r, n, 2);
    for (int d = 0; d < 2; ++d)
      for (int dir : {-1, 1}) {
        const int nb = cart.neighbour(d, dir);
        if (nb < 0) continue;
        mpi::CartDecomp other(nb, n, 2);
        EXPECT_EQ(other.neighbour(d, -dir), r);
      }
  }
}

TEST(Cart, OwnedRangesPartitionGlobal) {
  const int n = 6;
  const std::size_t global = 100;
  for (int d = 0; d < 2; ++d) {
    std::size_t covered = 0, prev_end = 0;
    // Walk ranks in grid order along dimension d with the others at 0.
    mpi::CartDecomp probe(0, n, 2);
    const int gd = probe.grid()[static_cast<std::size_t>(d)];
    for (int c = 0; c < gd; ++c) {
      // Find a rank with coords[d] == c and other coord 0.
      for (int r = 0; r < n; ++r) {
        mpi::CartDecomp cart(r, n, 2);
        if (cart.coords()[static_cast<std::size_t>(d)] != c) continue;
        if (cart.coords()[static_cast<std::size_t>(1 - d)] != 0) continue;
        auto [b, e] = cart.owned(d, global);
        EXPECT_EQ(b, prev_end);
        prev_end = e;
        covered += e - b;
        break;
      }
    }
    EXPECT_EQ(covered, global);
  }
}

TEST(Halo, ExchangeFillsGhostsWithNeighbourValues2D) {
  // Each rank fills its interior with its rank id; after the exchange,
  // ghost layers must equal the owning neighbour's id.
  const int nranks = 4;
  mpi::run(nranks, [&](mpi::Comm& c) {
    mpi::CartDecomp cart(c.rank(), nranks, 2);
    mpi::LocalField<double> f;
    f.dims = 2;
    f.local = {6, 6, 1};
    f.halo = 2;
    f.allocate();
    for (std::ptrdiff_t i = 0; i < 6; ++i)
      for (std::ptrdiff_t j = 0; j < 6; ++j)
        f.at(i, j) = static_cast<double>(c.rank());

    mpi::exchange_halos(c, cart, f);

    for (int d = 0; d < 2; ++d)
      for (int dir : {-1, 1}) {
        const int nb = cart.neighbour(d, dir);
        if (nb < 0) continue;
        // Probe one ghost point adjacent to the middle of that face.
        std::ptrdiff_t i = 3, j = 3;
        (d == 0 ? i : j) = dir < 0 ? -1 : 6;
        EXPECT_DOUBLE_EQ(f.at(i, j), static_cast<double>(nb))
            << "rank " << c.rank() << " dim " << d << " dir " << dir;
      }
  });
}

TEST(Halo, ThreeDimensionalExchange) {
  const int nranks = 8;
  mpi::run(nranks, [&](mpi::Comm& c) {
    mpi::CartDecomp cart(c.rank(), nranks, 3);
    mpi::LocalField<float> f;
    f.dims = 3;
    f.local = {4, 4, 4};
    f.halo = 1;
    f.allocate();
    for (std::ptrdiff_t i = 0; i < 4; ++i)
      for (std::ptrdiff_t j = 0; j < 4; ++j)
        for (std::ptrdiff_t k = 0; k < 4; ++k)
          f.at(i, j, k) = static_cast<float>(c.rank());
    mpi::exchange_halos(c, cart, f);
    for (int d = 0; d < 3; ++d)
      for (int dir : {-1, 1}) {
        const int nb = cart.neighbour(d, dir);
        if (nb < 0) continue;
        std::ptrdiff_t idx[3] = {2, 2, 2};
        idx[d] = dir < 0 ? -1 : 4;
        EXPECT_FLOAT_EQ(f.at(idx[0], idx[1], idx[2]), static_cast<float>(nb));
      }
  });
}

TEST(Halo, GlobalStencilSumMatchesSerial) {
  // Distributed 1-ring sum over a 2D grid must equal the serial result:
  // the classic halo-coherence property test.
  const std::size_t N = 12;
  std::vector<double> global(N * N);
  for (std::size_t i = 0; i < N * N; ++i)
    global[i] = static_cast<double>((i * 7919) % 101);

  // Serial reference: interior 5-point sums.
  auto ref = [&](std::size_t i, std::size_t j) {
    return global[i * N + j] + global[(i - 1) * N + j] + global[(i + 1) * N + j] +
           global[i * N + j - 1] + global[i * N + j + 1];
  };

  const int nranks = 4;
  std::mutex mu;
  double dist_total = 0.0;
  mpi::run(nranks, [&](mpi::Comm& c) {
    mpi::CartDecomp cart(c.rank(), nranks, 2);
    auto [ib, ie] = cart.owned(0, N);
    auto [jb, je] = cart.owned(1, N);
    mpi::LocalField<double> f;
    f.dims = 2;
    f.local = {ie - ib, je - jb, 1};
    f.halo = 1;
    f.allocate();
    for (std::size_t i = ib; i < ie; ++i)
      for (std::size_t j = jb; j < je; ++j)
        f.at(static_cast<std::ptrdiff_t>(i - ib),
             static_cast<std::ptrdiff_t>(j - jb)) = global[i * N + j];
    mpi::exchange_halos(c, cart, f);

    double local_sum = 0.0;
    for (std::size_t i = std::max<std::size_t>(ib, 1); i < std::min(ie, N - 1); ++i)
      for (std::size_t j = std::max<std::size_t>(jb, 1); j < std::min(je, N - 1); ++j) {
        const auto li = static_cast<std::ptrdiff_t>(i - ib);
        const auto lj = static_cast<std::ptrdiff_t>(j - jb);
        local_sum += f.at(li, lj) + f.at(li - 1, lj) + f.at(li + 1, lj) +
                     f.at(li, lj - 1) + f.at(li, lj + 1);
      }
    const double total = c.allreduce(local_sum, mpi::Op::Sum);
    std::lock_guard lock(mu);
    dist_total = total;
  });

  double serial = 0.0;
  for (std::size_t i = 1; i < N - 1; ++i)
    for (std::size_t j = 1; j < N - 1; ++j) serial += ref(i, j);
  EXPECT_DOUBLE_EQ(dist_total, serial);
}

TEST(Comm, NonBlockingSendRecv) {
  mpi::run(2, [](mpi::Comm& c) {
    std::vector<double> out(16), in(16);
    for (int i = 0; i < 16; ++i) out[static_cast<std::size_t>(i)] = c.rank() * 100.0 + i;
    auto sreq = c.isend(1 - c.rank(), 5, std::span<const double>(out));
    auto rreq = c.irecv(1 - c.rank(), 5, std::span<double>(in));
    EXPECT_TRUE(rreq.pending());
    sreq.wait();
    rreq.wait();
    EXPECT_FALSE(rreq.pending());
    for (int i = 0; i < 16; ++i)
      EXPECT_DOUBLE_EQ(in[static_cast<std::size_t>(i)],
                       (1 - c.rank()) * 100.0 + i);
  });
}

TEST(Comm, WaitallCompletesManyRequests) {
  mpi::run(4, [](mpi::Comm& c) {
    // Ring exchange posted entirely with non-blocking calls.
    const int next = (c.rank() + 1) % 4;
    const int prev = (c.rank() + 3) % 4;
    int out = c.rank() * 7, in = -1;
    std::vector<mpi::Comm::Request> reqs;
    reqs.push_back(c.isend(next, 8, std::span<const int>(&out, 1)));
    reqs.push_back(c.irecv(prev, 8, std::span<int>(&in, 1)));
    mpi::Comm::waitall(reqs);
    EXPECT_EQ(in, prev * 7);
  });
}

TEST(Halo, SplitExchangeOverlapsInteriorMutation) {
  // Begin/finish split: the sends are packed at construction, so
  // mutating the interior between the two phases must not corrupt what
  // the neighbours receive, and finish() must fill the ghosts with the
  // *pre-begin* face values.
  const int nranks = 4;
  const std::size_t ng = 8;
  mpi::run(nranks, [&](mpi::Comm& comm) {
    mpi::CartDecomp cart(comm.rank(), nranks, 2);
    const auto own0 = cart.owned(0, ng);
    const auto own1 = cart.owned(1, ng);
    mpi::LocalField<double> f;
    f.dims = 2;
    f.local = {own0.second - own0.first, own1.second - own1.first, 1};
    f.halo = 1;
    f.allocate();
    auto value = [&](std::ptrdiff_t i, std::ptrdiff_t j) {
      return 100.0 * (static_cast<double>(own0.first) +
                      static_cast<double>(i)) +
             static_cast<double>(own1.first) + static_cast<double>(j);
    };
    for (std::size_t i = 0; i < f.local[0]; ++i)
      for (std::size_t j = 0; j < f.local[1]; ++j)
        f.at(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j)) =
            value(static_cast<std::ptrdiff_t>(i),
                  static_cast<std::ptrdiff_t>(j));

    mpi::HaloExchange<double> ex(comm, cart, f);
    // Overlap window: clobber the whole interior.
    for (std::size_t i = 0; i < f.local[0]; ++i)
      for (std::size_t j = 0; j < f.local[1]; ++j)
        f.at(static_cast<std::ptrdiff_t>(i), static_cast<std::ptrdiff_t>(j)) =
            -999.0;
    ex.finish();

    // Ghosts hold the neighbour's original (pre-begin) face values,
    // which extend the global numbering across the block boundary.
    const auto ni = static_cast<std::ptrdiff_t>(f.local[0]);
    const auto nj = static_cast<std::ptrdiff_t>(f.local[1]);
    if (cart.neighbour(0, -1) >= 0) {
      for (std::ptrdiff_t j = 0; j < nj; ++j)
        EXPECT_DOUBLE_EQ(f.at(-1, j), value(-1, j));
    }
    if (cart.neighbour(0, +1) >= 0) {
      for (std::ptrdiff_t j = 0; j < nj; ++j)
        EXPECT_DOUBLE_EQ(f.at(ni, j), value(ni, j));
    }
    if (cart.neighbour(1, -1) >= 0) {
      for (std::ptrdiff_t i = 0; i < ni; ++i)
        EXPECT_DOUBLE_EQ(f.at(i, -1), value(i, -1));
    }
    if (cart.neighbour(1, +1) >= 0) {
      for (std::ptrdiff_t i = 0; i < ni; ++i)
        EXPECT_DOUBLE_EQ(f.at(i, nj), value(i, nj));
    }
  });
}

TEST(Comm, RunAggregatesMultipleRankFailures) {
  // Two ranks die with unrelated primaries; the others block in a
  // barrier and are released as PeerFailed cascades, which run()
  // filters out before reporting. The aggregate error names each
  // genuinely failing rank.
  try {
    mpi::run(4, [](mpi::Comm& c) {
      if (c.rank() == 0) throw std::runtime_error("rank0 exploded");
      if (c.rank() == 2) throw std::invalid_argument("rank2 exploded");
      c.barrier();
    });
    FAIL() << "expected rank_errors";
  } catch (const mpi::rank_errors& e) {
    ASSERT_EQ(e.entries().size(), 2u);
    EXPECT_EQ(e.entries()[0].rank, 0);
    EXPECT_EQ(e.entries()[1].rank, 2);
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0"), std::string::npos);
    EXPECT_NE(what.find("rank 2"), std::string::npos);
    EXPECT_NE(what.find("rank0 exploded"), std::string::npos);
    EXPECT_NE(what.find("rank2 exploded"), std::string::npos);
    // The per-rank exceptions survive with their original types.
    EXPECT_THROW(std::rethrow_exception(e.entries()[0].error),
                 std::runtime_error);
    EXPECT_THROW(std::rethrow_exception(e.entries()[1].error),
                 std::invalid_argument);
  }
}

TEST(Comm, SingleRankFailureKeepsItsOriginalType) {
  // One genuine failure among blocked peers is rethrown as-is, not
  // wrapped - callers keep their existing catch sites.
  EXPECT_THROW(mpi::run(3,
                        [](mpi::Comm& c) {
                          if (c.rank() == 1)
                            throw std::out_of_range("solo failure");
                          double v = 0.0;
                          c.recv((c.rank() + 1) % 3, 5, v);
                        }),
               std::out_of_range);
}

// A peer that *returns* without sending or reaching the barrier can no
// longer act, just like one that threw: the blocked rank raises
// comm_error(PeerFailed) instead of waiting forever. ctest's TIMEOUT on
// this binary turns a regression into a failure, not a hung job.
TEST(Comm, RecvFromARankThatReturnedRaisesPeerFailed) {
  double first = 0.0;
  try {
    mpi::run(2, [&first](mpi::Comm& c) {
      if (c.rank() == 1) {
        c.send(0, 7, 1.5);  // queued before the return: still delivered
        return;
      }
      c.recv(1, 7, first);
      double never = 0.0;
      c.recv(1, 7, never);
    });
    FAIL() << "expected comm_error";
  } catch (const mpi::comm_error& e) {
    EXPECT_EQ(e.kind(), mpi::comm_error::Kind::PeerFailed) << e.what();
    EXPECT_NE(std::string(e.what()).find("returned"), std::string::npos);
  }
  EXPECT_EQ(first, 1.5);
}

TEST(Comm, BarrierAfterARankReturnedRaisesPeerFailed) {
  try {
    mpi::run(2, [](mpi::Comm& c) {
      if (c.rank() == 0) c.barrier();
    });
    FAIL() << "expected comm_error";
  } catch (const mpi::comm_error& e) {
    EXPECT_EQ(e.kind(), mpi::comm_error::Kind::PeerFailed) << e.what();
  }
}
