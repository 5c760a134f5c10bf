// Message-passing substrate: p2p ordering, barriers, ring collectives,
// error propagation.
#include <gtest/gtest.h>

#include <atomic>

#include "comm/world.h"
#include "tensor/ops.h"

namespace helix::comm {
namespace {

using tensor::Tensor;

Tensor constant(float v, tensor::i64 n = 4) {
  Tensor t({n});
  for (tensor::i64 i = 0; i < n; ++i) t[i] = v;
  return t;
}

TEST(World, PingPong) {
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send(1, 7, {constant(3.5f)});
      const Message back = ep.recv(1, 8);
      EXPECT_FLOAT_EQ(back[0][0], 4.5f);
    } else {
      Message m = ep.recv(0, 7);
      m[0][0] += 1.0f;
      for (tensor::i64 i = 1; i < m[0].numel(); ++i) m[0][i] += 1.0f;
      ep.send(0, 8, std::move(m));
    }
  });
}

TEST(World, TagsKeepMessagesApart) {
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      // Send out of tag order; receiver picks by tag.
      ep.send(1, 2, {constant(2.0f)});
      ep.send(1, 1, {constant(1.0f)});
    } else {
      EXPECT_FLOAT_EQ(ep.recv(0, 1)[0][0], 1.0f);
      EXPECT_FLOAT_EQ(ep.recv(0, 2)[0][0], 2.0f);
    }
  });
}

TEST(World, SameTagIsFifo) {
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      for (int i = 0; i < 5; ++i) ep.send(1, 9, {constant(static_cast<float>(i))});
    } else {
      for (int i = 0; i < 5; ++i) {
        EXPECT_FLOAT_EQ(ep.recv(0, 9)[0][0], static_cast<float>(i));
      }
    }
  });
}

TEST(World, BarrierSynchronizes) {
  World w(4);
  std::atomic<int> before{0};
  std::atomic<bool> violated{false};
  w.run([&](Endpoint& ep) {
    before.fetch_add(1);
    ep.barrier();
    if (before.load() != 4) violated.store(true);
    ep.barrier();
  });
  EXPECT_FALSE(violated.load());
}

TEST(World, AllReduceSums) {
  for (const int n : {1, 2, 3, 5}) {
    World w(n);
    w.run([&](Endpoint& ep) {
      const Tensor total =
          ep.all_reduce_sum(constant(static_cast<float>(ep.rank() + 1)), 100);
      const float expected = static_cast<float>(n * (n + 1) / 2);
      for (tensor::i64 i = 0; i < total.numel(); ++i) {
        EXPECT_FLOAT_EQ(total[i], expected) << "world " << n;
      }
    });
  }
}

TEST(World, AllGatherOrdersByRank) {
  World w(3);
  w.run([](Endpoint& ep) {
    const auto all = ep.all_gather(constant(static_cast<float>(ep.rank() * 10)), 200);
    ASSERT_EQ(all.size(), 3u);
    for (int r = 0; r < 3; ++r) {
      EXPECT_FLOAT_EQ(all[static_cast<std::size_t>(r)][0], static_cast<float>(r * 10));
    }
  });
}

TEST(World, PropagatesRankExceptions) {
  World w(2);
  EXPECT_THROW(w.run([](Endpoint& ep) {
    if (ep.rank() == 1) throw std::runtime_error("boom");
    // Rank 0 must not deadlock waiting: it does no recv.
  }),
               std::runtime_error);
}

TEST(World, PoisonOnRankFailureUnblocksPeers) {
  // Regression: a throwing rank used to leave peers blocked in recv/barrier
  // forever, hanging run() at join. Now the failure poisons the world: the
  // blocked survivors are woken with WorldAborted and the ORIGINAL
  // exception is rethrown.
  World w(3);
  std::atomic<int> aborted{0};
  try {
    w.run([&](Endpoint& ep) {
      if (ep.rank() == 0) throw std::runtime_error("boom");
      try {
        if (ep.rank() == 1) {
          (void)ep.recv(0, 7);  // rank 0 will never send
        } else {
          ep.barrier();  // rank 0 will never arrive
        }
      } catch (const WorldAborted&) {
        aborted.fetch_add(1);
        throw;
      }
    });
    FAIL() << "run() must rethrow";
  } catch (const WorldAborted&) {
    FAIL() << "run() rethrew a secondary abort instead of the original error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(aborted.load(), 2);
}

TEST(World, FailureWakesRankThatBlocksAfterPoisoning) {
  // The straggler only enters its recv after the world is already poisoned;
  // it must still be refused, not parked forever.
  World w(2);
  try {
    w.run([&](Endpoint& ep) {
      if (ep.rank() == 0) throw std::invalid_argument("early");
      EXPECT_THROW((void)ep.recv(0, 1), WorldAborted);
      EXPECT_THROW(ep.barrier(), WorldAborted);
    });
    FAIL() << "run() must rethrow";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "early");
  }
}

TEST(World, ReusableAfterAbortedRun) {
  World w(2);
  EXPECT_THROW(w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send(1, 5, {constant(9.0f)});  // stranded: rank 1 dies first
      throw std::runtime_error("boom");
    }
    throw std::runtime_error("boom");
  }),
               std::runtime_error);
  // The next run starts unpoisoned with empty mailboxes: the stranded tag-5
  // message must be gone, and normal traffic flows again.
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) ep.send(1, 5, {constant(1.0f)});
    if (ep.rank() == 1) {
      EXPECT_FLOAT_EQ(ep.recv(0, 5)[0][0], 1.0f);
    }
    ep.barrier();
  });
}

TEST(World, RejectsBadRanks) {
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      EXPECT_THROW(ep.send(5, 1, {}), std::out_of_range);
      EXPECT_THROW(ep.recv(-1, 1), std::out_of_range);
    }
  });
  EXPECT_THROW(World(0), std::invalid_argument);
}

TEST(World, MetricsCountBytesWaitsAndQueueDepth) {
  World w(2);
  std::vector<obs::CommMetrics> shards(2);
  w.set_metrics(shards.data());
  const std::int64_t payload = 4 * static_cast<std::int64_t>(sizeof(float));
  w.run([&](Endpoint& ep) {
    if (ep.rank() == 0) {
      // Three queued before the receiver looks: builds mailbox backlog.
      for (int i = 0; i < 3; ++i) ep.send(1, 100 + i, {constant(1.0f)});
      ep.barrier();
    } else {
      ep.barrier();  // ensure all three are queued -> depth high-water 3
      for (int i = 0; i < 3; ++i) (void)ep.recv(0, 100 + i);
      // A recv that must block: rank 0 already left its sends behind, so
      // this send happens after a rendezvous round-trip.
      ep.send(0, 200, {constant(2.0f)});
    }
    if (ep.rank() == 0) (void)ep.recv(1, 200);
  });
  EXPECT_EQ(shards[0].messages_sent.value, 3);
  EXPECT_EQ(shards[0].bytes_sent.value, 3 * payload);
  EXPECT_EQ(shards[0].messages_received.value, 1);
  EXPECT_EQ(shards[0].bytes_received.value, payload);
  EXPECT_EQ(shards[1].messages_received.value, 3);
  EXPECT_EQ(shards[1].bytes_received.value, 3 * payload);
  EXPECT_EQ(shards[1].mailbox_depth.high_water, 3);
  EXPECT_EQ(shards[1].mailbox_depth.value, 0);  // drained
  // Every recv is histogram-accounted, blocked or not.
  EXPECT_EQ(shards[0].recv_wait_hist.count, 1);
  EXPECT_EQ(shards[1].recv_wait_hist.count, 3);
  EXPECT_GE(shards[0].barrier_wait_ns.value, 0);
  EXPECT_GE(shards[1].barrier_wait_ns.value, 0);
}

TEST(World, MetricsTimeCollectives) {
  World w(2);
  std::vector<obs::CommMetrics> shards(2);
  w.set_metrics(shards.data());
  w.run([&](Endpoint& ep) {
    const Tensor sum = ep.all_reduce_sum(constant(static_cast<float>(ep.rank() + 1)), 1000);
    EXPECT_FLOAT_EQ(sum[0], 3.0f);
    (void)ep.all_gather(constant(1.0f), 2000);
  });
  for (int r = 0; r < 2; ++r) {
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].collectives.value, 2);
    EXPECT_GT(shards[static_cast<std::size_t>(r)].collective_ns.value, 0);
    EXPECT_GT(shards[static_cast<std::size_t>(r)].bytes_sent.value, 0);
  }
}

TEST(World, RingAllReduceSendsBalancedNeighbourMessages) {
  // DESIGN.md §2 documents ring collectives: 2(n-1) messages per rank of
  // ~numel/n elements, identical on EVERY rank — no rank-0 broadcast hot
  // spot. numel = 8 over n = 4 splits into 4 blocks of 2 elements.
  const int n = 4;
  World w(n);
  std::vector<obs::CommMetrics> shards(static_cast<std::size_t>(n));
  w.set_metrics(shards.data());
  w.run([&](Endpoint& ep) {
    const Tensor total =
        ep.all_reduce_sum(constant(static_cast<float>(ep.rank() + 1), 8), 100);
    for (tensor::i64 i = 0; i < total.numel(); ++i) {
      EXPECT_FLOAT_EQ(total[i], 10.0f);
    }
  });
  const std::int64_t block_bytes = 2 * static_cast<std::int64_t>(sizeof(float));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].messages_sent.value, 2 * (n - 1))
        << "rank " << r;
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].messages_received.value, 2 * (n - 1))
        << "rank " << r;
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].bytes_sent.value,
              2 * (n - 1) * block_bytes)
        << "rank " << r;
  }
}

TEST(World, RingAllReduceSkipsEmptyBlocksWhenTensorIsTiny) {
  // numel = 2 over n = 5: three blocks are empty, so fewer than 2(n-1)
  // messages move — but the sum is still correct on every rank.
  const int n = 5;
  World w(n);
  std::vector<obs::CommMetrics> shards(static_cast<std::size_t>(n));
  w.set_metrics(shards.data());
  w.run([&](Endpoint& ep) {
    const Tensor total =
        ep.all_reduce_sum(constant(static_cast<float>(ep.rank() + 1), 2), 100);
    for (tensor::i64 i = 0; i < total.numel(); ++i) {
      EXPECT_FLOAT_EQ(total[i], 15.0f);
    }
  });
  std::int64_t sent = 0;
  for (int r = 0; r < n; ++r) {
    sent += shards[static_cast<std::size_t>(r)].messages_sent.value;
    EXPECT_LT(shards[static_cast<std::size_t>(r)].messages_sent.value, 2 * (n - 1));
  }
  // Each of the 2 non-empty blocks travels n-1 hops per phase.
  EXPECT_EQ(sent, 2 * 2 * (n - 1));
}

TEST(World, RingAllGatherForwardsAlongTheRing) {
  // n-1 neighbour messages per rank, each of the local tensor's size.
  const int n = 4;
  World w(n);
  std::vector<obs::CommMetrics> shards(static_cast<std::size_t>(n));
  w.set_metrics(shards.data());
  w.run([&](Endpoint& ep) {
    const auto all = ep.all_gather(constant(static_cast<float>(ep.rank()), 6), 300);
    for (int r = 0; r < n; ++r) {
      EXPECT_FLOAT_EQ(all[static_cast<std::size_t>(r)][0], static_cast<float>(r));
    }
  });
  const std::int64_t payload = 6 * static_cast<std::int64_t>(sizeof(float));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].messages_sent.value, n - 1);
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].bytes_sent.value, (n - 1) * payload);
  }
}

TEST(World, RingReduceScatterSumsSegmentsWithNeighbourTraffic) {
  const int n = 4;
  const tensor::i64 rows = 8, cols = 3;
  World w(n);
  std::vector<obs::CommMetrics> shards(static_cast<std::size_t>(n));
  w.set_metrics(shards.data());
  w.run([&](Endpoint& ep) {
    Tensor partial({rows, cols});
    for (tensor::i64 i = 0; i < rows; ++i) {
      for (tensor::i64 j = 0; j < cols; ++j) {
        partial.at(i, j) = static_cast<float>(ep.rank() + 1) * static_cast<float>(i);
      }
    }
    const Tensor mine = ep.reduce_scatter_rows(partial, 400);
    // Sum over ranks of (r+1)*row = 10 * row for rank's own segment rows.
    const tensor::i64 seg = rows / n;
    for (tensor::i64 i = 0; i < seg; ++i) {
      for (tensor::i64 j = 0; j < cols; ++j) {
        const float row = static_cast<float>(ep.rank() * seg + i);
        EXPECT_FLOAT_EQ(mine.at(i, j), 10.0f * row);
      }
    }
  });
  const std::int64_t seg_bytes =
      (rows / n) * cols * static_cast<std::int64_t>(sizeof(float));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].messages_sent.value, n - 1);
    EXPECT_EQ(shards[static_cast<std::size_t>(r)].bytes_sent.value, (n - 1) * seg_bytes);
  }
}

TEST(Async, IsendIrecvDeliver) {
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      SendHandle h = ep.isend(1, 7, {constant(3.0f)});
      EXPECT_TRUE(h.valid());
      h.wait();
      EXPECT_TRUE(h.delivered());
    } else {
      RecvHandle h = ep.irecv(0, 7);
      EXPECT_TRUE(h.valid());
      const Message m = h.wait();
      EXPECT_FLOAT_EQ(m[0][0], 3.0f);
      EXPECT_FALSE(h.valid());  // a handle delivers exactly once
    }
  });
}

TEST(Async, WaitTwiceIsALogicError) {
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send(1, 7, {constant(1.0f)});
    } else {
      RecvHandle h = ep.irecv(0, 7);
      (void)h.wait();
      EXPECT_THROW((void)h.wait(), std::logic_error);
      EXPECT_THROW((void)RecvHandle().wait(), std::logic_error);
    }
  });
}

TEST(Async, IsendsAreFifoPerChannelAndInterleaveWithBlockingSend) {
  // Posts from one rank drain through a single FIFO worker: same-tag
  // messages arrive in post order, and a plain send() issued after isends
  // routes through the same queue so it cannot overtake them.
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      for (int i = 0; i < 4; ++i) {
        (void)ep.isend(1, 9, {constant(static_cast<float>(i))});
      }
      ep.send(1, 9, {constant(4.0f)});  // must not overtake the isends
    } else {
      for (int i = 0; i < 5; ++i) {
        EXPECT_FLOAT_EQ(ep.recv(0, 9)[0][0], static_cast<float>(i));
      }
    }
  });
}

TEST(Async, PendingIrecvsMatchInPostOrder) {
  World w(2);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 1) {
      RecvHandle first = ep.irecv(0, 5);
      RecvHandle second = ep.irecv(0, 5);
      ep.barrier();  // both registered before any send departs
      EXPECT_FLOAT_EQ(second.wait()[0][0], 1.0f);  // drain order is free...
      EXPECT_FLOAT_EQ(first.wait()[0][0], 0.0f);   // ...matching is FIFO
    } else {
      ep.barrier();
      ep.send(1, 5, {constant(0.0f)});
      ep.send(1, 5, {constant(1.0f)});
    }
  });
}

TEST(Async, PayloadIsMovedNotCopied) {
  // The zero-copy contract end-to-end: the tensor buffer the sender
  // allocated is the exact buffer the receiver drains, on every path —
  // blocking send into a queued slot, blocking send into a pending recv
  // (direct fulfillment), and isend through the comm worker. Ranks are
  // threads of one process, so the sender can publish the expected
  // addresses out of band.
  World w(2);
  std::atomic<const float*> sent_queued{nullptr};
  std::atomic<const float*> sent_pending{nullptr};
  std::atomic<const float*> sent_async{nullptr};
  w.run([&](Endpoint& ep) {
    if (ep.rank() == 0) {
      Tensor queued = constant(1.0f);
      sent_queued.store(queued.data());
      ep.send(1, 1, make_message(std::move(queued)));  // queued: not looking yet
      ep.barrier();
      ep.barrier();  // receiver's tag-2 irecv is now registered
      Tensor pending = constant(2.0f);
      sent_pending.store(pending.data());
      ep.send(1, 2, make_message(std::move(pending)));  // fulfills pending recv
      Tensor async = constant(3.0f);
      sent_async.store(async.data());
      ep.isend(1, 3, make_message(std::move(async))).wait();  // via the worker
    } else {
      ep.barrier();  // tag-1 message is queued before we recv it
      const Message q = ep.recv(0, 1);
      EXPECT_EQ(q[0].data(), sent_queued.load());
      RecvHandle h = ep.irecv(0, 2);
      ep.barrier();
      const Message p = h.wait();
      EXPECT_EQ(p[0].data(), sent_pending.load());
      const Message a = ep.recv(0, 3);
      EXPECT_EQ(a[0].data(), sent_async.load());
    }
  });
}

TEST(Async, PrefetchedRecvHidesLatencyFromWaitCounters) {
  // A recv posted long before its drain whose message arrives in between
  // records zero exposed wait and a positive hidden share; the barriers
  // make arrival-before-drain deterministic.
  World w(2);
  std::vector<obs::CommMetrics> shards(2);
  w.set_metrics(shards.data());
  w.run([&](Endpoint& ep) {
    if (ep.rank() == 1) {
      RecvHandle h = ep.irecv(0, 7);
      ep.barrier();  // sender may go
      ep.barrier();  // sender delivered (blocking send: in mailbox on return)
      EXPECT_TRUE(h.ready());
      EXPECT_FLOAT_EQ(h.wait()[0][0], 5.0f);
    } else {
      ep.barrier();
      ep.send(1, 7, {constant(5.0f)});
      ep.barrier();
    }
  });
  EXPECT_EQ(shards[1].irecv_posted.value, 1);
  EXPECT_EQ(shards[1].recv_wait_exposed_ns.value, 0);
  EXPECT_GT(shards[1].recv_wait_hidden_ns.value, 0);
  EXPECT_EQ(shards[1].messages_received.value, 1);
  // Blocking recvs never account hidden time (they post and drain
  // back-to-back), so a blocking-only run keeps hidden == 0 exactly.
  EXPECT_EQ(shards[0].recv_wait_hidden_ns.value, 0);
}

TEST(Async, PoisonAbortsPendingIrecv) {
  World w(2);
  std::atomic<int> aborted{0};
  try {
    w.run([&](Endpoint& ep) {
      if (ep.rank() == 0) {
        RecvHandle h = ep.irecv(1, 7);  // rank 1 will never send
        ep.barrier();
        try {
          (void)h.wait();
        } catch (const WorldAborted&) {
          aborted.fetch_add(1);
          throw;
        }
      } else {
        ep.barrier();
        throw std::runtime_error("boom");
      }
    });
    FAIL() << "run() must rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(aborted.load(), 1);
}

TEST(Async, IrecvAfterPoisonStillDrainsQueuedData) {
  // Messages already in the mailbox when the world is poisoned are still
  // deliverable — matching the blocking recv contract — while an irecv with
  // no queued data aborts instead of parking forever.
  World w(2);
  EXPECT_THROW(
      w.run([](Endpoint& ep) {
        if (ep.rank() == 0) {
          ep.send(1, 5, {constant(8.0f)});
          ep.barrier();
          throw std::runtime_error("late failure");
        }
        ep.barrier();
        RecvHandle queued = ep.irecv(0, 5);  // message already in the mailbox
        EXPECT_TRUE(queued.ready());
        EXPECT_FLOAT_EQ(queued.wait()[0][0], 8.0f);
        EXPECT_THROW((void)ep.irecv(0, 6).wait(), WorldAborted);
      }),
      std::runtime_error);
}

TEST(World, DetachedMetricsRecordNothing) {
  World w(2);
  std::vector<obs::CommMetrics> shards(2);
  w.set_metrics(shards.data());
  w.set_metrics(nullptr);
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) ep.send(1, 1, {constant(1.0f)});
    if (ep.rank() == 1) (void)ep.recv(0, 1);
  });
  EXPECT_EQ(shards[0].messages_sent.value, 0);
  EXPECT_EQ(shards[1].messages_received.value, 0);
}

}  // namespace
}  // namespace helix::comm
