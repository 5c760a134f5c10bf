// Watchdog + wait-graph analysis on raw worlds: cycle detection, the
// deadlock / straggler / lost-message verdicts, monitor trip-and-poison, and
// the post-mortem renderers (text, structured JSON, Chrome trace).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "comm/world.h"
#include "obs/export.h"
#include "obs/health.h"
#include "support/chrome_trace_parser.h"
#include "tensor/ops.h"

namespace helix::obs {
namespace {

using comm::Endpoint;
using comm::World;
using comm::WorldAborted;
using tensor::Tensor;

Tensor constant(float v, tensor::i64 n = 4) {
  Tensor t({n});
  for (tensor::i64 i = 0; i < n; ++i) t[i] = v;
  return t;
}

HealthOptions fast_watchdog(int window_ms = 200) {
  HealthOptions o;
  o.enabled = true;
  o.no_progress_window_ms = window_ms;
  o.poll_interval_ms = 10;
  return o;
}

WaitNode node(int rank, BlockedKind kind, int src, std::int64_t tag,
              std::int64_t progress_ns) {
  WaitNode n;
  n.rank = rank;
  n.kind = kind;
  n.src = src;
  n.tag = tag;
  n.last_progress_ns = progress_ns;
  return n;
}

// --- pure wait-graph analysis -------------------------------------------

TEST(WaitGraph, RecvCycleIsDeadlockNamingOldestMember) {
  WaitGraph g;
  g.nodes = {node(0, BlockedKind::kRecv, 1, 10, 500),
             node(1, BlockedKind::kRecv, 0, 20, 100),
             node(2, BlockedKind::kDone, -1, -1, 400)};
  g.edges = {{0, 1, BlockedKind::kRecv, 10}, {1, 0, BlockedKind::kRecv, 20}};
  const HangReport rep = analyze_wait_graph(g, 250);
  EXPECT_EQ(rep.verdict, HangVerdict::kDeadlock);
  ASSERT_EQ(rep.cycle.size(), 2u);
  EXPECT_EQ(rep.first_stalled_rank, 1);  // oldest progress stamp in the cycle
  EXPECT_EQ(rep.stalled_edge.on, 0);
  EXPECT_EQ(rep.stalled_edge.tag, 20);
  EXPECT_EQ(rep.window_ms, 250);
  EXPECT_NE(rep.summary.find("deadlock"), std::string::npos);
}

TEST(WaitGraph, ChainIntoRunningRankIsStraggler) {
  WaitGraph g;
  g.nodes = {node(0, BlockedKind::kNone, -1, -1, 50),
             node(1, BlockedKind::kRecv, 0, 7, 300),
             node(2, BlockedKind::kRecv, 1, 8, 200)};
  g.edges = {{1, 0, BlockedKind::kRecv, 7}, {2, 1, BlockedKind::kRecv, 8}};
  const HangReport rep = analyze_wait_graph(g, 100);
  EXPECT_EQ(rep.verdict, HangVerdict::kStraggler);
  EXPECT_TRUE(rep.cycle.empty());
  EXPECT_EQ(rep.first_stalled_rank, 0);
  // The edge into the straggler names who is waiting for it.
  EXPECT_EQ(rep.stalled_edge.waiter, 1);
  EXPECT_EQ(rep.stalled_edge.tag, 7);
}

TEST(WaitGraph, BlockedRankWithAllPeersDoneIsLostMessage) {
  WaitGraph g;
  g.nodes = {node(0, BlockedKind::kDone, -1, -1, 900),
             node(1, BlockedKind::kRecv, 0, 3, 100)};
  g.edges = {{1, 0, BlockedKind::kRecv, 3}};
  const HangReport rep = analyze_wait_graph(g, 100);
  EXPECT_EQ(rep.verdict, HangVerdict::kStraggler);
  EXPECT_EQ(rep.first_stalled_rank, 1);
  EXPECT_EQ(rep.stalled_edge.on, 0);
  EXPECT_EQ(rep.stalled_edge.tag, 3);
  EXPECT_NE(rep.summary.find("lost"), std::string::npos);
}

TEST(WaitGraph, BarrierWaitFansOutToAbsentRanks) {
  WaitGraph g;
  HealthCollector hc(3);
  hc.cell(0).blocked.store(pack_blocked(BlockedKind::kBarrier, -1, -1),
                           std::memory_order_relaxed);
  hc.cell(1).blocked.store(pack_blocked(BlockedKind::kBarrier, -1, -1),
                           std::memory_order_relaxed);
  // rank 2 never arrives (running).
  g = snapshot_wait_graph(hc);
  ASSERT_EQ(g.nodes.size(), 3u);
  // Each barrier waiter has exactly one edge: to rank 2.
  int barrier_edges = 0;
  for (const WaitEdge& e : g.edges) {
    EXPECT_EQ(e.on, 2);
    EXPECT_EQ(e.kind, BlockedKind::kBarrier);
    ++barrier_edges;
  }
  EXPECT_EQ(barrier_edges, 2);
  EXPECT_TRUE(g.find_cycle().empty());
}

TEST(WaitGraph, HealthyGraphHasNoVerdict) {
  WaitGraph g;
  g.nodes = {node(0, BlockedKind::kDone, -1, -1, 10),
             node(1, BlockedKind::kDone, -1, -1, 20)};
  const HangReport rep = analyze_wait_graph(g, 100);
  EXPECT_EQ(rep.verdict, HangVerdict::kNone);
  EXPECT_EQ(rep.first_stalled_rank, -1);
}

// --- live monitor on a raw world ----------------------------------------

TEST(HealthMonitor, MutualRecvDeadlockTripsWithCycleVerdict) {
  World w(2);
  HealthCollector hc(2, 64);
  w.set_health(hc.cells(), hc.recorders());
  const HealthOptions opt = fast_watchdog();
  HealthMonitor mon(w, hc, opt);
  mon.start();
  EXPECT_THROW(w.run([](Endpoint& ep) {
                 // Classic crossed recv: each rank waits for the other first.
                 (void)ep.recv(1 - ep.rank(), 100 + ep.rank());
               }),
               WorldAborted);
  mon.stop();
  ASSERT_TRUE(mon.tripped());
  const HangReport& rep = mon.report();
  EXPECT_TRUE(rep.tripped);
  EXPECT_EQ(rep.verdict, HangVerdict::kDeadlock);
  EXPECT_EQ(rep.cycle.size(), 2u);
  ASSERT_GE(rep.first_stalled_rank, 0);
  EXPECT_EQ(rep.stalled_edge.on, 1 - rep.first_stalled_rank);
  EXPECT_EQ(rep.stalled_edge.tag, 100 + rep.first_stalled_rank);
}

TEST(HealthMonitor, SleepingPeerIsStragglerNotDeadlock) {
  World w(2);
  HealthCollector hc(2, 64);
  w.set_health(hc.cells(), hc.recorders());
  HealthMonitor mon(w, hc, fast_watchdog(150));
  mon.start();
  EXPECT_THROW(
      w.run([](Endpoint& ep) {
        if (ep.rank() == 0) {
          // Far beyond the window: the straggler everyone waits for.
          std::this_thread::sleep_for(std::chrono::milliseconds(600));
          ep.send(1, 9, {constant(1.0f)});
        } else {
          (void)ep.recv(0, 9);
        }
      }),
      WorldAborted);
  mon.stop();
  ASSERT_TRUE(mon.tripped());
  EXPECT_EQ(mon.report().verdict, HangVerdict::kStraggler);
  EXPECT_EQ(mon.report().first_stalled_rank, 0);
  EXPECT_EQ(mon.report().stalled_edge.waiter, 1);
  EXPECT_EQ(mon.report().stalled_edge.tag, 9);
}

TEST(HealthMonitor, HungDeliveryNamesTheInjectedEdge) {
  World w(2);
  HealthCollector hc(2, 64);
  w.set_health(hc.cells(), hc.recorders());
  comm::FaultPlan plan;
  plan.deliveries.emplace_back(0, 1, 3, comm::DeliveryFault::Action::kHang);
  w.set_faults(&plan);
  HealthMonitor mon(w, hc, fast_watchdog(150));
  mon.start();
  EXPECT_THROW(w.run([](Endpoint& ep) {
                 if (ep.rank() == 0) {
                   ep.send(1, 3, {constant(1.0f)});  // swallowed
                 } else {
                   (void)ep.recv(0, 3);
                 }
               }),
               WorldAborted);
  mon.stop();
  ASSERT_TRUE(mon.tripped());
  const HangReport& rep = mon.report();
  EXPECT_EQ(rep.verdict, HangVerdict::kStraggler);
  EXPECT_EQ(rep.first_stalled_rank, 1);
  EXPECT_EQ(rep.stalled_edge.on, 0);
  EXPECT_EQ(rep.stalled_edge.tag, 3);
}

TEST(HealthMonitor, HealthyRunDoesNotTrip) {
  World w(2);
  HealthCollector hc(2, 64);
  w.set_health(hc.cells(), hc.recorders());
  HealthMonitor mon(w, hc, fast_watchdog(2000));
  mon.start();
  w.run([](Endpoint& ep) {
    if (ep.rank() == 0) {
      ep.send(1, 1, {constant(2.0f)});
    } else {
      EXPECT_FLOAT_EQ(ep.recv(0, 1)[0][0], 2.0f);
    }
    ep.barrier();
  });
  mon.stop();
  EXPECT_FALSE(mon.tripped());
}

// --- post-mortem rendering ----------------------------------------------

TEST(PostMortem, ReportsCarryTailsPendingRecvsAndParseableTrace) {
  World w(2);
  HealthCollector hc(2, 64);
  w.set_health(hc.cells(), hc.recorders());
  HealthMonitor mon(w, hc, fast_watchdog(150));
  mon.start();
  EXPECT_THROW(w.run([](Endpoint& ep) {
                 if (ep.rank() == 0) {
                   ep.send(1, 4, {constant(1.0f)});
                   (void)ep.recv(1, 5);  // never sent
                 } else {
                   (void)ep.recv(0, 4);
                   (void)ep.recv(0, 6);  // never sent
                 }
               }),
               WorldAborted);
  mon.stop();
  ASSERT_TRUE(mon.tripped());
  const PostMortem pm =
      build_post_mortem(w, hc, &mon.report(), mon.report().summary);
  ASSERT_EQ(pm.ranks.size(), 2u);
  // Every rank has a recorder tail and its blocked-at-death state.
  for (const RankDump& d : pm.ranks) {
    EXPECT_FALSE(d.tail.empty()) << "rank " << d.rank;
    EXPECT_EQ(d.state.kind, BlockedKind::kRecv) << "rank " << d.rank;
    ASSERT_EQ(d.pending_recvs.size(), 1u) << "rank " << d.rank;
  }
  EXPECT_EQ(pm.ranks[0].pending_recvs[0].tag, 5);
  EXPECT_EQ(pm.ranks[1].pending_recvs[0].tag, 6);

  const std::string text = render_post_mortem(pm);
  EXPECT_NE(text.find("post-mortem"), std::string::npos);
  EXPECT_NE(text.find("wait-graph"), std::string::npos);
  EXPECT_NE(text.find("pending recvs"), std::string::npos);

  // The trace export is valid Chrome JSON with one event per tail entry.
  const std::vector<ParsedEvent> events =
      parse_chrome_trace(post_mortem_trace_json(pm));
  std::size_t tail_total = 0;
  for (const RankDump& d : pm.ranks) tail_total += d.tail.size();
  EXPECT_EQ(events.size(), tail_total);

  const std::string json = post_mortem_json(pm);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);
  EXPECT_NE(json.find("\"stalled_edge\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  const std::string table = render_progress_table(hc);
  EXPECT_NE(table.find("rank"), std::string::npos);
}

}  // namespace
}  // namespace helix::obs
