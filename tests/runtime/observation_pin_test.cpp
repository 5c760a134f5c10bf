// Differential pin for what the interpreter reports about the ops it runs.
// Six schedule families train two steps under each comm engine with every
// observer attached (spans, memory tracking, health recorders), and four
// streams are hashed per case:
//   * spans: (kind, stage, mb, layer) of every op span, per rank, per step;
//   * memory: every tagged allocator event of every rank's memory tracker,
//     without its wall-clock stamp;
//   * flight: the interpreter's own flight events (op start, op retire, live
//     peak) of every rank's ring, without their stamps. Comm events go to
//     the same rings from other threads, so their interleaving is not
//     deterministic and they are left out;
//   * summary: each rank's op count, bytes sent and received and live peak.
// The expected values were captured from the previous observation path
// (for helix_two_fold_rc, with the fix that stops the last layer's
// RecomputePost from stashing an input nothing consumes), so moving a hash
// means a changed observation, not only a changed layout.
// Expectations are keyed by the engine that actually ran: HELIX_COMM_ASYNC
// forces the async engine on every case.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <tuple>

#include "obs/memory.h"
#include "runtime/env.h"
#include "runtime/trainer.h"

namespace helix::runtime {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_signed(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

struct Hashes {
  std::uint64_t spans = 0;
  std::uint64_t memory = 0;
  std::uint64_t flight = 0;
  std::uint64_t summary = 0;
};

struct PinCase {
  const char* name;
  ScheduleFamily family;
  bool recompute;
  int mlp_chunks;
  Hashes blocking;  ///< expected with the blocking engine
  Hashes async;     ///< expected with the async engine
};

void PrintTo(const PinCase& c, std::ostream* os) { *os << c.name; }

Hashes observe(const PinCase& c, bool async) {
  const nn::MiniGptConfig cfg{.layers = 4, .hidden = 16, .heads = 2, .seq = 8,
                              .batch = 1, .vocab = 32, .micro_batches = 4};
  nn::ModelParams params = nn::ModelParams::init(cfg, 5);
  const nn::Batch batch = nn::Batch::random(cfg, 9);
  obs::TraceCollector trace(2);
  trace.enable_memory();
  TrainerOptions opt{.family = c.family,
                     .pipeline_stages = 2,
                     .recompute_without_attention = c.recompute,
                     .mlp_chunks = c.mlp_chunks,
                     .async_comm = async,
                     .trace = &trace};
  opt.health.enabled = true;
  opt.health.recorder_capacity = 1 << 15;  // two steps never wrap the ring
  Trainer trainer(params, opt);

  Fnv spans, memory, flight, summary;
  for (int step = 0; step < 2; ++step) {
    const IterationMetrics m = trainer.train_step(batch);
    for (int r = 0; r < trace.num_ranks(); ++r) {
      spans.mix(trace.recorder(r).spans().size());
      for (const obs::Span& s : trace.recorder(r).spans()) {
        spans.mix(static_cast<std::uint64_t>(s.kind));
        spans.mix_signed(s.stage);
        spans.mix_signed(s.mb);
        spans.mix_signed(s.layer);
      }
      const obs::MemoryTracker* tracker = trace.memory(r);
      memory.mix(tracker->events().size());
      for (const obs::MemoryEvent& e : tracker->events()) {
        memory.mix(static_cast<std::uint64_t>(e.ev.kind));
        memory.mix(e.ev.block);
        memory.mix_signed(e.ev.requested_bytes);
        memory.mix_signed(e.ev.rounded_bytes);
        memory.mix_signed(e.ev.segment);
        memory.mix_signed(e.ev.stats.allocated_bytes);
        memory.mix_signed(e.ev.stats.reserved_bytes);
        memory.mix_signed(e.ev.stats.peak_allocated);
        memory.mix_signed(e.ev.stats.peak_reserved);
        memory.mix_signed(e.ev.stats.num_segments);
        memory.mix_signed(e.ev.stats.largest_free_block);
        memory.mix(static_cast<std::uint64_t>(e.tag.kind));
        memory.mix_signed(e.tag.mb);
        memory.mix_signed(e.tag.layer);
        memory.mix(e.tag.valid ? 1 : 0);
      }
    }
    EXPECT_EQ(m.rank_summaries.size(), 2u);
    for (const obs::RankSummary& s : m.rank_summaries) {
      summary.mix_signed(s.rank);
      summary.mix_signed(s.ops_executed);
      summary.mix_signed(s.bytes_sent);
      summary.mix_signed(s.bytes_received);
      summary.mix_signed(s.live_peak_bytes);
    }
  }
  const obs::HealthCollector* health = trainer.health_collector();
  for (int r = 0; r < health->num_ranks(); ++r) {
    const obs::FlightRecorder& ring = health->recorder(r);
    EXPECT_LE(ring.total(), ring.capacity()) << "rank " << r << " ring wrapped";
    for (const obs::FlightEvent& e : ring.tail()) {
      if (e.type != obs::FlightEventType::kOpStart &&
          e.type != obs::FlightEventType::kOpRetire &&
          e.type != obs::FlightEventType::kLivePeak) {
        continue;
      }
      flight.mix(static_cast<std::uint64_t>(e.type));
      flight.mix(static_cast<std::uint64_t>(e.kind));
      flight.mix_signed(e.mb);
      flight.mix_signed(e.layer);
      flight.mix_signed(e.peer);
      flight.mix_signed(e.tag);
      flight.mix_signed(e.bytes);
    }
  }
  return {spans.h, memory.h, flight.h, summary.h};
}

class ObservationPin
    : public ::testing::TestWithParam<std::tuple<PinCase, bool>> {};

TEST_P(ObservationPin, StreamsMatchPinnedHashes) {
  const auto& [c, async_requested] = GetParam();
  const bool async =
      async_requested || env_flag("HELIX_COMM_ASYNC").value_or(false);
  const Hashes got = observe(c, async_requested);
  std::printf("%s %s: spans 0x%016llx memory 0x%016llx flight 0x%016llx "
              "summary 0x%016llx\n",
              c.name, async ? "async" : "blocking",
              static_cast<unsigned long long>(got.spans),
              static_cast<unsigned long long>(got.memory),
              static_cast<unsigned long long>(got.flight),
              static_cast<unsigned long long>(got.summary));
  const Hashes& want = async ? c.async : c.blocking;
  EXPECT_EQ(got.spans, want.spans);
  EXPECT_EQ(got.memory, want.memory);
  EXPECT_EQ(got.flight, want.flight);
  EXPECT_EQ(got.summary, want.summary);
}

const PinCase kCases[] = {
    {"onef1b", ScheduleFamily::k1F1B, false, 1,
     {0xe8ff8ed97202a0c3ull, 0xdc4c63adab3bf5f3ull,
      0x5843907643e968d3ull, 0x7dd4a86b2ca562cbull},
     {0x869fcf7ff3f9a2c3ull, 0xc7a3f040edacc543ull,
      0x3f35db05a8b0ed17ull, 0x7dd4a86b2ca562cbull}},
    {"zb1p", ScheduleFamily::kZb1p, false, 1,
     {0x5d064d5d196a0c03ull, 0x354f7fbd35e85e7full,
      0x4ac5b8727a6fb8abull, 0x857f7571e31c8983ull},
     {0xa165167cc6fa2703ull, 0x86f4ea74beea6bc3ull,
      0x00d69c4924a39e2full, 0x857f7571e31c8983ull}},
    {"helix_two_fold_rc", ScheduleFamily::kHelixTwoFold, true, 2,
     {0x159ce57da1a5e883ull, 0xe634acc95c2879dfull,
      0x384321504fd514d3ull, 0x55324ae0da6b468full},
     {0x0f6698ce38695f83ull, 0x52f561629f0f0d7full,
      0x6dcc204e01e2cc83ull, 0x55324ae0da6b468full}},
    {"interleaved", ScheduleFamily::kInterleaved, false, 1,
     {0xe37b642197f04403ull, 0x17701a29c8031d8bull,
      0x10a8b70f40e63993ull, 0xf40cccf7b5549d8bull},
     {0x0f12f92749d32a03ull, 0x84ed298d31eb48a7ull,
      0x2f41ac89d6c7f6c7ull, 0xf40cccf7b5549d8bull}},
    {"gpipe", ScheduleFamily::kGPipe, false, 1,
     {0x5851189edec50843ull, 0xacaef98cefdb7d73ull,
      0x39ff51f2397daf23ull, 0xfbdcbd95bed7550full},
     {0xdf137c174f626e43ull, 0x7e55c68cd0266d53ull,
      0xe310319dd6c2cffbull, 0xfbdcbd95bed7550full}},
    {"coexec", ScheduleFamily::kCoExec, false, 1,
     {0x544d6cb77c6a1503ull, 0xeb0827119ddd1c4bull,
      0xe55c1a0907ba176full, 0xd5ff6de942b60fffull},
     {0x58df034d797ad303ull, 0x45e3e78b8860a693ull,
      0x43d11e525ccfd5d3ull, 0xd5ff6de942b60fffull}},
};

INSTANTIATE_TEST_SUITE_P(
    Families, ObservationPin,
    ::testing::Combine(::testing::ValuesIn(kCases), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<PinCase, bool>>& info) {
      return std::string(std::get<0>(info.param).name) +
             (std::get<1>(info.param) ? "_async" : "_blocking");
    });

}  // namespace
}  // namespace helix::runtime
