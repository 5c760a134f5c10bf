// Capture a wall-clock trace of the real threaded pipeline and reconcile it
// against the simulator's prediction for the exact same schedule IR.
//
// The repo's central claim is that src/sim (modeled time) and src/runtime
// (real tensors on rank threads) execute one schedule. This example makes
// both sides observable: it runs one Trainer iteration with an
// obs::TraceCollector attached (including per-rank memory tracking), writes
// the measured execution as Chrome trace-event JSON (open runtime_trace.json
// in chrome://tracing or https://ui.perfetto.dev — it uses the same event
// vocabulary as the simulator's exporter, so the two traces diff cleanly,
// and carries per-rank "mem bytes" / "mem fragmentation" counter tracks next
// to the span tracks), then prints the per-stage sim-vs-measured busy/bubble
// reconciliation, the three-way memory reconciliation (measured allocator
// peak vs closed-form model vs simulator) and the peak-attribution tables.
//
// With --health the example instead demonstrates the live-run health
// subsystem (obs/health.h): a healthy iteration observed through the live
// per-rank progress table, then a deliberately sabotaged iteration — one
// boundary delivery is swallowed by a seeded comm::FaultPlan — where the
// progress watchdog trips, names the hung (src, dst, tag) edge, and writes
// the merged post-mortem (text, JSON, Chrome trace) into --out-dir.
//
// Usage: runtime_trace [--out-dir DIR] [--health]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "core/cost.h"
#include "obs/export.h"
#include "obs/health.h"
#include "par/thread_pool.h"
#include "runtime/trainer.h"
#include "sim/simulator.h"
#include "sim/trace.h"

using namespace helix;

namespace {

int run_health_demo(const std::string& out_dir) {
  const nn::MiniGptConfig cfg{.layers = 4, .hidden = 32, .heads = 4, .seq = 16,
                              .batch = 1, .vocab = 64, .micro_batches = 8,
                              .lr = 0.03f};
  const nn::Batch batch = nn::Batch::random(cfg, 2026);

  obs::HealthOptions health;
  health.enabled = true;
  health.no_progress_window_ms = 500;
  health.poll_interval_ms = 20;
  runtime::TrainerOptions options{
      .family = runtime::ScheduleFamily::kHelixTwoFold,
      .pipeline_stages = 4,
      .recompute_without_attention = true,
      .mlp_chunks = 2,
      .health = health};

  // (a) Healthy iteration, observed live: train on a worker thread while the
  // main thread samples the collector's progress table — exactly what an
  // operator tailing a long run would look at.
  std::printf("— healthy run: live per-rank progress —\n");
  {
    nn::ModelParams params = nn::ModelParams::init(cfg, 7);
    runtime::Trainer trainer(params, options);
    std::thread step([&] { (void)trainer.train_step(batch); });
    for (int sample = 0; sample < 3; ++sample) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (trainer.health_collector() != nullptr) {
        std::printf("t+%dms:\n%s\n", 2 * (sample + 1),
                    obs::render_progress_table(*trainer.health_collector())
                        .c_str());
      }
    }
    step.join();
    std::printf("final:\n%s\n",
                obs::render_progress_table(*trainer.health_collector()).c_str());
  }

  // (b) Sabotaged iteration: swallow the schedule's first stage-0 boundary
  // delivery. The watchdog must trip within the configured window and the
  // post-mortem must name the injected edge.
  nn::ModelParams params = nn::ModelParams::init(cfg, 7);
  comm::FaultPlan plan;
  {
    const core::Schedule sched = runtime::build_numeric_schedule(cfg, options);
    for (const core::OpId id : sched.programs[0]) {
      const core::Op& op = sched.ops[static_cast<std::size_t>(id)];
      if (op.kind == core::OpKind::kSend) {
        plan.deliveries.emplace_back(0, op.peer, op.tag,
                                     comm::DeliveryFault::Action::kHang);
        std::printf("— sabotaged run: hanging delivery (src=0, dst=%d, "
                    "tag=%d) —\n", op.peer, op.tag);
        break;
      }
    }
  }
  options.health.faults = &plan;
  options.health.dump_dir = out_dir;
  runtime::Trainer faulty(params, options);
  try {
    (void)faulty.train_step(batch);
    std::fprintf(stderr, "ERROR: watchdog did not trip on the hung delivery\n");
    return 1;
  } catch (const runtime::HangDetected& e) {
    std::printf("watchdog tripped: %s\n\n", e.what());
  }
  const obs::PostMortem* pm = faulty.last_post_mortem();
  if (pm == nullptr) {
    std::fprintf(stderr, "ERROR: no post-mortem was built\n");
    return 1;
  }
  std::printf("%s\n", obs::render_post_mortem(*pm).c_str());

  // The same report was dumped to disk by the Trainer; show the artifacts an
  // operator would attach to a bug report.
  for (const char* ext : {".txt", ".json", ".trace.json"}) {
    const std::string path = (std::filesystem::path(out_dir) /
                              (std::string("postmortem_step0") + ext))
                                 .string();
    if (!std::filesystem::exists(path)) {
      std::fprintf(stderr, "ERROR: missing dump %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%lld bytes)\n", path.c_str(),
                static_cast<long long>(std::filesystem::file_size(path)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_dir = ".";
  bool health_demo = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out-dir") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--health") == 0) {
      health_demo = true;
    } else {
      std::fprintf(stderr, "usage: %s [--out-dir DIR] [--health]\n", argv[0]);
      return 2;
    }
  }
  std::filesystem::create_directories(out_dir);
  if (health_demo) return run_health_demo(out_dir);

  const nn::MiniGptConfig cfg{.layers = 4, .hidden = 32, .heads = 4, .seq = 16,
                              .batch = 1, .vocab = 64, .micro_batches = 8,
                              .lr = 0.03f};
  const nn::Batch batch = nn::Batch::random(cfg, 2026);
  nn::ModelParams params = nn::ModelParams::init(cfg, 7);

  const int stages = 4;
  obs::TraceCollector trace(stages);
  trace.enable_memory();
  const runtime::TrainerOptions options{
      .family = runtime::ScheduleFamily::kHelixTwoFold,
      .pipeline_stages = stages,
      .recompute_without_attention = true,
      .mlp_chunks = 2,
      .trace = &trace};
  runtime::Trainer trainer(params, options);
  const core::Schedule& sched = trainer.schedule();
  std::printf("HelixPipe runtime trace: schedule '%s', %zu ops, %d stages "
              "(threads), %d micro batches\n\n",
              sched.name.c_str(), sched.total_ops(), stages, cfg.micro_batches);

  // Warm-up iteration (first-touch allocation noise), then the traced one —
  // the collector resets itself at each train_step, keeping only the last.
  (void)trainer.train_step(batch);
  const runtime::IterationMetrics metrics = trainer.train_step(batch);
  std::printf("iteration mean loss %.6f\n\n", metrics.mean_loss());

  // (a) Chrome trace of the threaded execution, simulator event vocabulary
  // plus per-rank allocator counter tracks.
  const std::string json = obs::to_chrome_trace(trace);
  const std::string trace_path =
      (std::filesystem::path(out_dir) / "runtime_trace.json").string();
  std::ofstream(trace_path) << json;
  std::printf("wrote %s (%zu bytes) — open in chrome://tracing or Perfetto\n\n",
              trace_path.c_str(), json.size());

  // Per-rank measured summary from the spans and comm shards.
  std::printf("%-6s %10s %10s %10s %12s %12s %12s %8s\n", "rank", "busy ms",
              "comm ms", "wait ms", "sent B", "recvd B", "live peak B", "mbox");
  for (const obs::RankSummary& r : metrics.rank_summaries) {
    std::printf("P%-5d %10.3f %10.3f %10.3f %12lld %12lld %12lld %8lld\n",
                r.rank, static_cast<double>(r.busy_ns) / 1e6,
                static_cast<double>(r.comm_op_ns) / 1e6,
                static_cast<double>(r.recv_wait_exposed_ns) / 1e6,
                static_cast<long long>(r.bytes_sent),
                static_cast<long long>(r.bytes_received),
                static_cast<long long>(r.live_peak_bytes),
                static_cast<long long>(r.mailbox_depth_peak));
  }

  // (b) Reconcile against the simulator's prediction for the same IR; the
  // memory section compares measured allocator peaks with the closed-form
  // model prediction and the simulator's per-stage peaks.
  const core::UnitCostModel cost;
  const sim::SimResult predicted = sim::Simulator(cost).run(sched);
  const std::vector<std::int64_t> model_peaks =
      runtime::predict_stage_peak_bytes(cfg, options);
  const obs::ReconciliationReport report =
      obs::reconcile(sched, predicted, trace, model_peaks);
  const std::string report_text = obs::render_reconciliation(report);
  std::printf("\n%s", report_text.c_str());

  // (c) Whose bytes: per-rank attribution of the measured allocated peak.
  const std::string attribution = obs::render_memory_attribution(trace);
  std::printf("\n%s", attribution.c_str());

  const std::string report_path =
      (std::filesystem::path(out_dir) / "reconciliation_report.txt").string();
  std::ofstream(report_path) << report_text << "\n" << attribution;
  std::printf("\nwrote %s\n", report_path.c_str());

  // (d) Kernel thread-pool utilization (HELIX_THREADS; 1 = serial kernels).
  std::printf("\n%s", obs::render_pool_stats(par::global_pool_stats()).c_str());

  std::printf("\nNotes: predicted fractions come from the unit cost model "
              "(every compute op 1 time unit), so absolute busy%% differs "
              "from wall-clock — the reconciliation target is the op "
              "*ordering* (same IR => same per-stage program order) and the "
              "bubble structure, not absolute times.\n");
  return report.all_orders_match_ir() && report.memory.available ? 0 : 1;
}
