// CompiledSchedule lowering: the owned store, CSR edge lists, tag tables,
// stream chains and topological order must be a faithful compilation of the
// Schedule — for every registered family — and malformed IR must be
// rejected at compile time, not at first use.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/compiled.h"
#include "core/cost.h"
#include "core/ir.h"
#include "core/validator.h"
#include "obs/prof.h"
#include "schedules/registry.h"
#include "sim/simulator.h"
#include "tune/table.h"

using namespace helix;
using core::CompiledSchedule;
using core::Op;
using core::OpId;
using core::OpKind;
using core::Schedule;

namespace {

core::PipelineProblem grid_problem(int p) {
  core::PipelineProblem pr;
  pr.p = p;
  pr.m = 2 * p;
  pr.L = 4 * p;
  pr.comm.boundary = 1;
  pr.comm.pre_to_attn = 1;
  pr.comm.attn_to_post = 1;
  pr.include_lm_head = false;
  pr.act.pre = 2;
  pr.act.attn = 3;
  pr.act.post = 11;
  return pr;
}

core::UnitCostModel unit_cost() {
  core::UnitCostModel::Units u;
  u.seconds_per_elem = 0.1;
  return core::UnitCostModel{u};
}

}  // namespace

TEST(CompiledSchedule, SoaFieldsMirrorSourceOpsAcrossFamilies) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = grid_problem(4);
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    SCOPED_TRACE(fam.key);
    const Schedule sched = fam.build(pr, cost);
    const CompiledSchedule cs = CompiledSchedule::build(sched);
    ASSERT_EQ(cs.num_ops(), sched.total_ops());
    EXPECT_EQ(cs.num_stages, sched.num_stages);
    EXPECT_EQ(cs.num_micro_batches, sched.num_micro_batches);
    EXPECT_EQ(cs.num_layers, sched.num_layers);
    EXPECT_EQ(cs.schedule().programs, sched.programs);
    // Each op's deps, in the order they were added to the arena.
    std::vector<std::vector<OpId>> deps(sched.ops.size());
    for (const core::Dep& d : sched.deps) deps[static_cast<std::size_t>(d.op)].push_back(d.dep);
    for (const Op& op : sched.ops) {
      const Op& got = cs.op(op.id);
      EXPECT_EQ(&got, &cs.schedule().ops[static_cast<std::size_t>(op.id)]);
      EXPECT_EQ(got.id, op.id);
      EXPECT_EQ(got.kind, op.kind);
      EXPECT_EQ(got.stage, op.stage);
      EXPECT_EQ(got.mb, op.mb);
      EXPECT_EQ(got.layer, op.layer);
      EXPECT_EQ(got.peer, op.peer);
      EXPECT_EQ(got.tag, op.tag);
      EXPECT_EQ(got.slot, op.slot);
      EXPECT_EQ(got.comm_elems, op.comm_elems);
      EXPECT_EQ(got.alloc_bytes, op.alloc_bytes);
      EXPECT_EQ(got.free_bytes, op.free_bytes);
      EXPECT_EQ(got.transient_bytes, op.transient_bytes);
      EXPECT_EQ(got.combines_w, op.combines_w);
      const std::vector<OpId> csr(cs.deps_begin(op.id), cs.deps_end(op.id));
      EXPECT_EQ(csr, deps[static_cast<std::size_t>(op.id)]);
    }
  }
}

// Pin of the whole compiled form. Every registry family that applies is
// built on a small grid (p in {2, 3, 4}, m in {p, 2p, 4p}, L = 2p, LM head on
// and off, unit costs) and compiled; the hash covers each op record by id
// with its dependencies in order, every stage program and compute chain,
// the same-stream predecessors, the rendezvous match and both tag tables,
// the successor CSR, the topological order, the memory-event counts and the
// edge count. Every run prints each family in kExpected's format, so a
// re-capture pastes the rows printed on the parent commit; a moved row
// means a changed compiled form, and with it possibly changed timestamps.
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
  template <typename T>
  void mix_ids(const T* begin, const T* end) {
    mix(static_cast<std::uint64_t>(end - begin));
    for (const T* it = begin; it != end; ++it) mix_signed(*it);
  }
  template <typename T>
  void mix_ids(const std::vector<T>& v) {
    mix_ids(v.data(), v.data() + v.size());
  }
};

std::uint64_t hash_compiled(const CompiledSchedule& cs) {
  Fnv f;
  f.mix_signed(cs.num_stages);
  f.mix_signed(cs.num_micro_batches);
  f.mix_signed(cs.num_layers);
  f.mix(cs.num_ops());
  f.mix(cs.num_edges);
  for (std::size_t i = 0; i < cs.num_ops(); ++i) {
    const OpId id = static_cast<OpId>(i);
    const Op& op = cs.op(id);
    f.mix_signed(op.id);
    f.mix(static_cast<std::uint64_t>(op.kind));
    f.mix_signed(op.stage);
    f.mix_signed(op.mb);
    f.mix_signed(op.layer);
    f.mix_signed(op.peer);
    f.mix_signed(op.tag);
    f.mix(static_cast<std::uint64_t>(op.slot));
    f.mix_signed(op.comm_elems);
    f.mix_signed(op.alloc_bytes);
    f.mix_signed(op.free_bytes);
    f.mix_signed(op.transient_bytes);
    f.mix(op.combines_w ? 1 : 0);
    f.mix_ids(cs.deps_begin(id), cs.deps_end(id));
  }
  for (int s = 0; s < cs.num_stages; ++s) {
    f.mix_ids(cs.program_begin(s), cs.program_end(s));
    f.mix_ids(cs.compute_begin(s), cs.compute_end(s));
  }
  f.mix_ids(cs.stream_pred);
  f.mix_ids(cs.matching_send);
  f.mix_ids(cs.send_of_tag);
  f.mix_ids(cs.recv_of_tag);
  f.mix_ids(cs.succ_offset);
  f.mix_ids(cs.succ_edges);
  f.mix_ids(cs.topo);
  f.mix_ids(cs.mem_count);
  return f.h;
}

struct PinRow {
  const char* family;
  int schedules;
  std::uint64_t hash;
};

constexpr PinRow kExpected[] = {
    {"1f1b", 18, 0x64dc7b6bf5e32326ull},
    {"gpipe", 18, 0x4f19903ec2d74d99ull},
    {"zb1p", 18, 0x7d29822750bc21c3ull},
    {"zb2p", 18, 0x6dd09655c4057a45ull},
    {"coexec", 18, 0x95c3ecd60ccb2282ull},
    {"interleaved", 18, 0x1569f5d84cb3430aull},
    {"helix_naive", 18, 0xf8ddfe03179a79fcull},
    {"helix_two_fold", 12, 0x04e7630a01adebbcull},
    {"helix_two_fold_rc", 12, 0xd981de2c5b24a35bull},
    {"helix_tuned", 12, 0xe09ee4ce2cff5e9full},
};

}  // namespace

TEST(CompiledSchedule, CompiledFormMatchesPinnedHashes) {
  const auto t0 = std::chrono::steady_clock::now();
  const core::UnitCostModel cost;
  std::size_t row = 0;
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    Fnv f;
    int schedules = 0;
    for (int p = 2; p <= 4; ++p) {
      for (const int m : {p, 2 * p, 4 * p}) {
        for (const bool head : {false, true}) {
          core::PipelineProblem pr = grid_problem(p);
          pr.m = m;
          pr.L = 2 * p;
          pr.include_lm_head = head;
          pr.head_stash_bytes = head ? 5 : 0;
          pr.logits_transient_bytes = head ? 7 : 0;
          if (!fam.applicable(pr)) continue;
          f.mix_signed(p);
          f.mix_signed(m);
          f.mix(head ? 1 : 0);
          f.mix(hash_compiled(CompiledSchedule::build(fam.build(pr, cost))));
          ++schedules;
        }
      }
    }
    std::printf("    {\"%s\", %d, 0x%016llxull},\n", fam.key, schedules,
                static_cast<unsigned long long>(f.h));
    if (row < std::size(kExpected)) {
      EXPECT_STREQ(kExpected[row].family, fam.key);
      EXPECT_EQ(kExpected[row].schedules, schedules) << fam.key;
      EXPECT_EQ(kExpected[row].hash, f.h) << fam.key;
    }
    ++row;
  }
  EXPECT_EQ(row, std::size(kExpected));
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  std::printf("compiled-form pin: %.3f s\n", secs);
}

// validate_semantics certifies every order edge of every registry family on
// the pin's grid by a short path, so no micro batch costs it a pass over the
// topological order.
TEST(CompiledSchedule, SemanticsCertifiesRegistrySchedulesWithoutAPass) {
  const core::UnitCostModel cost;
  obs::prof::Registry reg;
  int schedules = 0;
  {
    obs::prof::AttachGuard guard(reg);
    for (const schedules::FamilySpec& fam : schedules::family_registry()) {
      for (int p = 2; p <= 4; ++p) {
        for (const int m : {p, 2 * p, 4 * p}) {
          for (const bool head : {false, true}) {
            core::PipelineProblem pr = grid_problem(p);
            pr.m = m;
            pr.L = 2 * p;
            pr.include_lm_head = head;
            if (!fam.applicable(pr)) continue;
            EXPECT_TRUE(core::validate_semantics(CompiledSchedule::build(fam.build(pr, cost))).ok)
                << fam.key << " p" << p << " m" << m;
            ++schedules;
          }
        }
      }
    }
  }
  const obs::prof::Report prof = reg.report();
  const obs::prof::SiteStats* passes = prof.find("", "core.validate.order_passes");
  ASSERT_NE(passes, nullptr);
  EXPECT_EQ(passes->count, schedules);
  EXPECT_EQ(passes->value, 0);
}

TEST(CompiledSchedule, TagTablesAndRendezvousAreDense) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = grid_problem(4);
  const schedules::FamilySpec* fam = schedules::find_family("helix_two_fold");
  ASSERT_NE(fam, nullptr);
  const Schedule sched = fam->build(pr, cost);
  const CompiledSchedule cs = CompiledSchedule::build(sched);
  ASSERT_EQ(cs.send_of_tag.size(), cs.recv_of_tag.size());
  std::size_t comm_ops = 0;
  for (std::size_t i = 0; i < cs.num_ops(); ++i) {
    const OpId id = static_cast<OpId>(i);
    const Op& op = cs.op(id);
    if (op.kind == OpKind::kSend) {
      ++comm_ops;
      EXPECT_EQ(cs.send_of_tag[static_cast<std::size_t>(op.tag)], id);
    } else if (op.kind == OpKind::kRecv) {
      ++comm_ops;
      EXPECT_EQ(cs.recv_of_tag[static_cast<std::size_t>(op.tag)], id);
      const OpId s = cs.matching_send[i];
      ASSERT_NE(s, core::kNoOp);
      EXPECT_EQ(cs.op(s).kind, OpKind::kSend);
      EXPECT_EQ(cs.op(s).tag, op.tag);
    } else {
      EXPECT_EQ(cs.matching_send[i], core::kNoOp);
    }
  }
  // ScheduleBuilder assigns tags densely from 0: every table slot is used.
  EXPECT_EQ(comm_ops, 2 * cs.send_of_tag.size());
}

TEST(CompiledSchedule, StreamChainsFollowProgramOrder) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = grid_problem(2);
  const schedules::FamilySpec* fam = schedules::find_family("zb1p");
  ASSERT_NE(fam, nullptr);
  const Schedule sched = fam->build(pr, cost);
  const CompiledSchedule cs = CompiledSchedule::build(sched);
  for (int s = 0; s < sched.num_stages; ++s) {
    const auto& ids = sched.programs[static_cast<std::size_t>(s)];
    ASSERT_EQ(cs.program_size(s), ids.size());
    OpId prev_compute = core::kNoOp;
    OpId prev_comm = core::kNoOp;
    std::vector<OpId> expect_compute;
    const OpId* prog = cs.program_begin(s);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(prog[i], ids[i]);  // program span is the stage's row
      const auto ui = static_cast<std::size_t>(ids[i]);
      if (core::is_comm(sched.ops[ui].kind)) {
        EXPECT_EQ(cs.stream_pred[ui], prev_comm);
        prev_comm = ids[i];
      } else {
        EXPECT_EQ(cs.stream_pred[ui], prev_compute);
        prev_compute = ids[i];
        expect_compute.push_back(ids[i]);
      }
    }
    const std::vector<OpId> chain(cs.compute_begin(s), cs.compute_end(s));
    EXPECT_EQ(chain, expect_compute);
  }
}

TEST(CompiledSchedule, TopoOrderRespectsEveryEdgeKind) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = grid_problem(4);
  for (const schedules::FamilySpec& fam : schedules::family_registry()) {
    SCOPED_TRACE(fam.key);
    const Schedule sched = fam.build(pr, cost);
    const CompiledSchedule cs = CompiledSchedule::build(sched);
    ASSERT_EQ(cs.topo.size(), cs.num_ops());
    std::vector<std::size_t> pos(cs.num_ops());
    for (std::size_t i = 0; i < cs.topo.size(); ++i) {
      pos[static_cast<std::size_t>(cs.topo[i])] = i;
    }
    std::size_t edges = 0;
    for (std::size_t i = 0; i < cs.num_ops(); ++i) {
      const OpId id = static_cast<OpId>(i);
      for (const OpId* d = cs.deps_begin(id); d != cs.deps_end(id); ++d) {
        EXPECT_LT(pos[static_cast<std::size_t>(*d)], pos[i]);
        ++edges;
      }
      if (cs.stream_pred[i] != core::kNoOp) {
        EXPECT_LT(pos[static_cast<std::size_t>(cs.stream_pred[i])], pos[i]);
        ++edges;
      }
      if (cs.matching_send[i] != core::kNoOp) {
        EXPECT_LT(pos[static_cast<std::size_t>(cs.matching_send[i])], pos[i]);
        ++edges;
      }
    }
    EXPECT_EQ(cs.num_edges, edges);
    // Forward adjacency carries exactly the same edges, reversed.
    EXPECT_EQ(cs.succ_edges.size(), edges);
  }
}

TEST(CompiledSchedule, MemCountIsExactPerStage) {
  const core::UnitCostModel cost = unit_cost();
  const core::PipelineProblem pr = grid_problem(4);
  const schedules::FamilySpec* fam = schedules::find_family("1f1b");
  ASSERT_NE(fam, nullptr);
  const Schedule sched = fam->build(pr, cost);
  const CompiledSchedule cs = CompiledSchedule::build(sched);
  ASSERT_EQ(cs.mem_count.size(), static_cast<std::size_t>(sched.num_stages));
  for (int s = 0; s < sched.num_stages; ++s) {
    std::uint32_t expect = 0;
    for (const OpId id : sched.programs[static_cast<std::size_t>(s)]) {
      const Op& op = sched.ops[static_cast<std::size_t>(id)];
      if (op.alloc_bytes + op.transient_bytes != 0) ++expect;
      if (op.free_bytes + op.transient_bytes != 0) ++expect;
    }
    EXPECT_EQ(cs.mem_count[static_cast<std::size_t>(s)], expect);
  }
}

// ------------------------------------------------------------ malformed IR

namespace {

/// A hand-rolled two-op schedule skeleton the malformed-IR tests mutate.
Schedule two_stage_skeleton() {
  Schedule s;
  s.name = "malformed";
  s.num_stages = 2;
  s.num_micro_batches = 1;
  s.num_layers = 2;
  s.programs.resize(2);
  return s;
}

Op make_op(OpId id, OpKind kind, int stage) {
  Op op;
  op.id = id;
  op.kind = kind;
  op.stage = static_cast<std::int16_t>(stage);
  return op;
}

/// Store `op` as the next record and append its id to `program`.
void put(Schedule& s, const Op& op, int program) {
  s.ops.push_back(op);
  s.programs[static_cast<std::size_t>(program)].push_back(op.id);
}

}  // namespace

TEST(CompiledScheduleMalformed, NonDenseIdsThrow) {
  Schedule s = two_stage_skeleton();
  put(s, make_op(0, OpKind::kFwdPre, 0), 0);
  put(s, make_op(2, OpKind::kBwdPre, 0), 0);  // gap: no id 1
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, UnknownDepThrows) {
  Schedule s = two_stage_skeleton();
  put(s, make_op(0, OpKind::kFwdPre, 0), 0);
  s.deps.push_back({0, 7});  // no such op
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, DuplicateSendTagThrows) {
  Schedule s = two_stage_skeleton();
  Op send0 = make_op(0, OpKind::kSend, 0);
  send0.tag = 0;
  Op send1 = make_op(1, OpKind::kSend, 0);
  send1.tag = 0;  // duplicate
  Op recv = make_op(2, OpKind::kRecv, 1);
  recv.tag = 0;
  put(s, send0, 0);
  put(s, send1, 0);
  put(s, recv, 1);
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, RecvWithoutSendThrows) {
  Schedule s = two_stage_skeleton();
  Op recv = make_op(0, OpKind::kRecv, 1);
  recv.tag = 3;
  put(s, recv, 1);
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, DependencyCycleThrows) {
  Schedule s = two_stage_skeleton();
  put(s, make_op(0, OpKind::kFwdPre, 0), 0);
  put(s, make_op(1, OpKind::kFwdPost, 0), 0);
  s.deps.push_back({0, 1});
  s.deps.push_back({1, 0});
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, EmptyScheduleCompiles) {
  const Schedule s = two_stage_skeleton();
  const CompiledSchedule cs = CompiledSchedule::build(s);
  EXPECT_EQ(cs.num_ops(), 0u);
  EXPECT_EQ(cs.num_edges, 0u);
  EXPECT_TRUE(cs.topo.empty());
}

// Malformed IR that an earlier, separate validator graph passed (so the
// simulator then indexed out of bounds or sized tag tables from a hostile
// tag) or rejected while compile accepted it. Compile, the simulator and
// validate_structure must now all refuse it, and the message must name the
// offending op, tag or stage.
namespace {

void expect_rejected(const Schedule& s, const std::string& names) {
  try {
    (void)CompiledSchedule::build(s);
    ADD_FAILURE() << "compile accepted the schedule";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(names), std::string::npos) << e.what();
  }
  const core::UnitCostModel cost;
  EXPECT_THROW(sim::Simulator(cost).run(s), std::logic_error);
  const core::ValidationResult r = core::validate_structure(s);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors.front().find(names), std::string::npos) << r.errors.front();
  EXPECT_FALSE(core::validate_semantics(s).ok);
}

/// A matched Send (stage 0) / Recv (stage 1) pair with tag `tag`.
Schedule transfer_pair(std::int32_t tag) {
  Schedule s = two_stage_skeleton();
  Op send = make_op(0, OpKind::kSend, 0);
  Op recv = make_op(1, OpKind::kRecv, 1);
  send.tag = recv.tag = tag;
  send.peer = 1;
  recv.peer = 0;
  send.comm_elems = recv.comm_elems = 4;
  put(s, send, 0);
  put(s, recv, 1);
  return s;
}

}  // namespace

TEST(CompiledScheduleMalformed, MatchedPairIsAccepted) {
  const Schedule s = transfer_pair(1);
  EXPECT_NO_THROW(CompiledSchedule::build(s));
  EXPECT_TRUE(core::validate_structure(s).ok);
}

TEST(CompiledScheduleMalformed, StageCountMismatchThrows) {
  Schedule s = transfer_pair(0);
  s.num_stages = 3;
  expect_rejected(s, "num_stages is 3");
}

TEST(CompiledScheduleMalformed, OpOutsideItsStageProgramThrows) {
  Schedule s = two_stage_skeleton();
  put(s, make_op(0, OpKind::kFwdPre, 7), 0);  // held by stage 0's program
  expect_rejected(s, "stage=7, mb=-1, layer=-1) sits in stage 0's program");
}

TEST(CompiledScheduleMalformed, TagOutsideOpRangeThrows) {
  expect_rejected(transfer_pair(INT_MAX), "tag 2147483647 outside [0, 2)");
  expect_rejected(transfer_pair(1 << 30), "tag 1073741824 outside [0, 2)");
  expect_rejected(transfer_pair(2), "tag 2 outside [0, 2)");
  expect_rejected(transfer_pair(-1), "tag -1 outside [0, 2)");
}

TEST(CompiledScheduleMalformed, DuplicateRecvTagThrows) {
  Schedule s = transfer_pair(0);
  Op second = s.ops[1];
  second.id = 2;
  put(s, second, 1);
  expect_rejected(s, "share tag 0");
}

TEST(CompiledScheduleMalformed, SendWithoutRecvThrows) {
  Schedule s = transfer_pair(0);
  Op lone = s.ops[0];
  lone.id = 2;
  lone.tag = 1;
  put(s, lone, 0);
  expect_rejected(s, "Send(id=2, stage=0, mb=-1, layer=-1): no Recv carries tag 1");
}

TEST(CompiledScheduleMalformed, ShapeOutsideTheOpFieldsRangeThrows) {
  Schedule s = transfer_pair(0);
  s.num_micro_batches = -1;
  expect_rejected(s, "num_micro_batches -1");
  s.num_micro_batches = 1;
  s.num_layers = -3;
  expect_rejected(s, "num_layers -3");
  s.num_layers = core::kMaxShape + 1;
  expect_rejected(s, "num_layers 32769");
}


// The flat store can hold faults the per-stage vectors of op records could
// not: a record stored at another index than its id, an op in no program or
// in two, a program entry outside the store, a dependency naming an unknown
// op. Each is refused by compile, the simulator and the validators, naming
// the op or stage, and by Table::lift naming the schedule.
namespace {

void expect_store_rejected(const Schedule& s, const std::string& names) {
  expect_rejected(s, names);
  (void)core::validate_coverage(s);  // reads the programs raw: must not crash
  try {
    (void)tune::Table::lift(s);
    ADD_FAILURE() << "lift accepted the schedule";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"" + s.name + "\""), std::string::npos) << what;
    EXPECT_NE(what.find(names), std::string::npos) << what;
  }
}

}  // namespace

TEST(CompiledScheduleMalformed, OpInNoStageProgramThrows) {
  Schedule s = transfer_pair(0);
  s.ops.push_back(make_op(2, OpKind::kFwdPre, 0));  // stored, never listed
  expect_store_rejected(s, "FwdPre(id=2, stage=0, mb=-1, layer=-1) sits in no stage program");
}

TEST(CompiledScheduleMalformed, OpInTwoStageProgramsThrows) {
  Schedule s = transfer_pair(0);
  s.programs[1].push_back(0);
  expect_store_rejected(
      s, "Send(id=0, stage=0, mb=-1, layer=-1) sits in stage 0's program and again in stage 1's");
  s = transfer_pair(0);
  s.programs[0].push_back(0);
  expect_store_rejected(s, "Send(id=0, stage=0, mb=-1, layer=-1) sits in stage 0's program "
                           "and again in stage 0's");
}

TEST(CompiledScheduleMalformed, ProgramEntryOutsideOpRangeThrows) {
  Schedule s = transfer_pair(0);
  s.programs[1].push_back(5);
  expect_store_rejected(s, "stage 1's program holds op id 5 outside [0, 2)");
  s = transfer_pair(0);
  s.programs[0].insert(s.programs[0].begin(), -1);
  expect_store_rejected(s, "stage 0's program holds op id -1 outside [0, 2)");
}

TEST(CompiledScheduleMalformed, OpStoredAtAnotherIndexThrows) {
  Schedule s = transfer_pair(0);
  s.ops[1].id = 0;
  expect_store_rejected(s, "Recv(id=0, stage=1, mb=-1, layer=-1) is stored at index 1");
}

TEST(CompiledScheduleMalformed, DependencyNamingAnUnknownOpThrows) {
  Schedule s = transfer_pair(0);
  s.deps.push_back({1, 9});
  expect_store_rejected(s, "Recv(id=1, stage=1, mb=-1, layer=-1) depends on unknown op id 9");
  s = transfer_pair(0);
  s.deps.push_back({-4, 0});
  expect_store_rejected(s, "a dependency on op id 0 names unknown op id -4");
}
