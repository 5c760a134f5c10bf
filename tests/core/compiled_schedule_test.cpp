// CompiledSchedule lowering: the SoA arrays, CSR edge lists, tag tables,
// stream chains and topological order must be a faithful flattening of the
// Schedule IR — for every registered family — and malformed IR must be
// rejected at compile time, not at first use.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <string>
#include <vector>

#include "core/compiled.h"
#include "core/cost.h"
#include "core/ir.h"
#include "core/validator.h"
#include "schedules/registry.h"
#include "sim/simulator.h"

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
    EXPECT_EQ(cs.source, &sched);
    EXPECT_EQ(cs.num_stages, sched.num_stages);
    EXPECT_EQ(cs.num_micro_batches, sched.num_micro_batches);
    EXPECT_EQ(cs.num_layers, sched.num_layers);
    for (const auto& ops : sched.stage_ops) {
      for (const Op& op : ops) {
        const auto i = static_cast<std::size_t>(op.id);
        EXPECT_EQ(cs.kind[i], op.kind);
        EXPECT_EQ(cs.stage[i], op.stage);
        EXPECT_EQ(cs.mb[i], op.mb);
        EXPECT_EQ(cs.layer[i], op.layer);
        EXPECT_EQ(cs.tag[i], op.tag);
        EXPECT_EQ(cs.comm_elems[i], op.comm_elems);
        EXPECT_EQ(cs.combines_w[i] != 0, op.combines_w);
        EXPECT_EQ(cs.mem_acquire[i], op.alloc_bytes + op.transient_bytes);
        EXPECT_EQ(cs.mem_release[i], op.free_bytes + op.transient_bytes);
        EXPECT_EQ(&cs.op(op.id), &op);  // locator points into the source
        // CSR deps round-trip exactly.
        const std::vector<OpId> deps(cs.deps_begin(op.id), cs.deps_end(op.id));
        EXPECT_EQ(deps, op.deps);
      }
    }
  }
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
    if (cs.kind[i] == OpKind::kSend) {
      ++comm_ops;
      EXPECT_EQ(cs.send_of_tag[static_cast<std::size_t>(cs.tag[i])], id);
    } else if (cs.kind[i] == OpKind::kRecv) {
      ++comm_ops;
      EXPECT_EQ(cs.recv_of_tag[static_cast<std::size_t>(cs.tag[i])], id);
      const OpId s = cs.matching_send[i];
      ASSERT_NE(s, core::kNoOp);
      EXPECT_EQ(cs.kind[static_cast<std::size_t>(s)], OpKind::kSend);
      EXPECT_EQ(cs.tag[static_cast<std::size_t>(s)], cs.tag[i]);
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
    const auto& ops = sched.stage_ops[static_cast<std::size_t>(s)];
    ASSERT_EQ(cs.program_size(s), ops.size());
    OpId prev_compute = core::kNoOp;
    OpId prev_comm = core::kNoOp;
    std::vector<OpId> expect_compute;
    const OpId* prog = cs.program_begin(s);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(prog[i], ops[i].id);  // program span is the stage's op list
      const auto ui = static_cast<std::size_t>(ops[i].id);
      if (core::is_comm(ops[i].kind)) {
        EXPECT_EQ(cs.stream_pred[ui], prev_comm);
        prev_comm = ops[i].id;
      } else {
        EXPECT_EQ(cs.stream_pred[ui], prev_compute);
        prev_compute = ops[i].id;
        expect_compute.push_back(ops[i].id);
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
    for (const Op& op : sched.stage_ops[static_cast<std::size_t>(s)]) {
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
  s.stage_ops.resize(2);
  return s;
}

Op make_op(OpId id, OpKind kind, int stage) {
  Op op;
  op.id = id;
  op.kind = kind;
  op.stage = static_cast<std::int16_t>(stage);
  return op;
}

}  // namespace

TEST(CompiledScheduleMalformed, NonDenseIdsThrow) {
  Schedule s = two_stage_skeleton();
  s.stage_ops[0].push_back(make_op(0, OpKind::kFwdPre, 0));
  s.stage_ops[0].push_back(make_op(2, OpKind::kBwdPre, 0));  // gap: no id 1
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, UnknownDepThrows) {
  Schedule s = two_stage_skeleton();
  Op op = make_op(0, OpKind::kFwdPre, 0);
  op.deps.push_back(7);  // no such op
  s.stage_ops[0].push_back(op);
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
  s.stage_ops[0].push_back(send0);
  s.stage_ops[0].push_back(send1);
  s.stage_ops[1].push_back(recv);
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, RecvWithoutSendThrows) {
  Schedule s = two_stage_skeleton();
  Op recv = make_op(0, OpKind::kRecv, 1);
  recv.tag = 3;
  s.stage_ops[1].push_back(recv);
  EXPECT_THROW(CompiledSchedule::build(s), std::logic_error);
}

TEST(CompiledScheduleMalformed, DependencyCycleThrows) {
  Schedule s = two_stage_skeleton();
  Op a = make_op(0, OpKind::kFwdPre, 0);
  Op b = make_op(1, OpKind::kFwdPost, 0);
  a.deps.push_back(1);
  b.deps.push_back(0);
  s.stage_ops[0].push_back(a);
  s.stage_ops[0].push_back(b);
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
  s.stage_ops[0].push_back(send);
  s.stage_ops[1].push_back(recv);
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
  Op op = make_op(0, OpKind::kFwdPre, 7);  // held by stage 0's program
  s.stage_ops[0].push_back(op);
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
  Op second = s.stage_ops[1][0];
  second.id = 2;
  s.stage_ops[1].push_back(second);
  expect_rejected(s, "share tag 0");
}

TEST(CompiledScheduleMalformed, SendWithoutRecvThrows) {
  Schedule s = transfer_pair(0);
  Op lone = s.stage_ops[0][0];
  lone.id = 2;
  lone.tag = 1;
  s.stage_ops[0].push_back(lone);
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

