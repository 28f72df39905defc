// Tests of the explicit FPDT chunk schedule: generation, counting
// arithmetic (the triangular attention pair counts), and the legality
// checker — including adversarial checks that corrupted schedules are
// rejected for the right reasons.
#include <gtest/gtest.h>

#include "common/check.h"
#include "core/chunk_schedule.h"

namespace fpdt {
namespace {

using core::ChunkSchedule;
using core::OpKind;
using core::ScheduleOp;

class ScheduleParam : public ::testing::TestWithParam<std::tuple<int, bool, bool>> {};

TEST_P(ScheduleParam, ForwardIsLegal) {
  auto [u, offload, dbuf] = GetParam();
  ChunkSchedule sched = ChunkSchedule::forward(u, offload, dbuf);
  EXPECT_NO_THROW(sched.check_legal());
}

TEST_P(ScheduleParam, BackwardIsLegal) {
  auto [u, offload, dbuf] = GetParam();
  ChunkSchedule sched = ChunkSchedule::backward(u, offload, dbuf);
  EXPECT_NO_THROW(sched.check_legal());
}

TEST_P(ScheduleParam, AttentionPairCountsAreTriangular) {
  auto [u, offload, dbuf] = GetParam();
  ChunkSchedule fwd = ChunkSchedule::forward(u, offload, dbuf);
  ChunkSchedule bwd = ChunkSchedule::backward(u, offload, dbuf);
  const std::int64_t pairs = static_cast<std::int64_t>(u) * (u + 1) / 2;
  EXPECT_EQ(fwd.count(OpKind::kAttnStep), pairs);
  EXPECT_EQ(bwd.count(OpKind::kAttnBwdStep), pairs);
}

TEST_P(ScheduleParam, OffloadTrafficCounts) {
  auto [u, offload, dbuf] = GetParam();
  ChunkSchedule fwd = ChunkSchedule::forward(u, offload, dbuf);
  if (!offload) {
    EXPECT_EQ(fwd.count(OpKind::kOffloadKv), 0);
    EXPECT_EQ(fwd.count(OpKind::kFetchKv), 0);
    return;
  }
  // Every chunk offloads its KV once; chunk i fetches i earlier chunks.
  EXPECT_EQ(fwd.count(OpKind::kOffloadKv), u);
  EXPECT_EQ(fwd.count(OpKind::kFetchKv), static_cast<std::int64_t>(u) * (u - 1) / 2);
  // Backward: each outer iteration fetches its KV chunk once; dq̂ partials
  // park on host except the finalizing diagonal visit.
  ChunkSchedule bwd = ChunkSchedule::backward(u, offload, dbuf);
  EXPECT_EQ(bwd.count(OpKind::kFetchKv), u);
  EXPECT_EQ(bwd.count(OpKind::kOffloadDq), static_cast<std::int64_t>(u) * (u - 1) / 2);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ScheduleParam,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 16),
                                            ::testing::Bool(), ::testing::Bool()));

TEST(ScheduleTest, ProjectionBackwardPerChunkAfterFinalDq) {
  ChunkSchedule bwd = ChunkSchedule::backward(4, true, true);
  // For each chunk j, the kQkvBackward op must come after the (j, j)
  // attention backward step (where dq̂ⱼ finalizes).
  std::vector<std::size_t> final_dq_pos(4, 0), proj_pos(4, 0);
  const auto& ops = bwd.ops();
  for (std::size_t idx = 0; idx < ops.size(); ++idx) {
    const ScheduleOp& op = ops[idx];
    if (op.kind == OpKind::kAttnBwdStep && op.i == op.j) {
      final_dq_pos[static_cast<std::size_t>(op.i)] = idx;
    }
    if (op.kind == OpKind::kQkvBackward) proj_pos[static_cast<std::size_t>(op.i)] = idx;
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_GT(proj_pos[static_cast<std::size_t>(j)], final_dq_pos[static_cast<std::size_t>(j)])
        << "chunk " << j;
  }
}

TEST(ScheduleTest, DebugStringsAndPrinting) {
  ChunkSchedule fwd = ChunkSchedule::forward(2, true, true);
  const std::string text = fwd.to_string();
  EXPECT_NE(text.find("qkv_project i=0"), std::string::npos);
  EXPECT_NE(text.find("attn_step i=1 j=0"), std::string::npos);
  EXPECT_NE(text.find("offload_kv i=1"), std::string::npos);
  const std::string truncated = fwd.to_string(2);
  EXPECT_NE(truncated.find("more)"), std::string::npos);
}

TEST(ScheduleTest, FetchesWaitForTheirBufferSlotAndOffload) {
  // A fetch waits for the op that frees its buffer slot — the attention
  // step `window` chunks back in the forward — and for the offload that
  // wrote its chunk to the host.
  for (const bool dbuf : {false, true}) {
    const ChunkSchedule fwd = ChunkSchedule::forward(4, true, dbuf);
    const auto& ops = fwd.ops();
    const std::int64_t w = fwd.window();
    for (const ScheduleOp& op : ops) {
      if (op.kind != OpKind::kFetchKv) continue;
      bool slot = op.j < w, offload = false;
      for (std::size_t d : op.deps) {
        const ScheduleOp& dep = ops[d];
        slot |= dep.kind == OpKind::kAttnStep && dep.i == op.i && dep.j == op.j - w;
        offload |= dep.kind == OpKind::kOffloadKv && dep.i == op.j;
      }
      EXPECT_TRUE(slot && offload) << op.label() << " dbuf=" << dbuf;
    }
  }
}

TEST(ScheduleTest, RecomputeBackwardIsForwardThenBackward) {
  const ChunkSchedule fwd = ChunkSchedule::forward(3, true, true);
  const ChunkSchedule bwd = ChunkSchedule::backward(3, true, true);
  const ChunkSchedule both = ChunkSchedule::backward(3, true, true, /*recompute=*/true);
  ASSERT_EQ(both.ops().size(), fwd.ops().size() + bwd.ops().size());
  for (std::size_t k = 0; k < both.ops().size(); ++k) {
    const ScheduleOp& want =
        k < fwd.ops().size() ? fwd.ops()[k] : bwd.ops()[k - fwd.ops().size()];
    EXPECT_EQ(both.ops()[k].label(), want.label()) << k;
  }
  EXPECT_NO_THROW(both.check_legal());
  // The backward's y/ô fetch now waits for the forward's offload of y.
  for (const ScheduleOp& op : both.ops()) {
    if (op.kind == OpKind::kFetchYO && op.i == 0) {
      ASSERT_FALSE(op.deps.empty());
      EXPECT_EQ(both.ops()[op.deps.back()].kind, OpKind::kOffloadY);
    }
  }
}

// ---- Adversarial: corrupted schedules must be rejected. --------------------

ChunkSchedule corrupt(ChunkSchedule base, auto mutate) {
  // ChunkSchedule has no public mutation; rebuild op-by-op via a copy and
  // const_cast-free trick: we reconstruct through the vector accessor.
  // (Test-only: we poke the ops vector through a copy.)
  mutate(const_cast<std::vector<ScheduleOp>&>(base.ops()));
  return base;
}

TEST(ScheduleTest, RejectsAttentionBeforeAll2All) {
  ChunkSchedule fwd = corrupt(ChunkSchedule::forward(2, false, false),
                              [](std::vector<ScheduleOp>& ops) {
                                // Move the first attention step to the front.
                                for (std::size_t k = 0; k < ops.size(); ++k) {
                                  if (ops[k].kind == OpKind::kAttnStep) {
                                    std::swap(ops[0], ops[k]);
                                    break;
                                  }
                                }
                              });
  EXPECT_THROW(fwd.check_legal(), FpdtError);
}

TEST(ScheduleTest, RejectsFetchWithoutOffload) {
  ChunkSchedule fwd = corrupt(ChunkSchedule::forward(3, true, true),
                              [](std::vector<ScheduleOp>& ops) {
                                // Retarget a fetch at a chunk never offloaded.
                                for (ScheduleOp& op : ops) {
                                  if (op.kind == OpKind::kFetchKv) {
                                    op.j = 2;  // chunk 2 not offloaded yet
                                    break;
                                  }
                                }
                              });
  EXPECT_THROW(fwd.check_legal(), FpdtError);
}

TEST(ScheduleTest, RejectsCausallyMaskedBackwardPair) {
  ChunkSchedule bwd = corrupt(ChunkSchedule::backward(3, false, false),
                              [](std::vector<ScheduleOp>& ops) {
                                for (ScheduleOp& op : ops) {
                                  if (op.kind == OpKind::kAttnBwdStep && op.i == op.j) {
                                    op.i = op.j - 1 >= 0 ? op.j - 1 : 0;
                                    op.j = op.i + 1;  // j > i: masked pair
                                    break;
                                  }
                                }
                              });
  EXPECT_THROW(bwd.check_legal(), FpdtError);
}

TEST(ScheduleTest, RejectsContributionAfterFinalization) {
  ChunkSchedule bwd = corrupt(ChunkSchedule::backward(2, false, false),
                              [](std::vector<ScheduleOp>& ops) {
                                // Duplicate the diagonal (0,0) step at the end.
                                for (const ScheduleOp& op : ops) {
                                  if (op.kind == OpKind::kAttnBwdStep && op.i == 0 &&
                                      op.j == 0) {
                                    ops.push_back(op);
                                    break;
                                  }
                                }
                              });
  EXPECT_THROW(bwd.check_legal(), FpdtError);
}

TEST(ScheduleTest, RejectsDependencyOnALaterOp) {
  ChunkSchedule fwd = corrupt(ChunkSchedule::forward(2, true, true),
                              [](std::vector<ScheduleOp>& ops) { ops[0].deps.push_back(1); });
  EXPECT_THROW(fwd.check_legal(), FpdtError);
}

}  // namespace
}  // namespace fpdt
