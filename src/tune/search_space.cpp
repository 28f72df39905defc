#include "tune/search_space.h"

#include <set>

#include "common/check.h"

namespace fpdt::tune {

namespace {

std::string label_of(const core::FpdtConfig& cfg) {
  std::string s = "u" + std::to_string(cfg.chunks_per_rank) + "-z" +
                  std::to_string(cfg.zero_stage) + "-";
  if (cfg.offload) {
    s += "off";
    if (cfg.double_buffer) s += "+db";
  } else {
    s += "res";  // resident chunk store ("FPDT w. chunking")
  }
  if (cfg.cache_forward_outputs) s += "+cf";
  s += "-ffn" + std::to_string(cfg.ffn_chunk_multiplier) + "-lm" +
       std::to_string(cfg.lm_head_chunks);
  // Non-default math-kernel backend is part of the candidate's identity
  // (distinct float accumulation order => distinct measurement).
  if (!cfg.kernel_backend.empty() && cfg.kernel_backend != "scalar") {
    s += "-" + cfg.kernel_backend;
  }
  // Grid shape only when it departs from the seed's flat/1D default.
  if (cfg.ranks_per_node > 0) s += "-rpn" + std::to_string(cfg.ranks_per_node);
  if (cfg.head_degree > 0) s += "-hd" + std::to_string(cfg.head_degree);
  return s;
}

}  // namespace

Candidate make_candidate(core::FpdtConfig cfg, int world, std::int64_t s_global) {
  FPDT_CHECK_GE(world, 1) << " world";
  FPDT_CHECK(SearchSpace::divisible(world, s_global, cfg.chunks_per_rank))
      << " s_global " << s_global << " not divisible into " << world << " ranks x "
      << cfg.chunks_per_rank << " chunks";
  Candidate c;
  c.cfg = cfg;
  c.strategy = perfmodel::Strategy::fpdt();
  c.strategy.zero_stage = cfg.zero_stage;
  // The analytic model thinks in *global* chunk tokens (§5.3); u local
  // chunks per rank over P ranks means s_global / u tokens per global chunk.
  c.strategy.fpdt_chunk_tokens = s_global / cfg.chunks_per_rank;
  c.strategy.fpdt_offload = cfg.offload;
  c.strategy.fpdt_double_buffer = cfg.double_buffer;
  c.strategy.fpdt_cache_fwd = cfg.cache_forward_outputs;
  c.label = label_of(cfg);
  return c;
}

bool SearchSpace::divisible(int world, std::int64_t s_global, std::int64_t u) {
  if (u < 1 || world < 1 || s_global < 1) return false;
  if (s_global % (static_cast<std::int64_t>(world) * u) != 0) return false;
  return s_global / (static_cast<std::int64_t>(world) * u) >= 1;
}

std::vector<Candidate> SearchSpace::enumerate(int world, std::int64_t s_global) const {
  std::vector<Candidate> out;
  std::set<std::string> seen;  // canonicalization collapses duplicate behaviors
  for (std::int64_t u : chunks_per_rank) {
    if (!divisible(world, s_global, u)) continue;
    for (int stage : zero_stages) {
      for (std::int64_t ffn : ffn_chunk_multipliers) {
        for (std::int64_t lm : lm_head_chunks) {
          for (bool off : offload) {
            for (bool db : double_buffer) {
              for (bool cf : cache_fwd) {
                for (const std::string& kb : kernel_backends) {
                  for (int rpn : ranks_per_node) {
                    // A grid axis must tile the world exactly (node-major
                    // placement needs full uniform nodes); rpn == world is
                    // the single-node degenerate and collapses to flat.
                    if (rpn > 0 && (rpn > world || world % rpn != 0)) continue;
                    for (int hd : head_degrees) {
                      // The head axis must tile the world and stay inside
                      // one node (parallel/grid2d.h's validity rules; the
                      // model's n_head is checked by the planner's caller).
                      if (hd > 0 && (hd > world || world % hd != 0)) continue;
                      if (hd > 0 && rpn > 0 && rpn % hd != 0) continue;
                      core::FpdtConfig cfg;
                      cfg.chunks_per_rank = u;
                      cfg.zero_stage = stage;
                      cfg.ffn_chunk_multiplier = ffn;
                      cfg.lm_head_chunks = lm;
                      cfg.offload = off;
                      cfg.double_buffer = off && db;
                      cfg.stream_prefetch = off;
                      cfg.cache_forward_outputs = cf;
                      cfg.kernel_backend = kb;
                      cfg.ranks_per_node = rpn;
                      cfg.head_degree = hd;
                      if (!seen.insert(cfg.canonical()).second) continue;
                      out.push_back(make_candidate(cfg, world, s_global));
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return out;
}

}  // namespace fpdt::tune
