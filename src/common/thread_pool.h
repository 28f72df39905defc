// Fork-join helper for the SPMD emulation.
//
// The functional layer runs P emulated ranks; rank-local compute touches
// only per-rank buffers, so those loops fork across OS threads and join
// before the next collective — exactly the synchronisation structure of the
// real system (compute between NCCL rendezvous points).
//
// Workers are persistent: the first fork creates them, later forks grow the
// set to parallel_workers() - 1 helpers, and idle helpers park on a
// condition variable (they never spin). The caller always runs the claim
// loop itself and waits only for helpers that joined, so a fork-join costs
// a wake-up, not a thread spawn.
//
// Two entry points share the helpers:
//   - parallel_for_ranks, one body per emulated rank. A nested call (from
//     inside a body), or a call from a second thread while another caller
//     owns the rank fork, runs the plain serial loop on its own thread.
//   - parallel_for_tiles, one body per independent tile of a kernel call.
//     It may be called from anywhere, a rank body included, and claims only
//     helpers parked at call time (never more than parallel_workers()
//     threads busy in all); with none idle it is a plain loop on the
//     caller. Tiles keep the caller's rank, work phase and region depth.
//     This is how a rank body spends the workers that P < parallel_workers()
//     ranks leave idle.
//
// Loops that run on the rank workers:
//   - FPDT/Ulysses chunk attention forward and backward (core/fpdt_block);
//   - Megatron-SP's four per-rank GEMM loops: forward attention, forward
//     FFN, backward FFN, backward attention (parallel/megatron_sp);
//   - ZeRO's per-rank Adam over each owned shard
//     (parallel/zero/sharded_optimizer);
//   - the simd backend's row forks, when called from the top level.
// Loops that run as tiles: the simd backend's online attention forward
// (inside a rank body) and backward (anywhere), split by whole KV-head
// groups, each on packed copies of its heads (kernels/simd_backend.cpp).
// Megatron-SP's weight grads are rank-disjoint by construction: rank r
// writes only its row block of Wq/Wk/Wv/fc1/fc3 (and their biases) and its
// column block of Wo/fc2, so its bodies accumulate grads concurrently. The
// unsharded bias grads, norm grads and every collective stay on the
// calling thread, in rank order. FPDT's projections accumulate whole-weight
// grads that every rank shares, so they stay on the calling thread too.
// Results are therefore bit-identical to serial execution.
#pragma once

#include <functional>

namespace fpdt {

// Runs fn(0..n-1), possibly concurrently; returns after all complete. Each
// body runs as emulated rank i (RankScope), in the caller's work phase and
// inside a parallel region. Exceptions from bodies are rethrown on the
// caller (first one wins), and cancel the loop: indices not yet claimed
// when the first body threw are never started (in-flight bodies still
// finish). n <= 1, one worker, a nested call or a busy pool degrades to a
// plain loop on the caller (which stops at the throwing index).
void parallel_for_ranks(int n, const std::function<void(int)>& fn);

// Runs fn(0..n-1) on the caller plus the helpers that are parked when it is
// called, also from inside a parallel_for_ranks body; returns after all
// complete. It never waits for a busy helper, and runs inline when none is
// idle. Each tile runs with the caller's current_rank(), work phase and
// parallel-region depth (so in_parallel_region() reads as on the caller).
// Exceptions are rethrown on this caller only (first one wins) and cancel
// the unclaimed tiles. Tile bodies run on other threads than the caller's:
// thread-local state other than those three (a WorkSink, say) is not
// carried over, so they should call raw kernels, not metered ones.
void parallel_for_tiles(int n, const std::function<void(int)>& fn);

// Process-wide worker count used by both forks (defaults to the
// hardware concurrency, capped at 16). Setting it to 1 forces serial
// execution (useful to isolate concurrency bugs).
int parallel_workers();
void set_parallel_workers(int workers);

// True while the calling thread is inside a parallel_for_ranks body
// (including the serial fallback, and tiles forked from one). Kernel
// backends use this to row-fork only from the top level: a rank fork inside
// a rank body runs inline, so there they use parallel_for_tiles instead.
bool in_parallel_region();

}  // namespace fpdt
