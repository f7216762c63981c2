// Functional execution of CUDA-style kernels on host threads.
//
// The simulator's programming model maps CUDA's onto phases:
//
//   * a kernel is a callable invoked once per block with a BlockContext;
//   * inside it, ctx.forEachThread(fn) runs fn for every thread of the
//     block; RETURNING from forEachThread is the __syncthreads() barrier
//     (all threads have finished the phase before the next one starts);
//   * shared memory is an arena on the context, sized by the launch
//     configuration and persistent across phases of the same block.
//
// Per-thread registers that live across barriers (e.g. the Csub
// accumulator of the Fig 5 kernel) are plain host arrays indexed by the
// flattened thread id.  Blocks are independent (as in CUDA) and are
// executed in parallel over a thread pool.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "cudasim/device.hpp"
#include "cudasim/types.hpp"

namespace ep::cusim {

class BlockContext {
 public:
  BlockContext(Dim3 blockIdx, const LaunchConfig& cfg);

  [[nodiscard]] Dim3 blockIdx() const { return blockIdx_; }
  [[nodiscard]] std::size_t threadsPerBlock() const {
    return cfg_.block.count();
  }

  // Allocate `count` Ts from the block's shared-memory arena.  Contents
  // persist across phases; allocation beyond the launch configuration's
  // sharedBytes throws ResourceError.
  template <typename T>
  [[nodiscard]] std::span<T> shared(std::size_t count) {
    const std::size_t bytes = count * sizeof(T);
    void* p = allocateShared(bytes, alignof(T));
    return {static_cast<T*>(p), count};
  }

  // Flattened thread index (x fastest), for per-thread register arrays.
  [[nodiscard]] std::size_t flatThread(Dim3 t) const {
    return (static_cast<std::size_t>(t.z) * cfg_.block.y + t.y) *
               cfg_.block.x +
           t.x;
  }

  // One execution phase: fn runs for every thread of the block; the
  // return acts as __syncthreads().
  void forEachThread(const std::function<void(Dim3)>& fn);

 private:
  void* allocateShared(std::size_t bytes, std::size_t align);

  Dim3 blockIdx_;
  const LaunchConfig& cfg_;
  std::vector<unsigned char> arena_;
  std::size_t arenaUsed_ = 0;
};

using Kernel = std::function<void(BlockContext&)>;

class Executor {
 public:
  // pool == nullptr executes blocks sequentially.
  explicit Executor(ThreadPool* pool = nullptr) : pool_(pool) {}

  // Functionally execute `kernel` over the whole grid.  Validates the
  // launch configuration against the device's CUDA limits.
  void launch(Device& device, const LaunchConfig& cfg,
              const Kernel& kernel) const;

 private:
  ThreadPool* pool_;
};

}  // namespace ep::cusim
