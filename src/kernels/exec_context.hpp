// Kernel execution context: binds a kernel invocation to the MCU simulator
// and to a DVFS policy, and selects between Full (real int8 math + timing)
// and Timing (timing only) execution.
//
// Design rule (docs/kernels.md § "The two invariants"): a kernel reports
// *exactly the same* work events in both modes — the modes differ only in
// whether the arithmetic is performed — so the DSE can explore with cheap
// Timing runs while tests verify numerics with Full runs on the identical
// cost stream.
#pragma once

#include <cstdint>
#include <vector>

#include "clock/clock_config.hpp"
#include "sim/mcu.hpp"
#include "tensor/tensor.hpp"

namespace daedvfs::kernels {

/// Whether to perform the int8 arithmetic or only replay the event stream.
enum class ExecMode { kFull, kTiming };

/// DVFS hook interface a kernel invokes at DAE segment boundaries
/// (Listing 1 of the paper: ClockSwitchHSE / ClockSwitchPLL call sites).
class DvfsPolicy {
 public:
  virtual ~DvfsPolicy() = default;
  /// Entering a memory-bound segment (channel/column gather).
  virtual void enter_memory_segment(sim::Mcu&) {}
  /// Entering a compute-bound segment (convolution over the buffer).
  virtual void enter_compute_segment(sim::Mcu&) {}
};

/// The paper's policy: LFO (HSE-direct) for memory segments, HFO (PLL) for
/// compute segments (§III-B).
class LfoHfoPolicy final : public DvfsPolicy {
 public:
  LfoHfoPolicy(clock::ClockConfig lfo, clock::ClockConfig hfo)
      : lfo_(std::move(lfo)), hfo_(std::move(hfo)) {}
  void enter_memory_segment(sim::Mcu& mcu) override {
    mcu.switch_clock(lfo_);
  }
  void enter_compute_segment(sim::Mcu& mcu) override {
    mcu.switch_clock(hfo_);
  }
  [[nodiscard]] const clock::ClockConfig& lfo() const { return lfo_; }
  [[nodiscard]] const clock::ClockConfig& hfo() const { return hfo_; }

 private:
  clock::ClockConfig lfo_;
  clock::ClockConfig hfo_;
};

/// A tensor view bound to its simulated address.
struct TensorRef {
  tensor::TensorView view;
  sim::MemRef mem;
};

/// Simulated alignment of the DAE gather buffer (cache-line multiple). One
/// policy shared by the engine's arena placement and the DSE's canonical
/// isolated-layer placement.
inline constexpr uint64_t kScratchAlignBytes = 64;

/// Everything a kernel needs besides its arguments. The simulator pointer is
/// optional: tests that only check numerics run kernels without one.
class ExecContext {
 public:
  sim::Mcu* mcu = nullptr;
  ExecMode mode = ExecMode::kFull;
  DvfsPolicy* dvfs = nullptr;
  /// Simulated placement of the DAE gather buffer (top SRAM scratch area).
  sim::MemRef scratch_mem{sim::kSramBase + 0x0006'0000ull,
                          sim::MemRegion::kSram};

  [[nodiscard]] bool do_math() const { return mode == ExecMode::kFull; }

  // Event forwarding (no-ops without a simulator).
  void memory_segment() {
    if (mcu != nullptr && dvfs != nullptr) dvfs->enter_memory_segment(*mcu);
  }
  void compute_segment() {
    if (mcu != nullptr && dvfs != nullptr) dvfs->enter_compute_segment(*mcu);
  }
  void compute(double cycles) {
    if (mcu != nullptr) mcu->compute(cycles);
  }
  void read(const sim::MemRef& ref, uint64_t bytes,
            double issue_words = -1.0) {
    if (mcu != nullptr) mcu->mem_read(ref, bytes, issue_words);
  }
  void write(const sim::MemRef& ref, uint64_t bytes,
             double issue_words = -1.0) {
    if (mcu != nullptr) mcu->mem_write(ref, bytes, issue_words);
  }
  void charge_memory(double issue_cycles, double stall_ns) {
    if (mcu != nullptr) mcu->charge_memory(issue_cycles, stall_ns);
  }
  void read_strided(const sim::MemRef& ref, uint64_t stride, uint32_t count,
                    uint64_t elem_bytes = 1, double issue_words = -1.0) {
    if (mcu != nullptr) {
      mcu->mem_read_strided(ref, stride, count, elem_bytes, issue_words);
    }
  }
  void write_strided(const sim::MemRef& ref, uint64_t stride, uint32_t count,
                     uint64_t elem_bytes = 1, double issue_words = -1.0) {
    if (mcu != nullptr) {
      mcu->mem_write_strided(ref, stride, count, elem_bytes, issue_words);
    }
  }
  [[nodiscard]] const sim::CostModelParams& cost() const {
    static const sim::CostModelParams kDefault{};
    return mcu != nullptr ? mcu->params().cost : kDefault;
  }

  /// Host storage backing the DAE gather buffer across kernel calls.
  std::vector<int8_t>& scratch_host(std::size_t bytes) {
    if (scratch_.size() < bytes) scratch_.resize(bytes);
    return scratch_;
  }

 private:
  std::vector<int8_t> scratch_;
};

}  // namespace daedvfs::kernels
