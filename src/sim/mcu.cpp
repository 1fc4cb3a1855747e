#include "sim/mcu.hpp"

namespace daedvfs::sim {

Mcu::Mcu(SimParams params)
    : params_(params),
      rcc_(params.boot, params.switching),
      cache_(params.cache),
      power_model_(params.power) {}

void Mcu::advance(double dt_us, power::Activity act) {
  if (dt_us <= 0.0) return;
  const auto a = static_cast<std::size_t>(act);
  const auto bit = static_cast<uint8_t>(1u << a);
  if ((power_valid_ & bit) == 0) {
    power_mw_[a] =
        power_model_.power_mw(power::PowerState::of(rcc_.state()), act);
    power_valid_ |= bit;
  }
  meter_.record(time_us_, time_us_ + dt_us, power_mw_[a]);
  time_us_ += dt_us;
}

void Mcu::compute(double cycles) {
  if (ledger_ != nullptr) {
    ledger_->domain(rcc_.current()).compute_cycles += cycles;
  }
  advance(cycles_to_us(cycles), power::Activity::kCompute);
}

void Mcu::mem_access(const MemRef& ref, uint64_t bytes, double issue_words,
                     bool is_write) {
  if (bytes == 0) return;
  const double f = rcc_.sysclk_mhz();
  double issue_cycles;
  if (issue_words >= 0.0) {
    issue_cycles = issue_words * (is_write ? params_.cost.cycles_per_store_word
                                           : params_.cost.cycles_per_load_word);
  } else {
    issue_cycles =
        is_write ? params_.cost.store_issue_cycles(static_cast<double>(bytes))
                 : params_.cost.load_issue_cycles(static_cast<double>(bytes));
  }
  double stall_ns = 0.0;
  AccessResult res{};
  if (ref.region == MemRegion::kDtcm) {
    // Tightly-coupled memory bypasses the cache entirely.
    issue_cycles += params_.memory.dtcm_extra_cycles;
  } else {
    res = cache_.access(ref.vaddr, bytes, is_write);
    stall_ns += res.misses * miss_penalty_ns(ref.region, f, params_.memory);
    stall_ns += res.writebacks * params_.memory.writeback_ns;
  }
  if (ledger_ != nullptr) {
    WorkLedger::Domain& d = ledger_->domain(rcc_.current());
    d.issue_cycles += issue_cycles;
    (ref.region == MemRegion::kFlash ? d.flash_misses : d.sram_misses) +=
        res.misses;
    d.writebacks += res.writebacks;
  }
  const double dt_us = issue_cycles / f + stall_ns * 1e-3;
  advance(dt_us, power::Activity::kMemoryStall);
}

void Mcu::mem_read(const MemRef& ref, uint64_t bytes, double issue_words) {
  mem_access(ref, bytes, issue_words, /*is_write=*/false);
}

void Mcu::mem_write(const MemRef& ref, uint64_t bytes, double issue_words) {
  mem_access(ref, bytes, issue_words, /*is_write=*/true);
}

void Mcu::mem_read_strided(const MemRef& ref, uint64_t stride, uint32_t count,
                           uint64_t elem_bytes, double issue_words) {
  mem_access_strided(ref, stride, count, elem_bytes, issue_words,
                     /*is_write=*/false);
}

void Mcu::mem_write_strided(const MemRef& ref, uint64_t stride, uint32_t count,
                            uint64_t elem_bytes, double issue_words) {
  mem_access_strided(ref, stride, count, elem_bytes, issue_words,
                     /*is_write=*/true);
}

void Mcu::mem_access_strided(const MemRef& ref, uint64_t stride,
                             uint32_t count, uint64_t elem_bytes,
                             double issue_words, bool is_write) {
  if (count == 0) return;
  const double f = rcc_.sysclk_mhz();
  // Default: one LDRB/STRB per element (strided patterns cannot use word
  // loads); callers override for patterns with intra-element word reuse.
  const double issues = issue_words >= 0.0 ? issue_words
                                           : static_cast<double>(count);
  const double issue_cycles =
      issues * (is_write ? params_.cost.cycles_per_store_word
                         : params_.cost.cycles_per_load_word);
  double stall_ns = 0.0;
  AccessResult res{};
  if (ref.region == MemRegion::kDtcm) {
    // uncached, single-cycle
  } else {
    res = cache_.access_strided(ref.vaddr, stride, count, elem_bytes,
                                is_write);
    stall_ns += res.misses * miss_penalty_ns(ref.region, f, params_.memory);
    stall_ns += res.writebacks * params_.memory.writeback_ns;
  }
  if (ledger_ != nullptr) {
    WorkLedger::Domain& d = ledger_->domain(rcc_.current());
    d.issue_cycles += issue_cycles;
    (ref.region == MemRegion::kFlash ? d.flash_misses : d.sram_misses) +=
        res.misses;
    d.writebacks += res.writebacks;
  }
  advance(issue_cycles / f + stall_ns * 1e-3, power::Activity::kMemoryStall);
}

void Mcu::charge_memory(double issue_cycles, double stall_ns) {
  if (ledger_ != nullptr) {
    WorkLedger::Domain& d = ledger_->domain(rcc_.current());
    d.charge_issue_cycles += issue_cycles;
    d.charge_stall_ns += stall_ns;
  }
  const double dt_us = issue_cycles / rcc_.sysclk_mhz() + stall_ns * 1e-3;
  advance(dt_us, power::Activity::kMemoryStall);
}

clock::SwitchCost Mcu::switch_clock(const clock::ClockConfig& target) {
  const clock::SwitchCost cost = rcc_.switch_to(target);
  power_valid_ = 0;
  if (ledger_ != nullptr && cost.total_us > 0.0) {
    WorkLedger::Domain& d = ledger_->domain(rcc_.current());
    ++d.switches_in;
    d.switch_us += cost.total_us;
  }
  // During the switch the core stalls (flash WS reprogram, PLL lock wait);
  // power is the post-switch state's stall power — a close approximation
  // since the relock runs with the new dividers programmed.
  advance(cost.total_us, power::Activity::kMemoryStall);
  return cost;
}

void Mcu::idle_for(double us, bool gated) {
  advance(us, gated ? power::Activity::kIdleClockGated
                    : power::Activity::kIdle);
}

void Mcu::idle_until(double t_us, bool gated) {
  if (t_us > time_us_) idle_for(t_us - time_us_, gated);
}

McuSnapshot Mcu::snapshot() const {
  return {time_us_, meter_.total_uj(), cache_.stats(), rcc_.stats()};
}

}  // namespace daedvfs::sim
