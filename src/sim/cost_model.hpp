// Instruction-level cycle costs of the Cortex-M7 pipeline, used by kernels to
// convert work (MACs, loads, requantizations) into cycles. The M7 is a
// dual-issue in-order core; SMLAD-style packed MACs retire two int8 MACs per
// issue slot in tuned kernels, which the default cycles_per_mac reflects.
#pragma once

namespace daedvfs::sim {

struct CostModelParams {
  double cycles_per_mac = 0.75;        ///< Effective int8 MAC cost (SMLAD).
  double cycles_per_load_word = 1.0;   ///< Pipelined 32-bit load issue.
  double cycles_per_store_word = 1.0;
  double cycles_per_requant = 5.0;     ///< Fixed-point rescale + saturate.
  double loop_overhead_cycles = 2.0;   ///< Per innermost-loop iteration.
  double call_overhead_cycles = 30.0;  ///< Kernel invocation + prologue.
  /// MAC-cost multiplier when operands arrive via strided byte loads (the
  /// interleaved per-channel depthwise baseline): LDRB-fed MACs cannot
  /// dual-issue or use SMLAD pairing. DAE's gathered planes restore
  /// contiguous word feeds, which is why the paper's Fig. 4 shows latency
  /// *dropping* with granularity at iso-frequency.
  double strided_mac_factor = 1.1;

  /// Cycles to issue `bytes` of load traffic (word-granular).
  [[nodiscard]] double load_issue_cycles(double bytes) const {
    return cycles_per_load_word * ((bytes + 3.0) / 4.0);
  }
  [[nodiscard]] double store_issue_cycles(double bytes) const {
    return cycles_per_store_word * ((bytes + 3.0) / 4.0);
  }
};

}  // namespace daedvfs::sim
