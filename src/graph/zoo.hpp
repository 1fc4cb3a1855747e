// Model zoo: the three CNNs of the paper's evaluation (§IV) — Visual Wake
// Words (VWW), Person Detection (PD) and MobileNetV2 (MBV2), "derived from
// the MCUNet inference library". The architectures here are faithful to the
// families those deployments come from (MobileNetV2-style inverted residual
// stacks for VWW/MBV2, a MobileNetV1-style depthwise-separable chain for PD)
// at MCU-scale widths/resolutions; weights are deterministic random int8
// (see docs/architecture.md, `graph/` — the methodology depends only on
// layer shapes).
#pragma once

#include "graph/model.hpp"

namespace daedvfs::graph::zoo {

/// Visual Wake Words: reduced-width MobileNetV2 backbone, 96x96x3 input,
/// binary head.
[[nodiscard]] Model make_vww(uint32_t seed = 1);

/// Person Detection: MobileNetV1-style depthwise-separable chain at width
/// ~0.25, 96x96x3 input, binary head.
[[nodiscard]] Model make_person_detection(uint32_t seed = 2);

/// MobileNetV2 at width 0.35, 96x96x3 input, 10-class head.
[[nodiscard]] Model make_mbv2(uint32_t seed = 3);

/// Generic parameterized MobileNetV2 (used by the zoo and by tests).
struct InvertedResidualSpec {
  int expand_ratio;
  int channels;   ///< Before width multiplication.
  int repeats;
  int stride;     ///< Stride of the first repeat.
};

[[nodiscard]] Model make_mobilenet_v2(const std::string& name, int resolution,
                                      double width_multiplier,
                                      const std::vector<InvertedResidualSpec>& blocks,
                                      int first_conv_channels,
                                      int last_channels, int num_classes,
                                      uint32_t seed);

/// All three evaluation models, in the paper's order {VWW, PD, MBV2}.
[[nodiscard]] std::vector<Model> make_evaluation_suite();

}  // namespace daedvfs::graph::zoo
