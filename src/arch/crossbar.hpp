#pragma once

/// \file crossbar.hpp
/// \brief Builder for the paper's reconfigurable crossbar-like switches.
///
/// The k-pins-per-side switch core is the (k+1)x(k+1) grid graph; each side
/// carries k pins. The clockwise-first pin of a side attaches by a stub to
/// the corner at the clockwise start of that side (segment "T1-TL"), the
/// remaining k-1 pins attach to the side's boundary routing nodes (segment
/// "T-T2"). For k = 2 this yields exactly the paper's 8-pin switch: pins
/// {T1,T2,R1,R2,B2,B1,L2,L1}, nodes {C,T,R,B,L}, 20 flow segments.
/// k = 3 and k = 4 are the 12-pin and 16-pin structures.
///
/// Geometry follows the Stanford foundry rules quoted in the paper (100 um
/// channels, 100 um spacing); the default pitch keeps neighbouring channels
/// 700 um apart, far above minimum.

#include "arch/topology.hpp"

namespace mlsi::arch {

/// Metric parameters of the crossbar drawing.
struct CrossbarGeometry {
  double pitch_um = 800.0;   ///< grid spacing between adjacent vertices
  double stub_um = 500.0;    ///< pin stub length (pin to attachment vertex)
  double margin_um = 600.0;  ///< whitespace margin around the structure
};

/// Builds the k-pins-per-side crossbar switch (k >= 2). The paper's sizes:
/// k = 2 -> 8-pin, k = 3 -> 12-pin, k = 4 -> 16-pin. Synthesis uses the
/// shared default-geometry model of switch_model() (paths.hpp) instead.
SwitchTopology make_crossbar(int pins_per_side,
                             const CrossbarGeometry& geom = {});

}  // namespace mlsi::arch
