// Interpolation on node-centered grids. The paper's weather-station operator
// locates the containing cell "using linear interpolation of the location"
// and samples model fields with "biquadratic interpolation" (Sec. 3.1); both
// operations live here, together with the bilinear sampling used by the warp
// and the wind coupling.
#pragma once

#include <algorithm>

#include "grid/grid2d.h"
#include "util/array2d.h"

namespace wfire::grid {

// Location of a physical point within a grid: cell indices and unit-square
// fractions. Clamped to the valid interior so samples never read outside.
struct CellLocation {
  int i = 0, j = 0;       // lower-left node of the containing cell
  double tx = 0, ty = 0;  // fractions in [0, 1]
  bool inside = false;    // was (px, py) inside the grid before clamping?
};

[[nodiscard]] CellLocation locate(const Grid2D& g, double px, double py);

// Bilinear sample of a node field at a physical point (clamped extension).
[[nodiscard]] double bilinear(const Grid2D& g,
                              const util::Array2D<double>& field, double px,
                              double py);

// Biquadratic (3x3 Lagrange) sample; second-order-accurate node stencil
// centered on the node nearest to the sample point.
[[nodiscard]] double biquadratic(const Grid2D& g,
                                 const util::Array2D<double>& field, double px,
                                 double py);

// Bilinear stencil at fractional index coordinates (fi, fj) on an nx x ny
// node grid, clamped to the grid: the lower-left node and the four weights.
// Fields sampled at one point (the two components of a mapping) share one
// stencil; apply it only to fields of the nx x ny shape it was built for.
struct BilinearStencil {
  std::size_t node = 0;  // flat index of the lower-left node
  int nx = 0;            // row stride of the sampled fields
  double w00 = 0, w10 = 0, w01 = 0, w11 = 0;

  [[nodiscard]] double operator()(const util::Array2D<double>& field) const {
    const double* f0 = field.data() + node;
    const double* f1 = f0 + nx;
    return w00 * f0[0] + w10 * f0[1] + w01 * f1[0] + w11 * f1[1];
  }
};

[[nodiscard]] inline BilinearStencil bilinear_stencil(int nx, int ny,
                                                      double fi, double fj) {
  fi = std::clamp(fi, 0.0, static_cast<double>(nx - 1));
  fj = std::clamp(fj, 0.0, static_cast<double>(ny - 1));
  const int i = std::min(static_cast<int>(fi), nx - 2);
  const int j = std::min(static_cast<int>(fj), ny - 2);
  WFIRE_ASSERT(i >= 0 && j >= 0, "bilinear sampling needs a 2x2 grid");
  const double tx = fi - i;
  const double ty = fj - j;
  return {static_cast<std::size_t>(j) * nx + i, nx, (1 - tx) * (1 - ty),
          tx * (1 - ty), (1 - tx) * ty, tx * ty};
}

// Bilinear sample using fractional index coordinates (fi, fj) directly;
// used by warps where the mapping is already in grid units. Inline, like
// the stencil, because warps call it per pixel.
[[nodiscard]] inline double bilinear_frac(const util::Array2D<double>& field,
                                          double fi, double fj) {
  return bilinear_stencil(field.nx(), field.ny(), fi, fj)(field);
}

}  // namespace wfire::grid
