#include "morphing/registration.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "grid/interp.h"

namespace wfire::morphing {

namespace {

// Clamped neighbour indices along one axis of length n.
inline int below(int i) { return i > 0 ? i - 1 : 0; }
inline int above(int i, int n) { return i + 1 < n ? i + 1 : n - 1; }

struct Objective {
  double value = 0;  // full objective per pixel
  double data = 0;   // ||u - u0 o (I+T)||^2 per pixel
};

// Warps u0 through T into `warped` (an element-wise parallel pass), then
// evaluates the objective. The sums run sequentially in j-major order at any
// OpenMP team width, so the value the stopping test reads is bitwise
// thread-invariant.
Objective objective(const util::Array2D<double>& u,
                    const util::Array2D<double>& u0, const Mapping& T,
                    double c1, double c2, util::Array2D<double>& warped) {
  const int nx = u.nx(), ny = u.ny();
  warp(u0, T, warped);
  double data = 0, reg1 = 0, reg2 = 0;
  for (int j = 0; j < ny; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    const double* ur = u.data() + row;
    const double* tx = T.tx.data() + row;
    const double* ty = T.ty.data() + row;
    const double* wr = warped.data() + row;
    for (int i = 0; i < nx; ++i) {
      const double e = wr[i] - ur[i];
      data += e * e;
      reg1 += tx[i] * tx[i] + ty[i] * ty[i];
      if (i + 1 < nx) {
        const double dx1 = tx[i + 1] - tx[i], dy1 = ty[i + 1] - ty[i];
        reg2 += dx1 * dx1 + dy1 * dy1;
      }
      if (j + 1 < ny) {
        const double dx2 = tx[i + nx] - tx[i], dy2 = ty[i + nx] - ty[i];
        reg2 += dx2 * dx2 + dy2 * dy2;
      }
    }
  }
  const double npix = static_cast<double>(nx) * ny;
  return {(data + c1 * reg1 + c2 * reg2) / npix, data / npix};
}

// One Gauss-Newton / iterative-warping sweep: linearize
// u0(x + T + dT) ~ u0(x + T) + grad(u0w) . dT and solve pointwise for the
// increment that cancels the residual, with Tikhonov damping alpha.
void gauss_newton_sweep(const util::Array2D<double>& u,
                        const util::Array2D<double>& warped, double alpha,
                        double max_step, Mapping& T) {
  const int nx = u.nx(), ny = u.ny();
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < ny; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    const double* w = warped.data() + row;
    const double* ws = warped.data() + static_cast<std::size_t>(below(j)) * nx;
    const double* wn =
        warped.data() + static_cast<std::size_t>(above(j, ny)) * nx;
    const double* ur = u.data() + row;
    double* tx = T.tx.data() + row;
    double* ty = T.ty.data() + row;
    const auto update = [&](int i, int im, int ip) {
      const double e = w[i] - ur[i];
      const double gx = 0.5 * (w[ip] - w[im]);
      const double gy = 0.5 * (wn[i] - ws[i]);
      const double denom = gx * gx + gy * gy + alpha;
      double dx = -e * gx / denom;
      double dy = -e * gy / denom;
      // The linearization is only valid within about a pixel.
      dx = std::clamp(dx, -max_step, max_step);
      dy = std::clamp(dy, -max_step, max_step);
      tx[i] += dx;
      ty[i] += dy;
    };
    update(0, 0, above(0, nx));
    for (int i = 1; i + 1 < nx; ++i) update(i, i - 1, i + 1);
    if (nx > 1) update(nx - 1, nx - 2, nx - 1);
  }
}

// One row of smooth_mapping for one displacement component.
void smooth_row(const util::Array2D<double>& t, int j, double lambda,
                double factor, util::Array2D<double>& out) {
  const int nx = t.nx();
  const double* c = t.data() + static_cast<std::size_t>(j) * nx;
  const double* s = t.data() + static_cast<std::size_t>(below(j)) * nx;
  const double* n = t.data() + static_cast<std::size_t>(above(j, t.ny())) * nx;
  double* o = out.data() + static_cast<std::size_t>(j) * nx;
  const auto blend = [&](int i, int im, int ip) {
    const double a = 0.25 * (c[im] + c[ip] + s[i] + n[i]);
    o[i] = ((1.0 - lambda) * c[i] + lambda * a) * factor;
  };
  blend(0, 0, above(0, nx));
  for (int i = 1; i + 1 < nx; ++i) blend(i, i - 1, i + 1);
  if (nx > 1) blend(nx - 1, nx - 2, nx - 1);
}

// Diffusion smoothing of the mapping (the ||grad T||^2 term): a weighted
// Jacobi step toward the 4-neighbor average, scaled by `factor` (the
// shrinkage toward zero displacement of the ||T||^2 term; 1 for none).
void smooth_mapping(double lambda, double factor, Mapping& T,
                    Mapping& scratch) {
  const int ny = T.ny();
  if (!scratch.same_shape(T)) scratch = Mapping(T.nx(), ny);
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < ny; ++j) {
    smooth_row(T.tx, j, lambda, factor, scratch.tx);
    smooth_row(T.ty, j, lambda, factor, scratch.ty);
  }
  std::swap(T.tx, scratch.tx);
  std::swap(T.ty, scratch.ty);
}

// Exhaustive integer-shift search at the coarsest level: returns the
// constant translation minimizing the SSD between u and shifted u0. This
// anchors the multiscale refinement so large displacements cannot strand
// the Gauss-Newton iteration in a local minimum.
void global_shift_search(const util::Array2D<double>& u,
                         const util::Array2D<double>& u0, Mapping& T) {
  const int nx = u.nx(), ny = u.ny();
  const int range_x = nx / 3, range_y = ny / 3;
  double best = 1e300;
  int best_dx = 0, best_dy = 0;
  for (int dy = -range_y; dy <= range_y; ++dy) {
    for (int dx = -range_x; dx <= range_x; ++dx) {
      double ssd = 0;
      for (int j = 0; j < ny; ++j) {
        const double* ur = u.data() + static_cast<std::size_t>(j) * nx;
        const double* sr =
            u0.data() +
            static_cast<std::size_t>(std::clamp(j + dy, 0, ny - 1)) * nx;
        for (int i = 0; i < nx; ++i) {
          const double e = sr[std::clamp(i + dx, 0, nx - 1)] - ur[i];
          ssd += e * e;
        }
      }
      if (ssd < best) {
        best = ssd;
        best_dx = dx;
        best_dy = dy;
      }
    }
  }
  T.tx.fill(static_cast<double>(best_dx));
  T.ty.fill(static_cast<double>(best_dy));
}

// Upsample a mapping to (nx, ny), scaling displacements with the resolution.
Mapping upsample(const Mapping& coarse, int nx, int ny) {
  Mapping fine(nx, ny);
  const double sx = static_cast<double>(coarse.nx() - 1) / std::max(nx - 1, 1);
  const double sy = static_cast<double>(coarse.ny() - 1) / std::max(ny - 1, 1);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) {
      const grid::BilinearStencil s =
          grid::bilinear_stencil(coarse.nx(), coarse.ny(), i * sx, j * sy);
      fine.tx(i, j) = s(coarse.tx) / sx;
      fine.ty(i, j) = s(coarse.ty) / sy;
    }
  return fine;
}

}  // namespace

util::Array2D<double> downsample2(const util::Array2D<double>& u) {
  const int nx = std::max(u.nx() / 2, 1), ny = std::max(u.ny() / 2, 1);
  util::Array2D<double> out(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      out(i, j) = 0.25 * (u.at_clamped(2 * i, 2 * j) +
                          u.at_clamped(2 * i + 1, 2 * j) +
                          u.at_clamped(2 * i, 2 * j + 1) +
                          u.at_clamped(2 * i + 1, 2 * j + 1));
  return out;
}

util::Array2D<double> gaussian_smooth(const util::Array2D<double>& u,
                                      double sigma) {
  if (sigma <= 0) return u;
  const int radius = std::max(1, static_cast<int>(std::ceil(2.0 * sigma)));
  std::vector<double> k(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0;
  for (int i = -radius; i <= radius; ++i) {
    k[i + radius] = std::exp(-0.5 * (i * i) / (sigma * sigma));
    sum += k[i + radius];
  }
  for (double& v : k) v /= sum;

  util::Array2D<double> tmp(u.nx(), u.ny()), out(u.nx(), u.ny());
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i) {
      double s = 0;
      for (int a = -radius; a <= radius; ++a)
        s += k[a + radius] * u.at_clamped(i + a, j);
      tmp(i, j) = s;
    }
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i) {
      double s = 0;
      for (int a = -radius; a <= radius; ++a)
        s += k[a + radius] * tmp.at_clamped(i, j + a);
      out(i, j) = s;
    }
  return out;
}

RegistrationResult register_fields(const util::Array2D<double>& u,
                                   const util::Array2D<double>& u0,
                                   const RegistrationOptions& opt) {
  if (!u.same_shape(u0))
    throw std::invalid_argument("register_fields: shape mismatch");

  // Build pyramids (level 0 = finest); the coarsest level keeps >= 16 px so
  // compact features are not aliased away.
  std::vector<util::Array2D<double>> pu{u}, pu0{u0};
  while (static_cast<int>(pu.size()) < opt.max_levels &&
         pu.back().nx() >= 32 && pu.back().ny() >= 32) {
    pu.push_back(downsample2(pu.back()));
    pu0.push_back(downsample2(pu0.back()));
  }

  RegistrationResult res;
  res.levels = static_cast<int>(pu.size());
  Mapping T;

  for (int level = res.levels - 1; level >= 0; --level) {
    const util::Array2D<double> ul =
        gaussian_smooth(pu[level], opt.presmooth_sigma);
    const util::Array2D<double> u0l =
        gaussian_smooth(pu0[level], opt.presmooth_sigma);
    const int nx = ul.nx(), ny = ul.ny();
    if (level == res.levels - 1) {
      T = Mapping(nx, ny);
      global_shift_search(ul, u0l, T);
    } else {
      T = upsample(T, nx, ny);
    }

    // Gauss-Newton damping: scaled by the image dynamic range so the
    // behavior is amplitude-invariant.
    double range = 0;
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) range = std::max(range, std::abs(ul(i, j)));
    const double alpha = std::max(1e-12, 1e-4 * range * range);
    const double lambda = std::min(0.45, opt.c2);
    // Per-sweep shrink of the ||T||^2 term; never an expansion.
    const double shrink = std::min(1.0 / (1.0 + opt.c1), 1.0);

    util::Array2D<double> warped(nx, ny);
    Mapping scratch(nx, ny);
    double prev = objective(ul, u0l, T, opt.c1, opt.c2, warped).value;
    for (int it = 0; it < opt.iters_per_level; ++it) {
      gauss_newton_sweep(ul, warped, alpha, opt.initial_step, T);
      smooth_mapping(lambda, 1.0, T, scratch);
      smooth_mapping(lambda, shrink, T, scratch);
      const double J = objective(ul, u0l, T, opt.c1, opt.c2, warped).value;
      ++res.iterations;
      if (prev - J < opt.tol * std::max(prev, 1e-300) && it > 4) break;
      prev = J;
    }
  }

  // Final metrics on the unsmoothed finest level.
  util::Array2D<double> warped(u.nx(), u.ny());
  const Objective last = objective(u, u0, T, opt.c1, opt.c2, warped);
  res.objective = last.value;
  res.data_term = last.data;
  res.T = std::move(T);
  return res;
}

}  // namespace wfire::morphing
