#include "morphing/warp.h"

#include "util/omp_compat.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "grid/interp.h"

namespace wfire::morphing {

namespace {

// Both components of T have u's shape; the row loops below rely on it.
bool shaped_like(const Mapping& T, const util::Array2D<double>& u) {
  return T.tx.same_shape(u) && T.ty.same_shape(u);
}

}  // namespace

double Mapping::max_norm() const {
  double m = 0;
  for (int j = 0; j < ty.ny(); ++j)
    for (int i = 0; i < tx.nx(); ++i)
      m = std::max(m, std::hypot(tx(i, j), ty(i, j)));
  return m;
}

void warp(const util::Array2D<double>& u, const Mapping& T,
          util::Array2D<double>& out) {
  if (!shaped_like(T, u))
    throw std::invalid_argument("warp: mapping shape mismatch");
  if (!out.same_shape(u)) out = util::Array2D<double>(u.nx(), u.ny());
  const int nx = u.nx();
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < u.ny(); ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    const double* tx = T.tx.data() + row;
    const double* ty = T.ty.data() + row;
    double* o = out.data() + row;
    for (int i = 0; i < nx; ++i)
      o[i] = grid::bilinear_frac(u, i + tx[i], j + ty[i]);
  }
}

Mapping compose(const Mapping& T1, const Mapping& T2) {
  if (!shaped_like(T1, T1.tx) || !shaped_like(T2, T1.tx))
    throw std::invalid_argument("compose: mapping shape mismatch");
  const int nx = T1.nx(), ny = T1.ny();
  Mapping S(nx, ny);
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
  for (int j = 0; j < ny; ++j) {
    const std::size_t row = static_cast<std::size_t>(j) * nx;
    const double* t2x = T2.tx.data() + row;
    const double* t2y = T2.ty.data() + row;
    double* sx = S.tx.data() + row;
    double* sy = S.ty.data() + row;
    for (int i = 0; i < nx; ++i) {
      const grid::BilinearStencil s =
          grid::bilinear_stencil(nx, ny, i + t2x[i], j + t2y[i]);
      sx[i] = t2x[i] + s(T1.tx);
      sy[i] = t2y[i] + s(T1.ty);
    }
  }
  return S;
}

Mapping invert(const Mapping& T, int iters, double relax) {
  if (!shaped_like(T, T.tx))
    throw std::invalid_argument("invert: mapping components differ in shape");
  const int nx = T.nx(), ny = T.ny();
  Mapping inv(nx, ny);
  Mapping next(nx, ny);
  for (int it = 0; it < iters; ++it) {
WFIRE_PRAGMA_OMP(omp parallel for schedule(static))
    for (int j = 0; j < ny; ++j) {
      const std::size_t row = static_cast<std::size_t>(j) * nx;
      const double* ix = inv.tx.data() + row;
      const double* iy = inv.ty.data() + row;
      double* nxt = next.tx.data() + row;
      double* nyt = next.ty.data() + row;
      for (int i = 0; i < nx; ++i) {
        const grid::BilinearStencil s =
            grid::bilinear_stencil(nx, ny, i + ix[i], j + iy[i]);
        nxt[i] = (1.0 - relax) * ix[i] - relax * s(T.tx);
        nyt[i] = (1.0 - relax) * iy[i] - relax * s(T.ty);
      }
    }
    std::swap(inv, next);
  }
  return inv;
}

double inverse_error(const Mapping& T, const Mapping& Tinv) {
  return compose(T, Tinv).max_norm();
}

}  // namespace wfire::morphing
