#include "morphing/morph.h"

#include <stdexcept>

namespace wfire::morphing {

util::Array2D<double> morph_residual(const util::Array2D<double>& u,
                                     const util::Array2D<double>& u0,
                                     const Mapping& T) {
  return morph_residual_inverse(u, u0, invert(T));
}

util::Array2D<double> morph_residual_inverse(const util::Array2D<double>& u,
                                             const util::Array2D<double>& u0,
                                             const Mapping& Tinv) {
  if (!u.same_shape(u0))
    throw std::invalid_argument("morph_residual: shape mismatch");
  util::Array2D<double> warped;
  warp(u, Tinv, warped);  // u o (I+T)^{-1}
  for (int j = 0; j < u.ny(); ++j)
    for (int i = 0; i < u.nx(); ++i) warped(i, j) -= u0(i, j);
  return warped;
}

MorphRep morph_encode(const util::Array2D<double>& u,
                      const util::Array2D<double>& u0,
                      const RegistrationOptions& opt) {
  RegistrationResult reg = register_fields(u, u0, opt);
  MorphRep rep;
  rep.r = morph_residual(u, u0, reg.T);
  rep.T = std::move(reg.T);
  return rep;
}

util::Array2D<double> morph_decode(const util::Array2D<double>& u0,
                                   const MorphRep& rep) {
  return morph_lambda(u0, rep, 1.0);
}

util::Array2D<double> morph_lambda(const util::Array2D<double>& u0,
                                   const MorphRep& rep, double lambda) {
  if (!u0.same_shape(rep.r))
    throw std::invalid_argument("morph_lambda: shape mismatch");
  util::Array2D<double> base(u0.nx(), u0.ny());
  for (int j = 0; j < u0.ny(); ++j)
    for (int i = 0; i < u0.nx(); ++i)
      base(i, j) = u0(i, j) + lambda * rep.r(i, j);
  Mapping lt = rep.T;
  lt.scale(lambda);
  util::Array2D<double> out;
  warp(base, lt, out);
  return out;
}

}  // namespace wfire::morphing
