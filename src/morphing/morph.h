// The morphing transform (paper Sec. 3.3, Eq. (1) with the lead term
// corrected to u0; see DESIGN.md): given a reference field u0 and a
// registration mapping T with u ~= u0 o (I + T), the registration residual
//
//     r = u o (I + T)^{-1} - u0
//
// turns u into the additive representation [r, T], and intermediate states
// along the morphing path are
//
//     u_lambda = (u0 + lambda r) o (I + lambda T),   0 <= lambda <= 1,
//
// with u_0 = u0 and u_1 = u (up to interpolation error). The morphing EnKF
// makes *linear combinations* of [r, T] representations meaningful: they
// move the fire, not just scale it.
#pragma once

#include "morphing/registration.h"
#include "morphing/warp.h"

namespace wfire::morphing {

// A field in morphing representation relative to some reference u0.
struct MorphRep {
  util::Array2D<double> r;  // amplitude residual
  Mapping T;                // position mapping
};

// Computes r = u o (I+T)^{-1} - u0 for a given registration mapping.
[[nodiscard]] util::Array2D<double> morph_residual(
    const util::Array2D<double>& u, const util::Array2D<double>& u0,
    const Mapping& T);

// The same residual given Tinv = invert(T), so several fields that share one
// mapping (a member's companions) pay for a single inversion.
[[nodiscard]] util::Array2D<double> morph_residual_inverse(
    const util::Array2D<double>& u, const util::Array2D<double>& u0,
    const Mapping& Tinv);

// Full encode: register u against u0, then compute the residual.
[[nodiscard]] MorphRep morph_encode(const util::Array2D<double>& u,
                                    const util::Array2D<double>& u0,
                                    const RegistrationOptions& opt = {});

// Decode: u = (u0 + r) o (I + T).
[[nodiscard]] util::Array2D<double> morph_decode(
    const util::Array2D<double>& u0, const MorphRep& rep);

// Intermediate state u_lambda = (u0 + lambda r) o (I + lambda T).
[[nodiscard]] util::Array2D<double> morph_lambda(
    const util::Array2D<double>& u0, const MorphRep& rep, double lambda);

}  // namespace wfire::morphing
