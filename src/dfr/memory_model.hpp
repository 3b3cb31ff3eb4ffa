#pragma once
// Stored-value accounting for the truncated backprop (paper Table 2).
//
// "Naive" full BPTT must retain every reservoir state of a sample ((T+1)
// vectors of Nx values) until the backward pass; the truncated method needs
// only the last two (window+1 in our generalization). The reservoir
// representation (Nx*(Nx+1) values) and the output weights
// (Ny*(Nx*(Nx+1)+1) values including biases) are held in both regimes.
//
//   naive      = (T+1)*Nx + Nx*(Nx+1) + Ny*(Nx*(Nx+1)+1)
//   simplified =     2*Nx + Nx*(Nx+1) + Ny*(Nx*(Nx+1)+1)
//
// These formulas reproduce the paper's Table 2 exactly for all 12 datasets
// (verified in tests/test_memory_model.cpp against the published numbers and
// against live buffer sizes of the implementation).
//
// The counts are state values. The truncated forward (StreamingForward,
// backprop.hpp) keeps its (window+1) states in rows padded to
// simd::padded_nodes(Nx) doubles for whole-vector kernels;
// TruncatedForward::stored_state_values still counts (window+1)*Nx, and the
// (window+1)*(padded_nodes(Nx) - Nx) pad lanes are listed separately by
// StreamingForward::pad_values (Nx = 30: 60 state values, 4 pad lanes).

#include <cstddef>

namespace dfr {

struct MemoryBreakdown {
  std::size_t reservoir_state = 0;   // state vectors held for backprop
  std::size_t representation = 0;    // DPRR feature vector
  std::size_t output_weights = 0;    // W and b

  [[nodiscard]] std::size_t total() const noexcept {
    return reservoir_state + representation + output_weights;
  }
};

/// Full-BPTT storage for a series of length T.
MemoryBreakdown naive_memory(std::size_t t_len, std::size_t nx, int ny);

/// Truncated-backprop storage with a given window (paper: window = 1).
MemoryBreakdown truncated_memory(std::size_t window, std::size_t nx, int ny);

/// Paper's reduction column: (naive - simplified) / naive.
double memory_reduction(const MemoryBreakdown& naive,
                        const MemoryBreakdown& simplified);

}  // namespace dfr
