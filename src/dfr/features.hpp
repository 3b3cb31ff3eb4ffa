#pragma once
// Batch feature extraction: run the reservoir over every sample of a dataset
// and stack the chosen representation into an N x Nr matrix for the ridge
// solver. This is the forward-only path used by grid search, by the final
// readout fit, and by evaluation. The DPRR representation streams each
// sample through StreamingForward (dfr/backprop.hpp) on the dispatched
// kernel table; its rows are bit-identical on every backend.

#include <span>
#include <vector>

#include "data/dataset.hpp"
#include "dfr/mask.hpp"
#include "dfr/representation.hpp"
#include "dfr/reservoir.hpp"

namespace dfr {

struct FeatureMatrix {
  Matrix features;          // N x Nr
  std::vector<int> labels;  // N
};

/// Features for every sample. `threads` caps the pool slots used for the
/// per-sample sweep (0 = all cores, 1 = serial); each row is written
/// independently, so results are bit-identical for any value.
FeatureMatrix compute_features(const ModularReservoir& reservoir,
                               const DfrParams& params, const Mask& mask,
                               const Dataset& dataset,
                               RepresentationKind representation,
                               unsigned threads = 1);

/// Features of the samples `rows` of `dataset`, in that order: row i holds
/// the features and label of dataset[rows[i]], bit-identical to that
/// sample's row in the whole-dataset overload.
FeatureMatrix compute_features(const ModularReservoir& reservoir,
                               const DfrParams& params, const Mask& mask,
                               const Dataset& dataset,
                               std::span<const std::size_t> rows,
                               RepresentationKind representation,
                               unsigned threads = 1);

/// One-hot target matrix (N x Ny) from labels.
Matrix one_hot(const std::vector<int>& labels, int num_classes);

}  // namespace dfr
