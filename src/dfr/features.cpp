#include "dfr/features.hpp"

#include "dfr/backprop.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"

namespace dfr {

namespace {

/// Features of `n` samples, row i from sample_at(i).
template <typename SampleAt>
FeatureMatrix compute_features_impl(const ModularReservoir& reservoir,
                                    const DfrParams& params, const Mask& mask,
                                    std::size_t n, const SampleAt& sample_at,
                                    RepresentationKind representation,
                                    unsigned threads) {
  DFR_CHECK(n > 0);
  const std::size_t dim = representation_dim(representation, reservoir.nodes());

  FeatureMatrix out;
  out.features.resize(n, dim);
  out.labels.resize(n);

  if (representation == RepresentationKind::kDprr) {
    // Streaming path: the DPRR accumulator needs only (x(k), x(k-1)), so each
    // worker drives one reusable StreamingForward — the trainer's truncated
    // forward, on the dispatched kernel table — over a contiguous chunk
    // instead of materializing a (T+1) x Nx trajectory per sample. Row i is a
    // pure function of sample i, so any chunking / thread count (and any
    // backend) yields a bit-identical matrix (see for_each_with_engine in
    // util/parallel.hpp).
    for_each_with_engine(
        n, threads, [&] { return StreamingForward(reservoir, mask, 1); },
        [&](StreamingForward& forward, std::size_t i) {
          const Sample& sample = sample_at(i);
          forward.features_into(params, sample.series, out.features.row(i));
          out.labels[i] = sample.label;
        });
    return out;
  }

  // Trajectory path for the comparison representations (last/mean need whole-
  // trajectory reductions that the ablations keep in their published form).
  // Each index owns exactly row i of the output, so any thread count yields
  // a bit-identical matrix.
  parallel_for(
      n,
      [&](std::size_t i) {
        const Sample& sample = sample_at(i);
        const Matrix states = reservoir.run_series(mask, sample.series, params);
        const Vector r = compute_representation(representation, states);
        out.features.set_row(i, r);
        out.labels[i] = sample.label;
      },
      {.threads = threads});
  return out;
}

}  // namespace

FeatureMatrix compute_features(const ModularReservoir& reservoir,
                               const DfrParams& params, const Mask& mask,
                               const Dataset& dataset,
                               RepresentationKind representation,
                               unsigned threads) {
  return compute_features_impl(
      reservoir, params, mask, dataset.size(),
      [&](std::size_t i) -> const Sample& { return dataset[i]; },
      representation, threads);
}

FeatureMatrix compute_features(const ModularReservoir& reservoir,
                               const DfrParams& params, const Mask& mask,
                               const Dataset& dataset,
                               std::span<const std::size_t> rows,
                               RepresentationKind representation,
                               unsigned threads) {
  return compute_features_impl(
      reservoir, params, mask, rows.size(),
      [&](std::size_t i) -> const Sample& { return dataset[rows[i]]; },
      representation, threads);
}

Matrix one_hot(const std::vector<int>& labels, int num_classes) {
  Matrix d(labels.size(), static_cast<std::size_t>(num_classes));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    DFR_CHECK(labels[i] >= 0 && labels[i] < num_classes);
    d(i, static_cast<std::size_t>(labels[i])) = 1.0;
  }
  return d;
}

}  // namespace dfr
