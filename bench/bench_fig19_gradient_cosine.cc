// Figure 19: "cosine distances between true gradient (e.g., scan 10) and
// the gradient with respect to a scan group" on HAM10000/ShuffleNet,
// including the 50%/85% mixture variants — mixing raises the similarity of
// low scans ("the tolerance to lower scans is increased").
#include <cstdio>

#include "bench_common.h"
#include "train/trainer.h"

using namespace pcr;
using namespace pcr::bench;

namespace {

// Gradient of mixture training = expectation over the group distribution.
std::vector<float> MixtureGradient(const Trainer& trainer,
                                   const std::vector<int>& groups,
                                   const std::vector<double>& weights,
                                   int max_examples) {
  std::vector<float> acc;
  double total = 0;
  for (size_t i = 0; i < groups.size(); ++i) total += weights[i];
  for (size_t i = 0; i < groups.size(); ++i) {
    const auto g = trainer.GradientForGroup(groups[i], max_examples);
    if (acc.empty()) acc.assign(g.size(), 0.0f);
    const float w = static_cast<float>(weights[i] / total);
    for (size_t k = 0; k < g.size(); ++k) acc[k] += w * g[k];
  }
  return acc;
}

}  // namespace

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figure 19: gradient cosine similarity vs scan group "
         "(ham10000_like, ShuffleNet proxy)\n\n");
  const DatasetSpec spec = DatasetSpec::Ham10000Like();
  DatasetHandle handle = GetDataset(spec);
  const ModelProxy model = ModelProxy::ShuffleNetV2();

  CachedDatasetOptions cache_options;
  cache_options.scan_groups = {1, 2, 5, 10};
  cache_options.features = model.features;
  auto cached =
      CachedDataset::Build(handle.pcr.get(), cache_options).MoveValue();
  auto classifier =
      model.MakeClassifier(cached.feature_dim(), cached.num_classes(), 3);
  TrainerOptions trainer_options =
      TrainRecipe::ForDataset(spec.name).trainer;
  Trainer trainer(&cached, classifier.get(), trainer_options);

  const std::vector<int> groups = {1, 2, 5, 10};
  const int grad_examples = 384;

  TablePrinter table({"epoch", "cos(g1)", "cos(g2)", "cos(g5)", "cos(g10)",
                      "cos(g1,mix50)", "cos(g1,mix85)"});
  for (int epoch = 0; epoch <= 60; epoch += 10) {
    const auto ref = trainer.GradientForGroup(10, grad_examples);
    std::vector<std::string> row = {StrFormat("%d", epoch)};
    for (int g : groups) {
      const double cos = CosineSimilarity(
          trainer.GradientForGroup(g, grad_examples), ref);
      ReportMetric("epoch_" + std::to_string(epoch) + "/cos_g" +
                       std::to_string(g),
                   grad_examples, 0, 0, cos, "cosine");
      row.push_back(StrFormat("%.3f", cos));
    }
    // Mixtures centered on group 1: weight w on g1, 1 on each other group.
    for (double w : {10.0, 100.0}) {
      const auto mix = MixtureGradient(trainer, groups, {w, 1.0, 1.0, 1.0},
                                       grad_examples);
      row.push_back(StrFormat("%.3f", CosineSimilarity(mix, ref)));
    }
    table.AddRow(row);
    if (epoch < 60) {
      for (int e = 0; e < 10; ++e) trainer.RunEpoch(10);
    }
  }
  table.Print();
  printf("\npaper checks: cosine rises with scan group (cos(g10)=1 by "
         "definition); mixtures pull group 1's gradient toward the true "
         "gradient, so a fixed similarity cutoff admits lower scans.\n");
  return 0;
}
