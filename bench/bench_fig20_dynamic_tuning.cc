// Figures 20, 21, 22: gradient-cosine dynamic tuning.
//  - Fig 20: HAM10000 with no-mix / 50% / 85% mixtures vs baseline.
//  - Fig 21: CelebA with no-mix vs baseline (tuning every 30 epochs, first
//    tune at epoch 5).
//  - Fig 22: the training-rate trace of a dynamically-tuned CelebA run
//    (rates jump when the tuner switches to lower scans).
#include <cstdio>

#include "bench_common.h"
#include "tune/dynamic_tuner.h"

using namespace pcr;
using namespace pcr::bench;

namespace {

struct DynamicRun {
  std::string name;
  double seconds = 0;
  double accuracy = 0;
  std::string schedule;
  std::vector<std::pair<int, double>> rate_trace;  // (epoch, img/s).
};

DynamicRun RunWithCosineTuner(RecordSource* source,
                              const CachedDataset& cached,
                              const ModelProxy& model,
                              const TrainRecipe& recipe,
                              const DeviceProfile& storage,
                              double mixture_weight, const char* name) {
  DynamicRun run;
  run.name = name;
  auto classifier =
      model.MakeClassifier(cached.feature_dim(), cached.num_classes(), 11);
  Trainer trainer(&cached, classifier.get(), recipe.trainer);
  TrainingPipelineSim sim(source, storage, model.compute, DecodeCostModel{},
                          PipelineSimOptions{});
  CosineTunerOptions tuner_options;
  tuner_options.first_tune_epoch = 5;
  tuner_options.tune_every = 30;
  tuner_options.mixture_weight = mixture_weight;
  CosineTuner tuner(tuner_options);

  size_t events_seen = 0;
  for (int e = 0; e < recipe.epochs; ++e) {
    auto policy = tuner.Advise(&trainer);
    const auto epoch_sim = sim.SimulateEpoch(policy.get());
    run.seconds += epoch_sim.elapsed_seconds;
    trainer.RunEpochMixture(policy.get());
    if (e % 10 == 0) run.rate_trace.emplace_back(e, epoch_sim.images_per_sec);
    while (events_seen < tuner.events().size()) {
      const auto& event = tuner.events()[events_seen++];
      run.schedule += StrFormat("e%d->g%d ", event.epoch, event.chosen_group);
    }
  }
  run.accuracy = trainer.TestAccuracy();
  return run;
}

DynamicRun RunBaseline(RecordSource* source, const CachedDataset& cached,
                       const ModelProxy& model, const TrainRecipe& recipe,
                       const DeviceProfile& storage) {
  DynamicRun run;
  run.name = "baseline(10)";
  run.schedule = "fixed 10";
  auto classifier =
      model.MakeClassifier(cached.feature_dim(), cached.num_classes(), 11);
  Trainer trainer(&cached, classifier.get(), recipe.trainer);
  TrainingPipelineSim sim(source, storage, model.compute, DecodeCostModel{},
                          PipelineSimOptions{});
  FixedScanPolicy policy(10);
  for (int e = 0; e < recipe.epochs; ++e) {
    const auto epoch_sim = sim.SimulateEpoch(&policy);
    run.seconds += epoch_sim.elapsed_seconds;
    trainer.RunEpoch(10);
    if (e % 10 == 0) run.rate_trace.emplace_back(e, epoch_sim.images_per_sec);
  }
  run.accuracy = trainer.TestAccuracy();
  return run;
}

void PrintRuns(const char* title, const std::vector<DynamicRun>& runs) {
  printf("\n== %s ==\n", title);
  TablePrinter table({"strategy", "sim time (s)", "final acc (%)", "speedup",
                      "tuning schedule"});
  for (const auto& run : runs) {
    ReportMetric(std::string(title) + "/" + run.name + "/sim_seconds", 1,
                 run.seconds, 0, run.accuracy, "accuracy");
    table.AddRow({run.name, StrFormat("%.1f", run.seconds),
                  StrFormat("%.1f", run.accuracy),
                  StrFormat("%.2fx", runs[0].seconds / run.seconds),
                  run.schedule});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figures 20-22: gradient-cosine dynamic tuning\n");

  // ---- Fig 20: HAM10000, both models, with mixtures.
  {
    const DatasetSpec spec = DatasetSpec::Ham10000Like();
    DatasetHandle handle = GetDataset(spec);
    const TrainRecipe recipe = TrainRecipe::ForDataset(spec.name);
    const DeviceProfile storage =
        CalibratedStorage(handle.pcr.get(), spec.name);
    for (const ModelProxy& model :
         {ModelProxy::ResNet18(), ModelProxy::ShuffleNetV2()}) {
      CachedDatasetOptions cache_options;
      cache_options.scan_groups = {1, 2, 5, 10};
      cache_options.features = model.features;
      auto cached =
          CachedDataset::Build(handle.pcr.get(), cache_options).MoveValue();
      std::vector<DynamicRun> runs;
      runs.push_back(
          RunBaseline(handle.pcr.get(), cached, model, recipe, storage));
      runs.push_back(RunWithCosineTuner(handle.pcr.get(), cached, model,
                                        recipe, storage, 0.0,
                                        "dynamic (no mix)"));
      runs.push_back(RunWithCosineTuner(handle.pcr.get(), cached, model,
                                        recipe, storage, 10.0,
                                        "dynamic mix 50%"));
      runs.push_back(RunWithCosineTuner(handle.pcr.get(), cached, model,
                                        recipe, storage, 100.0,
                                        "dynamic mix 85%"));
      PrintRuns(("Fig 20: ham10000_like / " + model.name).c_str(), runs);
    }
  }

  // ---- Fig 21 + 22: CelebA, no-mix dynamic with rate trace.
  {
    const DatasetSpec spec = DatasetSpec::CelebAHqLike();
    DatasetHandle handle = GetDataset(spec);
    const TrainRecipe recipe = TrainRecipe::ForDataset(spec.name);
    const DeviceProfile storage =
        CalibratedStorage(handle.pcr.get(), spec.name);
    for (const ModelProxy& model :
         {ModelProxy::ResNet18(), ModelProxy::ShuffleNetV2()}) {
      CachedDatasetOptions cache_options;
      cache_options.scan_groups = {1, 2, 5, 10};
      cache_options.features = model.features;
      auto cached =
          CachedDataset::Build(handle.pcr.get(), cache_options).MoveValue();
      std::vector<DynamicRun> runs;
      runs.push_back(
          RunBaseline(handle.pcr.get(), cached, model, recipe, storage));
      runs.push_back(RunWithCosineTuner(handle.pcr.get(), cached, model,
                                        recipe, storage, 0.0,
                                        "dynamic (no mix)"));
      PrintRuns(("Fig 21: celebahq_like / " + model.name).c_str(), runs);

      if (model.name == "ShuffleNet") {
        printf("\nFig 22: training-rate trace (celebahq_like, ShuffleNet)\n");
        TablePrinter trace({"epoch", "dynamic rate (img/s)",
                            "baseline rate (img/s)"});
        for (size_t i = 0; i < runs[1].rate_trace.size(); ++i) {
          trace.AddRow(
              {StrFormat("%d", runs[1].rate_trace[i].first),
               StrFormat("%.0f", runs[1].rate_trace[i].second),
               StrFormat("%.0f", runs[0].rate_trace[i].second)});
        }
        trace.Print();
      }
    }
  }

  printf("\npaper checks: dynamic tuning beats the baseline in time at "
         "matched accuracy; the rate trace jumps when the tuner drops to a "
         "lower scan group; mixtures tolerate lower scans.\n");
  return 0;
}
