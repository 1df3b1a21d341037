// Figure 8: "Adaptive tuning on HAM10000 for the same number of epochs ...
// even with a simple strategy, the dynamic approach is able to achieve the
// same accuracy and is more efficient than using all scans."
//
// Loss-plateau autotuner (§4.5): train at full quality until the loss
// plateaus, checkpoint, probe candidate groups, roll back, continue at the
// chosen group. Probe epochs are charged to simulated time.
#include <cstdio>

#include "bench_common.h"
#include "tune/dynamic_tuner.h"

using namespace pcr;
using namespace pcr::bench;

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figure 8: loss-based adaptive scan-group tuning on HAM10000\n");
  const DatasetSpec spec = DatasetSpec::Ham10000Like();
  DatasetHandle handle = GetDataset(spec);
  RecordSource* source = handle.pcr.get();
  const TrainRecipe recipe = TrainRecipe::ForDataset(spec.name);
  const DeviceProfile storage = CalibratedStorage(source, spec.name);

  for (const ModelProxy& model :
       {ModelProxy::ResNet18(), ModelProxy::ShuffleNetV2()}) {
    CachedDatasetOptions cache_options;
    cache_options.scan_groups = {1, 2, 5, 10};
    cache_options.features = model.features;
    auto cached = CachedDataset::Build(source, cache_options).MoveValue();

    struct RunResult {
      std::string name;
      double seconds;
      double accuracy;
      std::string schedule;
    };
    std::vector<RunResult> runs;

    // Baseline: all scans, fixed.
    {
      auto classifier =
          model.MakeClassifier(cached.feature_dim(), cached.num_classes(), 1);
      Trainer trainer(&cached, classifier.get(), recipe.trainer);
      TrainingPipelineSim sim(source, storage, model.compute,
                              DecodeCostModel{}, PipelineSimOptions{});
      FixedScanPolicy policy(10);
      double t = 0;
      for (int e = 0; e < recipe.epochs; ++e) {
        t += sim.SimulateEpoch(&policy).elapsed_seconds;
        trainer.RunEpoch(10);
      }
      runs.push_back({"baseline(10)", t, trainer.TestAccuracy(), "10"});
    }

    // Dynamic: loss-plateau tuner.
    {
      auto classifier =
          model.MakeClassifier(cached.feature_dim(), cached.num_classes(), 1);
      Trainer trainer(&cached, classifier.get(), recipe.trainer);
      TrainingPipelineSim sim(source, storage, model.compute,
                              DecodeCostModel{}, PipelineSimOptions{});
      LossPlateauTunerOptions tuner_options;
      tuner_options.candidate_groups = {1, 2, 5, 10};
      LossPlateauTuner tuner(tuner_options);

      double t = 0;
      std::string schedule;
      size_t events_seen = 0;
      int last_group = 10;
      for (int e = 0; e < recipe.epochs; ++e) {
        tuner.Step(&trainer);
        // Charge this epoch plus any probe epochs the tuner ran.
        const int group = tuner.current_group() == 0 ? 10
                                                     : tuner.current_group();
        FixedScanPolicy policy(group);
        t += sim.SimulateEpoch(&policy).elapsed_seconds;
        while (events_seen < tuner.events().size()) {
          const TuneEvent& event = tuner.events()[events_seen++];
          for (const auto& [probe_group, loss] : event.probes) {
            FixedScanPolicy probe_policy(probe_group);
            t += sim.SimulateEpoch(&probe_policy).elapsed_seconds;
          }
          schedule += StrFormat("e%d->g%d ", event.epoch, event.chosen_group);
        }
        if (group != last_group) last_group = group;
      }
      if (schedule.empty()) schedule = "no tune events";
      runs.push_back({"dynamic(plateau)", t, trainer.TestAccuracy(),
                      schedule});
    }

    printf("\n-- %s / %s (%d epochs each) --\n", spec.name.c_str(),
           model.name.c_str(), recipe.epochs);
    TablePrinter table({"strategy", "sim time (s)", "final acc (%)",
                        "speedup", "tuning schedule"});
    for (const auto& run : runs) {
      ReportMetric(model.name + "/" + run.name + "/sim_seconds", recipe.epochs,
                   run.seconds, 0, run.accuracy, "accuracy");
      table.AddRow({run.name, StrFormat("%.1f", run.seconds),
                    StrFormat("%.1f", run.accuracy),
                    StrFormat("%.2fx", runs[0].seconds / run.seconds),
                    run.schedule});
    }
    table.Print();
  }
  printf("\npaper check: dynamic tuning reaches baseline accuracy in less "
         "time; training speeds up when scan groups shift down.\n");
  return 0;
}
