// Figures 23-28 (appendix sweeps): accuracy and training loss for every
// dataset x model at groups {1,2,5,baseline}, on both the time axis
// (Figs 23-26) and the epoch axis (Figs 27/28 — which check that lower scan
// groups do NOT improve per-epoch accuracy, i.e. the time-to-accuracy wins
// come from bandwidth, not regularization).
#include <cstdio>

#include "bench_common.h"

using namespace pcr;
using namespace pcr::bench;

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figures 23-28: full accuracy/loss sweeps\n");
  TimeToAccuracyConfig config;
  config.scan_groups = {1, 2, 5, 10};
  config.repeats = 1;  // The headline figures use 2; sweeps trade repeats
                       // for coverage.
  config.eval_every = 20;

  for (const DatasetSpec& spec :
       {DatasetSpec::ImageNetLike(), DatasetSpec::Ham10000Like(),
        DatasetSpec::CarsLike(), DatasetSpec::CelebAHqLike()}) {
    for (const ModelProxy& model :
         {ModelProxy::ResNet18(), ModelProxy::ShuffleNetV2()}) {
      const auto results = RunTimeToAccuracy(spec, model, config);
      printf("\n== %s / %s ==\n", spec.name.c_str(), model.name.c_str());
      TablePrinter table({"scan group", "final acc (%)", "final loss",
                          "acc@25% epochs", "acc@50% epochs",
                          "epoch time (s)"});
      for (const auto& r : results) {
        ReportMetric(spec.name + "/" + model.name + "/group_" +
                         std::to_string(r.scan_group) + "/final_accuracy",
                     r.curve.back().epoch, r.total_seconds, 0,
                     r.final_accuracy, "accuracy");
        const size_t q1 = r.curve.size() / 4;
        const size_t q2 = r.curve.size() / 2;
        table.AddRow({r.scan_group == 10 ? "baseline(10)"
                                         : StrFormat("group_%d", r.scan_group),
                      StrFormat("%.1f", r.final_accuracy),
                      StrFormat("%.3f", r.curve.back().train_loss),
                      StrFormat("%.1f", r.curve[q1].test_accuracy),
                      StrFormat("%.1f", r.curve[q2].test_accuracy),
                      StrFormat("%.2f",
                                r.total_seconds / r.curve.back().epoch)});
      }
      table.Print();
      // Fig 27/28 check: per-epoch accuracy of low groups must not beat the
      // baseline (compression is not acting as a regularizer).
      const double base_final = results.back().final_accuracy;
      bool regularizer = false;
      for (const auto& r : results) {
        if (r.scan_group < 10 && r.final_accuracy > base_final + 2.0) {
          regularizer = true;
        }
      }
      printf("per-epoch check: lower scans %s improve final accuracy "
             "(paper: they don't).\n",
             regularizer ? "DO" : "do not");
    }
  }
  return 0;
}
