// Figure 7: "MSSIM vs accuracy for the Cars dataset (with/without cropping)
// using Shufflenet. There is a linear relationship between MSSIM and the
// final test accuracy [and] scan groups cluster by MSSIM and accuracy."
//
// We train at every scan group, regress final accuracy on the group's mean
// MSSIM, and report slope/intercept/p-value for crop and no-crop
// augmentation variants (the paper reports y=296.8x-246.2 / y=405.0x-331.0
// with p < 1e-5 on the real dataset).
#include <cstdio>

#include "bench_common.h"
#include "tune/static_tuner.h"
#include "util/stats.h"

using namespace pcr;
using namespace pcr::bench;

int main(int argc, char** argv) {
  pcr::bench::InitBench(argc, argv);
  printf("Figure 7: MSSIM vs final accuracy regression (cars_like, "
         "ShuffleNet proxy)\n\n");
  const DatasetSpec spec = DatasetSpec::CarsLike();
  DatasetHandle handle = GetDataset(spec);

  StaticTunerOptions tuner_options;
  tuner_options.sample_images = 24;
  auto profile = ProfileScanGroups(handle.pcr.get(), tuner_options);
  PCR_CHECK(profile.ok()) << profile.status();

  TimeToAccuracyConfig config;
  config.scan_groups = {1, 2, 3, 5, 7, 10};
  config.repeats = 1;

  for (const bool crop : {true, false}) {
    ModelProxy model = ModelProxy::ShuffleNetV2();
    model.name = crop ? "ShuffleNet(crop)" : "ShuffleNet(no-crop)";
    if (crop) {
      model.features.crop = 160;
      model.features.random_augment = true;
    }
    const auto results = RunTimeToAccuracy(spec, model, config);

    std::vector<double> mssim, accuracy;
    printf("-- %s --\n", model.name.c_str());
    TablePrinter table({"scan group", "MSSIM", "final acc (%)"});
    for (const auto& r : results) {
      const double m = (*profile)[r.scan_group - 1].mean_mssim;
      mssim.push_back(m);
      accuracy.push_back(r.final_accuracy);
      table.AddRow({StrFormat("%d", r.scan_group), StrFormat("%.4f", m),
                    StrFormat("%.1f", r.final_accuracy)});
    }
    table.Print();
    const LinearFit fit = FitLinear(mssim, accuracy);
    ReportMetric(model.name + "/fit_slope", results.size(), 0, 0, fit.slope,
                 "accuracy/ms-ssim");
    ReportMetric(model.name + "/fit_r2", results.size(), 0, 0, fit.r2,
                 "r2");
    printf("fit: acc = %.1f * MSSIM + %.1f   r^2=%.3f  p-value=%.2e\n\n",
           fit.slope, fit.intercept, fit.r2, fit.p_value);
  }
  printf("paper check: positive slope, small p-value, and scan groups with "
         "similar MSSIM (2-4, 6-9) clustering at similar accuracy.\n");
  return 0;
}
