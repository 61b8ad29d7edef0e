// run_study against the sequential reference it fuses: cdr::clean followed
// by every analyze_* shell, segment_cars and ConcurrencyGrid::build +
// cluster_busy_cells. The fixture carries records of every §3 removal class
// (non-positive, exactly the artifact duration, beyond the plausibility
// ceiling), so the inline clean screen is checked record for record, and
// the reports must be bitwise identical at every thread width and for an
// unfinalized copy of the input.
#include "core/study.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/simulator.h"

namespace ccms::core {
namespace {

StudyReport reference_study(const cdr::Dataset& raw,
                            const net::CellTable& cells, const CellLoad& load,
                            const StudyOptions& options) {
  StudyReport report;
  const cdr::Dataset cleaned = cdr::clean(raw, options.clean, report.clean);
  report.presence = analyze_presence(cleaned);
  report.connected_time =
      analyze_connected_time(cleaned, options.truncation_cap);
  report.days = analyze_days_on_network(cleaned);
  report.busy_time =
      analyze_busy_time(cleaned, load, options.busy_prb_threshold);
  report.segmentation =
      segment_cars(report.days, report.busy_time, options.segmentation);
  report.cell_sessions =
      analyze_cell_sessions(cleaned, options.truncation_cap);
  report.handovers = analyze_handovers(cleaned, cells, cdr::kJourneyGap);
  report.carriers = analyze_carrier_usage(cleaned, cells);
  report.clusters = cluster_busy_cells(
      ConcurrencyGrid::build(cleaned), load,
      options.cluster_load_threshold, options.cluster_k, options.cluster_seed);
  return report;
}

class StudyReferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::SimConfig config = sim::SimConfig::quick();
    config.fleet.size = 250;
    config.study_days = 14;
    study_ = new sim::Study(sim::simulate(config));
    load_ = new CellLoad(CellLoad::from_background(study_->background));

    // The simulated trace plus injected records of every removal class,
    // spread over several cars. One car past the fleet holds only removed
    // records, so the fleet-size bump comes from a car no figure sees.
    const cdr::Dataset& raw = study_->raw;
    const std::uint32_t fleet = raw.fleet_size();
    const std::int32_t artifact = cdr::CleanOptions{}.artifact_duration_s;
    const std::int32_t ceiling = cdr::CleanOptions{}.max_plausible_duration_s;
    const std::vector<std::int32_t> injected = {
        0, -45, artifact, ceiling + 1, 5 * ceiling, ceiling, artifact - 1};
    dirty_ = new cdr::Dataset();
    dirty_->set_fleet_size(fleet);
    dirty_->set_study_days(raw.study_days());
    dirty_->add(raw.all());
    std::size_t k = 0;
    for (std::uint32_t car = 0; car < fleet; car += 17) {
      const auto records = raw.of_car(CarId{car});
      if (records.empty()) continue;
      const cdr::Connection& base = records[records.size() / 2];
      dirty_->add(cdr::Connection{base.car, base.cell, base.start + 7,
                                  injected[k++ % injected.size()]});
    }
    const cdr::Connection& any = raw.all().front();
    dirty_->add(cdr::Connection{CarId{fleet}, any.cell, any.start, artifact});
    dirty_->add(cdr::Connection{CarId{fleet}, any.cell, any.start + 60, 0});
    dirty_->finalize();
  }

  static void TearDownTestSuite() {
    delete dirty_;
    delete load_;
    delete study_;
  }

  static void expect_matches_reference(const cdr::Dataset& input) {
    const net::CellTable& cells = study_->topology.cells();
    const StudyReport reference =
        reference_study(*dirty_, cells, *load_, StudyOptions{});
    for (const int threads : {1, 4}) {
      StudyOptions options;
      options.threads = threads;
      std::string why;
      EXPECT_TRUE(study_reports_identical(
          run_study(input, cells, *load_, options), reference, &why))
          << "threads=" << threads << ": " << why;
    }
  }

  static sim::Study* study_;
  static CellLoad* load_;
  static cdr::Dataset* dirty_;
};

sim::Study* StudyReferenceTest::study_ = nullptr;
CellLoad* StudyReferenceTest::load_ = nullptr;
cdr::Dataset* StudyReferenceTest::dirty_ = nullptr;

TEST_F(StudyReferenceTest, FixtureCarriesEveryRemovalClass) {
  cdr::CleanReport report;
  (void)cdr::clean(*dirty_, cdr::CleanOptions{}, report);
  EXPECT_GE(report.nonpositive_removed, 3u);
  EXPECT_GE(report.hour_artifacts_removed, 2u);
  EXPECT_GE(report.implausible_removed, 2u);
  EXPECT_EQ(dirty_->fleet_size(), study_->raw.fleet_size() + 1);
}

TEST_F(StudyReferenceTest, MatchesSequentialShells) {
  expect_matches_reference(*dirty_);
}

TEST_F(StudyReferenceTest, UnfinalizedInputMatchesSequentialShells) {
  // Same records and geometry, appended in reverse (car, start) order and
  // never finalized.
  cdr::Dataset unfinalized;
  unfinalized.set_fleet_size(dirty_->fleet_size());
  unfinalized.set_study_days(dirty_->study_days());
  std::vector<cdr::Connection> records(dirty_->all().begin(),
                                       dirty_->all().end());
  std::reverse(records.begin(), records.end());
  unfinalized.add(records);
  ASSERT_FALSE(unfinalized.finalized());
  expect_matches_reference(unfinalized);
}

}  // namespace
}  // namespace ccms::core
