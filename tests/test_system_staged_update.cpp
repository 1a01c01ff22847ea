// Staged (off-thread) fingerprint updates: stage -> solve -> commit
// equivalence with the synchronous path, staging contract enforcement,
// and the save()-vs-swap serialization a drain mid-recalibration
// depends on.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "tafloc/tafloc.h"

namespace tafloc {
namespace {

namespace fs = std::filesystem;

class TempZone {
 public:
  explicit TempZone(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("tafloc_staged_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~TempZone() { fs::remove_all(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

class StagedUpdateTest : public ::testing::Test {
 protected:
  StagedUpdateTest() : scenario_(Scenario::paper_room(777)) {}

  TafLocSystem calibrated_system(Rng& rng) const {
    TafLocSystem sys(scenario_.deployment());
    sys.calibrate(scenario_.collector().survey_all(0.0, rng),
                  scenario_.collector().ambient_scan(0.0, rng), 0.0);
    return sys;
  }

  struct Survey {
    Matrix ref_cols;
    Vector ambient;
  };
  Survey reference_survey(const TafLocSystem& sys, double t, Rng& rng) const {
    return {scenario_.collector().survey_grids(sys.reference_locations(), t, rng),
            scenario_.collector().ambient_scan(t, rng)};
  }

  Scenario scenario_;
};

TEST_F(StagedUpdateTest, StagedPhasesMatchSynchronousUpdateBitExactly) {
  Rng rng_a(5);
  Rng rng_b(5);
  TafLocSystem sync_sys = calibrated_system(rng_a);
  TafLocSystem staged_sys = calibrated_system(rng_b);

  const Survey survey_a = reference_survey(sync_sys, 7.0, rng_a);
  const Survey survey_b = reference_survey(staged_sys, 7.0, rng_b);

  const auto sync_report = sync_sys.update(survey_a.ref_cols, survey_a.ambient, 7.0);

  TafLocSystem::StagedUpdate staged =
      staged_sys.stage_update(survey_b.ref_cols, survey_b.ambient, 7.0);
  EXPECT_TRUE(staged_sys.update_staged());
  // Serving keeps answering from the OLD matrix between stage and commit.
  Rng probe(31);
  const Vector rss = scenario_.collector().observe({2.5, 1.5}, 7.0, probe);
  const Point2 before = staged_sys.localize(rss);
  staged_sys.solve_staged_update(staged);
  const Point2 still_before = staged_sys.localize(rss);
  EXPECT_EQ(before.x, still_before.x);
  EXPECT_EQ(before.y, still_before.y);

  const auto staged_report = staged_sys.commit_update(std::move(staged));
  EXPECT_FALSE(staged_sys.update_staged());

  EXPECT_EQ(sync_report.solver.outer_iterations, staged_report.solver.outer_iterations);
  EXPECT_EQ(sync_report.solver.objective, staged_report.solver.objective);
  EXPECT_TRUE(sync_sys.database() == staged_sys.database());
  const Point2 a = sync_sys.localize(rss);
  const Point2 b = staged_sys.localize(rss);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
}

TEST_F(StagedUpdateTest, OnlyOneUpdateMayBeStaged) {
  Rng rng(6);
  TafLocSystem sys = calibrated_system(rng);
  const Survey survey = reference_survey(sys, 3.0, rng);
  TafLocSystem::StagedUpdate staged = sys.stage_update(survey.ref_cols, survey.ambient, 3.0);
  EXPECT_THROW((void)sys.stage_update(survey.ref_cols, survey.ambient, 3.5), std::logic_error);
  sys.abandon_staged_update(staged);
  EXPECT_FALSE(sys.update_staged());
  // After abandoning, staging works again.
  TafLocSystem::StagedUpdate again = sys.stage_update(survey.ref_cols, survey.ambient, 4.0);
  sys.solve_staged_update(again);
  (void)sys.commit_update(std::move(again));
}

TEST_F(StagedUpdateTest, CommitRequiresSolveAndStage) {
  Rng rng(7);
  TafLocSystem sys = calibrated_system(rng);
  const Survey survey = reference_survey(sys, 3.0, rng);
  TafLocSystem::StagedUpdate unsolved = sys.stage_update(survey.ref_cols, survey.ambient, 3.0);
  EXPECT_THROW((void)sys.commit_update(std::move(unsolved)), std::logic_error);
  // The failed commit did not consume the staged slot.
  EXPECT_TRUE(sys.update_staged());
}

TEST_F(StagedUpdateTest, SaveMidStagedUpdateKeepsInFlightUpdateRecoverable) {
  TempZone zone("midflight");
  Rng rng(8);
  TafLocSystem live(scenario_.deployment());
  live.attach_durability({zone.str()});
  live.calibrate(scenario_.collector().survey_all(0.0, rng),
                 scenario_.collector().ambient_scan(0.0, rng), 0.0);
  const Survey survey = reference_survey(live, 9.0, rng);

  // Admission writes the WAL record; a save() before the commit (an
  // operator snapshot racing the recalibration) must NOT claim coverage
  // of it -- the process then dies without ever committing.
  TafLocSystem::StagedUpdate staged = live.stage_update(survey.ref_cols, survey.ambient, 9.0);
  live.save();

  // A recovered process replays the in-flight update from the log...
  TafLocSystem restored(scenario_.deployment());
  restored.attach_durability({zone.str()});
  const RecoveryReport report = restored.recover();
  EXPECT_EQ(report.outcome, RecoveryReport::Outcome::kReplayed);
  EXPECT_GE(report.replayed_records, 1u);

  // ...landing bit-identically on the matrix the live process would
  // have swapped in.
  live.solve_staged_update(staged);
  (void)live.commit_update(std::move(staged));
  EXPECT_TRUE(restored.database() == live.database());
}

TEST_F(StagedUpdateTest, ConcurrentSavesSerializeAgainstTheSwap) {
  TempZone zone("race");
  Rng rng(9);
  TafLocSystem live(scenario_.deployment());
  live.attach_durability({zone.str()});
  live.calibrate(scenario_.collector().survey_all(0.0, rng),
                 scenario_.collector().ambient_scan(0.0, rng), 0.0);

  // A drain thread hammers save() while the serving thread runs staged
  // recalibrations; without the commit lock this is a WAL-rotation
  // use-after-free and a torn snapshot.  The drainer pauses 100 us
  // between saves because the commit lock is not fair: re-locking the
  // instant it unlocks starved the serving thread for thousands of
  // saves (0.5 s to over 60 s per run) without adding any interleaving.
  std::atomic<bool> stop{false};
  std::thread drainer([&] {
    while (!stop.load()) {
      live.save();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  for (int round = 0; round < 6; ++round) {
    const double t = 1.0 + round;
    const Survey survey = reference_survey(live, t, rng);
    TafLocSystem::StagedUpdate staged = live.stage_update(survey.ref_cols, survey.ambient, t);
    live.solve_staged_update(staged);
    (void)live.commit_update(std::move(staged));
  }
  stop = true;
  drainer.join();
  live.save();

  TafLocSystem restored(scenario_.deployment());
  restored.attach_durability({zone.str()});
  const RecoveryReport report = restored.recover();
  EXPECT_NE(report.outcome, RecoveryReport::Outcome::kUnrecoverable);
  ASSERT_TRUE(restored.calibrated());
  EXPECT_TRUE(restored.database() == live.database());
}

}  // namespace
}  // namespace tafloc
