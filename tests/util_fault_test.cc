// Deterministic fault injection: the spec parser must accept the documented
// grammar and reject malformed entries (bad grammar, unknown points, kinds
// that do not fit their point, points the arming tool never reaches)
// without arming anything, io points
// must fire on exactly their armed 1-based hit, stop points must request a
// graceful stop, and disarming must silence everything. (The crash kind is
// covered end to end by integration_kill_resume_test, which can afford to
// lose a process.)
#include "reconcile/util/fault.h"

#include <string>

#include <gtest/gtest.h>

#include "reconcile/util/shutdown.h"

namespace reconcile {
namespace {

class FaultTest : public testing::Test {
 protected:
  void SetUp() override {
    DisarmFaults();
    ClearGracefulStop();
  }
  void TearDown() override {
    DisarmFaults();
    ClearGracefulStop();
  }
};

TEST_F(FaultTest, EmptySpecArmsNothing) {
  std::string error;
  EXPECT_TRUE(ArmFaults("", &error));
  EXPECT_EQ(ArmedFaultSpec(), "");
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));
}

TEST_F(FaultTest, ValidSpecsArm) {
  const char* good[] = {
      "crash:after_round=3",
      "stop:after_round=2",
      "io:checkpoint_write_fail",
      "io:checkpoint_truncate=2",
      "io:checkpoint_write_fail;stop:after_round=1,io:checkpoint_truncate=3",
      // Threshold points (the `_after` suffix) accept 0: "fail every hit".
      "io:enospc_after=0",
      "io:spill_write_fail=2",
  };
  for (const char* spec : good) {
    std::string error;
    EXPECT_TRUE(ArmFaults(spec, &error)) << spec << ": " << error;
    EXPECT_NE(ArmedFaultSpec(), "") << spec;
    DisarmFaults();
  }
}

TEST_F(FaultTest, ThresholdPointFiresEveryHitPastTheValue) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:enospc_after=2", &error));
  EXPECT_FALSE(FaultPointExhausted("enospc_after"));  // hit 1
  EXPECT_FALSE(FaultPointExhausted("enospc_after"));  // hit 2
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));   // hit 3: disk "full"
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));   // stays full
}

TEST_F(FaultTest, ThresholdZeroFailsEveryHit) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:enospc_after=0", &error));
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));
  EXPECT_TRUE(FaultPointExhausted("enospc_after"));
}

TEST_F(FaultTest, MalformedSpecsRejectedWithDiagnostic) {
  const char* bad[] = {
      "after_round=3",         // no kind
      "explode:after_round=1", // unknown kind
      "crash:",                // no point
      "crash:after_round=x",   // non-integer value
      "io:checkpoint_write_fail=0",  // io hit index must be >= 1
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(ArmFaults(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  // Nothing was armed by the failed attempts.
  EXPECT_EQ(ArmedFaultSpec(), "");
}

// A spec that names a point no code declares, or arms a point with a kind
// its hook never checks, could never fire: it is malformed.
TEST_F(FaultTest, UnknownPointsAndMismatchedKindsRejected) {
  const char* bad[] = {
      "crash:after_rnd=3",               // typo'd value point
      "io:checkpoint_write_failure",     // typo'd io point
      "io:after_round=1",                // io: on a value point
      "crash:checkpoint_write_fail=1",   // crash: on an io point
      "stop:enospc_after=2",             // stop: on a threshold io point
      "io:spill_write_fail;crash:nope",  // one bad entry spoils the spec
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(ArmFaults(spec, &error)) << spec;
    EXPECT_FALSE(error.empty()) << spec;
  }
  EXPECT_EQ(ArmedFaultSpec(), "");
}

// Each tool reaches only its own points: the batch matcher never serves a
// batch, and the serve loop never reports a completed round or spills.
TEST_F(FaultTest, ScopeRejectsPointsTheToolNeverReaches) {
  struct Case {
    const char* spec;
    FaultScope scope;
    bool armed;
  };
  const Case cases[] = {
      {"crash:after_round=1", FaultScope::kServe, false},
      {"io:spill_write_fail", FaultScope::kServe, false},
      {"crash:spill_commit=1", FaultScope::kServe, false},
      {"crash:serve_apply=1", FaultScope::kBatch, false},
      {"crash:after_batch=2", FaultScope::kBatch, false},
      {"crash:after_round=1", FaultScope::kBatch, true},
      {"io:enospc_after=0", FaultScope::kBatch, true},
      {"stop:serve_apply=2", FaultScope::kServe, true},
      {"crash:after_batch=3", FaultScope::kServe, true},
      {"io:checkpoint_truncate", FaultScope::kServe, true},
      {"io:checkpoint_truncate", FaultScope::kBatch, true},
      {"crash:after_batch=3;crash:after_round=1", FaultScope::kAny, true},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_EQ(ArmFaults(c.spec, &error, c.scope), c.armed)
        << c.spec << ": " << error;
    EXPECT_EQ(error.empty(), c.armed) << c.spec;
    DisarmFaults();
  }
}

TEST_F(FaultTest, MalformedArmLeavesPreviousSetIntact) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail", &error));
  EXPECT_FALSE(ArmFaults("garbage", &error));
  EXPECT_EQ(ArmedFaultSpec(), "io:checkpoint_write_fail=1");
}

TEST_F(FaultTest, IoPointFiresOnExactlyTheArmedHit) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail=3", &error));
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // hit 1
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // hit 2
  EXPECT_TRUE(FaultPointHit("checkpoint_write_fail"));   // hit 3 fires
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // hit 4
  // Other points are untouched by this entry.
  EXPECT_FALSE(FaultPointHit("checkpoint_truncate"));
}

TEST_F(FaultTest, StopPointRequestsGracefulStopAtItsValueOnly) {
  std::string error;
  ASSERT_TRUE(ArmFaults("stop:after_round=2", &error));
  FaultValuePoint("after_round", 1);
  EXPECT_FALSE(GracefulStopRequested());
  FaultValuePoint("after_round", 2);
  EXPECT_TRUE(GracefulStopRequested());
}

TEST_F(FaultTest, ValuePointIgnoresOtherPointNames) {
  std::string error;
  ASSERT_TRUE(ArmFaults("stop:after_round=1", &error));
  FaultValuePoint("some_other_point", 1);
  EXPECT_FALSE(GracefulStopRequested());
}

TEST_F(FaultTest, DisarmSilencesEverything) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail;stop:after_round=1",
                        &error));
  DisarmFaults();
  EXPECT_EQ(ArmedFaultSpec(), "");
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));
  FaultValuePoint("after_round", 1);
  EXPECT_FALSE(GracefulStopRequested());
}

TEST_F(FaultTest, RearmResetsHitCounters) {
  std::string error;
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail=2", &error));
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));
  ASSERT_TRUE(ArmFaults("io:checkpoint_write_fail=2", &error));
  EXPECT_FALSE(FaultPointHit("checkpoint_write_fail"));  // counter restarted
  EXPECT_TRUE(FaultPointHit("checkpoint_write_fail"));
}

}  // namespace
}  // namespace reconcile
