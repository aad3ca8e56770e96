#include "reconcile/api/registry.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "reconcile/api/adapters.h"
#include "reconcile/api/spec.h"

namespace reconcile {
namespace {

TEST(RegistryTest, BuiltinAlgorithmsAreRegistered) {
  const std::vector<std::string> keys = Registry::Global().Keys();
  for (const char* expected :
       {"core", "simple", "ns09", "features", "percolation"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), expected), keys.end())
        << expected;
  }
}

TEST(RegistryTest, EveryRegisteredKeyConstructsFromDefaultSpec) {
  for (const std::string& key : Registry::Global().Keys()) {
    std::string error;
    auto reconciler = Registry::Global().Create(ReconcilerSpec(key), &error);
    ASSERT_NE(reconciler, nullptr) << key << ": " << error;
    EXPECT_EQ(reconciler->name(), key);
    EXPECT_FALSE(reconciler->Describe().empty()) << key;
  }
}

TEST(RegistryTest, UnknownKeyFailsWithListing) {
  std::string error;
  auto reconciler =
      Registry::Global().Create(ReconcilerSpec("not-an-algorithm"), &error);
  EXPECT_EQ(reconciler, nullptr);
  EXPECT_NE(error.find("not-an-algorithm"), std::string::npos);
  EXPECT_NE(error.find("core"), std::string::npos);  // lists what exists
}

TEST(RegistryTest, UnknownParameterFailsWithClearError) {
  std::string error;
  auto reconciler = Registry::Global().Create(
      ReconcilerSpec("core").Set("thresold", "3"), &error);
  EXPECT_EQ(reconciler, nullptr);
  EXPECT_NE(error.find("thresold"), std::string::npos);
  EXPECT_NE(error.find("core"), std::string::npos);
}

TEST(RegistryTest, MalformedValueFails) {
  std::string error;
  auto reconciler = Registry::Global().Create(
      ReconcilerSpec("core").Set("threshold", "lots"), &error);
  EXPECT_EQ(reconciler, nullptr);
  EXPECT_NE(error.find("threshold"), std::string::npos);
}

TEST(RegistryTest, OutOfRangeValuesAreSpecErrorsNotCrashes) {
  std::string error;
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("percolation").Set("threshold", "1"), &error),
            nullptr);
  EXPECT_NE(error.find("threshold"), std::string::npos);
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("features").Set("depth", "9"), &error),
            nullptr);
  EXPECT_NE(error.find("depth"), std::string::npos);
}

// A degree bucket 2^e exists only for e in [0, 31]: -1 used to abort on a
// failed check, and 32 or more shifted a 32-bit one out of range and let
// low-degree nodes through.
TEST(RegistryTest, MinBucketExponentOutsideItsRangeIsASpecError) {
  for (const char* exponent : {"-1", "32"}) {
    SCOPED_TRACE(exponent);
    std::string error;
    EXPECT_EQ(Registry::Global().Create(
                  ReconcilerSpec("core").Set("min-bucket-exponent", exponent),
                  &error),
              nullptr);
    EXPECT_NE(error.find("parameter 'min-bucket-exponent' must be in [0, 31]"),
              std::string::npos)
        << error;
  }
  for (const char* exponent : {"0", "31"}) {
    std::string error;
    EXPECT_NE(Registry::Global().Create(
                  ReconcilerSpec("core").Set("min-bucket-exponent", exponent),
                  &error),
              nullptr)
        << exponent << ": " << error;
  }
}

TEST(RegistryTest, IntNarrowingIsRangeChecked) {
  std::string error;
  // Would silently wrap to iterations=1 with a bare static_cast<int>.
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("core").Set("iterations", "4294967297"),
                &error),
            nullptr);
  EXPECT_NE(error.find("iterations"), std::string::npos);
  // Overflows int64 parsing entirely (ERANGE).
  EXPECT_EQ(Registry::Global().Create(
                ReconcilerSpec("core").Set("threads", "99999999999999999999"),
                &error),
            nullptr);
  EXPECT_NE(error.find("threads"), std::string::npos);
}

TEST(RegistryTest, ParamsReachTheWrappedConfig) {
  auto reconciler = Registry::Global().CreateOrDie(
      ReconcilerSpec("core")
          .Set("threshold", "4")
          .Set("iterations", "1")
          .Set("backend", "hash")
          .Set("bucketing", "false"));
  const auto& core = dynamic_cast<const CoreReconciler&>(*reconciler);
  EXPECT_EQ(core.config().min_score, 4u);
  EXPECT_EQ(core.config().num_iterations, 1);
  EXPECT_EQ(core.config().scoring_backend, ScoringBackend::kHashMap);
  EXPECT_FALSE(core.config().use_degree_bucketing);
}

TEST(RegistryTest, DescribeAllMentionsEveryKey) {
  const std::string listing = Registry::Global().DescribeAll();
  for (const std::string& key : Registry::Global().Keys()) {
    EXPECT_NE(listing.find(key), std::string::npos) << key;
  }
}

TEST(RegistryTest, DuplicateRegistrationDies) {
  Registry registry;
  registry.Register({.key = "x",
                     .summary = "",
                     .threshold_param = "",
                     .factory = [](const ReconcilerSpec&, std::string*) {
                       return std::unique_ptr<Reconciler>();
                     }});
  EXPECT_DEATH(
      registry.Register({.key = "x",
                         .summary = "",
                         .threshold_param = "",
                         .factory = [](const ReconcilerSpec&, std::string*) {
                           return std::unique_ptr<Reconciler>();
                         }}),
      "duplicate");
}

TEST(SpecTest, ParsePrintRoundTrips) {
  for (const char* text :
       {"core", "core:threshold=3", "ns09:max-sweeps=3,theta=1.5",
        "features:degree-band=2.5,depth=1,min-similarity=0.9"}) {
    ReconcilerSpec spec;
    std::string error;
    ASSERT_TRUE(ReconcilerSpec::Parse(text, &spec, &error)) << error;
    EXPECT_EQ(spec.ToString(), text);
    ReconcilerSpec again;
    ASSERT_TRUE(ReconcilerSpec::Parse(spec.ToString(), &again, &error));
    EXPECT_EQ(spec, again);
  }
}

TEST(SpecTest, ToStringIsCanonicalOrder) {
  ReconcilerSpec spec;
  std::string error;
  ASSERT_TRUE(
      ReconcilerSpec::Parse("core:threshold=3,iterations=1", &spec, &error));
  // Parameters print sorted by key, whatever the input order.
  EXPECT_EQ(spec.ToString(), "core:iterations=1,threshold=3");
}

TEST(SpecTest, MalformedSpecsAreRejected) {
  ReconcilerSpec spec;
  std::string error;
  EXPECT_FALSE(ReconcilerSpec::Parse("", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse(":threshold=3", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse("core:threshold", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse("core:=3", &spec, &error));
  EXPECT_FALSE(ReconcilerSpec::Parse("core:,", &spec, &error));
}

TEST(SpecTest, MergeParamsOverridesAndAppends) {
  ReconcilerSpec spec("core");
  spec.Set("threshold", "2");
  std::string error;
  ASSERT_TRUE(spec.MergeParams("threshold=5,iterations=1", &error)) << error;
  EXPECT_EQ(spec.params.at("threshold"), "5");
  EXPECT_EQ(spec.params.at("iterations"), "1");
  EXPECT_FALSE(spec.MergeParams("oops", &error));
}

}  // namespace
}  // namespace reconcile
