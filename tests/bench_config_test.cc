// The experiment binaries' environment knobs (bench/bench_util.h): unset
// means the documented default, a positive number is taken as is, and
// anything else ends the process with status 2 and a message naming the
// variable, never a silent zero or an abort.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace dssp::bench {
namespace {

class BenchEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("DSSP_BENCH_DURATION");
    unsetenv("DSSP_BENCH_SCALE");
    unsetenv("DSSP_BENCH_MAX_USERS");
  }
};

TEST_F(BenchEnvTest, UnsetMeansDefault) {
  TearDown();
  EXPECT_EQ(BenchDuration(), 240.0);
  EXPECT_EQ(BenchScale(), 1.0);
  EXPECT_EQ(BenchMaxUsers(), 6000);
}

TEST_F(BenchEnvTest, PositiveValuesAreTaken) {
  setenv("DSSP_BENCH_DURATION", "30", 1);
  setenv("DSSP_BENCH_SCALE", "0.25", 1);
  setenv("DSSP_BENCH_MAX_USERS", "800", 1);
  EXPECT_EQ(BenchDuration(), 30.0);
  EXPECT_EQ(BenchScale(), 0.25);
  EXPECT_EQ(BenchMaxUsers(), 800);
}

TEST_F(BenchEnvTest, UnparsableOrNonPositiveDurationExits) {
  for (const char* bad : {"abc", "", "12s", "0", "-3", "nan", "inf"}) {
    setenv("DSSP_BENCH_DURATION", bad, 1);
    EXPECT_EXIT(BenchDuration(), ::testing::ExitedWithCode(2),
                "DSSP_BENCH_DURATION=.*: expected a positive number")
        << "value '" << bad << "'";
  }
}

TEST_F(BenchEnvTest, UnparsableOrNonPositiveScaleExits) {
  for (const char* bad : {"x1", "0.0", "-1"}) {
    setenv("DSSP_BENCH_SCALE", bad, 1);
    EXPECT_EXIT(BenchScale(), ::testing::ExitedWithCode(2),
                "DSSP_BENCH_SCALE=.*: expected a positive number")
        << "value '" << bad << "'";
  }
}

TEST_F(BenchEnvTest, UnparsableOrNonPositiveMaxUsersExits) {
  for (const char* bad : {"many", "0", "-10", "800.5", "99999999999"}) {
    setenv("DSSP_BENCH_MAX_USERS", bad, 1);
    EXPECT_EXIT(BenchMaxUsers(), ::testing::ExitedWithCode(2),
                "DSSP_BENCH_MAX_USERS=.*: expected a positive integer")
        << "value '" << bad << "'";
  }
}

}  // namespace
}  // namespace dssp::bench
