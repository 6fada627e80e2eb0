#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dpjit::util {
namespace {

TEST(Percentile, EmptyIsNaN) { EXPECT_TRUE(std::isnan(percentile({}, 0.5))); }

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> v{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 5.0);
}

TEST(Percentile, Interpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 2.5);
}

TEST(Percentile, ClampsQ) {
  std::vector<double> v{1.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 2.0), 2.0);
}

}  // namespace
}  // namespace dpjit::util
