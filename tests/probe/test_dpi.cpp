#include "probe/dpi.h"

#include <gtest/gtest.h>

#include <string>

#include "util/rng.h"

namespace icn::probe {
namespace {

class DpiClassifierTest : public ::testing::Test {
 protected:
  icn::traffic::ServiceCatalog catalog_;
  DpiClassifier dpi_{catalog_};
};

TEST_F(DpiClassifierTest, ClassifiesKnownSignatures) {
  const auto hit = dpi_.classify("netflix.com");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(catalog_.at(*hit).name, "Netflix");
  EXPECT_EQ(dpi_.classified(), 1u);
  EXPECT_EQ(dpi_.unmatched(), 0u);
}

TEST_F(DpiClassifierTest, ClassifiesSubdomains) {
  const auto hit = dpi_.classify("api.cdn.netflix.com");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(catalog_.at(*hit).name, "Netflix");
}

TEST_F(DpiClassifierTest, CountsUnmatched) {
  EXPECT_FALSE(dpi_.classify("totally-unknown.example").has_value());
  EXPECT_FALSE(dpi_.classify("").has_value());
  EXPECT_EQ(dpi_.classified(), 0u);
  EXPECT_EQ(dpi_.unmatched(), 2u);
}

TEST_F(DpiClassifierTest, StatsAccumulateAndReset) {
  (void)dpi_.classify("spotify.com");
  (void)dpi_.classify("nope.example");
  (void)dpi_.classify("waze.com");
  EXPECT_EQ(dpi_.classified(), 2u);
  EXPECT_EQ(dpi_.unmatched(), 1u);
  dpi_ = DpiClassifier(catalog_);
  EXPECT_EQ(dpi_.classified(), 0u);
  EXPECT_EQ(dpi_.unmatched(), 0u);
}

TEST_F(DpiClassifierTest, EveryCatalogSignatureClassified) {
  for (std::size_t j = 0; j < catalog_.size(); ++j) {
    const auto hit = dpi_.classify(catalog_.at(j).signature);
    ASSERT_TRUE(hit.has_value()) << catalog_.at(j).name;
    EXPECT_EQ(*hit, j);
  }
  EXPECT_EQ(dpi_.classified(), catalog_.size());
}

TEST_F(DpiClassifierTest, EverySingleCharMutationOfEverySignatureIsTyped) {
  // Exhaustive single-character mutation of every catalogue signature: the
  // classifier must return either a valid catalogue index or a typed miss —
  // never crash — and the counters must account for every call.
  std::size_t calls = 0;
  for (std::size_t j = 0; j < catalog_.size(); ++j) {
    const std::string signature(catalog_.at(j).signature);
    for (std::size_t at = 0; at < signature.size(); ++at) {
      for (int value = 0; value < 256; ++value) {
        std::string mutated = signature;
        mutated[at] = static_cast<char>(value);
        const auto hit = dpi_.classify(mutated);
        ++calls;
        if (hit.has_value()) {
          EXPECT_LT(*hit, catalog_.size());
        }
      }
    }
  }
  EXPECT_EQ(dpi_.classified() + dpi_.unmatched(), calls);
  EXPECT_GT(dpi_.unmatched(), 0u);
}

TEST_F(DpiClassifierTest, RandomHostMutationFuzzNeverCrashes) {
  // GTPC-style multi-byte fuzz on the string path, including embedded NULs,
  // control bytes, and truncation.
  icn::util::Rng rng(0xD81);
  const std::string base = "api.cdn.netflix.com";
  std::size_t calls = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string mutated = base;
    const std::size_t flips = 1 + rng.uniform_index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.uniform_index(mutated.size())] =
          static_cast<char>(rng.uniform_index(256));
    }
    if (rng.bernoulli(0.25)) {
      mutated.resize(rng.uniform_index(mutated.size() + 1));
    }
    (void)dpi_.classify(mutated);
    ++calls;
  }
  EXPECT_EQ(dpi_.classified() + dpi_.unmatched(), calls);
}

}  // namespace
}  // namespace icn::probe
