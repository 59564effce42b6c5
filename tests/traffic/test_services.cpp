#include "traffic/services.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "util/error.h"

namespace icn::traffic {
namespace {

TEST(ServiceCatalogTest, Has73Services) {
  // The paper's M = 73 mobile services.
  const ServiceCatalog catalog;
  EXPECT_EQ(catalog.size(), 73u);
}

TEST(ServiceCatalogTest, NamesAreUnique) {
  const ServiceCatalog catalog;
  std::set<std::string> names;
  for (std::size_t j = 0; j < catalog.size(); ++j) {
    names.insert(std::string(catalog.at(j).name));
  }
  EXPECT_EQ(names.size(), catalog.size());
}

TEST(ServiceCatalogTest, SignaturesAreUnique) {
  const ServiceCatalog catalog;
  std::set<std::string> sigs;
  for (std::size_t j = 0; j < catalog.size(); ++j) {
    sigs.insert(std::string(catalog.at(j).signature));
  }
  EXPECT_EQ(sigs.size(), catalog.size());
}

TEST(ServiceCatalogTest, PaperNamedServicesPresent) {
  // Every service the paper's Figs. 5 & 11 discuss must exist.
  const ServiceCatalog catalog;
  for (const char* name :
       {"Spotify", "SoundCloud", "Deezer", "Apple Music", "Mappy",
        "Google Maps", "Transportation Websites", "Yahoo",
        "Entertainment Websites", "Shopping Websites", "Sports Websites",
        "Snapchat", "Twitter", "Giphy", "WhatsApp", "Canal+", "Netflix",
        "Disney+", "Amazon Prime Video", "Waze", "Microsoft Teams",
        "LinkedIn", "Google Play Store"}) {
    EXPECT_TRUE(catalog.index_of(name).has_value()) << name;
  }
}

TEST(ServiceCatalogTest, PopularitySharesSumToOne) {
  const ServiceCatalog catalog;
  double total = 0.0;
  for (const double s : catalog.popularity_shares()) {
    EXPECT_GT(s, 0.0);
    total += s;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ServiceCatalogTest, PopularityIsHeavyTailed) {
  // Top service (YouTube) carries far more than the median service.
  const ServiceCatalog catalog;
  const auto& shares = catalog.popularity_shares();
  double max_share = 0.0;
  for (const double s : shares) max_share = std::max(max_share, s);
  std::vector<double> sorted(shares.begin(), shares.end());
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  EXPECT_GT(max_share, 10.0 * median);
}

TEST(ServiceCatalogTest, IndexLookup) {
  const ServiceCatalog catalog;
  const auto spotify = catalog.index_of("Spotify");
  ASSERT_TRUE(spotify.has_value());
  EXPECT_EQ(catalog.at(*spotify).name, "Spotify");
  EXPECT_EQ(catalog.at(*spotify).category, ServiceCategory::kMusic);
  EXPECT_FALSE(catalog.index_of("NoSuchApp").has_value());
  EXPECT_THROW(catalog.at(catalog.size()), icn::util::PreconditionError);
}

TEST(ServiceCatalogTest, SniExactAndSuffixMatch) {
  const ServiceCatalog catalog;
  const auto direct = catalog.classify_sni("spotify.com");
  const auto sub = catalog.classify_sni("api.spotify.com");
  const auto deep = catalog.classify_sni("audio.cdn.spotify.com");
  ASSERT_TRUE(direct.has_value());
  EXPECT_EQ(direct, sub);
  EXPECT_EQ(direct, deep);
}

TEST(ServiceCatalogTest, SniRejectsNonBoundaryMatch) {
  const ServiceCatalog catalog;
  // "notspotify.com" must NOT match "spotify.com" (no label boundary).
  EXPECT_FALSE(catalog.classify_sni("notspotify.com").has_value());
  EXPECT_FALSE(catalog.classify_sni("").has_value());
  EXPECT_FALSE(catalog.classify_sni("unknown.example.org").has_value());
}

TEST(ServiceCatalogTest, EverySignatureClassifiesToItsService) {
  const ServiceCatalog catalog;
  for (std::size_t j = 0; j < catalog.size(); ++j) {
    const auto hit = catalog.classify_sni(catalog.at(j).signature);
    ASSERT_TRUE(hit.has_value()) << catalog.at(j).name;
    EXPECT_EQ(*hit, j) << catalog.at(j).name;
  }
}

TEST(ServiceCatalogTest, CategoriesCoverCatalog) {
  const ServiceCatalog catalog;
  std::size_t total = 0;
  for (int c = 0; c < static_cast<int>(kNumServiceCategories); ++c) {
    total += catalog.of_category(static_cast<ServiceCategory>(c)).size();
  }
  EXPECT_EQ(total, catalog.size());
}

TEST(ServiceCatalogTest, KeyCategoriesNonEmpty) {
  const ServiceCatalog catalog;
  EXPECT_GE(catalog.of_category(ServiceCategory::kMusic).size(), 4u);
  EXPECT_GE(catalog.of_category(ServiceCategory::kNavigation).size(), 5u);
  EXPECT_GE(catalog.of_category(ServiceCategory::kWork).size(), 4u);
  EXPECT_GE(catalog.of_category(ServiceCategory::kVideoStreaming).size(),
            8u);
}

TEST(ServiceCategoryTest, NamesDistinct) {
  std::set<std::string> names;
  for (int c = 0; c < static_cast<int>(kNumServiceCategories); ++c) {
    names.insert(category_name(static_cast<ServiceCategory>(c)));
  }
  EXPECT_EQ(names.size(), kNumServiceCategories);
}

}  // namespace
}  // namespace icn::traffic
