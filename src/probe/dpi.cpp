#include "probe/dpi.h"

#include "probe/tls_sni.h"

namespace icn::probe {

DpiClassifier::DpiClassifier(const icn::traffic::ServiceCatalog& catalog)
    : catalog_(&catalog) {}

std::optional<std::size_t> DpiClassifier::classify(std::string_view sni) {
  const auto service = catalog_->classify_sni(sni);
  if (service.has_value()) {
    ++classified_;
  } else {
    ++unmatched_;
  }
  return service;
}

std::optional<std::size_t> DpiClassifier::classify_client_hello(
    std::span<const std::uint8_t> record) {
  const auto sni = extract_sni(record);
  if (!sni.has_value()) {
    ++unmatched_;
    return std::nullopt;
  }
  return classify(*sni);
}

}  // namespace icn::probe
