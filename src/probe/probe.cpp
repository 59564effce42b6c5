#include "probe/probe.h"

namespace icn::probe {

PassiveProbe::PassiveProbe(const UliDecoder& uli, DpiClassifier& dpi)
    : uli_(&uli), dpi_(&dpi) {}

std::optional<ServiceSession> PassiveProbe::observe(
    const icn::traffic::FlowRecord& flow) {
  const auto antenna = uli_->antenna_of(flow.ecgi);
  if (!antenna.has_value()) {
    ++unknown_location_;
    return std::nullopt;
  }
  const auto service = dpi_->classify(flow.sni);
  if (!service.has_value()) return std::nullopt;
  ServiceSession session;
  session.antenna_id = *antenna;
  session.service = *service;
  session.hour = flow.start_hour;
  session.down_bytes = flow.down_bytes;
  session.up_bytes = flow.up_bytes;
  return session;
}

std::vector<ServiceSession> PassiveProbe::observe_all(
    std::span<const icn::traffic::FlowRecord> flows) {
  std::vector<ServiceSession> sessions;
  sessions.reserve(flows.size());
  for (const auto& flow : flows) {
    if (auto s = observe(flow); s.has_value()) {
      sessions.push_back(*s);
    }
  }
  return sessions;
}

}  // namespace icn::probe
