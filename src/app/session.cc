#include "app/session.h"

#include <memory>

namespace qa::app {

Session::Session(sim::Network& net, sim::Node* server_host,
                 sim::Node* client_host, const SessionConfig& cfg)
    : flow_(net.allocate_flow_id()),
      controller_(net.adopt_agent(
          server_host, flow_,
          cc::make_controller(cfg.backend, &net.scheduler(), server_host,
                              client_host->id(), flow_, cfg.cc))),
      ack_sink_(net.adopt_agent(
          client_host, flow_,
          std::make_unique<cc::AckSink>(&net.scheduler(), client_host))),
      server_(&net.scheduler(), controller_, cfg.adapter, cfg.server),
      client_(&net.scheduler(), cfg.adapter.consumption_rate,
              cfg.adapter.max_layers, cfg.adapter.playout_delay,
              cfg.keep_client_packet_log) {
  ack_sink_->set_consumer(
      [this](const sim::Packet& p) { client_.on_data(p); });
}

void Session::stop() {
  if (stopped_) return;
  stopped_ = true;
  controller_->stop();
  server_.detach_controller();
  ack_sink_->set_consumer(nullptr);
}

Session::~Session() { stop(); }

}  // namespace qa::app
