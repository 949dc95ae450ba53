// Session: one quality-adaptive streaming pair (server host -> client host)
// wired onto an existing network. Owns nothing network-side; the Network
// owns the agents, the session owns the app objects.
//
// Construction is deliberately allocation-light so churning scenarios (the
// server farm's hundreds of arrivals per run) can build sessions on the
// hot path: the server and client live inline in the Session (no per-object
// heap nodes), and the stream is two scalars of the adapter's config
// (max_layers layers of consumption_rate C each), so there is no stream
// description to allocate. The farm keeps Sessions in reusable slots
// (std::optional<Session> emplace/reset), so a departed session's storage
// is recycled in place. bench/micro_session_churn measures the
// build+teardown rate.
#pragma once

#include "app/video_client.h"
#include "app/video_server.h"
#include "cc/ack_sink.h"
#include "cc/congestion_controller.h"
#include "sim/network.h"

namespace qa::app {

struct SessionConfig {
  // Also the stream's shape: adapter.max_layers layers, each consuming
  // adapter.consumption_rate (C). The server and the client both read it
  // from here.
  core::AdapterConfig adapter;
  // Which congestion-control law drives the stream. The rest of the stack
  // (server, adapter, client, sink) is backend-agnostic.
  cc::Backend backend = cc::Backend::kRap;
  cc::CcParams cc;
  VideoServerOptions server;
  bool keep_client_packet_log = false;
};

// A server on `server_host` streaming to `client_host` over the configured
// congestion-control backend (RAP by default).
// Not movable: the server/client members are wired into the transport
// agents by pointer. Place Sessions in stable storage (stack, std::optional
// slot, std::list) — never in a reallocating vector.
class Session {
 public:
  Session(sim::Network& net, sim::Node* server_host, sim::Node* client_host,
          const SessionConfig& cfg);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  // Detaches from the transport agents (which the Network keeps alive) so a
  // departed session's storage can be reused while late packets drain.
  ~Session();

  // Ends the session: stops the source and detaches the client from the
  // sink. Idempotent; the destructor calls it as a backstop. After stop()
  // the server/client objects remain readable (final metrics collection).
  void stop();
  bool stopped() const { return stopped_; }

  VideoServer& server() { return server_; }
  VideoClient& client() { return client_; }
  // The session's congestion controller (whatever backend the config
  // chose) and the receiver that acknowledges its packets.
  cc::CongestionController& controller() { return *controller_; }
  cc::AckSink& ack_sink() { return *ack_sink_; }
  sim::FlowId flow_id() const { return flow_; }

 private:
  sim::FlowId flow_;
  cc::CongestionController* controller_;  // owned by the network
  cc::AckSink* ack_sink_;                 // owned by the network
  VideoServer server_;
  VideoClient client_;
  bool stopped_ = false;
};

}  // namespace qa::app
