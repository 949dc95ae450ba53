#include "app/observability.h"

#include "app/session.h"
#include "app/video_client.h"
#include "sim/fault.h"
#include "util/json.h"
#include "util/logging.h"

namespace qa::app {

using sim::EventCategory;

Observability::Observability(ObservabilityConfig cfg) : cfg_(std::move(cfg)) {
  if (!cfg_.out_dir.empty() && cfg_.trace) {
    trace_ = std::make_unique<ChromeTraceWriter>(cfg_.out_dir + "/trace.json");
    trace_->name_track(ChromeTraceWriter::kSchedulerTrack, "scheduler");
    trace_->name_track(ChromeTraceWriter::kTransportTrack, "transport (RAP)");
    trace_->name_track(ChromeTraceWriter::kAdapterTrack, "quality adapter");
    trace_->name_track(ChromeTraceWriter::kClientTrack, "video client");
    trace_->name_track(ChromeTraceWriter::kLinkTrack, "links");
  }
  if (cfg_.journeys) {
    journeys_.bind_metrics(&registry_);
    subs_.push_back(journeys_.on_span().subscribe_scoped(
        [this](const JourneySpan& span) { on_journey_span(span); }));
  }
  if (cfg_.flightrec) {
    flightrec_ = std::make_unique<FlightRecorder>(cfg_.flightrec_events);
    if (!cfg_.out_dir.empty()) {
      const std::string path = cfg_.out_dir + "/flightrec.jsonl";
      flightrec_->arm_crash_dump(path);
      manifest_.set("flightrec_path", path);
      manifest_.set_int("flightrec_events",
                        static_cast<int64_t>(cfg_.flightrec_events));
    }
  }
}

Observability::~Observability() { finish(); }

void Observability::attach_scheduler(sim::Scheduler& sched) {
  sched_ = &sched;
  if (cfg_.profile) {
    sched.set_profiler(&profiler_);
    // Snapshot-time gauges over the profiler, so metrics exports carry the
    // per-category dispatch counts without double bookkeeping.
    for (int i = 0; i < sim::kEventCategoryCount; ++i) {
      const auto c = static_cast<EventCategory>(i);
      const std::string base =
          std::string("scheduler.") + sim::event_category_name(c);
      registry_.register_gauge(base + ".dispatches", [this, c] {
        return static_cast<double>(profiler_.stats(c).dispatches);
      });
      registry_.register_gauge(base + ".wall_ms", [this, c] {
        return static_cast<double>(profiler_.stats(c).wall_ns) * 1e-6;
      });
    }
  }
  if (trace_) {
    // One B/E span per executed handler. Handlers are instantaneous in
    // simulated time, so both halves share the event's sim time; the spans
    // carry no wall-clock bytes (per-category wall time stays in the
    // profiler and its scheduler.*.wall_ms rows).
    subs_.push_back(sched.on_dispatch().subscribe_scoped(
        [this](const sim::DispatchRecord& rec) {
          trace_->span_begin(rec.at, ChromeTraceWriter::kSchedulerTrack,
                             sim::event_category_name(rec.category));
          trace_->span_end(rec.at, ChromeTraceWriter::kSchedulerTrack);
        }));
  }
}

void Observability::attach_link(sim::Link& link, const std::string& name) {
  if (cfg_.journeys) {
    link.set_journey_recorder(&journeys_, journeys_.register_hop(name));
  }
  const std::string base = "link." + name;
  Counter& enq = registry_.counter(base + ".enqueued_packets");
  Counter& drop = registry_.counter(base + ".queue_drops");
  Counter& tx = registry_.counter(base + ".tx_packets");
  Counter& tx_bytes = registry_.counter(base + ".tx_bytes");
  registry_.register_gauge(base + ".delivered_packets", [&link] {
    return static_cast<double>(link.packets_delivered());
  });
  registry_.register_gauge(base + ".queue_bytes", [&link] {
    return static_cast<double>(link.queue().bytes());
  });
  // Trace names, built once here rather than per packet.
  const std::string queue_track = "queue " + name;
  const std::string drop_name = "queue_drop " + name;

  subs_.push_back(link.on_enqueue().subscribe_scoped(
      [this, &link, &enq, queue_track](const sim::Packet&) {
        enq.inc();
        if (trace_) {
          trace_->counter(sched_ ? sched_->now() : TimePoint::origin(),
                          ChromeTraceWriter::kLinkTrack, queue_track, "bytes",
                          static_cast<double>(link.queue().bytes()));
        }
      }));
  subs_.push_back(link.on_queue_drop().subscribe_scoped(
      [this, &drop, drop_name](const sim::Packet& p) {
        drop.inc();
        if (trace_) {
          trace_->instant(sched_ ? sched_->now() : TimePoint::origin(),
                          ChromeTraceWriter::kLinkTrack, drop_name,
                          {{"flow", p.flow_id}, {"bytes", p.size_bytes}});
        }
      }));
  subs_.push_back(link.on_tx().subscribe_scoped(
      [this, &link, &tx, &tx_bytes, queue_track](const sim::Packet& p) {
        tx.inc();
        tx_bytes.inc(p.size_bytes);
        if (trace_) {
          trace_->counter(sched_ ? sched_->now() : TimePoint::origin(),
                          ChromeTraceWriter::kLinkTrack, queue_track, "bytes",
                          static_cast<double>(link.queue().bytes()));
        }
      }));
}

void Observability::attach_controller(cc::CongestionController& src) {
  // Metric rows are keyed by the backend's canonical name, so the RAP rows
  // keep their historic "rap.*" spelling (goldens pin them byte-for-byte)
  // and other backends get their own namespace.
  const std::string prefix = src.name();
  Counter& rate_changes = registry_.counter(prefix + ".rate_changes");
  Counter& backoffs = registry_.counter(prefix + ".backoffs");
  Counter& timeout_losses = registry_.counter(prefix + ".timeout_losses");
  Counter& quiescence = registry_.counter(prefix + ".quiescence_entries");
  Histogram& rate_hist = registry_.histogram(prefix + ".rate_bytes_per_sec");
  // Trace and note names, built once here rather than per event.
  const std::string rate_track = prefix + " rate";
  const std::string backoff_kind = prefix + ".backoff";
  const std::string enter_kind = prefix + ".quiescence_enter";
  const std::string exit_kind = prefix + ".quiescence_exit";

  subs_.push_back(src.on_rate_change().subscribe_scoped(
      [this, rate_track, &rate_changes, &rate_hist](TimePoint t, Rate r) {
        rate_changes.inc();
        rate_hist.observe(r.bps());
        if (trace_) {
          trace_->counter(t, ChromeTraceWriter::kTransportTrack, rate_track,
                          "bytes_per_sec", r.bps());
        }
      }));
  subs_.push_back(src.on_backoff().subscribe_scoped(
      [this, backoff_kind, &backoffs](TimePoint t, Rate r) {
        backoffs.inc();
        flightrec_note(t, backoff_kind,
                       "{\"rate_post\":" + json_number(r.bps()) + "}");
        if (trace_) {
          trace_->instant(t, ChromeTraceWriter::kTransportTrack, "backoff",
                          {{"rate_post", r.bps()}});
        }
      }));
  subs_.push_back(src.on_loss().subscribe_scoped(
      [this, &timeout_losses](TimePoint t, const sim::Packet& p,
                              bool timeout) {
        if (!timeout) return;
        timeout_losses.inc();
        if (trace_) {
          trace_->instant(t, ChromeTraceWriter::kTransportTrack,
                          "timeout_loss",
                          {{"seq", p.seq}, {"layer", p.layer}});
        }
      }));
  subs_.push_back(src.on_quiescence().subscribe_scoped(
      [this, enter_kind, exit_kind, &quiescence](TimePoint t, bool active) {
        if (active) quiescence.inc();
        flightrec_note(t, active ? enter_kind : exit_kind, "{}");
        if (trace_) {
          trace_->instant(t, ChromeTraceWriter::kTransportTrack,
                          active ? "quiescence_enter" : "quiescence_exit");
        }
      }));
}

void Observability::attach_adapter(core::QualityAdapter& adapter) {
  adapter.metrics().register_metrics(registry_, "adapter");
  Counter& padding = registry_.counter("adapter.padding_slots");
  Counter& media = registry_.counter("adapter.media_packets");
  Histogram& buf_hist = registry_.histogram("adapter.total_buffer_bytes");
  subs_.push_back(adapter.on_drop().subscribe_scoped(
      [this](const core::DropEvent& e) {
        flightrec_note(e.time, "adapter.layer_drop",
                       "{\"layer\":" + json_number(int64_t{e.layer}) + "}");
        if (!trace_) return;
        trace_->instant(e.time, ChromeTraceWriter::kAdapterTrack,
                        "layer_drop",
                        {{"layer", e.layer},
                         {"dropped_buf", e.dropped_buf},
                         {"total_buf", e.total_buf},
                         {"required_buf", e.required_buf},
                         {"poor_distribution", e.poor_distribution}});
      }));
  subs_.push_back(
      adapter.on_add().subscribe_scoped([this](const core::AddEvent& e) {
        flightrec_note(
            e.time, "adapter.layer_add",
            "{\"active_layers\":" + json_number(int64_t{e.new_active_layers}) +
                "}");
        if (!trace_) return;
        trace_->instant(e.time, ChromeTraceWriter::kAdapterTrack, "layer_add",
                        {{"active_layers", e.new_active_layers}});
      }));
  subs_.push_back(adapter.on_allocation().subscribe_scoped(
      [this, &padding, &media,
       &buf_hist](const core::QualityAdapter::AllocationDecision& d) {
        (d.layer == core::QualityAdapter::kPaddingSlot ? padding : media)
            .inc();
        buf_hist.observe(d.total_buf);
        if (trace_) {
          trace_->counter(d.time, ChromeTraceWriter::kAdapterTrack,
                          "adapter buffer", "total_bytes", d.total_buf);
        }
      }));
}

void Observability::attach_client(VideoClient& client) {
  client.rebuffers().register_metrics(registry_, "client.rebuffer");
  registry_.register_gauge("client.base_buffer_bytes",
                           [&client] { return client.buffer(0); });
  // Cumulative paused-playout seconds as a monotone gauge: recorded as a
  // trajectory, its window delta over W seconds is the rebuffer *ratio*
  // over W — the canonical SLO numerator. After the scheduler detaches
  // (final artifact snapshot in finish()), an open pause accrues to the
  // recorded end time.
  registry_.register_gauge("client.rebuffer.paused_s", [this, &client] {
    return client.rebuffers()
        .total_paused(sched_ != nullptr ? sched_->now() : end_time_)
        .sec();
  });

  subs_.push_back(client.on_rebuffer().subscribe_scoped(
      [this](TimePoint t, bool paused) {
        flightrec_note(
            t, paused ? "client.rebuffer_start" : "client.rebuffer_end", "{}");
        if (!trace_) return;
        trace_->instant(t, ChromeTraceWriter::kClientTrack,
                        paused ? "rebuffer_start" : "rebuffer_end");
      }));
  subs_.push_back(client.on_buffer_level().subscribe_scoped(
      [this](TimePoint t, double bytes) {
        if (!trace_) return;
        trace_->counter(t, ChromeTraceWriter::kClientTrack, "client buffer",
                        "base_bytes", bytes);
      }));
}

void Observability::attach_session(Session& session) {
  attach_controller(session.controller());
  attach_adapter(session.server().adapter());
  attach_client(session.client());
  if (cfg_.journeys) {
    session.controller().set_journey_recorder(&journeys_);
    session.ack_sink().set_journey_recorder(&journeys_);
    session.client().set_journey_recorder(&journeys_);
  }
}

void Observability::attach_fault_injector(sim::FaultInjector& inj) {
  Counter& faults = registry_.counter("fault.events");
  subs_.push_back(inj.on_fault().subscribe_scoped(
      [this, &faults](const sim::FaultEvent& ev) {
        faults.inc();
        const char* kind = sim::to_string(ev.kind);
        flightrec_note(ev.at, std::string("fault.") + kind,
                       "{\"fault\": " + json_quote(kind) +
                           ", \"value\": " + json_number(ev.value) + "}");
        if (trace_) {
          trace_->instant(ev.at, ChromeTraceWriter::kLinkTrack,
                          std::string("fault ") + kind,
                          {{"value", ev.value}});
        }
      }));
}

void Observability::flightrec_note(TimePoint t, std::string_view kind,
                                   std::string detail_json) {
  if (flightrec_) flightrec_->note(t, kind, std::move(detail_json));
}

void Observability::on_journey_span(const JourneySpan& span) {
  if (flightrec_) flightrec_->note_journey(span, journeys_);
  // Lifecycle milestones only — the per-hop churn (enqueue, tx
  // start/complete) stays in the flight recorder, keeping trace-lane
  // volume proportional to packets, not hops.
  switch (span.stage) {
    case JourneyStage::kEnqueue:
    case JourneyStage::kTxStart:
    case JourneyStage::kTxComplete:
      return;
    default:
      break;
  }
  if (!trace_ || span.layer < 0) return;
  const int track = ChromeTraceWriter::kJourneyTrackBase + span.layer;
  const auto layer = static_cast<size_t>(span.layer);
  if (layer >= journey_track_named_.size()) {
    journey_track_named_.resize(layer + 1, false);
  }
  if (!journey_track_named_[layer]) {
    journey_track_named_[layer] = true;
    trace_->name_track(track, "video layer " + std::to_string(span.layer));
  }
  const auto id = static_cast<int64_t>(span.id);
  const char* stage = journey_stage_name(span.stage);
  if (span.hop == kNoHop) {
    trace_->instant(span.at, track, stage,
                    {{"id", id}, {"seq", span.seq},
                     {"layer_seq", span.layer_seq}});
  } else {
    trace_->instant(span.at, track, stage,
                    {{"id", id}, {"seq", span.seq},
                     {"layer_seq", span.layer_seq},
                     {"hop", journeys_.hop_name(span.hop)}});
  }
}

void Observability::finish() {
  if (finished_) return;
  finished_ = true;
  if (sched_ != nullptr) end_time_ = sched_->now();
  // Drop subscriptions first: nothing may write to the trace after close.
  subs_.clear();
  // A run that finished cleanly needs no crash dump.
  if (flightrec_) flightrec_->disarm();
  if (sched_) {
    sched_->set_profiler(nullptr);
    sched_ = nullptr;
  }
  if (!cfg_.out_dir.empty() && cfg_.metrics) {
    registry_.write_csv(cfg_.out_dir + "/metrics.csv");
    registry_.write_json(cfg_.out_dir + "/metrics.json");
  }
  if (!cfg_.out_dir.empty()) {
    manifest_.write_json(cfg_.out_dir + "/manifest.json");
  }
  if (trace_) {
    trace_->close();
    trace_.reset();
  }
}

}  // namespace qa::app
