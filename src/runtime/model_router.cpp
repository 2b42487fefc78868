#include "runtime/model_router.h"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/exposition.h"
#include "obs/log.h"
#include "obs/metrics.h"

namespace cn::runtime {

ModelRouter::ModelRouter(const ModelRouterOptions& opts) : opts_(opts) {
  if (opts_.max_live_total < 0)
    throw std::invalid_argument("ModelRouter: max_live_total must be >= 0");
  statusz_section_ = obs::statusz_add_section("model router", [this] {
    std::string out;
    for (const auto& [id, st] : stats()) {
      char buf[256];
      std::snprintf(buf, sizeof(buf),
                    "%s: %llu requests, %llu rejected, %s, "
                    "%d active workers (%d drilled)\n",
                    id.c_str(), static_cast<unsigned long long>(st.requests),
                    static_cast<unsigned long long>(st.rejected),
                    st.accepting ? "accepting" : "rejecting",
                    st.active_workers, st.drilled_workers);
      out += buf;
    }
    out += "live slots used: " + std::to_string(live_slots_used());
    if (opts_.max_live_total > 0)
      out += " / " + std::to_string(opts_.max_live_total);
    return out;
  });
}

ModelRouter::~ModelRouter() {
  if (statusz_section_) obs::statusz_remove_section(statusz_section_);
  shutdown();
}

void ModelRouter::charge_budget(const std::string& id, ChipFarmOptions& fo) {
  // Charge what the farm will keep live; the clamped value becomes its
  // max_live, so the farm keeps exactly the charge.
  int64_t requested = ChipFarm::live_slots(fo);
  if (opts_.max_live_total > 0) {
    const int64_t remaining = opts_.max_live_total - live_slots_used_;
    if (remaining <= 0)
      throw std::invalid_argument(
          "ModelRouter: live-slot budget exhausted (" +
          std::to_string(opts_.max_live_total) + " slots, adding model \"" +
          id + "\")");
    if (requested > remaining) {
      obs::log_info("[router] clamping model \"" + id + "\" to " +
                    std::to_string(remaining) + " live slots (budget " +
                    std::to_string(opts_.max_live_total) + ", used " +
                    std::to_string(live_slots_used_) + ")");
      requested = remaining;
    }
  }
  fo.max_live = requested;
}

void ModelRouter::add_lane(
    const std::string& id, ChipFarmOptions farm_opts,
    InferenceServerOptions server_opts,
    const std::function<std::unique_ptr<ChipFarm>(const ChipFarmOptions&)>&
        build_farm) {
  if (id.empty())
    throw std::invalid_argument("ModelRouter: empty model id");
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (lanes_.count(id))
      throw std::invalid_argument("ModelRouter: duplicate model id \"" + id +
                                  "\"");
    charge_budget(id, farm_opts);
    // Reserve the id (a placeholder lane blocks duplicate registration) and
    // the budget before dropping the lock for the build.
    live_slots_used_ += farm_opts.max_live;
    lanes_.emplace(id, Lane{});
  }
  Lane lane;
  try {
    lane.farm = build_farm(farm_opts);
    server_opts.model = id;
    lane.server = std::make_unique<InferenceServer>(*lane.farm, server_opts);
  } catch (...) {
    std::lock_guard<std::mutex> lk(mu_);
    lanes_.erase(id);
    live_slots_used_ -= farm_opts.max_live;
    throw;
  }
  std::lock_guard<std::mutex> lk(mu_);
  lanes_[id] = std::move(lane);
  obs::metrics().gauge("router.models").set(static_cast<double>(lanes_.size()));
  obs::metrics().gauge("router.live_slots").set(
      static_cast<double>(live_slots_used_));
}

void ModelRouter::add_model(const std::string& id, const nn::Sequential& base,
                            const analog::VariationModel& vm,
                            ChipFarmOptions farm_opts,
                            InferenceServerOptions server_opts) {
  add_lane(id, std::move(farm_opts), std::move(server_opts),
           [&](const ChipFarmOptions& fo) {
             return std::make_unique<ChipFarm>(base, vm, fo);
           });
}

void ModelRouter::add_model(const std::string& id, const nn::Sequential& base,
                            const analog::RramDeviceParams& dev,
                            ChipFarmOptions farm_opts,
                            InferenceServerOptions server_opts,
                            analog::FaultList faults) {
  add_lane(id, std::move(farm_opts), std::move(server_opts),
           [&](const ChipFarmOptions& fo) {
             return std::make_unique<ChipFarm>(base, dev, fo, faults);
           });
}

ModelRouter::Lane& ModelRouter::lane(const std::string& id) {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = lanes_.find(id);
  // A placeholder (mid-registration) lane is not routable yet.
  if (it == lanes_.end() || !it->second.server) {
    std::string known;
    for (const auto& [lid, l] : lanes_) {
      (void)l;
      known += known.empty() ? lid : ", " + lid;
    }
    throw std::out_of_range("ModelRouter: unknown model \"" + id +
                            "\" (registered: " +
                            (known.empty() ? "<none>" : known) + ")");
  }
  return it->second;
}

std::future<Tensor> ModelRouter::submit(const std::string& id, Tensor input) {
  // The lane reference stays valid after mu_ drops (std::map node
  // stability; lanes are never erased while the router lives), so the
  // submit itself runs without the router lock — lanes don't serialize on
  // each other.
  return lane(id).server->submit(std::move(input));
}

InferenceServer& ModelRouter::server(const std::string& id) {
  return *lane(id).server;
}

ChipFarm& ModelRouter::farm(const std::string& id) { return *lane(id).farm; }

void ModelRouter::drill(const std::string& id, const DrillSpec& spec) {
  lane(id).server->drill(spec);
}

void ModelRouter::undrill(const std::string& id) { lane(id).server->undrill(); }

std::vector<std::string> ModelRouter::model_ids() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> ids;
  ids.reserve(lanes_.size());
  for (const auto& [id, l] : lanes_)
    if (l.server) ids.push_back(id);
  return ids;
}

std::map<std::string, ServerStats> ModelRouter::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::map<std::string, ServerStats> out;
  for (const auto& [id, l] : lanes_)
    if (l.server) out.emplace(id, l.server->stats());
  return out;
}

int64_t ModelRouter::live_slots_used() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_slots_used_;
}

void ModelRouter::shutdown() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [id, l] : lanes_) {
    (void)id;
    if (l.server) l.server->shutdown();
  }
}

}  // namespace cn::runtime
