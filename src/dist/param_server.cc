#include "dist/param_server.h"

#include "common/logging.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/timer.h"
#include "common/trace.h"
#include "tensor/ops.h"

namespace ecg::dist {

ParameterServerGroup::ParameterServerGroup(
    const std::vector<LayerShape>& shapes, uint32_t num_servers,
    uint32_t num_workers, float lr, uint64_t seed)
    : num_servers_(num_servers), num_workers_(num_workers), lr_(lr),
      pushed_(num_workers, false), pending_dw_(num_workers),
      pending_db_(num_workers) {
  ECG_CHECK(num_servers_ >= 1 && num_workers_ >= 1)
      << "need at least one server and one worker";
  Rng rng(seed);
  for (const auto& shape : shapes) {
    tensor::Matrix w(shape.in_dim, shape.out_dim);
    tensor::XavierInit(&w, &rng);
    weights_.push_back(std::move(w));
    biases_.emplace_back(1, shape.out_dim);
    w_opt_.emplace_back();
    b_opt_.emplace_back();
  }
}

ParameterServerGroup::ParamTrafficSample ParameterServerGroup::Pull(
    size_t layer, tensor::Matrix* w, tensor::Matrix* b) const {
  std::lock_guard<std::mutex> lock(mu_);
  ECG_CHECK(layer < weights_.size()) << "pull of unknown layer";
  *w = weights_[layer];
  *b = biases_[layer];
  ParamTrafficSample t;
  t.bytes = (w->size() + b->size()) * sizeof(float);
  t.messages = num_servers_;  // one slice per server (range partition)
  return t;
}

ParameterServerGroup::ParamTrafficSample ParameterServerGroup::Push(
    uint32_t worker, std::vector<tensor::Matrix> dw,
    std::vector<tensor::Matrix> db) {
  bool published = false;
  ParamTrafficSample t;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ECG_CHECK(worker < num_workers_) << "push from unknown worker";
    ECG_CHECK(!pushed_[worker]) << "double push from worker " << worker;
    ECG_CHECK(dw.size() == weights_.size() && db.size() == biases_.size())
        << "push layer count mismatch";

    for (const auto& m : dw) t.bytes += m.size() * sizeof(float);
    for (const auto& m : db) t.bytes += m.size() * sizeof(float);
    t.messages = num_servers_;

    pending_dw_[worker] = std::move(dw);
    pending_db_[worker] = std::move(db);
    pushed_[worker] = true;
    if (++pushes_this_epoch_ == num_workers_) {
      ApplyLocked();
      published = true;
    }
  }
  // Fired outside mu_: the callback may Pull() (same mutex) without
  // deadlocking.
  if (published) NotifyPublish();
  return t;
}

void ParameterServerGroup::SetPublishCallback(
    std::function<void(uint64_t)> cb) {
  publish_cb_ = std::move(cb);
}

void ParameterServerGroup::NotifyPublish() {
  const uint64_t v = version_.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (publish_cb_) publish_cb_(v);
}

void ParameterServerGroup::ApplyLocked() {
  // The apply runs on whichever worker thread pushed last; the span lands
  // on that thread's real-clock track under the server-side name.
  ECG_TRACE_SCOPE("ps_apply", /*worker=*/0, -1);
  ThreadCpuTimer apply_cpu;
  // Sum contributions in worker-id order: deterministic float reduction.
  for (size_t l = 0; l < weights_.size(); ++l) {
    tensor::Matrix dw_sum(weights_[l].rows(), weights_[l].cols());
    tensor::Matrix db_sum(1, biases_[l].cols());
    for (uint32_t w = 0; w < num_workers_; ++w) {
      tensor::AddInPlace(&dw_sum, pending_dw_[w][l]);
      tensor::AddInPlace(&db_sum, pending_db_[w][l]);
    }
    w_opt_[l].Step(dw_sum, lr_, &weights_[l]);
    b_opt_[l].Step(db_sum, lr_, &biases_[l]);
  }
  if (obs::StatsEnabled()) {
    obs::RecordStat("ps.apply_seconds", apply_cpu.ElapsedSeconds());
  }
  for (uint32_t w = 0; w < num_workers_; ++w) {
    pending_dw_[w].clear();
    pending_db_[w].clear();
    pushed_[w] = false;
  }
  pushes_this_epoch_ = 0;
}

void ParameterServerGroup::SaveTo(ByteWriter* w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w->PutU32(static_cast<uint32_t>(weights_.size()));
  for (size_t l = 0; l < weights_.size(); ++l) {
    tensor::SaveMatrix(weights_[l], w);
    tensor::SaveMatrix(biases_[l], w);
    w_opt_[l].SaveTo(w);
    b_opt_[l].SaveTo(w);
  }
}

Status ParameterServerGroup::LoadFrom(ByteReader* r) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    uint32_t layers = 0;
    ECG_RETURN_IF_ERROR(r->GetU32(&layers));
    if (layers != weights_.size()) {
      return Status::InvalidArgument(
          "parameter checkpoint has " + std::to_string(layers) +
          " layers, server group holds " + std::to_string(weights_.size()));
    }
    for (size_t l = 0; l < weights_.size(); ++l) {
      ECG_RETURN_IF_ERROR(tensor::LoadMatrix(r, &weights_[l]));
      ECG_RETURN_IF_ERROR(tensor::LoadMatrix(r, &biases_[l]));
      ECG_RETURN_IF_ERROR(w_opt_[l].LoadFrom(r));
      ECG_RETURN_IF_ERROR(b_opt_[l].LoadFrom(r));
    }
    for (uint32_t w = 0; w < num_workers_; ++w) {
      pending_dw_[w].clear();
      pending_db_[w].clear();
      pushed_[w] = false;
    }
    pushes_this_epoch_ = 0;
  }
  // A restore rewrites the parameters just like an apply does.
  NotifyPublish();
  return Status::OK();
}

}  // namespace ecg::dist
